#ifndef ABR_DISK_SEEK_MODEL_H_
#define ABR_DISK_SEEK_MODEL_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/types.h"

namespace abr::disk {

/// Analytic seek-time model: milliseconds as a function of seek distance in
/// cylinders. The paper's Table 1 gives measured piecewise models for both
/// experimental drives; this class evaluates such models and precomputes a
/// per-distance table for O(1) lookup during simulation.
///
/// The simulator reads the table. The analytic function is also exposed
/// as a reference evaluator, AnalyticMillis(), which the differential
/// test checks the table against at every distance.
class SeekModel {
 public:
  /// Builds a model from an arbitrary distance->milliseconds function,
  /// tabulated over [0, max_distance]. fn(0) is overridden to 0: a
  /// zero-length seek takes no time by definition.
  SeekModel(std::function<double(std::int64_t)> fn, std::int64_t max_distance);

  /// Seek time in milliseconds for a distance in cylinders.
  double Millis(std::int64_t distance) const {
    assert(distance >= 0 && distance <= max_distance());
    return table_ms_[static_cast<std::size_t>(distance)];
  }

  /// Seek time in simulator time units, rounded to the microsecond.
  Micros TimeFor(std::int64_t distance) const {
    assert(distance >= 0 && distance <= max_distance());
    return table_us_[static_cast<std::size_t>(distance)];
  }

  /// Reference evaluator: the analytic function itself, evaluated per call
  /// with the same fn(0)->0 override the table applies. Millis(d) equals
  /// it and TimeFor(d) equals MillisToMicros of it, bit for bit.
  double AnalyticMillis(std::int64_t distance) const {
    assert(distance >= 0 && distance <= max_distance());
    return distance == 0 ? 0.0 : fn_(distance);
  }

  /// Largest tabulated distance (the drive's cylinder count - 1).
  std::int64_t max_distance() const {
    return static_cast<std::int64_t>(table_ms_.size()) - 1;
  }

  /// Table 1, Toshiba MK156F (815 cylinders):
  ///   0                                        if d == 0
  ///   6.248 + 1.393*sqrt(d) - 0.99*cbrt(d) + 0.813*ln(d)   if d < 315
  ///   17.503 + 0.03*d                          if d >= 315
  static SeekModel ToshibaMK156F();

  /// Table 1, Fujitsu M2266 (1658 cylinders):
  ///   0                                        if d == 0
  ///   1.205 + 0.65*sqrt(d) - 0.734*cbrt(d) + 0.659*ln(d)   if d <= 225
  ///   7.44 + 0.0114*d                          if d > 225
  static SeekModel FujitsuM2266();

  /// A simple linear-plus-constant model, handy for tests:
  /// ms(d) = 0 for d == 0, else base_ms + per_cyl_ms * d.
  static SeekModel Linear(double base_ms, double per_cyl_ms,
                          std::int64_t max_distance);

 private:
  std::function<double(std::int64_t)> fn_;
  std::vector<double> table_ms_;
  std::vector<Micros> table_us_;
};

}  // namespace abr::disk

#endif  // ABR_DISK_SEEK_MODEL_H_

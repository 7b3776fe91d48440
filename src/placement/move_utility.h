#ifndef ABR_PLACEMENT_MOVE_UTILITY_H_
#define ABR_PLACEMENT_MOVE_UTILITY_H_

#include <cstdint>

#include "disk/seek_model.h"
#include "util/types.h"

namespace abr::placement {

/// I/Os charged per admitted move (copy-in and clean-out chains are a data
/// read, a data write, and a table write).
inline constexpr std::int32_t kChainIos = 3;

/// Prices one candidate rearrangement action the way "Cost-Oblivious
/// Storage Reallocation" frames it: expected seek-time savings from the
/// analyzer's reference counts versus the movement cost of the chain that
/// would realize them. All times come from the drive's own seek model, so
/// the comparison is in consistent simulated-microsecond units.
class MoveUtilityModel {
 public:
  /// `model` must outlive this object. `center` is the reserved region's
  /// center cylinder (where the organ-pipe layout puts the hottest block);
  /// a reference served from near it costs essentially no seek.
  MoveUtilityModel(const disk::SeekModel* model, Cylinder center);

  /// Expected seek time saved by one reference when the block moves from
  /// its home cylinder into the region (home -> center distance).
  Micros SavingsPerReference(Cylinder home_cylinder) const;

  /// Disk time one admitted copy-in chain consumes: chain_ios I/Os, each
  /// charged an average-stroke seek (a random seek covers about a third
  /// of the surface).
  Micros MoveCost(std::int32_t chain_ios) const;

  /// Disk time one intra-region shuffle chain consumes. The whole chain
  /// stays inside the reserved region, so each I/O is charged the short
  /// from->to hop rather than an average stroke — pricing a one-slot
  /// reshuffle like a cross-disk copy would reject nearly every rank
  /// reordering the drift actually pays for.
  Micros ShuffleCost(std::int32_t chain_ios, Cylinder from_cylinder,
                     Cylinder to_cylinder) const;

  /// Admission test for bringing a block with `refs` references per day
  /// from `home_cylinder` into the region.
  bool AdmitCopy(std::int64_t refs, Cylinder home_cylinder, double threshold,
                 std::int32_t chain_ios) const;

  /// Admission test for an intra-region shuffle from the slot on
  /// `from_cylinder` to the slot on `to_cylinder`: only the change in
  /// distance-to-center is bought, so equal-cylinder shuffles (pure rank
  /// reordering) price at zero and are never admitted.
  bool AdmitShuffle(std::int64_t refs, Cylinder from_cylinder,
                    Cylinder to_cylinder, double threshold,
                    std::int32_t chain_ios) const;

  Cylinder center() const { return center_; }

 private:
  const disk::SeekModel* model_;
  Cylinder center_;
};

/// Online admission threshold with hysteresis: a move is admitted when
/// its expected per-day seek-time savings are at least value() times its
/// movement I/O cost. Each day's outcome nudges it: a plan the idle time
/// could not finish means the arranger admitted too much (raise the bar);
/// a plan that finished with rejected candidates still waiting means there
/// was idle budget to spare (lower it); anything in between leaves it
/// alone.
class UtilityThreshold {
 public:
  /// The floor, and the starting value: break-even, where a move must pay
  /// for itself within a day. Below it a move consumes more disk time than
  /// it saves, so the threshold only rises above it when idle time is
  /// scarce and relaxes back down once plans finish again.
  static constexpr double kMin = 1.0;
  static constexpr double kMax = 256.0;

  /// Multiplicative adjustment step (CBR-style bucket rescaling: destor's
  /// rewrite utility moves its admission boundary a bucket at a time; we
  /// move a factor at a time).
  static constexpr double kStep = 2.0;

  /// Hysteresis: the threshold is raised only when the executed fraction
  /// of the admitted plan falls below this water mark, and lowered only
  /// when the plan finished completely AND utility-rejected candidates
  /// were left on the table. Between the two lies a deadband where the
  /// threshold holds still, so it cannot oscillate on a stable workload.
  static constexpr double kLowWater = 0.85;

  double value() const { return value_; }

  /// Folds in one day's outcome: `admitted` moves planned, `executed` of
  /// them landed before day end, `rejected` candidates priced out.
  void Update(std::int64_t admitted, std::int64_t executed,
              std::int64_t rejected);

 private:
  double value_ = kMin;
};

}  // namespace abr::placement

#endif  // ABR_PLACEMENT_MOVE_UTILITY_H_

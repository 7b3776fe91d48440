#ifndef ABR_CORE_ONOFF_H_
#define ABR_CORE_ONOFF_H_

#include <functional>
#include <vector>

#include "core/day_runner.h"
#include "core/experiment.h"
#include "core/metrics.h"
#include "stats/summary.h"
#include "util/status.h"

namespace abr::core {

/// Min/avg/max of the daily mean seek, service, and waiting times over a
/// set of days — one row of the paper's summary tables (2, 4, 5, 6).
struct SummaryRow {
  stats::Summary seek_ms;
  stats::Summary service_ms;
  stats::Summary wait_ms;

  /// Folds in one day's slice.
  void Add(const SliceMetrics& m) {
    seek_ms.Add(m.mean_seek_ms);
    service_ms.Add(m.mean_service_ms);
    wait_ms.Add(m.mean_wait_ms);
  }
};

/// Result of an alternating on/off run.
struct OnOffResult {
  std::vector<DayMetrics> off_days;
  std::vector<DayMetrics> on_days;

  /// Summary over the given days for the chosen slice.
  enum class Slice { kAll, kReads, kWrites };
  static SummaryRow Summarize(const std::vector<DayMetrics>& days,
                              Slice slice);
};

/// Runs the on/off protocol of Sections 5.2–5.3 on any day runner: a
/// warm-up day (counts only), then `days_per_side` "off" days alternating
/// with `days_per_side` "on" days, starting "off" as the paper's Table 3
/// does. On-day rearrangements (or continuous plans) always use the
/// reference counts of the immediately preceding day, as the paper's daily
/// procedure does. `after_day`, when set, runs after every measured day,
/// the warm-up included (the array's reattach maintenance).
StatusOr<OnOffResult> RunOnOffLoop(
    DayRunner& runner, std::int32_t days_per_side,
    const std::function<Status()>& after_day = nullptr);

/// The protocol on a serial experiment that has not been set up yet
/// (RunOnOff calls Setup()).
StatusOr<OnOffResult> RunOnOff(Experiment& experiment,
                               std::int32_t days_per_side);

/// The same protocol on an experiment that is already Setup() — the form
/// usable as a ParallelRunner task, whose runner owns experiment setup.
StatusOr<OnOffResult> RunOnOffDays(Experiment& experiment,
                                   std::int32_t days_per_side);

/// Flattens an on/off result into measured-day order (off day 0, on day 0,
/// off day 1, ...) — the shape ExperimentTask results use.
std::vector<DayMetrics> InterleaveOnOff(const OnOffResult& result);

/// Inverse of InterleaveOnOff: splits a day-ordered vector back into
/// alternating off/on sides.
OnOffResult SplitOnOff(const std::vector<DayMetrics>& days);

}  // namespace abr::core

#endif  // ABR_CORE_ONOFF_H_

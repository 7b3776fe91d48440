#ifndef ABR_CORE_DAY_RUNNER_H_
#define ABR_CORE_DAY_RUNNER_H_

#include <cstdint>

#include "core/metrics.h"
#include "util/status.h"

namespace abr::core {

/// The paper's daily procedure on one simulated system: measured days of
/// traffic, each prepared by an end-of-day pass over the counts of the day
/// before. core::Experiment runs it on the serial file-server stack and
/// ArrayDayRunner on an ArrayDevice (an array or the sharded fleet); the
/// on/off loop (RunOnOffLoop) and abrsim's grid commands drive either
/// through this interface.
class DayRunner {
 public:
  virtual ~DayRunner() = default;

  /// One measured day. The metrics carry the ArrangeResult of the pass
  /// that prepared it (in continuous mode, the day's own plan).
  virtual StatusOr<DayMetrics> RunMeasuredDay() = 0;

  /// Rearranges from the counts of the day just run, then resets them.
  virtual Status RearrangeForNextDay() = 0;

  /// Empties the reserved area for an "off" day, then resets the counts.
  virtual Status CleanForNextDay() = 0;

  /// Continuous mode: opens the next day's utility-priced plan from the
  /// day's counts instead of running a batch pass.
  virtual Status OpenContinuousPlanForNextDay() = 0;

  /// True when "on" days open continuous plans.
  virtual bool continuous() const = 0;

  /// Changes how many blocks the next rearrangement moves.
  virtual void set_rearrange_blocks(std::int32_t n) = 0;

  /// Applies day-to-day workload drift at a day boundary (file-server
  /// workloads drift; synthetic block traffic does not).
  virtual void AdvanceWorkloadDay() {}
};

}  // namespace abr::core

#endif  // ABR_CORE_DAY_RUNNER_H_

#ifndef ABR_CORE_ARRAY_DAY_H_
#define ABR_CORE_ARRAY_DAY_H_

#include <cstdint>
#include <vector>

#include "array/array_device.h"
#include "core/day_runner.h"
#include "core/metrics.h"
#include "core/onoff.h"
#include "util/status.h"
#include "util/types.h"
#include "workload/synthetic.h"

namespace abr::core {

/// Workload half of a measured day on an ArrayDevice.
struct ArrayDayConfig {
  workload::SyntheticConfig synthetic;
  Micros day_length = 15 * kHour;
  std::uint64_t seed = 0xAB12;
  /// Generation chunk: traffic is generated and submitted one chunk at a
  /// time so RAID1 read routing sees the head positions the preceding
  /// chunk left behind rather than a day-start snapshot. A sharded fleet
  /// generates on its barrier grid (chunk = ArrayConfig::epoch).
  Micros chunk = 2 * kMinute;
  /// Blocks the traffic addresses, from block 0 (0: the whole device). A
  /// sharded fleet addresses one member's blocks, which RAID0 at chunk 1
  /// stripes across every member.
  std::int64_t span_blocks = 0;
};

/// Runs measured days of synthetic traffic against an ArrayDevice with the
/// paper's daily protocol (clear stats, traffic, quiesce, snapshot).
/// Chunks are generated and submitted in order. On a mirror each chunk is
/// stepped before the next is generated, which keeps shortest-seek read
/// routing deterministic for any member/thread count; a device whose
/// routing reads no member state (ArrayDevice::submits_while_stepping)
/// gets the next window generated while it steps the current one. On an
/// adaptive-epoch device, quiet stretches batch whole chunks ahead of one
/// AdvanceTo — gated by BarrierEngine::PlanSubmitHorizon so the result
/// stays bit-identical to the chunk-at-a-time protocol.
class ArrayDayRunner : public DayRunner {
 public:
  /// `device` must be Start()ed and outlive the runner.
  ArrayDayRunner(array::ArrayDevice* device, const ArrayDayConfig& config);

  /// One measured day. The returned metrics carry the ArrangeResult of
  /// the pass that prepared the day (in continuous mode, the day's own
  /// plan) and sum `elapsed` over members.
  StatusOr<DayMetrics> RunMeasuredDay() override;

  /// End-of-day passes, mirroring Experiment. An array skips both
  /// internally (and counts them) while it is degraded.
  Status RearrangeForNextDay() override;
  Status CleanForNextDay() override;
  Status OpenContinuousPlanForNextDay() override;

  bool continuous() const override { return device_->continuous(); }
  void set_rearrange_blocks(std::int32_t n) override {
    device_->set_rearrange_blocks(n);
  }

  const placement::ArrangeResult& last_arrange() const {
    return last_arrange_;
  }
  std::int64_t requests_generated() const { return requests_; }
  std::int32_t day() const { return day_; }
  array::ArrayDevice& device() { return *device_; }

 private:
  array::ArrayDevice* device_;
  ArrayDayConfig config_;
  workload::SyntheticBlockWorkload workload_;
  workload::Trace trace_;
  placement::ArrangeResult last_arrange_;
  std::int64_t requests_ = 0;
  std::int32_t day_ = 0;
};

/// The on/off protocol (RunOnOffLoop) over an array runner, plus the
/// availability story: if a member dies during a day (a timed crash point
/// in its fault plan), the array keeps serving degraded and the loop
/// reattaches the member after `reattach_after_days` further measured
/// days, resyncing divergent granules in the background of subsequent
/// traffic.
struct ArrayOnOffResult : OnOffResult {
  std::int32_t crashes_seen = 0;
  std::int32_t resyncs_completed = 0;
  std::int64_t passes_skipped_degraded = 0;
  std::int64_t lost_requests = 0;
  std::int32_t spares_used = 0;
};
StatusOr<ArrayOnOffResult> RunArrayOnOff(ArrayDayRunner& runner,
                                         std::int32_t days_per_side,
                                         std::int32_t reattach_after_days = 1);

}  // namespace abr::core

#endif  // ABR_CORE_ARRAY_DAY_H_

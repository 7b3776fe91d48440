#include "core/array_day.h"

#include <algorithm>
#include <utility>

namespace abr::core {

ArrayDayRunner::ArrayDayRunner(array::ArrayDevice* device,
                               const ArrayDayConfig& config)
    : device_(device),
      config_(config),
      workload_(/*device=*/0,
                config.span_blocks > 0 ? config.span_blocks
                                       : device->device_blocks(),
                config.synthetic, config.seed) {}

StatusOr<DayMetrics> ArrayDayRunner::RunMeasuredDay() {
  array::ArrayDevice& dev = *device_;
  (void)dev.ReadStatsMerged(/*clear=*/true);
  const std::int64_t barriers_before = dev.barriers();
  const double stall_before = dev.barrier_stall_wall();
  const double merge_before = dev.barrier_merge_wall();
  const Micros start = dev.now();
  const Micros end = start + config_.day_length;

  // Chunks are day-relative durations, so every configuration sees the
  // identical per-day request sequence; only the absolute start shifts.
  // Under an adaptive device, quiet stretches batch several chunks into
  // one submit-and-advance window (the device's submit horizon proves the
  // batched routing bit-identical); generation itself always stays on the
  // chunk grid so the request sequence cannot depend on the windowing.
  const std::int32_t max_chunks =
      std::max<std::int32_t>(1, dev.max_epoch_grids());
  Micros gen = start;  // how far generation has run
  const auto generate_until = [&](Micros until) -> Status {
    while (gen < until && gen < end) {
      const Micros piece_end = std::min(end, gen + config_.chunk);
      trace_.Clear();
      workload_.Generate(gen, piece_end, trace_);
      requests_ += static_cast<std::int64_t>(trace_.size());
      ABR_RETURN_IF_ERROR(
          dev.SubmitBatch(trace_.records().data(), trace_.size()));
      gen = piece_end;
    }
    return Status::Ok();
  };
  Micros cur = start;
  while (cur < end) {
    Micros cur_end = std::min(end, cur + config_.chunk);
    if (dev.adaptive_epoch()) {
      const Micros horizon = dev.PlanSubmitHorizon(end);
      for (std::int32_t k = 1; k < max_chunks && cur_end < end; ++k) {
        const Micros next = std::min(end, cur_end + config_.chunk);
        if (next > horizon) break;
        cur_end = next;
      }
    }
    ABR_RETURN_IF_ERROR(generate_until(cur_end));
    if (dev.submits_while_stepping()) {
      // While the members service this window, generate and route roughly
      // the next window's traffic, keeping generation off the parallel
      // critical path. Records wait in staging until their grid comes up.
      const Micros ahead = std::min(end, cur_end + (cur_end - cur));
      ABR_RETURN_IF_ERROR(
          dev.AdvanceTo(cur_end, [&] { return generate_until(ahead); }));
    } else {
      // Routing reads member state (RAID1 head positions, write
      // tracking) or races a member death, so each chunk is generated
      // only after the one before it has been stepped.
      ABR_RETURN_IF_ERROR(dev.AdvanceTo(cur_end));
    }
    cur = cur_end;
  }

  StatusOr<Micros> quiesce = dev.Drain();
  if (!quiesce.ok()) return quiesce.status();
  ++day_;
  DayMetrics metrics =
      DayMetrics::From(dev.ReadStatsMerged(/*clear=*/true), dev.seek_model());
  // Every member ran the same span; the device's disk-time budget for
  // idle accounting is the span times the member count.
  metrics.elapsed = (*quiesce - start) * dev.member_count();
  metrics.barriers = dev.barriers() - barriers_before;
  metrics.barrier_stall_wall = dev.barrier_stall_wall() - stall_before;
  metrics.barrier_merge_wall = dev.barrier_merge_wall() - merge_before;
  if (dev.continuous_plan_open()) {
    metrics.arrange = dev.CloseContinuousDayAll();
  } else {
    metrics.arrange = last_arrange_;
  }
  last_arrange_ = placement::ArrangeResult{};
  return metrics;
}

Status ArrayDayRunner::RearrangeForNextDay() {
  StatusOr<placement::ArrangeResult> result = device_->RearrangeAll();
  if (result.ok()) last_arrange_ = *result;
  return result.status();
}

Status ArrayDayRunner::CleanForNextDay() {
  StatusOr<placement::ArrangeResult> result = device_->CleanAll();
  if (result.ok()) last_arrange_ = *result;
  return result.status();
}

Status ArrayDayRunner::OpenContinuousPlanForNextDay() {
  last_arrange_ = placement::ArrangeResult{};
  return device_->OpenContinuousPlanAll();
}

StatusOr<ArrayOnOffResult> RunArrayOnOff(ArrayDayRunner& runner,
                                         std::int32_t days_per_side,
                                         std::int32_t reattach_after_days) {
  array::ArrayDevice* dev = &runner.device();
  ArrayOnOffResult result;
  std::int32_t days_degraded = 0;
  bool crash_counted = false;

  // After each measured day: count a fresh crash, and reattach the dead
  // member once it has sat out `reattach_after_days` full days. Resync
  // then rides the idle gaps of the following days' traffic.
  const auto maintain = [&]() -> Status {
    if (!dev->degraded()) {
      days_degraded = 0;
      return Status::Ok();
    }
    if (!crash_counted) {
      ++result.crashes_seen;
      crash_counted = true;
    }
    ++days_degraded;
    if (days_degraded < reattach_after_days) return Status::Ok();
    for (std::int32_t m = 0; m < dev->members(); ++m) {
      if (dev->member_state(m) == array::MemberState::kDead) {
        ABR_RETURN_IF_ERROR(dev->ReattachMember(m));
      }
    }
    return Status::Ok();
  };

  StatusOr<OnOffResult> days = RunOnOffLoop(runner, days_per_side, maintain);
  if (!days.ok()) return days.status();
  static_cast<OnOffResult&>(result) = std::move(*days);
  result.resyncs_completed =
      static_cast<std::int32_t>(dev->resyncs_completed());
  result.passes_skipped_degraded = dev->passes_skipped_degraded();
  result.lost_requests = dev->lost_requests();
  result.spares_used = dev->spares_used();
  return result;
}

}  // namespace abr::core

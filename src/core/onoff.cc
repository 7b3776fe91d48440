#include "core/onoff.h"

#include <algorithm>

namespace abr::core {

SummaryRow OnOffResult::Summarize(const std::vector<DayMetrics>& days,
                                  Slice slice) {
  SummaryRow row;
  for (const DayMetrics& d : days) {
    switch (slice) {
      case Slice::kAll:
        row.Add(d.all);
        break;
      case Slice::kReads:
        row.Add(d.reads);
        break;
      case Slice::kWrites:
        row.Add(d.writes);
        break;
    }
  }
  return row;
}

StatusOr<OnOffResult> RunOnOff(Experiment& experiment,
                               std::int32_t days_per_side) {
  ABR_RETURN_IF_ERROR(experiment.Setup());
  return RunOnOffDays(experiment, days_per_side);
}

StatusOr<OnOffResult> RunOnOffDays(Experiment& experiment,
                                   std::int32_t days_per_side) {
  return RunOnOffLoop(experiment, days_per_side);
}

StatusOr<OnOffResult> RunOnOffLoop(DayRunner& runner,
                                   std::int32_t days_per_side,
                                   const std::function<Status()>& after_day) {
  // Warm-up day: traffic and monitoring only; its counts seed the first
  // rearrangement if day 0 is an "on" day (it is not — we start "off").
  StatusOr<DayMetrics> warmup = runner.RunMeasuredDay();
  if (!warmup.ok()) return warmup.status();
  if (after_day) ABR_RETURN_IF_ERROR(after_day());

  OnOffResult result;
  const std::int32_t total_days = 2 * days_per_side;
  for (std::int32_t i = 0; i < total_days; ++i) {
    const bool on = (i % 2) == 1;
    if (on) {
      if (runner.continuous()) {
        ABR_RETURN_IF_ERROR(runner.OpenContinuousPlanForNextDay());
      } else {
        ABR_RETURN_IF_ERROR(runner.RearrangeForNextDay());
      }
    } else {
      ABR_RETURN_IF_ERROR(runner.CleanForNextDay());
    }
    runner.AdvanceWorkloadDay();
    StatusOr<DayMetrics> day = runner.RunMeasuredDay();
    if (!day.ok()) return day.status();
    (on ? result.on_days : result.off_days).push_back(std::move(day.value()));
    if (after_day) ABR_RETURN_IF_ERROR(after_day());
  }
  return result;
}

std::vector<DayMetrics> InterleaveOnOff(const OnOffResult& result) {
  std::vector<DayMetrics> days;
  days.reserve(result.off_days.size() + result.on_days.size());
  const std::size_t sides =
      std::max(result.off_days.size(), result.on_days.size());
  for (std::size_t i = 0; i < sides; ++i) {
    if (i < result.off_days.size()) days.push_back(result.off_days[i]);
    if (i < result.on_days.size()) days.push_back(result.on_days[i]);
  }
  return days;
}

OnOffResult SplitOnOff(const std::vector<DayMetrics>& days) {
  OnOffResult result;
  for (std::size_t i = 0; i < days.size(); ++i) {
    ((i % 2) == 1 ? result.on_days : result.off_days).push_back(days[i]);
  }
  return result;
}

}  // namespace abr::core

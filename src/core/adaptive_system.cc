#include "core/adaptive_system.h"

#include "analyzer/decaying_counter.h"
#include "analyzer/exact_counter.h"
#include "analyzer/space_saving_counter.h"

namespace abr::core {

namespace {

std::unique_ptr<analyzer::ReferenceCounter> MakeCounter(
    std::int32_t entries, double decay) {
  std::unique_ptr<analyzer::ReferenceCounter> base;
  if (entries > 0) {
    base = std::make_unique<analyzer::SpaceSavingCounter>(
        static_cast<std::size_t>(entries));
  } else {
    base = std::make_unique<analyzer::ExactCounter>();
  }
  if (decay > 0.0) {
    return std::make_unique<analyzer::DecayingCounter>(std::move(base),
                                                       decay);
  }
  return base;
}

}  // namespace

AdaptiveSystem::AdaptiveSystem(disk::Disk* disk, disk::DiskLabel label,
                               const AdaptiveSystemConfig& config,
                               driver::BlockTableStore* store)
    : config_(config) {
  driver_ = std::make_unique<driver::AdaptiveDriver>(
      disk, std::move(label), config.driver, store);
  analyzer_ = std::make_unique<analyzer::ReferenceStreamAnalyzer>(
      MakeCounter(config.analyzer_entries, config.count_decay));
  policy_ = placement::MakePolicy(config.policy, config.interleave_factor);
  arranger_ = std::make_unique<placement::BlockArranger>(policy_.get(),
                                                         config.arranger);
  if (config.continuous) {
    continuous_ =
        std::make_unique<placement::ContinuousArranger>(policy_.get());
  }
}

Status AdaptiveSystem::Start(bool after_crash) {
  ABR_RETURN_IF_ERROR(driver_->Attach(after_crash));
  if (continuous_ != nullptr) driver_->set_idle_sink(continuous_.get());
  return Status::Ok();
}

void AdaptiveSystem::PeriodicTick(Micros now) {
  if (now > driver_->now()) driver_->AdvanceTo(now);
  analyzer_->Drain(*driver_);
}

std::vector<analyzer::HotBlock> AdaptiveSystem::HotList() const {
  return analyzer_->HotList(
      static_cast<std::size_t>(config_.rearrange_blocks));
}

StatusOr<placement::ArrangeResult> AdaptiveSystem::Rearrange() {
  analyzer_->Drain(*driver_);
  StatusOr<placement::ArrangeResult> result =
      arranger_->Rearrange(*driver_, HotList());
  analyzer_->EndPeriod();
  return result;
}

StatusOr<placement::ArrangeResult> AdaptiveSystem::RearrangeFrom(
    const std::vector<analyzer::HotBlock>& ranked) {
  return arranger_->Rearrange(*driver_, ranked);
}

Status AdaptiveSystem::OpenContinuousPlan() {
  if (continuous_ == nullptr) {
    return Status::FailedPrecondition("continuous mode is not configured");
  }
  analyzer_->Drain(*driver_);
  Status s = continuous_->OpenPlan(*driver_, HotList());
  analyzer_->EndPeriod();
  return s;
}

placement::ArrangeResult AdaptiveSystem::CloseContinuousDay() {
  if (continuous_ == nullptr) return placement::ArrangeResult{};
  return continuous_->CloseDay();
}

Status AdaptiveSystem::Clean() {
  analyzer_->Drain(*driver_);
  ABR_RETURN_IF_ERROR(driver_->IoctlClean());
  driver_->Drain();
  analyzer_->EndPeriod();
  return Status::Ok();
}

}  // namespace abr::core

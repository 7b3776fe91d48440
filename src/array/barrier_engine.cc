#include "array/barrier_engine.h"

#include <chrono>
#include <limits>

#include "disk/disk.h"
#include "sim/lookahead.h"

namespace abr::array {

namespace {

/// Seconds elapsed since `t0` on the host clock (barrier stall/work
/// accounting only — never simulation state).
double WallSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

BarrierEngine::~BarrierEngine() = default;

void BarrierEngine::InitEngine(const Timing& timing) {
  timing_ = timing;
  lanes_.clear();
  lanes_.resize(static_cast<std::size_t>(timing_.members));
  pool_.reset();
  if (timing_.threads > 1 && timing_.members > 1) {
    pool_ = std::make_unique<ThreadPool>(static_cast<std::size_t>(
        std::min(timing_.threads, timing_.members)));
  }
}

void BarrierEngine::MarkStarted(Micros submit_floor) {
  started_ = true;
  advanced_to_ = now();
  last_submit_ = submit_floor;
}

Status BarrierEngine::CheckQuiesced() const {
  if (!started_) return Status::FailedPrecondition("Start() has not run");
  if (step_active_) return Status::FailedPrecondition("step active");
  return Status::Ok();
}

Status BarrierEngine::CheckSubmit(const workload::TraceRecord& record) {
  if (!started_) return Status::FailedPrecondition("Start() has not run");
  if (record.device != 0) {
    return Status::InvalidArgument("the virtual device has one partition");
  }
  if (record.block < 0 || record.block >= device_blocks()) {
    return Status::OutOfRange("block outside the virtual device");
  }
  if (record.time < last_submit_) {
    return Status::InvalidArgument("requests must be time-ordered");
  }
  last_submit_ = record.time;
  return Status::Ok();
}

void BarrierEngine::ClearLane(std::int32_t member) {
  Lane& lane = lanes_[static_cast<std::size_t>(member)];
  lane.pending.clear();
  lane.run_queue.clear();
  lane.run_cursor = 0;
}

void BarrierEngine::FlushPending() {
  for (Lane& lane : lanes_) {
    if (lane.pending.empty()) continue;
    lane.run_queue.insert(lane.run_queue.end(), lane.pending.begin(),
                          lane.pending.end());
    lane.pending.clear();
  }
}

Status BarrierEngine::FirstLaneError() const {
  for (const Lane& lane : lanes_) {
    if (!lane.status.ok()) return lane.status;
  }
  return Status::Ok();
}

void BarrierEngine::RunBarrierWork() {
  const auto t0 = std::chrono::steady_clock::now();
  AtBarrier();
  merge_wall_ += WallSince(t0);
}

bool BarrierEngine::SubmitRun(Lane& lane, driver::AdaptiveDriver& drv,
                              Micros until) {
  const std::vector<workload::TraceRecord>& q = lane.run_queue;
  std::size_t run_end = lane.run_cursor;
  while (run_end < q.size() && q[run_end].time <= until) ++run_end;
  // The driver bulk-loads the scheduler across busy spans and falls back
  // to the per-record path whenever an idle sink is armed.
  if (run_end > lane.run_cursor && !drv.halted()) {
    lane.batch.clear();
    lane.batch.reserve(run_end - lane.run_cursor);
    for (std::size_t k = lane.run_cursor; k < run_end; ++k) {
      const workload::TraceRecord& rec = q[k];
      lane.batch.push_back({rec.device, rec.block, rec.type, rec.time});
    }
    Status st = drv.SubmitBlockBatch(lane.batch.data(), lane.batch.size());
    if (!st.ok()) {
      lane.run_cursor = run_end;
      lane.status = st;
      return false;
    }
  }
  lane.run_cursor = run_end;
  return true;
}

void BarrierEngine::StepMember(std::int32_t member, Micros from,
                               Micros target) {
  Lane& lane = lanes_[static_cast<std::size_t>(member)];
  lane.status = Status::Ok();
  driver::AdaptiveDriver* drv = StepDriver(member);
  if (drv == nullptr) return;
  // A window covers whole grids; replay them one at a time so a fused
  // window computes exactly what grid-by-grid stepping would: the
  // submissions due by each boundary, an advance to it, and the boundary
  // hook (the grid ~= the paper's 2-minute monitoring period).
  Micros boundary = from;
  do {
    boundary = (target - boundary <= timing_.epoch) ? target
                                                    : boundary + timing_.epoch;
    if (!SubmitRun(lane, *drv, boundary)) return;
    if (!drv->halted() && boundary > drv->now()) drv->AdvanceTo(boundary);
    OnBoundary(member, boundary);
  } while (boundary < target);
  std::vector<workload::TraceRecord>& q = lane.run_queue;
  if (lane.run_cursor == q.size()) {
    q.clear();
    lane.run_cursor = 0;
  } else if (lane.run_cursor > 4096 && lane.run_cursor * 2 > q.size()) {
    q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(lane.run_cursor));
    lane.run_cursor = 0;
  }
}

Micros BarrierEngine::FaultEventBound() const {
  Micros bound = disk::kNoFaultEvent;
  for (std::int32_t m = 0; m < member_count(); ++m) {
    // A crashed member is a dead machine: it services nothing, so its
    // remaining plan cannot produce events.
    const driver::AdaptiveDriver* drv = StepDriver(m);
    if (drv == nullptr || drv->halted()) continue;
    bound = std::min(bound, drv->NextFaultEventBound());
  }
  return bound;
}

Micros BarrierEngine::PlanStepEnd(Micros limit) const {
  if (limit < advanced_to_) limit = advanced_to_;
  if (!timing_.adaptive_epoch || !ExtensionSafe()) {
    return std::min(limit, advanced_to_ + timing_.epoch);
  }
  // One grid is always admissible (it is exactly the fixed step);
  // extensions must stay provably event-free, and nothing can cross
  // members faster than the lookahead floor.
  const Micros bound =
      std::max(FaultEventBound(), advanced_to_ + timing_.lookahead_floor);
  return sim::PlanWindowEnd(advanced_to_, timing_.epoch, limit, bound,
                            std::max<std::int32_t>(1, timing_.max_epoch_grids));
}

Micros BarrierEngine::PlanSubmitHorizon(Micros limit) const {
  if (limit < advanced_to_) return advanced_to_;
  if (!timing_.adaptive_epoch || !ExtensionSafe()) return advanced_to_;
  // Routing ahead is a pure function of the block address while no member
  // can die, so submissions may run ahead up to the earliest possible
  // fault/crash event.
  return std::min(limit, FaultEventBound());
}

Status BarrierEngine::BeginStep(Micros t) {
  if (!started_) return Status::FailedPrecondition("Start() has not run");
  if (step_active_) return Status::FailedPrecondition("step already active");
  step_target_ = PlanStepEnd(t);
  FlushPending();
  ++barriers_;
  step_active_ = true;
  if (pool_ != nullptr) {
    futures_.clear();
    const Micros from = advanced_to_;
    const Micros target = step_target_;
    for (std::int32_t m = 0; m < member_count(); ++m) {
      futures_.push_back(pool_->Submit(
          [this, m, from, target]() { StepMember(m, from, target); }));
    }
  }
  return Status::Ok();
}

Status BarrierEngine::EndStep() {
  if (!step_active_) return Status::FailedPrecondition("no active step");
  if (pool_ != nullptr) {
    const auto t0 = std::chrono::steady_clock::now();
    for (auto& f : futures_) f.get();
    stall_wall_ += WallSince(t0);
    futures_.clear();
  } else {
    for (std::int32_t m = 0; m < member_count(); ++m) {
      StepMember(m, advanced_to_, step_target_);
    }
  }
  step_active_ = false;
  advanced_to_ = step_target_;
  ABR_RETURN_IF_ERROR(FirstLaneError());
  RunBarrierWork();
  return Status::Ok();
}

Status BarrierEngine::AdvanceTo(
    Micros t, const std::function<Status()>& while_stepping) {
  if (!started_) return Status::FailedPrecondition("Start() has not run");
  while (advanced_to_ < t) {
    ABR_RETURN_IF_ERROR(BeginStep(t));
    const Status overlapped = while_stepping ? while_stepping() : Status::Ok();
    ABR_RETURN_IF_ERROR(EndStep());
    ABR_RETURN_IF_ERROR(overlapped);
  }
  return Status::Ok();
}

StatusOr<Micros> BarrierEngine::Drain() {
  ABR_RETURN_IF_ERROR(CheckQuiesced());
  FlushPending();
  ABR_RETURN_IF_ERROR(ForEachMemberStatus([this](std::int32_t m) {
    Lane& lane = lanes_[static_cast<std::size_t>(m)];
    driver::AdaptiveDriver* drv = StepDriver(m);
    if (drv == nullptr) return Status::Ok();
    // Release every still-queued record, run the member dry, and take the
    // boundary hook at its own quiesce time.
    if (!SubmitRun(lane, *drv, std::numeric_limits<Micros>::max())) {
      return lane.status;
    }
    lane.run_queue.clear();
    lane.run_cursor = 0;
    if (!drv->halted()) drv->Drain();
    OnBoundary(m, drv->now());
    return Status::Ok();
  }));
  RunBarrierWork();
  // The barrier work may have issued member I/O (array resync writes):
  // run that dry too.
  ForEachMember([this](std::int32_t m) {
    driver::AdaptiveDriver* drv = StepDriver(m);
    if (drv != nullptr && !drv->halted()) drv->Drain();
  });
  const Micros t = now();
  advanced_to_ = std::max(advanced_to_, t);
  return t;
}

}  // namespace abr::array

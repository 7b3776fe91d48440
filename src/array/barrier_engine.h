#ifndef ABR_ARRAY_BARRIER_ENGINE_H_
#define ABR_ARRAY_BARRIER_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "driver/adaptive_driver.h"
#include "placement/arranger.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/types.h"
#include "workload/trace.h"

namespace abr::array {

/// The conservative epoch-barrier engine under the multi-disk device
/// (ArrayDevice, which also runs the sharded fleet). N member drives, each
/// with its own AdaptiveDriver, advance between barriers on independent
/// worker threads; everything that crosses members happens on the
/// coordinator at a barrier, in member order, so a run is a pure function
/// of (config, request stream) and byte-identical for every thread count.
///
/// The engine owns the stepping machinery:
///  - member lanes: the coordinator stages routed records (Stage), and a
///    barrier hands them to the member's run queue;
///  - the member step: every grid boundary inside a window is replayed
///    (submit the records due by it in one batch, advance, OnBoundary), so
///    a window fused from many grids computes exactly what grid-by-grid
///    stepping would;
///  - window planning against the fault-event bound (PlanStepEnd,
///    PlanSubmitHorizon), drain, fixed-order fan-out (ForEachMember), pass
///    folding (RunPass), and barrier counters with stall and barrier-work
///    wall time.
///
/// The device routes requests into the member lanes (Stage), names the
/// driver each member steps (StepDriver), and does its own cross-member
/// work at barriers (AtBarrier).
class BarrierEngine {
 public:
  virtual ~BarrierEngine();

  BarrierEngine(const BarrierEngine&) = delete;
  BarrierEngine& operator=(const BarrierEngine&) = delete;

  /// Logical blocks of the virtual device.
  virtual std::int64_t device_blocks() const = 0;

  /// Latest member clock.
  virtual Micros now() const = 0;

  // --- Barrier stepping -------------------------------------------------------

  /// Advances every member to `t` in barrier windows. `while_stepping`,
  /// when set, runs on the coordinator between each window's dispatch and
  /// its join; it may only route requests, and only on a device whose
  /// routing reads no member state.
  Status AdvanceTo(Micros t,
                   const std::function<Status()>& while_stepping = nullptr);

  /// One barrier step, split so tests can observe the protocol: BeginStep
  /// hands the staged records to the members and, with a worker pool,
  /// dispatches every member toward PlanStepEnd(t); EndStep joins them
  /// (inline execution when there is no pool — same results) and runs the
  /// device's barrier work.
  Status BeginStep(Micros t);
  Status EndStep();

  /// The boundary the next step would run to: one grid ahead (at most
  /// `limit`), or — with adaptive epochs, while the device allows fusing —
  /// up to max_epoch_grids whole grids, never past any live member's next
  /// provable fault/crash event. Pure function of simulation state.
  Micros PlanStepEnd(Micros limit) const;

  /// Latest time T such that routing every submission timed before T now,
  /// ahead of the barriers, is bit-identical to submitting grid by grid:
  /// min(limit, fault-event bound) while fusing is allowed, the current
  /// barrier clock otherwise.
  Micros PlanSubmitHorizon(Micros limit) const;

  /// Services everything still queued, runs every member dry, and runs the
  /// barrier work (plus a second drain for any I/O it issued). Returns the
  /// latest member clock.
  StatusOr<Micros> Drain();

  bool adaptive_epoch() const { return timing_.adaptive_epoch; }
  std::int32_t max_epoch_grids() const { return timing_.max_epoch_grids; }
  std::int32_t member_count() const {
    return static_cast<std::int32_t>(lanes_.size());
  }

  /// Barrier windows stepped so far (deterministic).
  std::int64_t barriers() const { return barriers_; }

  /// Wall-clock coordinator time spent joining workers at barriers, and
  /// spent in the device's barrier work (host timing — never byte-compared
  /// output).
  double barrier_stall_wall() const { return stall_wall_; }
  double barrier_merge_wall() const { return merge_wall_; }

 protected:
  /// Barrier timing, copied from the device's configuration.
  struct Timing {
    std::int32_t members = 1;
    /// Worker threads; a pool runs only with threads > 1 and members > 1.
    std::int32_t threads = 1;
    /// Base grid: monitoring boundaries and the fixed-epoch window.
    Micros epoch = 2 * kMinute;
    bool adaptive_epoch = false;
    std::int32_t max_epoch_grids = 32;
    /// Shortest possible member operation (sim::LookaheadFloor).
    Micros lookahead_floor = 1;
  };

  BarrierEngine() = default;

  /// Sizes the member lanes and builds the worker pool.
  void InitEngine(const Timing& timing);

  /// Marks the device started: the barrier clock starts at now(), and
  /// submissions timed before `submit_floor` are rejected.
  void MarkStarted(Micros submit_floor);
  bool started() const { return started_; }

  /// FailedPrecondition unless the device is started and between steps.
  Status CheckQuiesced() const;

  /// Validates one virtual-device record against the device size and the
  /// submission order (and advances that order).
  Status CheckSubmit(const workload::TraceRecord& record);

  /// Queues `record` (in the member's local block space) on `member`'s
  /// lane. Coordinator-side.
  void Stage(std::int32_t member, const workload::TraceRecord& record) {
    lanes_[static_cast<std::size_t>(member)].pending.push_back(record);
  }

  /// Drops everything queued for `member` (a dead member loses its queue).
  void ClearLane(std::int32_t member);

  /// Runs `fn(member)` for every member — on the pool when there is one,
  /// inline in member order otherwise — and returns after all finish.
  /// `fn` must be exception-free and touch only that member's state.
  template <typename Fn>
  void ForEachMember(Fn&& fn);

  /// Runs `fn(member) -> Status` on every member; the first failure in
  /// member order.
  template <typename Fn>
  Status ForEachMemberStatus(Fn&& fn);

  /// Runs `pass(member) -> StatusOr<ArrangeResult>` on every member and
  /// folds the results in member order. Passes run quiesced, so the
  /// barrier clock then catches up with the members and the barrier work
  /// runs.
  template <typename Fn>
  StatusOr<placement::ArrangeResult> RunPass(Fn&& pass);

  // --- Device hooks -----------------------------------------------------------

  /// The driver `member` steps and drains, or null while the member is out
  /// of service (a dead array member). Called on the member's worker.
  virtual driver::AdaptiveDriver* StepDriver(std::int32_t member) const = 0;

  /// The member reached a grid boundary (or its drain point) at `t`.
  /// Worker-side; touches only that member.
  virtual void OnBoundary(std::int32_t member, Micros t) {
    (void)member;
    (void)t;
  }

  /// True when a multi-grid window (and submitting ahead of it) is
  /// behaviourally equivalent to single-grid stepping.
  virtual bool ExtensionSafe() const { return true; }

  /// Cross-member work after every window, drain and pass. Coordinator.
  virtual void AtBarrier() {}

 private:
  struct Lane {
    /// Coordinator staging: routed records not yet handed to the member.
    std::vector<workload::TraceRecord> pending;
    /// Records the member consumes (local block numbers).
    std::vector<workload::TraceRecord> run_queue;
    std::size_t run_cursor = 0;
    /// Reused staging for handing a whole run to the driver at once.
    std::vector<driver::AdaptiveDriver::BlockRequest> batch;
    /// Per-member results, read by the coordinator after the join.
    Status status;
    StatusOr<placement::ArrangeResult> pass{placement::ArrangeResult{}};
  };

  /// Worker body for the window (`from`, `target`].
  void StepMember(std::int32_t member, Micros from, Micros target);

  /// Hands the lane's records timed at or before `until` to the driver in
  /// one batch. A crashed member is a dead machine: its records are
  /// consumed and lost. False (status recorded) when the driver refuses.
  static bool SubmitRun(Lane& lane, driver::AdaptiveDriver& drv, Micros until);

  void FlushPending();
  Status FirstLaneError() const;
  void RunBarrierWork();

  /// Earliest provable fault/crash event over the stepped, live members
  /// (disk::kNoFaultEvent when none is scheduled).
  Micros FaultEventBound() const;

  Timing timing_;
  std::vector<Lane> lanes_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::future<void>> futures_;
  bool started_ = false;
  bool step_active_ = false;
  Micros step_target_ = 0;
  Micros advanced_to_ = 0;
  Micros last_submit_ = 0;
  std::int64_t barriers_ = 0;
  double stall_wall_ = 0;  // seconds blocked joining workers
  double merge_wall_ = 0;  // seconds in barrier work
};

template <typename Fn>
void BarrierEngine::ForEachMember(Fn&& fn) {
  const std::int32_t n = member_count();
  if (pool_ != nullptr) {
    futures_.clear();
    for (std::int32_t m = 0; m < n; ++m) {
      futures_.push_back(pool_->Submit([&fn, m]() { fn(m); }));
    }
    for (auto& f : futures_) f.get();
    futures_.clear();
  } else {
    for (std::int32_t m = 0; m < n; ++m) fn(m);
  }
}

template <typename Fn>
Status BarrierEngine::ForEachMemberStatus(Fn&& fn) {
  ForEachMember([this, &fn](std::int32_t m) {
    lanes_[static_cast<std::size_t>(m)].status = fn(m);
  });
  return FirstLaneError();
}

template <typename Fn>
StatusOr<placement::ArrangeResult> BarrierEngine::RunPass(Fn&& pass) {
  ABR_RETURN_IF_ERROR(CheckQuiesced());
  ForEachMember([this, &pass](std::int32_t m) {
    lanes_[static_cast<std::size_t>(m)].pass = pass(m);
  });
  placement::ArrangeResult total;
  for (const Lane& lane : lanes_) {
    if (!lane.pass.ok()) return lane.pass.status();
    total.MergeFrom(*lane.pass);
  }
  advanced_to_ = std::max(advanced_to_, now());
  RunBarrierWork();
  return total;
}

}  // namespace abr::array

#endif  // ABR_ARRAY_BARRIER_ENGINE_H_

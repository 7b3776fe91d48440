#ifndef ABR_CORE_SHARDED_SYSTEM_H_
#define ABR_CORE_SHARDED_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "array/barrier_engine.h"
#include "core/adaptive_system.h"
#include "disk/drive_spec.h"
#include "sim/completion_merge.h"
#include "sim/stripe_map.h"
#include "util/status.h"

namespace abr::core {

/// Configuration of the sharded (fleet) simulation engine.
struct ShardedSystemConfig {
  /// Member drives the virtual device is striped across.
  std::int32_t shards = 1;

  /// Worker threads advancing shards in parallel. Results are byte-
  /// identical for every value — 1 runs the same per-shard computations
  /// inline in shard order.
  std::int32_t threads = 1;

  /// Base barrier grid: every shard advances through epoch-aligned
  /// boundaries, and each boundary doubles as the request-monitor drain
  /// (matching the paper's ~2-minute monitoring period). The fleet's day
  /// generates its workload in chunks of this length too
  /// (ArrayDayConfig::chunk), so the grid is part of the simulation's
  /// definition — adaptive mode never changes it.
  Micros epoch = 2 * kMinute;

  /// Lookahead-adaptive barriers: one parallel step (window) may cover
  /// several whole grids when no cross-member event — fault, crash point —
  /// can provably occur inside the extension. Workers still replay every
  /// grid boundary inside the window (submissions, advance, monitoring
  /// tick), so the run is bit-identical to the fixed-epoch oracle
  /// (adaptive_epoch=false, the differential twin) and byte-identical for
  /// any thread count; only the number of dispatch/join barriers — the
  /// coordinator stall — shrinks.
  bool adaptive_epoch = false;

  /// Most grids one adaptive window may cover.
  std::int32_t max_epoch_grids = 32;

  /// Member drive model (all members are identical).
  disk::DriveSpec drive = disk::DriveSpec::ToshibaMK156F();

  /// Hidden reserved cylinders per member.
  std::int32_t reserved_cylinders = 48;

  /// Hot blocks each member's arranger moves per pass (sizes each member's
  /// block table, exactly as Experiment does).
  std::int32_t rearrange_blocks = 1018;

  /// Per-member adaptive system (driver/analyzer/policy/arranger) tuning.
  AdaptiveSystemConfig system;
};

/// A fleet of identical member drives serving one virtual logical device.
///
/// The virtual device is a single drive's partition-sized block space,
/// striped round-robin across the members (sim::StripeMap at chunk 1):
/// block b lives on member b mod S as local block b div S. Each shard owns
/// a complete per-member stack — Disk, scheduler/DiskSystem,
/// AdaptiveDriver with its block table and monitors, analyzer, and
/// arranger — so shards share no mutable state and can advance on
/// independent worker threads. Unlike an ArrayDevice, each member ranks
/// its hot blocks from its own bounded analyzer, and arrangement may run
/// continuously.
///
/// Time runs on the array::BarrierEngine: every shard replays each grid
/// boundary (with its monitoring tick), and at each barrier the
/// coordinator k-way merges the per-shard completion streams into global
/// (completion_time, shard) order. All cross-shard folds (metrics, hot
/// lists, arrangement results, the merged completion stream) happen on
/// the coordinator in fixed shard order, so the entire run is a pure
/// function of (config, request stream): byte-identical for any
/// `threads`, with `shards=1` equal to a plain serial single-disk
/// simulation.
///
/// What is *not* promised — and cannot be, for a physical reason — is
/// identical metrics across different shard *counts*: seek distances and
/// queueing depend on each member's head position and queue, so a 4-member
/// fleet measures different physics than one drive. The request stream,
/// however, is identical for every S: one generator over the fixed virtual
/// block space, split by the stripe map.
class ShardedSystem : public array::BarrierEngine {
 public:
  /// Externally-owned member resources (crash/reboot tests hand in
  /// FaultyDisks and table stores that outlive the system). Either both
  /// vectors are empty (the system owns default members) or both have
  /// exactly `shards` entries.
  struct Deps {
    std::vector<disk::Disk*> disks;
    std::vector<driver::BlockTableStore*> stores;
  };

  explicit ShardedSystem(const ShardedSystemConfig& config, Deps deps = {});
  ~ShardedSystem() override;

  /// Attaches every member driver (after_crash runs the conservative
  /// recovery on each). Must be called once before submitting requests.
  Status Start(bool after_crash = false);

  std::int32_t shards() const { return map_.members(); }
  const sim::StripeMap& shard_map() const { return map_; }

  /// Logical blocks of the virtual device (one member's partition size,
  /// independent of the shard count — striping spreads the same space).
  std::int64_t device_blocks() const override { return map_.total_blocks(); }

  const disk::SeekModel& seek_model() const override {
    return config_.drive.seek_model;
  }

  /// Registers the consumer of the globally time-ordered completion
  /// stream (may be null). Only external requests' final outcomes are
  /// forwarded, in (completion_time, shard) order, at every barrier.
  void set_completion_sink(sim::ShardCompletionSink* sink) {
    merge_sink_ = sink;
  }

  /// Routes virtual-device requests to their owning shards' lanes. Times
  /// must be nondecreasing.
  Status SubmitBatch(const workload::TraceRecord* records,
                     std::size_t n) override;
  Status Submit(const workload::TraceRecord& record) {
    return SubmitBatch(&record, 1);
  }

  /// Fleet clock: the furthest member's simulated time.
  Micros now() const override;

  /// Runs each member's arrangement pass in parallel (every member
  /// quiesces its own queue; shards share nothing) and folds the results
  /// in shard order.
  StatusOr<placement::ArrangeResult> RearrangeAll() override;

  /// Empties every member's reserved area; the folded result reports the
  /// evictions like Experiment::CleanForNextDay.
  StatusOr<placement::ArrangeResult> CleanAll() override;

  /// Continuous mode (config().system.continuous): opens each member's
  /// utility-priced plan from its own counts. Plans execute during member
  /// idle time; folds are per-member so results stay byte-identical for
  /// every thread count.
  bool continuous() const override { return config_.system.continuous; }
  Status OpenContinuousPlanAll() override;

  /// Closes every member's open plan and folds the outcomes in shard
  /// order (no-op total when no plans are open).
  placement::ArrangeResult CloseContinuousDayAll() override;

  /// True while any member has an open continuous plan.
  bool continuous_plan_open() const override;

  /// Striping is pure address arithmetic into the coordinator's staging.
  bool submits_while_stepping() const override { return true; }

  /// Resets every member's reference counts.
  void ResetCounts();

  /// Changes how many blocks each member's next pass moves.
  void set_rearrange_blocks(std::int32_t n) override;

  /// Folds every member's performance monitor into one fleet snapshot.
  /// The per-member snapshots are gathered in parallel (each shard reads
  /// only its own monitor), then reduced in fixed shard order on the
  /// coordinator so the fold stays deterministic.
  driver::PerfSnapshot ReadStatsMerged(bool clear = true) override;

  /// Fleet-wide ranked hot list: per-member top-k gathered in parallel,
  /// then k-way merged by (count desc, shard asc) in fixed order, with
  /// block numbers mapped back to the virtual device.
  std::vector<analyzer::HotBlock> HotList(std::size_t k);

  /// True iff any member crashed.
  bool halted() const;

  AdaptiveSystem& shard_system(std::int32_t s) { return *shards_[s]->system; }
  driver::AdaptiveDriver& shard_driver(std::int32_t s) {
    return shards_[s]->system->driver();
  }
  const ShardedSystemConfig& config() const { return config_; }

 protected:
  driver::AdaptiveDriver* StepDriver(std::int32_t member) const override;

  /// Each grid boundary is the member's monitoring tick.
  void OnBoundary(std::int32_t member, Micros t) override;

  /// Merges the per-shard completion lanes into the sink.
  void AtBarrier() override;

 private:
  /// One member drive's complete stack plus its coordinator-side slots.
  /// Worker tasks touch only their own Shard.
  struct Shard : sim::CompletionSink {
    ShardedSystem* owner = nullptr;
    std::int32_t index = 0;
    std::unique_ptr<disk::Disk> owned_disk;
    std::unique_ptr<driver::InMemoryTableStore> owned_store;
    disk::Disk* disk = nullptr;
    driver::BlockTableStore* store = nullptr;
    std::unique_ptr<AdaptiveSystem> system;
    /// Parallel-gather slots for the coordinator's fixed-order folds.
    driver::PerfSnapshot stat_slot;
    std::vector<analyzer::HotBlock> hot_slot;

    /// Driver client sink: external completions land in this shard's
    /// merge lane (worker thread; the lane is this shard's own).
    void OnIoComplete(const sim::CompletedIo& done) override;
  };

  ShardedSystemConfig config_;
  sim::StripeMap map_;
  disk::DiskLabel member_label_;
  std::vector<std::unique_ptr<Shard>> shards_;
  sim::CompletionMerger merger_;
  sim::ShardCompletionSink* merge_sink_ = nullptr;
  Status init_error_;
};

}  // namespace abr::core

#endif  // ABR_CORE_SHARDED_SYSTEM_H_

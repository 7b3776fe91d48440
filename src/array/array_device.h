#ifndef ABR_ARRAY_ARRAY_DEVICE_H_
#define ABR_ARRAY_ARRAY_DEVICE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "array/barrier_engine.h"
#include "core/adaptive_system.h"
#include "disk/disk_label.h"
#include "disk/drive_spec.h"
#include "driver/adaptive_driver.h"
#include "driver/perf_monitor.h"
#include "fault/crash_table_store.h"
#include "fault/fault_plan.h"
#include "fault/faulty_disk.h"
#include "placement/arranger.h"
#include "sim/completion_merge.h"
#include "sim/disk_system.h"
#include "sim/stripe_map.h"
#include "util/status.h"
#include "util/types.h"
#include "workload/trace.h"

namespace abr::array {

/// How the member disks compose into one virtual device.
enum class RaidLevel {
  kRaid0,  // chunked striping: capacity scales, no redundancy
  kRaid1,  // mirroring: every member holds the full device
};

const char* RaidLevelName(RaidLevel level);

/// Availability state of one member.
enum class MemberState {
  kOnline,  // serving traffic, tables in lockstep (RAID1)
  kDead,    // crashed; requests routed elsewhere or lost
  kResync,  // reattached, catching up divergent regions; takes writes
};

const char* MemberStateName(MemberState state);

/// Where the members' ranked hot-block lists come from.
enum class Ranking {
  /// Exact submit-time reference counts kept by the device. RAID1 needs
  /// them: one shared list keeps the mirror tables in lockstep.
  kDeviceCounts,
  /// Each member's own bounded analyzer, drained at every grid boundary:
  /// the paper's per-disk stack, and the sharded fleet. The device keeps
  /// no counts; passes, cleans and continuous plans run through each
  /// member's core::AdaptiveSystem.
  kMemberAnalyzers,
};

/// Configuration of the multi-disk array layer.
struct ArrayConfig {
  RaidLevel level = RaidLevel::kRaid1;

  /// Member drives (identical). RAID1 needs at least 2.
  std::int32_t members = 2;

  /// Worker threads advancing members in parallel. Results are byte-
  /// identical for every value: all cross-member decisions (routing,
  /// dirty-region merging, resync copies, remaps) happen on the
  /// coordinator at epoch barriers, in member order.
  std::int32_t threads = 1;

  /// RAID0 stripe unit in blocks: virtual blocks [k*chunk, (k+1)*chunk)
  /// land contiguously on one member before the stripe advances.
  std::int64_t chunk_blocks = 4;

  /// Barrier grid (see BarrierEngine). With adaptive_epoch this stays the
  /// base grid: adaptive windows always cover a whole number of grids.
  Micros epoch = 2 * kMinute;

  /// Lookahead-adaptive barriers (see BarrierEngine::PlanStepEnd).
  /// Quiet RAID0 stretches fuse up to max_epoch_grids grids into one
  /// parallel window; any window that could contain a cross-member event
  /// (a member fault/crash point, active resync or scrub, a pending
  /// remap) falls back to single-grid stepping, and RAID1 always steps
  /// single-grid because its read routing reads live member head
  /// positions at submit time. Output is bit-identical to
  /// adaptive_epoch = false for every member/thread count.
  bool adaptive_epoch = false;

  /// Upper bound on grids fused into one adaptive window.
  std::int32_t max_epoch_grids = 32;

  /// Member drive model.
  disk::DriveSpec drive = disk::DriveSpec::ToshibaMK156F();

  /// Hidden reserved cylinders per member.
  std::int32_t reserved_cylinders = 48;

  /// Hot blocks each member's arranger moves per pass. The member block
  /// tables are sized rearrange_blocks + spare_slots.
  std::int32_t rearrange_blocks = 1018;

  /// Reserved-area slots set aside for persistent-error remaps (never used
  /// by the arranger).
  std::int32_t spare_slots = 8;

  /// Dirty-region log granule, in blocks. Writes applied while a member is
  /// dead are tracked at this granularity; resync copies only dirty
  /// granules.
  std::int64_t resync_granule_blocks = 64;

  /// Cold blocks queued per member per barrier for background scrub
  /// verification; 0 disables scrubbing.
  std::int32_t scrub_batch = 0;

  /// Ranking source. RAID1 and scrubbing need kDeviceCounts; continuous
  /// plans and count decay need kMemberAnalyzers.
  Ranking ranking = Ranking::kDeviceCounts;

  /// Each member's stack: driver tuning, analyzer, placement policy,
  /// arranger and continuous arranger. rearrange_blocks and the driver's
  /// block_table_capacity and spare_slots are overwritten from the fields
  /// above. The crash harness sets arranger.incremental = false: the
  /// full-rebuild oracle makes an executed pass's end table a pure
  /// function of its ranked list, which is what lets a killed-and-resynced
  /// run converge bit-identically with its uninterrupted twin.
  core::AdaptiveSystemConfig system;

  /// Per-member fault plans; empty (no faults) or exactly `members` long.
  std::vector<fault::FaultPlan> fault_plans;

  /// Seeds the members' fault RNGs.
  std::uint64_t fault_seed = 0x51ED2A17ULL;
};

/// One virtual block device composed of N member stacks (a
/// core::AdaptiveSystem over a FaultyDisk and a crash-accurate table
/// store), in either a RAID0 chunked stripe or a RAID1 mirror. The sharded
/// fleet is RAID0 at chunk 1 ranking from member analyzers, with traffic
/// over one member's worth of blocks (ArrayDayConfig::span_blocks).
///
/// RAID1 invariant: every member sees the same submission stream of writes
/// and the same ranked hot-block list, and rearrangement passes only run
/// when all members are online — so the member block tables stay in
/// lockstep and any online member can serve any read. Reads pick the
/// member whose head is predicted closest to the target cylinder.
///
/// Availability: a member whose crash point fires goes kDead at the next
/// barrier; acked writes live on the surviving mirrors. While it is dead,
/// every write applied to a survivor is folded into the victim's
/// dirty-region log (granules). ReattachMember() rebuilds the member's
/// driver from a survivor's durable table image and enters kResync: new
/// writes fan to it immediately, while a background pump — running through
/// the source member's idle-sink path so it yields to user traffic —
/// verifies and copies only the dirty granules. Scrubbing walks cold
/// blocks through the same idle path; persistent errors found there are
/// remapped into spare reserved-area slots via the block-table redirection
/// ioctl, on every member in lockstep.
///
/// Time runs on the BarrierEngine; all maintenance (death detection, dirty
/// merging, resync copies, remaps, scrub refills) happens at barriers in
/// member order. Barrier windows fuse (adaptive_epoch) only while
/// ExtensionSafe() holds.
class ArrayDevice : public BarrierEngine {
 public:
  /// Lays out the device from `config`: its size is known from here on (0
  /// for a config Start() will reject).
  explicit ArrayDevice(ArrayConfig config);
  ~ArrayDevice() override;

  /// Builds the member stacks and attaches the drivers, or reports why the
  /// config is unusable.
  Status Start();

  /// Registers the consumer of every member's external completions (may
  /// be null). They reach it at each barrier, merged into
  /// (completion_time, member) order, so the stream is the same for every
  /// thread count.
  void set_completion_sink(sim::ShardCompletionSink* sink) {
    completion_sink_ = sink;
  }

  /// Virtual device size in blocks.
  std::int64_t device_blocks() const override { return device_blocks_; }

  /// Blocks a single member contributes (RAID1: the whole device).
  std::int64_t member_blocks() const { return member_blocks_; }

  std::int32_t members() const { return config_.members; }
  RaidLevel level() const { return config_.level; }
  std::int32_t block_sectors() const { return block_sectors_; }
  const disk::SeekModel& seek_model() const {
    return config_.drive.seek_model;
  }

  /// Routes one logical request (device must be 0, block in
  /// [0, device_blocks)). Requests must arrive time-ordered.
  Status Submit(const workload::TraceRecord& record);
  Status SubmitBatch(const workload::TraceRecord* records,
                     std::size_t count);

  const ArrayConfig& config() const { return config_; }

  /// Latest member clock (dead members' last clocks included).
  Micros now() const override;

  /// One rearrangement pass on every member. With device counts the
  /// ranked list is built from the reference counts accumulated since the
  /// last pass (RAID1: one shared list; RAID0: per member), and the counts
  /// are reset whether or not the pass runs; with member analyzers each
  /// member ranks from its own. The pass itself is skipped — counted in
  /// passes_skipped_degraded() — unless every member is online: executing
  /// it on a partial mirror would break table lockstep.
  StatusOr<placement::ArrangeResult> RearrangeAll();

  /// DKIOCBCLEAN on every member (skipped, like RearrangeAll, unless all
  /// members are online). Also resets the reference counts. The folded
  /// result reports the removed entries as both cleaned and evicted.
  StatusOr<placement::ArrangeResult> CleanAll();

  /// Changes how many top-ranked blocks the next RearrangeAll hands each
  /// member. The block tables keep the size config().rearrange_blocks
  /// gave them at Start.
  void set_rearrange_blocks(std::int32_t n);

  /// Continuous mode (config().system.continuous, member analyzers only):
  /// each member opens a utility-priced plan from its own counts, executed
  /// in the member's idle time.
  bool continuous() const { return config_.system.continuous; }
  Status OpenContinuousPlanAll();
  placement::ArrangeResult CloseContinuousDayAll();
  bool continuous_plan_open() const;

  /// True on RAID0 while no member can die (no crash point in any fault
  /// plan) and scrub is off: routing is then address arithmetic into the
  /// coordinator's staging, and the reference counts are read only at
  /// passes.
  bool submits_while_stepping() const;

  /// Folds every member's performance snapshot (including generations
  /// stranded by crashes) in member order.
  driver::PerfSnapshot ReadStatsMerged(bool clear = true);

  /// Per-member fault counters accumulated across driver generations.
  driver::FaultCounters MemberFaults(std::int32_t member) const;

  /// Brings a dead RAID1 member back: mirrors a survivor's durable table
  /// image into its store, clears the crash latch, rebuilds the driver
  /// with crash recovery, and starts the resync pump over the member's
  /// dirty-region log. The member takes new writes immediately (kResync)
  /// but serves no reads until the pump drains.
  Status ReattachMember(std::int32_t member);

  MemberState member_state(std::int32_t member) const {
    return members_[member]->state;
  }
  std::int32_t online_members() const;
  bool degraded() const;  // any member not online
  bool failed() const;    // no redundancy left: data has been lost

  bool resync_active() const { return resync_.target >= 0; }
  std::int64_t resync_granules_copied() const { return resync_copied_; }
  std::int64_t resync_granules_pending() const;
  std::int64_t dirty_granules(std::int32_t member) const {
    return static_cast<std::int64_t>(members_[member]->dirty.size());
  }
  std::int64_t resyncs_completed() const { return resyncs_completed_; }
  std::int64_t passes_skipped_degraded() const {
    return passes_skipped_degraded_;
  }
  std::int64_t lost_requests() const { return lost_requests_; }
  std::int32_t spares_used() const { return spare_cursor_; }

  /// Bitmask of members that currently receive writes (online + resync).
  std::uint64_t LiveWriteMask() const;

  /// Member internals, for tests and the crash harness.
  core::AdaptiveSystem& member_system(std::int32_t member) {
    return *members_[member]->system;
  }
  driver::AdaptiveDriver& member_driver(std::int32_t member) {
    return members_[member]->driver();
  }
  const driver::AdaptiveDriver& member_driver(std::int32_t member) const {
    return members_[member]->driver();
  }
  fault::FaultyDisk& member_disk(std::int32_t member) {
    return *members_[member]->disk;
  }

  /// First error the array ran into (sticky), empty when healthy.
  const std::string& first_error() const { return first_error_; }

 protected:
  driver::AdaptiveDriver* StepDriver(std::int32_t member) const override;

  /// With member analyzers, each grid boundary is the member's monitoring
  /// tick.
  void OnBoundary(std::int32_t member, Micros t) override;

  /// True when a multi-grid window is behaviorally equivalent to
  /// single-grid stepping: RAID0 (address-only routing), every member
  /// online and uncrashed, and no barrier-granular machinery (scrub,
  /// resync, pending remaps) armed — the skipped intermediate barrier
  /// maintenance calls are then provably no-ops.
  bool ExtensionSafe() const override;

  /// Barrier maintenance: the merged completion stream first, then, in
  /// member order, death detection, write-lane folding, resync copies,
  /// remap retries, scrub refills.
  void AtBarrier() override;

 private:
  /// One member stack. Implements the driver's completion sink (to track
  /// outstanding writes and fill the member's merge lane), and, on RAID1 or
  /// with scrub on, the idle sink (resync reads and scrub verifies run in
  /// idle windows) and, on RAID1, the disk's write observer (per-epoch
  /// write lanes feeding the dirty-region log).
  struct Member : sim::CompletionSink,
                  driver::IdleSink,
                  fault::WriteObserver {
    Member(ArrayDevice* device, std::int32_t index)
        : device(device), index(index) {}

    void OnIoComplete(const sim::CompletedIo& done) override;
    void OnIdle(Micros horizon) override;
    bool wants_idle() const override;
    void OnWriteServiced(SectorNo sector, std::int64_t count) override;

    driver::AdaptiveDriver& driver() const { return system->driver(); }

    ArrayDevice* device;
    std::int32_t index;

    // Both on the heap: the step thread writes them, and RAID0 routing
    // reads this member's fields from the coordinator while it does.
    std::unique_ptr<fault::FaultyDisk> disk;
    std::unique_ptr<fault::CrashTableStore> store;
    std::unique_ptr<core::AdaptiveSystem> system;
    MemberState state = MemberState::kOnline;

    // RAID1 only: physical extents written this epoch (external +
    // internal), cleared at every barrier after folding into the dead
    // members' dirty logs.
    std::vector<std::pair<SectorNo, std::int64_t>> write_lane;

    // RAID1 only: logical writes routed here and not yet completed
    // (block -> count). Written by this member's step thread, read by the
    // coordinator at barriers.
    std::unordered_map<BlockNo, std::int32_t> outstanding_writes;

    // Dirty-region log: granules whose payload may diverge from the
    // mirror set, accumulated while this member is dead, drained by
    // resync. Ordered so resync sweeps the platter in address order.
    std::set<std::int64_t> dirty;

    // RAID0 per-member device counts (local block space).
    std::vector<std::int64_t> refs;

    // Scrub: (local block, mapped sector) queue refilled at barriers;
    // blocks that hit a persistent error, collected for remapping.
    std::deque<std::pair<BlockNo, SectorNo>> scrub_queue;
    bool scrub_inflight = false;
    std::vector<BlockNo> scrub_bad;
    std::int64_t scrub_cursor = 0;  // next local block to consider

    // Stats stranded by dead driver generations.
    driver::PerfSnapshot carry;
    driver::FaultCounters faults_total;
    bool carry_valid = false;
  };

  /// Resync pump state (coordinator-owned; the read-side fields are
  /// touched by the source member's step thread inside a step and by the
  /// coordinator at barriers, never both at once).
  struct Resync {
    std::int32_t target = -1;
    std::int32_t source = -1;
    std::deque<std::int64_t> reads;       // granules awaiting verify-read
    bool read_inflight = false;
    std::vector<std::int64_t> read_done;  // verified, copy at next barrier
    std::int64_t writes_inflight = 0;     // IoctlWriteExtent on the target
  };

  Status Validate() const;
  /// Member label, block size, member and device capacity, stripe map.
  Status Layout();
  Status BuildMember(std::int32_t index);
  Status BuildMemberSystem(Member& m, bool after_crash);
  void RouteRaid1(const workload::TraceRecord& record);
  std::int32_t PickReadMember(BlockNo block) const;
  void HandleDeath(Member& m);
  void FoldWriteLanes();
  void MarkDirtyExtent(Member& dead, SectorNo sector, std::int64_t count);
  void MarkDirtyBlock(Member& dead, BlockNo block);
  void PumpResyncAtBarrier();
  void CopyGranule(std::int64_t granule);
  void ProcessScrubAtBarrier();
  Status RemapBlock(BlockNo block, std::int32_t bad_member);
  void CollectStats(Member& m);
  void RecordError(const std::string& what);

  std::int64_t GranuleOf(SectorNo sector) const {
    return sector / granule_sectors_;
  }
  bool OutstandingOverlapsGranule(const Member& m, std::int64_t granule) const;
  SectorNo OriginalSectorOf(BlockNo local_block) const;  // -1 if straddling

  ArrayConfig config_;
  Status init_error_;
  sim::CompletionMerger merger_{1};
  sim::ShardCompletionSink* completion_sink_ = nullptr;

  disk::DiskLabel label_;
  std::int32_t block_sectors_ = 0;
  std::int64_t member_blocks_ = 0;
  std::int64_t device_blocks_ = 0;
  std::int64_t granule_sectors_ = 0;
  sim::StripeMap stripe_{1, 1, 0};  // RAID0 only

  std::vector<std::unique_ptr<Member>> members_;

  std::vector<std::int64_t> refs_;  // RAID1 shared device counts

  Resync resync_;
  // Remaps awaiting their preconditions: (local block, member that hit
  // the persistent error). Retried every barrier.
  std::vector<std::pair<BlockNo, std::int32_t>> pending_remaps_;

  std::int32_t pass_blocks_ = 0;  // ranked blocks per pass
  std::int32_t spare_cursor_ = 0;
  std::int64_t resync_copied_ = 0;
  std::int64_t resyncs_completed_ = 0;
  std::int64_t passes_skipped_degraded_ = 0;
  std::int64_t lost_requests_ = 0;
  std::string first_error_;
};

}  // namespace abr::array

#endif  // ABR_ARRAY_ARRAY_DEVICE_H_

#ifndef ABR_DRIVER_ADAPTIVE_DRIVER_H_
#define ABR_DRIVER_ADAPTIVE_DRIVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "disk/disk.h"
#include "disk/disk_label.h"
#include "driver/block_table.h"
#include "driver/perf_monitor.h"
#include "driver/request_monitor.h"
#include "driver/table_store.h"
#include "driver/translation_filter.h"
#include "sched/scheduler.h"
#include "sim/disk_system.h"
#include "util/status.h"
#include "util/types.h"

namespace abr::driver {

/// Driver configuration (compile-time constants of the real driver).
struct DriverConfig {
  /// File-system block size; every file system on the disk must use it
  /// (Section 4.1.1). SunOS UFS in the paper: 8 KB.
  std::int32_t block_size_bytes = 8192;

  /// Maximum entries in the block table (bounds the reserved data area:
  /// the serialized table occupies the start of the reserved region).
  std::int32_t block_table_capacity = 4096;

  /// Capacity of the in-driver request monitoring table (Section 4.1.4).
  std::int32_t request_monitor_capacity = 1 << 16;

  /// Disk-queue policy; the measured driver uses SCAN.
  sched::SchedulerKind scheduler = sched::SchedulerKind::kScan;

  /// Bounded retry budget for transient media errors: a request failing
  /// with MediaStatus::kTransientError is re-issued up to this many times
  /// before the driver gives up (external requests fail; internal move
  /// chains abort and roll back).
  std::int32_t max_io_retries = 3;

  /// Reserved-area slots held back from the arranger as spare capacity for
  /// persistent-error remaps (DKIOCBREPAIR). The spares are the *last*
  /// slots of the reserved data area; reserved_slot_count() excludes them,
  /// so the placement policies never use them, and DKIOCCLEAN never evicts
  /// a block remapped into one (its original location is bad media — the
  /// redirection is permanent). block_table_capacity must leave room for
  /// them on top of the arranger's share.
  std::int32_t spare_slots = 0;
};

/// Receives disk-idle windows from the driver. Registered by the
/// continuous arranger: whenever the simulated clock is about to cross a
/// span with nothing queued and nothing in flight, the driver offers the
/// span to the sink, which may submit internal move chains (and nothing
/// else — external traffic always comes first). OnBusy() fires when an
/// external request arrives while internal chains are still in flight:
/// the suspend signal — no new idle window opens until the queue drains,
/// so an open plan simply pauses where it is.
class IdleSink {
 public:
  virtual ~IdleSink() = default;
  virtual void OnIdle(Micros horizon) = 0;
  virtual void OnBusy() {}

  /// True while the sink could actually use an idle window (the continuous
  /// arranger: while a plan is open). When false the driver advances the
  /// clock in one batched call instead of stepping completion by completion
  /// to carve out idle spans — exact, because OnIdle would decline every
  /// offer anyway. Default is conservative: always step.
  virtual bool wants_idle() const { return true; }
};

/// The modified UNIX disk driver of Section 4: logical-device to physical
/// translation, virtual-to-actual disk mapping around the hidden reserved
/// cylinders, block-table redirection of rearranged blocks, the
/// DKIOCBCOPY / DKIOCCLEAN block-movement ioctls, request monitoring and
/// performance monitoring, and physio splitting of large raw requests.
///
/// The driver owns the request queue (via sim::DiskSystem) and the clock:
/// callers submit logical requests with arrival timestamps and advance
/// simulated time with AdvanceTo()/Drain(). It is its own completion sink:
/// the disk system reports every finished operation through one virtual
/// call with no per-request allocation.
class AdaptiveDriver : private sim::CompletionSink {
 public:
  /// `disk` and `store` must outlive the driver. `store` may be null only
  /// for non-rearranged labels.
  AdaptiveDriver(disk::Disk* disk, disk::DiskLabel label, DriverConfig config,
                 BlockTableStore* store);

  AdaptiveDriver(const AdaptiveDriver&) = delete;
  AdaptiveDriver& operator=(const AdaptiveDriver&) = delete;

  /// The attach routine (Section 4.1.1): on a rearranged disk, reads the
  /// reserved-area information and the on-disk block table. If
  /// `after_crash` is set, every loaded entry is marked dirty — the
  /// conservative recovery of Section 4.1.2 — and a corrupt or torn
  /// primary image no longer fails the attach: recovery falls back to the
  /// store's shadow copy (two-area table writes) or, failing that, to an
  /// empty table whose reserved area is reconciled by the next
  /// DKIOCCLEAN-style pass. Must be called once before submitting
  /// requests.
  Status Attach(bool after_crash = false);

  /// Clean shutdown: drains outstanding I/O and writes the block table —
  /// including the in-memory dirty bits, which the on-disk copy otherwise
  /// lacks — back to the reserved area. After a Detach()ed shutdown the
  /// next Attach() needs no conservative dirty-marking; skipping Detach()
  /// (a crash) requires Attach(after_crash=true) for safety.
  Status Detach();

  // --- Request entry points (strategy / physio) ------------------------

  /// Block-interface request: exactly one file-system block, as the buffer
  /// cache issues them. `device` indexes the label's partition table.
  Status SubmitBlock(std::int32_t device, BlockNo block, sched::IoType type,
                     Micros arrival_time);

  /// One element of a SubmitBlockBatch run.
  struct BlockRequest {
    std::int32_t device;
    BlockNo block;
    sched::IoType type;
    Micros arrival_time;
  };

  /// Submits a run of block requests with nondecreasing arrival times.
  /// Equivalent to the sharded fleet's per-record loop — `if (halted())
  /// skip; else SubmitBlock(...)` for each element, with the first error
  /// returned — but whenever no idle sink wants the intermediate windows
  /// and the disk stays busy past a prefix of arrivals, that prefix is
  /// routed in one go and its physical requests bulk-load the scheduler:
  /// no completion can interleave inside such a window, so per-request
  /// translation sees exactly the state the stepped path would.
  Status SubmitBlockBatch(const BlockRequest* requests, std::size_t n);

  /// Raw-interface request: an arbitrary sector extent relative to the
  /// partition start. physio breaks it into block-sized sub-requests at
  /// file-system block boundaries so that each piece is either wholly
  /// rearranged or wholly not (Section 4.1.2).
  Status SubmitRaw(std::int32_t device, SectorNo sector, std::int64_t count,
                   sched::IoType type, Micros arrival_time);

  // --- ioctls -----------------------------------------------------------

  /// DKIOCBCOPY: copies the block whose original physical start sector is
  /// `original` into the reserved area at `target` (a slot start sector),
  /// enters it into the block table and forces the table to disk. The copy
  /// costs three I/O operations which interleave with normal traffic;
  /// requests for the block are delayed until the move completes.
  Status IoctlCopyBlock(SectorNo original, SectorNo target);

  /// DKIOCCLEAN: removes every block from the reserved area. Dirty blocks
  /// are first copied back to their original positions; after each block
  /// the table is updated and rewritten to disk.
  Status IoctlClean();

  /// DKIOCBMOVE: moves an already-rearranged block from its current
  /// reserved-area slot to `target` (another slot start sector) without
  /// touching its original location — the short intra-region shuffle the
  /// incremental arranger uses when only the desired slot changed. Costs
  /// three I/Os (read current slot, write target, table write); the dirty
  /// bit is preserved. Requests for the block are held until the move
  /// completes.
  Status IoctlMoveBlock(SectorNo original, SectorNo target);

  /// DKIOCBEVICT: removes the single block keyed by `original` from the
  /// reserved area (clean-out of one entry, where DKIOCCLEAN takes all).
  /// Dirty blocks are first copied back to their original position.
  Status IoctlEvictBlock(SectorNo original);

  /// DKIOCVERIFY-style scrub/resync read: reads the physical extent
  /// [sector, sector+count) as an internal chain — it yields to user
  /// traffic exactly like a block move, and requests keyed by `sector`
  /// are held until it retires. `done` (may be empty) runs when the chain
  /// retires: ok=true after a successful read, ok=false after the retry
  /// budget is exhausted, with `bad` the first failing sector. When
  /// `scrub` is set an unrecoverable failure also ticks the scrub-hit
  /// fault counter.
  Status IoctlVerifyExtent(SectorNo sector, std::int64_t count, bool scrub,
                           std::function<void(bool ok, SectorNo bad)> done);

  /// Internal timed write of the physical extent [sector, sector+count).
  /// The array layer's resync uses it to charge a reattached member for
  /// rewriting divergent granules; the payload plane is updated by the
  /// caller (the coordinator copies bytes from the surviving mirror while
  /// both members are quiescent). `done` may be empty.
  Status IoctlWriteExtent(SectorNo sector, std::int64_t count,
                          std::function<void(bool ok)> done);

  /// DKIOCBREPAIR: redirects the block whose original physical start
  /// sector is `original` into spare slot `target` without ever touching
  /// its current (failing) location: writes the target — the good payload
  /// must already be staged there by the caller, typically copied from a
  /// healthy mirror peer — re-points or inserts the table entry with the
  /// dirty bit set, and rewrites the table. The entry survives DKIOCCLEAN:
  /// spare-slot redirections are permanent.
  Status IoctlRepairBlock(SectorNo original, SectorNo target);

  /// Reads and clears the request-monitoring table.
  std::vector<RequestRecord> IoctlReadRequests() {
    return request_monitor_.ReadAndClear();
  }

  /// Allocation-free variant: swaps the monitoring table into `out`
  /// (clearing whatever it held). A caller polling every monitoring period
  /// can reuse one buffer for the whole day.
  void IoctlReadRequests(std::vector<RequestRecord>& out) {
    request_monitor_.ReadAndClearInto(out);
  }

  /// DKIOCGGEOM-style geometry ioctl: what the disk label advertises to
  /// the file system plus the rearrangement record (Section 3.2 mentions
  /// these special-purpose entry points; newfs and the arranger use them).
  struct GeometryInfo {
    disk::Geometry virtual_geometry;
    bool rearranged = false;
    Cylinder reserved_first_cylinder = 0;
    std::int32_t reserved_cylinder_count = 0;
    std::int32_t block_size_bytes = 0;
  };
  GeometryInfo IoctlGetGeometry() const;

  /// Reads the performance statistics; clears them when `clear` is set.
  PerfSnapshot IoctlReadStats(bool clear = true) {
    return perf_monitor_.Snapshot(clear);
  }

  // --- Simulated-time control -------------------------------------------

  /// Advances simulated time, completing I/O that finishes by `t`. With an
  /// idle sink registered, every idle span crossed on the way is offered
  /// to it first (see IdleSink); without one the call is a plain clock
  /// advance, byte-identical to the pre-continuous driver.
  void AdvanceTo(Micros t);

  /// Completes all outstanding work (including in-flight block moves).
  Micros Drain();

  /// Current simulated time.
  Micros now() const { return system_.now(); }

  // --- Introspection ------------------------------------------------------

  const disk::DiskLabel& label() const { return label_; }
  const BlockTable& block_table() const { return *block_table_; }
  const DriverConfig& config() const { return config_; }
  sim::DiskSystem& disk_system() { return system_; }
  disk::Disk& disk() { return *disk_; }
  const RequestMonitor& request_monitor() const { return request_monitor_; }

  /// Lookahead passthrough for parallel barrier planning: a sim time before
  /// which no fault/crash event can fire on this member's disk
  /// (disk::kNoFaultEvent when none is scheduled).
  Micros NextFaultEventBound() const { return disk_->NextFaultEventBound(); }

  /// True once the underlying disk reported a crash point: the machine is
  /// dead, no further I/O runs, and only a fresh driver instance with
  /// Attach(after_crash=true) can resume service.
  bool halted() const { return system_.halted(); }

  /// Registers a second completion sink that observes every *external*
  /// request's final outcome (successful completion, or the error
  /// completion after the retry budget is exhausted). Internal move-chain
  /// I/O and retried attempts are not forwarded. The crash harness uses
  /// this to track acknowledged writes; may be null.
  void set_client_sink(sim::CompletionSink* sink) { client_sink_ = sink; }

  /// Registers the idle-time consumer (the continuous arranger); may be
  /// null. While registered, external submissions with future arrival
  /// times first advance the clock to the arrival so the preceding idle
  /// span is offered to the sink — which is what makes "preempt the
  /// moment user requests arrive" exact rather than tick-granular.
  void set_idle_sink(IdleSink* sink) { idle_sink_ = sink; }
  IdleSink* idle_sink() const { return idle_sink_; }

  /// Sectors per file-system block.
  std::int32_t block_sectors() const { return block_sectors_; }

  /// Sectors at the head of the reserved area holding the table copy.
  std::int64_t table_area_sectors() const { return table_area_sectors_; }

  /// First physical sector available for rearranged blocks.
  SectorNo reserved_data_first_sector() const;

  /// Number of whole block slots in the reserved data area.
  std::int32_t reserved_slot_count() const;

  /// Physical start sector of reserved slot `slot`.
  SectorNo ReservedSlotSector(std::int32_t slot) const;

  /// Physical cylinder holding the start of reserved slot `slot`.
  Cylinder ReservedSlotCylinder(std::int32_t slot) const;

  /// Number of spare slots available for DKIOCBREPAIR (the tail of the
  /// reserved data area; see DriverConfig::spare_slots).
  std::int32_t spare_slot_count() const;

  /// Physical start sector of spare slot `spare` (0-based).
  SectorNo SpareSlotSector(std::int32_t spare) const;

  /// True iff `sector` is the start of a spare slot.
  bool IsSpareSlot(SectorNo sector) const;

  /// Count of driver-generated I/O operations (block moves, table writes).
  std::int64_t internal_io_count() const { return internal_io_count_; }

  /// Total disk time consumed by driver-generated I/O.
  Micros internal_io_time() const { return internal_io_time_; }

  /// Move chains aborted and rolled back; like the two above, never reset.
  std::int64_t aborted_chain_count() const { return aborted_chain_count_; }

  /// Number of requests currently held back because their block is moving.
  std::size_t held_request_count() const;

  /// Number of move chains currently in flight (copy-ins, shuffles,
  /// clean-outs). The arranger's pipelined executor bounds this.
  std::size_t active_chain_count() const { return moving_.size(); }

  /// One physical piece of a mapped virtual extent.
  struct PhysExtent {
    SectorNo sector = 0;
    std::int64_t count = 0;
  };

  /// Fixed-size extent list: a virtual extent maps to one physical extent
  /// normally, two when it straddles the hidden-region boundary — never
  /// more, so the translation done on every request needs no heap.
  struct PhysExtents {
    PhysExtent extent[2];
    std::size_t count = 0;

    std::size_t size() const { return count; }
    const PhysExtent& operator[](std::size_t i) const { return extent[i]; }
    const PhysExtent* begin() const { return extent; }
    const PhysExtent* end() const { return extent + count; }
  };

  /// Maps a virtual-disk sector extent to physical extents, skipping the
  /// hidden reserved cylinders. Exposed for tests and the arranger.
  PhysExtents MapVirtualExtent(SectorNo virtual_sector,
                               std::int64_t count) const;

 private:
  /// One logical request held while its block moves; re-translated when
  /// released because the block's location may have changed.
  struct HeldRequest {
    std::int32_t device;
    BlockNo block;             // block path when >= 0
    SectorNo raw_sector;       // raw path otherwise
    std::int64_t raw_count;
    sched::IoType type;
    Micros arrival_time;
  };

  /// One internal I/O of a move chain plus the state change applied when
  /// it completes (payload copy, table entry insert/remove, table save).
  struct ChainOp {
    sched::IoRequest request;
    std::function<void()> after;
  };

  /// Sequenced internal I/O chain for one block move (copy-in or move-out).
  /// Ops run strictly one after another; requests for the moving block are
  /// held until the chain retires.
  struct MoveChain {
    std::deque<ChainOp> ops;
    std::function<void()> active_after;  // effect of the op in flight
    std::vector<HeldRequest> held;
    std::function<void()> on_finish;
    /// Rollback run when a persistent media error aborts the chain: undoes
    /// any table mutation already applied (in-memory + store bytes only;
    /// no further timed I/O is attempted on a failing chain).
    std::function<void()> on_abort;
  };

  /// Validates the device and returns its partition. Returns a pointer
  /// into the label (stable while attached): a by-value Partition would
  /// copy its name string on every routed request.
  StatusOr<const disk::Partition*> CheckedPartition(std::int32_t device) const;

  /// Translates and enqueues one block request. `record_stats` is false
  /// when re-submitting a previously-held request.
  Status RouteBlock(std::int32_t device, BlockNo block, sched::IoType type,
                    Micros arrival_time, bool record_stats);

  /// Translates and enqueues one raw fragment (never spans a block
  /// boundary in partition space).
  Status RouteRawFragment(std::int32_t device, SectorNo sector,
                          std::int64_t count, sched::IoType type,
                          Micros arrival_time, bool record_stats);

  /// Stall/preemption bookkeeping for one stats-recorded external arrival:
  /// notifies the idle sink (suspend signal) and charges the remaining
  /// service time of an in-flight internal op as arrangement stall.
  void NoteExternalArrival();

  /// True iff a move chain is active for the block keyed by `original`.
  bool IsMoving(SectorNo original) const {
    return moving_.contains(original);
  }

  /// True iff reserved slot `slot` holds an entry, is the target of an
  /// in-flight chain, or is quarantined.
  bool SlotClaimed(SectorNo slot) const {
    return block_table_->TargetInUse(slot) || pending_targets_.contains(slot);
  }

  /// True iff the entries plus the in-flight and quarantined claims fill
  /// the table's capacity.
  bool TableFull() const;

  // Validation shared by the block-movement ioctls; each keeps its own
  // order of checks, because callers retry by error code.

  /// FailedPrecondition unless attached to a rearranged disk.
  Status CheckRearranged() const;

  /// OutOfRange or InvalidArgument unless a block starting at `original`
  /// lies on the disk and outside the reserved region.
  Status CheckOriginal(SectorNo original) const;

  /// InvalidArgument unless `target` starts a reserved-area data slot that
  /// is not a remap spare.
  Status CheckDataSlot(SectorNo target) const;

  // Debug checks of the translation fast path against the direct probes;
  // asserted at its two exits, so they run on every translation.

  /// True iff `original` has no table entry and no active move chain, as
  /// a presence-filter miss claims.
  bool Untranslated(SectorNo original) const {
    return !IsMoving(original) && !block_table_->Lookup(original).has_value();
  }

  /// True iff the last-translation cache agrees with the table entry's
  /// slot and dirty bit, and the cached block is not moving.
  bool CacheMatchesTable() const {
    const std::optional<BlockTableEntry> e =
        block_table_->LookupEntry(cache_original_);
    return e.has_value() && e->relocated == cache_relocated_ &&
           e->dirty == cache_dirty_ && !IsMoving(cache_original_);
  }

  // --- Translation fast-path maintenance (keep the presence filter and
  // --- the last-translation cache coherent with every table / chain
  // --- mutation; see translation_filter.h) ------------------------------

  /// Inserts into the block table and registers the key with the filter.
  void TableInsert(SectorNo original, SectorNo relocated);

  /// Removes from the block table and withdraws the key from the filter.
  void TableRemove(SectorNo original);

  /// Re-points the entry for `original` at a new reserved slot (intra-
  /// region shuffle). The presence filter is keyed by originals, so only
  /// the translation cache needs invalidating.
  void TableUpdateRelocated(SectorNo original, SectorNo relocated);

  /// Starts the relocation chain that moves the entry for `original` to
  /// reserved slot `target` (DKIOCBCOPY, DKIOCBMOVE, DKIOCBREPAIR):
  ///  - when `read_from` is set, a read of it that copies its payload to
  ///    `target`;
  ///  - a write of `target` that re-points the entry there from `source`,
  ///    or inserts it when `source` is empty, marks it dirty when
  ///    `mark_dirty` is set, saves the table, and quarantines `source`;
  ///  - a table write that calls `record` (the move counter) and releases
  ///    the quarantined slots.
  /// Its one rollback, on abort: if the entry points at `target`, point it
  /// back at `source` or withdraw it, save the table, and quarantine
  /// `target`.
  void BeginRelocation(SectorNo original, SectorNo target,
                       std::optional<SectorNo> source,
                       std::optional<SectorNo> read_from, bool mark_dirty,
                       void (PerfMonitor::*record)());

  /// Builds the clean-out chain for one table entry (shared by the full
  /// DKIOCCLEAN pump and the single-block DKIOCBEVICT). For a clean entry
  /// the table mutation happens synchronously here; the returned chain
  /// then only carries the table write.
  MoveChain MakeCleanOutChain(const BlockTableEntry& entry);

  /// Quarantines a reserved slot freed by a table mutation until that
  /// mutation is durable. The on-disk image only advances when a table
  /// write completes, so a slot vacated in memory may still be referenced
  /// by the durable image; letting another chain write payload into it
  /// before the next completed table write would corrupt crash recovery.
  /// The slot joins pending_targets_ (blocking reuse) and is released by
  /// ReleaseDurableQuarantine().
  void QuarantineSlot(SectorNo slot);

  /// Releases every quarantined slot; called when a table write completes
  /// (which commits all mutations staged before that completion).
  void ReleaseDurableQuarantine();

  /// Registers a move chain under `key` (filter + cache coherence) and
  /// starts pumping it.
  void BeginChain(SectorNo key, MoveChain chain);

  void InvalidateTranslationCache() { cache_valid_ = false; }

  /// Enqueues the next pending internal op of a chain, if any, or finishes
  /// the chain (releasing held requests).
  void PumpChain(SectorNo key);

  /// Aborts chain `key` after an unrecoverable media error: runs the
  /// rollback, drops the remaining ops, and retires the chain normally
  /// (held requests are released and re-translated).
  void AbortChain(SectorNo key);

  /// Submits one internal I/O belonging to chain `key`.
  void SubmitInternal(SectorNo key, sched::IoRequest op);

  /// Builds an internal request for the physical extent
  /// [sector, sector+count).
  static sched::IoRequest InternalOp(sched::IoType type, SectorNo sector,
                                     std::int64_t count);

  /// Builds an internal request for the on-disk table area.
  sched::IoRequest TableWriteOp() const;

  /// Persists the table to the store (contents only; the I/O charge is the
  /// accompanying TableWriteOp).
  void SaveTable();

  /// DiskSystem completion hook (sim::CompletionSink).
  void OnIoComplete(const sim::CompletedIo& done) override;

  /// Starts processing of the next queued clean-out entry, if any.
  void PumpClean();

  disk::Disk* disk_;
  disk::DiskLabel label_;
  DriverConfig config_;
  BlockTableStore* store_;
  sim::DiskSystem system_;
  sim::CompletionSink* client_sink_ = nullptr;
  IdleSink* idle_sink_ = nullptr;
  std::unique_ptr<BlockTable> block_table_;
  RequestMonitor request_monitor_;
  PerfMonitor perf_monitor_;

  bool attached_ = false;
  std::int32_t block_sectors_ = 0;
  std::int64_t table_area_sectors_ = 0;

  std::int64_t next_request_id_ = 1;
  std::int64_t internal_io_count_ = 0;
  Micros internal_io_time_ = 0;
  std::int64_t aborted_chain_count_ = 0;

  // First failing sector of the most recent unrecoverable internal error;
  // read by verify chains' on_abort so their completion callback can
  // report which sector went bad.
  SectorNo last_internal_error_sector_ = -1;

  // Presence filter over block-table originals and active chain keys.
  TranslationFilter translation_filter_;
  // Last successful table lookup; invalidated on any table/chain mutation,
  // so a valid entry proves the mapping still holds and no chain is active
  // for it.
  bool cache_valid_ = false;
  bool cache_dirty_ = false;
  SectorNo cache_original_ = 0;
  SectorNo cache_relocated_ = 0;
  // SubmitBlockBatch window state: while batching_ is set, RouteBlock
  // stages its final physical requests here instead of submitting them
  // one by one; the batch entry point flushes the run with one
  // DiskSystem::SubmitBatch call.
  bool batching_ = false;
  std::vector<sched::IoRequest> staged_;

  // Active move chains keyed by the block's original physical start sector.
  std::unordered_map<SectorNo, MoveChain> moving_;
  // Internal request id -> chain key.
  std::unordered_map<std::int64_t, SectorNo> internal_ops_;
  // Blocks still awaiting clean-out (original start sectors).
  std::deque<SectorNo> clean_queue_;
  // Reserved-area slots claimed by in-flight copy chains whose table
  // entries have not landed yet; counted by DKIOCBCOPY validation so
  // concurrent copies can neither share a slot nor overflow the table.
  // Also holds slots quarantined until their freeing mutation is durable
  // (see QuarantineSlot).
  std::unordered_set<SectorNo> pending_targets_;
  // Slots awaiting the next completed table write before reuse; subset of
  // pending_targets_.
  std::vector<SectorNo> quarantined_slots_;
};

}  // namespace abr::driver

#endif  // ABR_DRIVER_ADAPTIVE_DRIVER_H_

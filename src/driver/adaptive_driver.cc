#include "driver/adaptive_driver.h"

#include <algorithm>
#include <cassert>

namespace abr::driver {

AdaptiveDriver::AdaptiveDriver(disk::Disk* disk, disk::DiskLabel label,
                               DriverConfig config, BlockTableStore* store)
    : disk_(disk),
      label_(std::move(label)),
      config_(config),
      store_(store),
      system_(disk, sched::MakeScheduler(
                        config.scheduler,
                        label_.physical_geometry().sectors_per_cylinder())),
      block_table_(std::make_unique<BlockTable>(config.block_table_capacity)),
      request_monitor_(config.request_monitor_capacity) {
  assert(disk_ != nullptr);
  assert(disk_->geometry() == label_.physical_geometry());
  assert(config.block_size_bytes > 0 &&
         config.block_size_bytes %
                 label_.physical_geometry().bytes_per_sector ==
             0);
  system_.set_completion_sink(this);
}

Status AdaptiveDriver::Attach(bool after_crash) {
  if (attached_) return Status::FailedPrecondition("already attached");
  block_sectors_ =
      config_.block_size_bytes / label_.physical_geometry().bytes_per_sector;

  if (label_.rearranged()) {
    if (store_ == nullptr) {
      return Status::InvalidArgument(
          "rearranged disk requires a block-table store");
    }
    table_area_sectors_ = BlockTable::SerializedSectors(
        config_.block_table_capacity,
        label_.physical_geometry().bytes_per_sector);
    if (table_area_sectors_ >= label_.reserved_sector_count()) {
      return Status::InvalidArgument(
          "reserved region too small for the block table");
    }
    std::optional<std::vector<std::uint8_t>> image = store_->Load();
    if (image.has_value()) {
      StatusOr<BlockTable> loaded =
          BlockTable::Deserialize(*image, config_.block_table_capacity);
      if (!loaded.ok() && after_crash) {
        // A crash can tear the table write mid-image. Fall back to the
        // store's shadow copy (two-area layout), or — if that is also
        // unusable — to an empty table: every block then reads from its
        // original position, which is safe because a copy-in only redirects
        // writes after its table update is durable, and a dirty clean-out
        // leaves current data at the relocated slot that the entry in the
        // *older* shadow image still points at.
        perf_monitor_.RecordRecoveryFallback();
        std::optional<std::vector<std::uint8_t>> shadow =
            store_->LoadFallback();
        if (shadow.has_value()) {
          loaded = BlockTable::Deserialize(*shadow,
                                           config_.block_table_capacity);
        }
        if (!loaded.ok()) {
          loaded = BlockTable(config_.block_table_capacity);
        }
      }
      if (!loaded.ok()) return loaded.status();
      *block_table_ = std::move(loaded.value());
      if (after_crash) {
        // The on-disk dirty bits may be stale; assume the worst so that no
        // update to a repositioned block can be lost (Section 4.1.2).
        block_table_->MarkAllDirty();
        perf_monitor_.RecordRecoveryDirtied(block_table_->size());
        // Replace whatever torn image the store holds with a valid one.
        SaveTable();
      }
    } else {
      SaveTable();
    }
  }
  // Rebuild the presence filter from the loaded table (empty on a
  // non-rearranged disk, so the fast path skips all probes there).
  translation_filter_ = TranslationFilter(
      label_.physical_geometry().total_sectors(), block_sectors_);
  for (const BlockTableEntry& e : block_table_->entries()) {
    translation_filter_.Add(e.original);
  }
  InvalidateTranslationCache();
  attached_ = true;
  return Status::Ok();
}

Status AdaptiveDriver::Detach() {
  if (!attached_) return Status::FailedPrecondition("driver not attached");
  Drain();
  if (label_.rearranged()) {
    SaveTable();
    // Charge the final table write like any other table update.
    MoveChain chain;
    chain.ops.push_back(
        ChainOp{TableWriteOp(), [this]() { ReleaseDurableQuarantine(); }});
    BeginChain(label_.reserved_first_sector(), std::move(chain));
    Drain();
  }
  attached_ = false;
  return Status::Ok();
}

StatusOr<const disk::Partition*> AdaptiveDriver::CheckedPartition(
    std::int32_t device) const {
  if (device < 0 ||
      device >= static_cast<std::int32_t>(label_.partitions().size())) {
    return Status::InvalidArgument("no such logical device");
  }
  return &label_.partitions()[static_cast<std::size_t>(device)];
}

AdaptiveDriver::PhysExtents AdaptiveDriver::MapVirtualExtent(
    SectorNo virtual_sector, std::int64_t count) const {
  assert(label_.virtual_geometry().ContainsRange(virtual_sector, count));
  PhysExtents out;
  if (!label_.rearranged()) {
    out.extent[0] = PhysExtent{virtual_sector, count};
    out.count = 1;
    return out;
  }
  const SectorNo boundary = label_.physical_geometry().FirstSectorOf(
      label_.reserved_first_cylinder());
  const std::int64_t shift = label_.reserved_sector_count();
  if (virtual_sector + count <= boundary) {
    out.extent[0] = PhysExtent{virtual_sector, count};
    out.count = 1;
  } else if (virtual_sector >= boundary) {
    out.extent[0] = PhysExtent{virtual_sector + shift, count};
    out.count = 1;
  } else {
    const std::int64_t head = boundary - virtual_sector;
    out.extent[0] = PhysExtent{virtual_sector, head};
    out.extent[1] = PhysExtent{boundary + shift, count - head};
    out.count = 2;
  }
  return out;
}

Status AdaptiveDriver::SubmitBlock(std::int32_t device, BlockNo block,
                                   sched::IoType type, Micros arrival_time) {
  if (!attached_) return Status::FailedPrecondition("driver not attached");
  // With a continuous arranger listening, walk the clock up to the arrival
  // first: the idle span this request terminates is offered to the sink,
  // and the arrival then preempts exactly at its timestamp.
  if (idle_sink_ != nullptr && arrival_time > system_.now()) {
    AdvanceTo(arrival_time);
  }
  return RouteBlock(device, block, type, arrival_time, /*record_stats=*/true);
}

Status AdaptiveDriver::RouteBlock(std::int32_t device, BlockNo block,
                                  sched::IoType type, Micros arrival_time,
                                  bool record_stats) {
  StatusOr<const disk::Partition*> part = CheckedPartition(device);
  if (!part.ok()) return part.status();
  if (block < 0 || (block + 1) * block_sectors_ > (*part)->sector_count) {
    return Status::OutOfRange("block outside partition");
  }
  const SectorNo vsector = (*part)->first_sector + block * block_sectors_;
  const PhysExtents extents = MapVirtualExtent(vsector, block_sectors_);
  const SectorNo original = extents[0].sector;
  // Kick off the filter-counter load now; the stats recording below gives
  // the prefetch time to land before MayContain() reads it.
  translation_filter_.Prefetch(original);

  if (record_stats) {
    perf_monitor_.RecordArrival(
        type, label_.physical_geometry().CylinderOf(original));
    request_monitor_.Record(
        RequestRecord{device, block, config_.block_size_bytes, type});
    NoteExternalArrival();
  }

  PhysExtents finals = extents;
  if (!translation_filter_.MayContain(original)) {
    // Fast path: no table entry and no move chain can exist for this
    // block, so the mapped extents go straight to the scheduler.
    assert(Untranslated(original));
  } else if (cache_valid_ && cache_original_ == original &&
             extents.size() == 1) {
    // Last-translation cache hit; a valid entry proves the mapping still
    // holds and no chain is active for it (any mutation invalidates).
    assert(CacheMatchesTable());
    if (type == sched::IoType::kWrite && !cache_dirty_) {
      Status s = block_table_->MarkDirty(original);
      assert(s.ok());
      (void)s;
      cache_dirty_ = true;
    }
    finals.extent[0].sector = cache_relocated_;
  } else {
    if (auto it = moving_.find(original); it != moving_.end()) {
      it->second.held.push_back(HeldRequest{device, block, /*raw_sector=*/0,
                                            /*raw_count=*/0, type,
                                            arrival_time});
      return Status::Ok();
    }
    if (extents.size() == 1) {
      if (std::optional<BlockTableEntry> entry =
              block_table_->LookupEntry(original)) {
        if (type == sched::IoType::kWrite && !entry->dirty) {
          // In-memory dirty bit only; the on-disk copy's bits may go
          // stale, which recovery compensates for by marking everything
          // dirty.
          Status s = block_table_->MarkDirty(original);
          assert(s.ok());
          (void)s;
          entry->dirty = true;
        }
        finals.extent[0].sector = entry->relocated;
        cache_valid_ = true;
        cache_dirty_ = entry->dirty;
        cache_original_ = original;
        cache_relocated_ = entry->relocated;
      }
    }
    // A block straddling the hidden-region boundary maps to two physical
    // extents and is never eligible for rearrangement, so no lookup
    // applies.
  }

  for (const PhysExtent& e : finals) {
    sched::IoRequest req;
    req.id = next_request_id_++;
    req.type = type;
    req.arrival_time = arrival_time;
    req.sector = e.sector;
    req.sector_count = e.count;
    req.logical_block = block;
    req.device = device;
    if (batching_) {
      staged_.push_back(req);
    } else {
      system_.Submit(req);
    }
  }
  return Status::Ok();
}

Status AdaptiveDriver::SubmitBlockBatch(const BlockRequest* requests,
                                        std::size_t n) {
  if (!attached_) return Status::FailedPrecondition("driver not attached");
  std::size_t i = 0;
  while (i < n) {
    if (system_.halted()) break;  // dead machine: the rest is simply lost
    // A batched window is sound only when nobody needs the intermediate
    // clock states: no armed idle sink (it would be offered idle spans by
    // the per-request path) and — when a sink is registered at all — no
    // internal op in flight (its stall charge reads the clock at each
    // arrival).
    const bool stepped =
        idle_sink_ != nullptr &&
        (idle_sink_->wants_idle() || system_.current_is_internal());
    std::size_t j = i;
    if (!stepped && system_.busy()) {
      const Micros completes = *system_.next_completion_time();
      while (j < n && requests[j].arrival_time < completes) ++j;
    }
    if (j > i) {
      staged_.clear();
      batching_ = true;
      Status err = Status::Ok();
      for (std::size_t k = i; k < j; ++k) {
        err = RouteBlock(requests[k].device, requests[k].block,
                         requests[k].type, requests[k].arrival_time,
                         /*record_stats=*/true);
        if (!err.ok()) break;
      }
      batching_ = false;
      // Requests routed before an error were accepted — flush them even
      // when aborting, exactly as the per-record loop would have.
      if (!staged_.empty()) {
        system_.SubmitBatch(staged_.data(), staged_.size());
      }
      if (!err.ok()) return err;
      i = j;
    } else {
      Status s = SubmitBlock(requests[i].device, requests[i].block,
                             requests[i].type, requests[i].arrival_time);
      if (!s.ok()) return s;
      ++i;
    }
  }
  return Status::Ok();
}

Status AdaptiveDriver::SubmitRaw(std::int32_t device, SectorNo sector,
                                 std::int64_t count, sched::IoType type,
                                 Micros arrival_time) {
  if (!attached_) return Status::FailedPrecondition("driver not attached");
  StatusOr<const disk::Partition*> part = CheckedPartition(device);
  if (!part.ok()) return part.status();
  if (sector < 0 || count <= 0 || sector + count > (*part)->sector_count) {
    return Status::OutOfRange("raw extent outside partition");
  }
  if (idle_sink_ != nullptr && arrival_time > system_.now()) {
    AdvanceTo(arrival_time);
  }
  // physio: split at file-system block boundaries so that each piece is
  // either wholly rearranged or wholly not.
  SectorNo at = sector;
  std::int64_t remaining = count;
  while (remaining > 0) {
    const SectorNo boundary = (at / block_sectors_ + 1) * block_sectors_;
    const std::int64_t piece = std::min(remaining, boundary - at);
    ABR_RETURN_IF_ERROR(RouteRawFragment(device, at, piece, type,
                                         arrival_time,
                                         /*record_stats=*/true));
    at += piece;
    remaining -= piece;
  }
  return Status::Ok();
}

Status AdaptiveDriver::RouteRawFragment(std::int32_t device, SectorNo sector,
                                        std::int64_t count,
                                        sched::IoType type,
                                        Micros arrival_time,
                                        bool record_stats) {
  StatusOr<const disk::Partition*> part = CheckedPartition(device);
  if (!part.ok()) return part.status();
  const BlockNo block = sector / block_sectors_;
  const SectorNo block_start = block * block_sectors_;
  const bool whole_block_in_partition =
      block_start + block_sectors_ <= (*part)->sector_count;

  // Determine the containing block's original physical address; the block
  // table is keyed by it.
  SectorNo original_key = kInvalidBlock;
  PhysExtents block_extents;
  if (whole_block_in_partition) {
    block_extents =
        MapVirtualExtent((*part)->first_sector + block_start, block_sectors_);
    original_key = block_extents[0].sector;
  }

  const SectorNo vsector = (*part)->first_sector + sector;
  const PhysExtents direct = MapVirtualExtent(vsector, count);

  if (record_stats) {
    perf_monitor_.RecordArrival(
        type, label_.physical_geometry().CylinderOf(direct[0].sector));
    request_monitor_.Record(RequestRecord{
        device, block,
        static_cast<std::int32_t>(
            count * label_.physical_geometry().bytes_per_sector),
        type});
    NoteExternalArrival();
  }

  const bool may_translate = original_key != kInvalidBlock &&
                             translation_filter_.MayContain(original_key);
  // A filter miss proves the block has no table entry and no move chain.
  assert(may_translate || original_key == kInvalidBlock ||
         Untranslated(original_key));
  if (may_translate) {
    if (cache_valid_ && cache_original_ == original_key &&
        block_extents.size() == 1) {
      assert(CacheMatchesTable());
      if (type == sched::IoType::kWrite && !cache_dirty_) {
        Status s = block_table_->MarkDirty(original_key);
        assert(s.ok());
        (void)s;
        cache_dirty_ = true;
      }
      sched::IoRequest req;
      req.id = next_request_id_++;
      req.type = type;
      req.arrival_time = arrival_time;
      req.sector = cache_relocated_ + (sector - block_start);
      req.sector_count = count;
      req.logical_block = block;
      req.device = device;
      system_.Submit(req);
      return Status::Ok();
    }
    if (auto it = moving_.find(original_key); it != moving_.end()) {
      it->second.held.push_back(
          HeldRequest{device, /*block=*/kInvalidBlock, sector, count, type,
                      arrival_time});
      return Status::Ok();
    }
    if (block_extents.size() == 1) {
      if (std::optional<BlockTableEntry> entry =
              block_table_->LookupEntry(original_key)) {
        if (type == sched::IoType::kWrite && !entry->dirty) {
          Status s = block_table_->MarkDirty(original_key);
          assert(s.ok());
          (void)s;
          entry->dirty = true;
        }
        cache_valid_ = true;
        cache_dirty_ = entry->dirty;
        cache_original_ = original_key;
        cache_relocated_ = entry->relocated;
        sched::IoRequest req;
        req.id = next_request_id_++;
        req.type = type;
        req.arrival_time = arrival_time;
        req.sector = entry->relocated + (sector - block_start);
        req.sector_count = count;
        req.logical_block = block;
        req.device = device;
        system_.Submit(req);
        return Status::Ok();
      }
    }
  }

  for (const PhysExtent& e : direct) {
    sched::IoRequest req;
    req.id = next_request_id_++;
    req.type = type;
    req.arrival_time = arrival_time;
    req.sector = e.sector;
    req.sector_count = e.count;
    req.logical_block = block;
    req.device = device;
    system_.Submit(req);
  }
  return Status::Ok();
}

SectorNo AdaptiveDriver::reserved_data_first_sector() const {
  assert(label_.rearranged());
  return label_.reserved_first_sector() + table_area_sectors_;
}

std::int32_t AdaptiveDriver::reserved_slot_count() const {
  if (!label_.rearranged()) return 0;
  const std::int64_t data_sectors =
      label_.reserved_sector_count() - table_area_sectors_;
  const std::int64_t slots = data_sectors / block_sectors_;
  const std::int64_t usable =
      std::min<std::int64_t>(slots, config_.block_table_capacity);
  // The tail of the usable slots is held back as remap spares.
  return static_cast<std::int32_t>(
      std::max<std::int64_t>(0, usable - config_.spare_slots));
}

std::int32_t AdaptiveDriver::spare_slot_count() const {
  if (!label_.rearranged()) return 0;
  const std::int64_t data_sectors =
      label_.reserved_sector_count() - table_area_sectors_;
  const std::int64_t slots = data_sectors / block_sectors_;
  const std::int64_t usable =
      std::min<std::int64_t>(slots, config_.block_table_capacity);
  return static_cast<std::int32_t>(
      std::min<std::int64_t>(config_.spare_slots, usable));
}

SectorNo AdaptiveDriver::SpareSlotSector(std::int32_t spare) const {
  assert(spare >= 0 && spare < spare_slot_count());
  return reserved_data_first_sector() +
         static_cast<SectorNo>(reserved_slot_count() + spare) *
             block_sectors_;
}

bool AdaptiveDriver::IsSpareSlot(SectorNo sector) const {
  if (!label_.rearranged() || spare_slot_count() == 0) return false;
  const SectorNo data_first = reserved_data_first_sector();
  if (sector < data_first || (sector - data_first) % block_sectors_ != 0) {
    return false;
  }
  const std::int64_t slot = (sector - data_first) / block_sectors_;
  return slot >= reserved_slot_count() &&
         slot < reserved_slot_count() + spare_slot_count();
}

SectorNo AdaptiveDriver::ReservedSlotSector(std::int32_t slot) const {
  assert(slot >= 0 && slot < reserved_slot_count());
  return reserved_data_first_sector() +
         static_cast<SectorNo>(slot) * block_sectors_;
}

Cylinder AdaptiveDriver::ReservedSlotCylinder(std::int32_t slot) const {
  return label_.physical_geometry().CylinderOf(ReservedSlotSector(slot));
}

sched::IoRequest AdaptiveDriver::InternalOp(sched::IoType type,
                                            SectorNo sector,
                                            std::int64_t count) {
  sched::IoRequest op;
  op.type = type;
  op.sector = sector;
  op.sector_count = count;
  op.internal = true;
  return op;
}

sched::IoRequest AdaptiveDriver::TableWriteOp() const {
  return InternalOp(sched::IoType::kWrite, label_.reserved_first_sector(),
                    table_area_sectors_);
}

void AdaptiveDriver::SaveTable() {
  assert(store_ != nullptr);
  store_->Save(*block_table_);
}

void AdaptiveDriver::TableInsert(SectorNo original, SectorNo relocated) {
  Status s = block_table_->Insert(original, relocated);
  assert(s.ok());
  (void)s;
  translation_filter_.Add(original);
  InvalidateTranslationCache();
}

void AdaptiveDriver::TableRemove(SectorNo original) {
  Status s = block_table_->Remove(original);
  assert(s.ok());
  (void)s;
  translation_filter_.Remove(original);
  InvalidateTranslationCache();
}

void AdaptiveDriver::TableUpdateRelocated(SectorNo original,
                                          SectorNo relocated) {
  Status s = block_table_->UpdateRelocated(original, relocated);
  assert(s.ok());
  (void)s;
  InvalidateTranslationCache();
}

void AdaptiveDriver::QuarantineSlot(SectorNo slot) {
  pending_targets_.insert(slot);
  quarantined_slots_.push_back(slot);
}

void AdaptiveDriver::ReleaseDurableQuarantine() {
  for (SectorNo slot : quarantined_slots_) pending_targets_.erase(slot);
  quarantined_slots_.clear();
}

void AdaptiveDriver::BeginChain(SectorNo key, MoveChain chain) {
  translation_filter_.Add(key);
  InvalidateTranslationCache();
  moving_.emplace(key, std::move(chain));
  PumpChain(key);
}

AdaptiveDriver::GeometryInfo AdaptiveDriver::IoctlGetGeometry() const {
  GeometryInfo info;
  info.virtual_geometry = label_.virtual_geometry();
  info.rearranged = label_.rearranged();
  if (info.rearranged) {
    info.reserved_first_cylinder = label_.reserved_first_cylinder();
    info.reserved_cylinder_count = label_.reserved_cylinder_count();
  }
  info.block_size_bytes = config_.block_size_bytes;
  return info;
}

Status AdaptiveDriver::CheckRearranged() const {
  if (!attached_) return Status::FailedPrecondition("driver not attached");
  if (!label_.rearranged()) {
    return Status::FailedPrecondition("disk is not set up for rearrangement");
  }
  return Status::Ok();
}

Status AdaptiveDriver::CheckOriginal(SectorNo original) const {
  if (!label_.physical_geometry().ContainsRange(original, block_sectors_)) {
    return Status::OutOfRange("original block outside the disk");
  }
  const SectorNo res_first = label_.reserved_first_sector();
  if (original + block_sectors_ > res_first &&
      original < res_first + label_.reserved_sector_count()) {
    return Status::InvalidArgument(
        "original block overlaps the reserved region");
  }
  return Status::Ok();
}

Status AdaptiveDriver::CheckDataSlot(SectorNo target) const {
  const SectorNo data_first = reserved_data_first_sector();
  const SectorNo res_end =
      label_.reserved_first_sector() + label_.reserved_sector_count();
  if (target < data_first || target + block_sectors_ > res_end ||
      (target - data_first) % block_sectors_ != 0) {
    return Status::InvalidArgument("target is not a reserved-area slot");
  }
  if (IsSpareSlot(target)) {
    return Status::InvalidArgument("target is a remap spare slot");
  }
  return Status::Ok();
}

bool AdaptiveDriver::TableFull() const {
  // In-flight chains insert their entries only when the target write
  // completes, so validation must count reservations alongside the table:
  // otherwise two concurrent copies could claim one slot, or enough of
  // them could overflow the table's capacity when their inserts land.
  return block_table_->size() +
             static_cast<std::int32_t>(pending_targets_.size()) >=
         block_table_->capacity();
}

Status AdaptiveDriver::IoctlCopyBlock(SectorNo original, SectorNo target) {
  ABR_RETURN_IF_ERROR(CheckRearranged());
  ABR_RETURN_IF_ERROR(CheckOriginal(original));
  ABR_RETURN_IF_ERROR(CheckDataSlot(target));
  if (SlotClaimed(target)) {
    return Status::AlreadyExists("target slot occupied");
  }
  if (block_table_->Lookup(original).has_value()) {
    return Status::AlreadyExists("block already rearranged");
  }
  if (TableFull()) return Status::ResourceExhausted("block table full");
  if (IsMoving(original)) {
    return Status::Busy("block move already in progress");
  }
  // Copying a block into the reserved area: read original, write target,
  // write the table (three I/O operations, Section 4.1.3).
  BeginRelocation(original, target, /*source=*/std::nullopt,
                  /*read_from=*/original, /*mark_dirty=*/false,
                  &PerfMonitor::RecordCopyIn);
  return Status::Ok();
}

void AdaptiveDriver::BeginRelocation(SectorNo original, SectorNo target,
                                     std::optional<SectorNo> source,
                                     std::optional<SectorNo> read_from,
                                     bool mark_dirty,
                                     void (PerfMonitor::*record)()) {
  MoveChain chain;
  if (read_from.has_value()) {
    chain.ops.push_back(
        ChainOp{InternalOp(sched::IoType::kRead, *read_from, block_sectors_),
                [this, from = *read_from, target]() {
                  disk_->CopyPayload(from, target, block_sectors_);
                }});
  }
  chain.ops.push_back(ChainOp{
      InternalOp(sched::IoType::kWrite, target, block_sectors_),
      [this, original, target, source, mark_dirty]() {
        pending_targets_.erase(target);
        if (source.has_value()) {
          TableUpdateRelocated(original, target);
        } else {
          TableInsert(original, target);
        }
        if (mark_dirty) {
          Status s = block_table_->MarkDirty(original);
          assert(s.ok());
          (void)s;
        }
        SaveTable();
        if (source.has_value()) QuarantineSlot(*source);
      }});
  // Count the move only when the whole chain lands: an abort between the
  // entry update and the table write rolls the update back.
  chain.ops.push_back(ChainOp{TableWriteOp(), [this, record]() {
                                (perf_monitor_.*record)();
                                ReleaseDurableQuarantine();
                              }});

  // Abort rollback: if the entry already points at the target (the target
  // write completed but the table write failed for good), point it back
  // at the source slot or withdraw it. The source, or the original for a
  // new entry, still holds the block's current bytes — no redirected write
  // can have happened while the block was held — and the source slot was
  // quarantined on re-point, so nothing can have claimed it. The abandoned
  // target is quarantined in turn: a concurrent chain's table write may
  // already have committed the update durably. Clean-out chains need no
  // rollback: whether or not Remove ran, both locations hold the block's
  // bytes at every abort point.
  chain.on_abort = [this, original, target, source]() {
    pending_targets_.erase(target);
    const std::optional<SectorNo> relocated = block_table_->Lookup(original);
    if (relocated != target) return;
    if (source.has_value()) {
      TableUpdateRelocated(original, *source);
    } else {
      TableRemove(original);
    }
    SaveTable();
    QuarantineSlot(target);
  };

  pending_targets_.insert(target);
  BeginChain(original, std::move(chain));
}

Status AdaptiveDriver::IoctlClean() {
  ABR_RETURN_IF_ERROR(CheckRearranged());
  if (!clean_queue_.empty()) {
    return Status::Busy("clean already in progress");
  }
  for (const BlockTableEntry& e : block_table_->entries()) {
    // Blocks remapped into spare slots are permanent redirections (their
    // original location is bad media); the clean pass leaves them alone.
    if (IsSpareSlot(e.relocated)) continue;
    clean_queue_.push_back(e.original);
  }
  PumpClean();
  return Status::Ok();
}

void AdaptiveDriver::PumpClean() {
  SectorNo original = 0;
  std::optional<BlockTableEntry> entry;
  while (true) {
    if (clean_queue_.empty()) return;
    original = clean_queue_.front();
    clean_queue_.pop_front();
    entry = block_table_->LookupEntry(original);
    // Skip entries with nothing left to do: the entry is already gone, or
    // a chain for this block is still in flight — a DKIOCCLEAN issued
    // while the previous clean's final chain was retiring re-lists the
    // block, and starting a second chain under the same key would corrupt
    // the move registry.
    if (entry.has_value() && !IsMoving(original)) break;
  }

  MoveChain chain = MakeCleanOutChain(*entry);
  chain.on_finish = [this]() { PumpClean(); };
  BeginChain(original, std::move(chain));
}

AdaptiveDriver::MoveChain AdaptiveDriver::MakeCleanOutChain(
    const BlockTableEntry& entry) {
  const SectorNo original = entry.original;
  MoveChain chain;
  if (entry.dirty) {
    // Dirty block: copy it back to its original position first (two extra
    // I/O operations), then update and rewrite the table. The eviction
    // counts once the entry removal lands; a later table-write abort does
    // not undo the removal (both locations hold the block's bytes).
    const SectorNo relocated = entry.relocated;
    chain.ops.push_back(
        ChainOp{InternalOp(sched::IoType::kRead, relocated, block_sectors_),
                [this, relocated, original]() {
                  disk_->CopyPayload(relocated, original, block_sectors_);
                }});
    chain.ops.push_back(
        ChainOp{InternalOp(sched::IoType::kWrite, original, block_sectors_),
                [this, original, relocated]() {
                  TableRemove(original);
                  perf_monitor_.RecordEviction();
                  SaveTable();
                  QuarantineSlot(relocated);
                }});
  } else {
    // Clean block: the original still holds current data; just drop the
    // entry and rewrite the table (one I/O operation).
    TableRemove(original);
    perf_monitor_.RecordEviction();
    SaveTable();
    QuarantineSlot(entry.relocated);
  }
  chain.ops.push_back(
      ChainOp{TableWriteOp(), [this]() { ReleaseDurableQuarantine(); }});
  return chain;
}

Status AdaptiveDriver::IoctlMoveBlock(SectorNo original, SectorNo target) {
  ABR_RETURN_IF_ERROR(CheckRearranged());
  const std::optional<SectorNo> source = block_table_->Lookup(original);
  if (!source.has_value()) {
    return Status::NotFound("block is not rearranged");
  }
  ABR_RETURN_IF_ERROR(CheckDataSlot(target));
  if (target == *source) {
    return Status::InvalidArgument("block already occupies the target slot");
  }
  if (SlotClaimed(target)) {
    return Status::AlreadyExists("target slot occupied");
  }
  if (IsMoving(original)) {
    return Status::Busy("block move already in progress");
  }
  // Intra-region shuffle: read the current slot, write the new slot,
  // re-point the table entry, write the table (three I/O operations). The
  // original location is untouched; the dirty bit travels with the entry.
  BeginRelocation(original, target, source, /*read_from=*/source,
                  /*mark_dirty=*/false, &PerfMonitor::RecordShuffle);
  return Status::Ok();
}

Status AdaptiveDriver::IoctlEvictBlock(SectorNo original) {
  ABR_RETURN_IF_ERROR(CheckRearranged());
  std::optional<BlockTableEntry> entry = block_table_->LookupEntry(original);
  if (!entry.has_value()) {
    return Status::NotFound("block is not rearranged");
  }
  if (IsMoving(original)) {
    return Status::Busy("block move already in progress");
  }
  BeginChain(original, MakeCleanOutChain(*entry));
  return Status::Ok();
}

Status AdaptiveDriver::IoctlVerifyExtent(
    SectorNo sector, std::int64_t count, bool scrub,
    std::function<void(bool ok, SectorNo bad)> done) {
  if (!attached_) return Status::FailedPrecondition("driver not attached");
  if (count <= 0) return Status::InvalidArgument("empty verify extent");
  if (!label_.physical_geometry().ContainsRange(sector, count)) {
    return Status::OutOfRange("verify extent outside the disk");
  }
  if (IsMoving(sector)) {
    return Status::Busy("a chain is active for this key");
  }

  // One internal read; no table mutation. The shared-state dance mirrors
  // the move chains' abort protocol: a persistent failure aborts the chain
  // (setting the flag), and on_finish — which runs on abort too — reports
  // the outcome exactly once.
  struct VerifyState {
    bool failed = false;
    SectorNo bad = -1;
  };
  auto state = std::make_shared<VerifyState>();

  MoveChain chain;
  chain.ops.push_back(
      ChainOp{InternalOp(sched::IoType::kRead, sector, count), nullptr});
  chain.on_abort = [this, state, scrub]() {
    state->failed = true;
    state->bad = last_internal_error_sector_;
    if (scrub) perf_monitor_.RecordScrubHit();
  };
  chain.on_finish = [state, done = std::move(done)]() {
    if (done) done(!state->failed, state->bad);
  };
  BeginChain(sector, std::move(chain));
  return Status::Ok();
}

Status AdaptiveDriver::IoctlWriteExtent(SectorNo sector, std::int64_t count,
                                        std::function<void(bool ok)> done) {
  if (!attached_) return Status::FailedPrecondition("driver not attached");
  if (count <= 0) return Status::InvalidArgument("empty write extent");
  if (!label_.physical_geometry().ContainsRange(sector, count)) {
    return Status::OutOfRange("write extent outside the disk");
  }
  if (IsMoving(sector)) {
    return Status::Busy("a chain is active for this key");
  }

  auto failed = std::make_shared<bool>(false);
  MoveChain chain;
  chain.ops.push_back(
      ChainOp{InternalOp(sched::IoType::kWrite, sector, count), nullptr});
  chain.on_abort = [failed]() { *failed = true; };
  chain.on_finish = [failed, done = std::move(done)]() {
    if (done) done(!*failed);
  };
  BeginChain(sector, std::move(chain));
  return Status::Ok();
}

Status AdaptiveDriver::IoctlRepairBlock(SectorNo original, SectorNo target) {
  ABR_RETURN_IF_ERROR(CheckRearranged());
  ABR_RETURN_IF_ERROR(CheckOriginal(original));
  if (!IsSpareSlot(target)) {
    return Status::InvalidArgument("target is not a spare slot");
  }
  if (SlotClaimed(target)) {
    return Status::AlreadyExists("target slot occupied");
  }
  if (IsMoving(original)) {
    return Status::Busy("block move already in progress");
  }
  const std::optional<SectorNo> source = block_table_->Lookup(original);
  if (!source.has_value() && TableFull()) {
    return Status::ResourceExhausted("block table full");
  }
  // Two I/Os, neither of which touches the failing location: write the
  // spare slot (its payload was staged by the caller), then re-point or
  // insert the table entry — dirty, so nothing ever copies it back — and
  // rewrite the table.
  BeginRelocation(original, target, source, /*read_from=*/std::nullopt,
                  /*mark_dirty=*/true, &PerfMonitor::RecordRemap);
  return Status::Ok();
}

void AdaptiveDriver::PumpChain(SectorNo key) {
  auto it = moving_.find(key);
  assert(it != moving_.end());
  MoveChain& chain = it->second;
  if (chain.ops.empty()) {
    // Chain finished: release held requests (re-translating them, since
    // the block's location has changed) and retire the chain.
    std::vector<HeldRequest> held = std::move(chain.held);
    std::function<void()> on_finish = std::move(chain.on_finish);
    moving_.erase(it);
    translation_filter_.Remove(key);
    InvalidateTranslationCache();
    for (const HeldRequest& h : held) {
      Status s =
          h.block >= 0
              ? RouteBlock(h.device, h.block, h.type, h.arrival_time,
                           /*record_stats=*/false)
              : RouteRawFragment(h.device, h.raw_sector, h.raw_count, h.type,
                                 h.arrival_time, /*record_stats=*/false);
      assert(s.ok());
      (void)s;
    }
    if (on_finish) on_finish();
    return;
  }
  ChainOp op = std::move(chain.ops.front());
  chain.ops.pop_front();
  chain.active_after = std::move(op.after);
  SubmitInternal(key, op.request);
}

void AdaptiveDriver::SubmitInternal(SectorNo key, sched::IoRequest op) {
  op.id = next_request_id_++;
  op.arrival_time = system_.now();
  op.internal = true;
  internal_ops_.emplace(op.id, key);
  system_.Submit(op);
}

void AdaptiveDriver::OnIoComplete(const sim::CompletedIo& done) {
  const bool failed = done.breakdown.media != disk::MediaStatus::kOk;
  if (failed) perf_monitor_.RecordMediaError();
  const bool retryable =
      failed && done.breakdown.media == disk::MediaStatus::kTransientError &&
      done.request.retries < config_.max_io_retries;

  if (done.request.internal) {
    ++internal_io_count_;
    internal_io_time_ += done.service_time;
    perf_monitor_.RecordInternalBusy(done.service_time);
    auto it = internal_ops_.find(done.request.id);
    assert(it != internal_ops_.end());
    const SectorNo key = it->second;
    internal_ops_.erase(it);
    auto chain_it = moving_.find(key);
    assert(chain_it != moving_.end());
    if (failed) {
      if (retryable) {
        // Re-issue the same operation; the chain's pending state change
        // (active_after) stays parked until a retry succeeds.
        perf_monitor_.RecordRetry();
        sched::IoRequest retry = done.request;
        ++retry.retries;
        SubmitInternal(key, retry);
      } else {
        last_internal_error_sector_ = done.breakdown.error_sector >= 0
                                          ? done.breakdown.error_sector
                                          : done.request.sector;
        AbortChain(key);
      }
      return;
    }
    if (chain_it->second.active_after) {
      chain_it->second.active_after();
      chain_it->second.active_after = nullptr;
    }
    PumpChain(key);
    return;
  }

  if (failed) {
    if (retryable) {
      // Same id, bumped retry count: the client sees one request whose
      // service merely took longer, exactly like a real driver's b_resid
      // retry loop.
      perf_monitor_.RecordRetry();
      sched::IoRequest retry = done.request;
      ++retry.retries;
      system_.Submit(retry);
      return;
    }
    // Budget exhausted or the medium is truly bad: the request fails. The
    // error completion still reaches the client sink so callers observe
    // the final outcome (and know the write was never acknowledged).
    perf_monitor_.RecordFailedRequest();
    if (client_sink_ != nullptr) client_sink_->OnIoComplete(done);
    return;
  }

  perf_monitor_.RecordCompletion(
      done.request.type, done.queue_time, done.service_time,
      done.breakdown.seek_distance, done.breakdown.rotation,
      done.breakdown.transfer, done.breakdown.buffer_hit);
  if (client_sink_ != nullptr) client_sink_->OnIoComplete(done);
}

void AdaptiveDriver::AbortChain(SectorNo key) {
  auto it = moving_.find(key);
  assert(it != moving_.end());
  MoveChain& chain = it->second;
  perf_monitor_.RecordAbortedChain();
  ++aborted_chain_count_;
  chain.ops.clear();
  chain.active_after = nullptr;
  if (chain.on_abort) {
    std::function<void()> rollback = std::move(chain.on_abort);
    chain.on_abort = nullptr;
    rollback();
  }
  // With no ops left PumpChain retires the chain normally: held requests
  // are released against the rolled-back table and on_finish (the clean
  // pass's pump) keeps going with the next block.
  PumpChain(key);
}

void AdaptiveDriver::NoteExternalArrival() {
  if (idle_sink_ == nullptr) return;
  if (!moving_.empty()) idle_sink_->OnBusy();
  if (system_.current_is_internal()) {
    // The arriving request is stalled at least until the in-flight
    // movement/table operation retires; charge that remainder as
    // arrangement interference.
    const std::optional<Micros> next = system_.next_completion_time();
    if (next.has_value() && *next > system_.now()) {
      perf_monitor_.RecordArrangeStall(*next - system_.now());
    }
  }
}

void AdaptiveDriver::AdvanceTo(Micros t) {
  // Batched advance whenever no sink wants the intermediate idle windows
  // (no sink at all, or a continuous arranger with no plan open — the
  // common case for onoff/sweep/policy/bench days). Exact: the stepped
  // loop below performs the same completion sequence, and OnIdle would
  // decline every offer.
  if (idle_sink_ == nullptr || !idle_sink_->wants_idle()) {
    system_.AdvanceTo(t);
    return;
  }
  // Step completion by completion so every idle span inside [now, t) is
  // offered to the sink. The sink is consulted only when the disk is fully
  // idle (nothing queued, nothing in flight — so no stale-translated
  // request can race a chain it starts); once it declines to submit, the
  // remaining span really is idle and the clock jumps it in one go.
  while (!system_.halted() && system_.now() < t) {
    const std::optional<Micros> next = system_.next_completion_time();
    if (next.has_value() && *next <= t) {
      system_.AdvanceTo(*next);
      continue;
    }
    if (idle_sink_ != nullptr && !system_.busy() && system_.queued() == 0) {
      const std::int64_t before = next_request_id_;
      idle_sink_->OnIdle(t);
      if (next_request_id_ != before) continue;  // sink submitted work
    }
    break;
  }
  system_.AdvanceTo(t);
}

Micros AdaptiveDriver::Drain() {
  Micros t = system_.Drain();
  // Completion callbacks may have queued more chain ops; keep going until
  // every move chain has retired. A halted (crashed) system never completes
  // anything again, so chains frozen mid-flight are left as they are.
  while (!system_.halted() &&
         (!moving_.empty() || system_.busy() || system_.queued() > 0)) {
    t = system_.Drain();
    if (!system_.busy() && system_.queued() == 0 && !moving_.empty()) {
      // A chain exists but has no I/O in flight: it must be waiting in
      // PumpChain — impossible by construction. Guard against livelock.
      assert(false && "stalled move chain");
      break;
    }
  }
  return t;
}

std::size_t AdaptiveDriver::held_request_count() const {
  std::size_t n = 0;
  for (const auto& [key, chain] : moving_) n += chain.held.size();
  return n;
}

}  // namespace abr::driver

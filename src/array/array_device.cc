#include "array/array_device.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "analyzer/counter.h"
#include "driver/block_table.h"
#include "sim/lookahead.h"

namespace abr::array {

const char* RaidLevelName(RaidLevel level) {
  return level == RaidLevel::kRaid0 ? "raid0" : "raid1";
}

const char* MemberStateName(MemberState state) {
  switch (state) {
    case MemberState::kOnline:
      return "online";
    case MemberState::kDead:
      return "dead";
    case MemberState::kResync:
      return "resync";
  }
  return "?";
}

ArrayDevice::ArrayDevice(ArrayConfig config) : config_(std::move(config)) {
  init_error_ = Validate();
  if (init_error_.ok()) init_error_ = Layout();
}

ArrayDevice::~ArrayDevice() = default;

Status ArrayDevice::Validate() const {
  if (config_.members < 1) return Status::InvalidArgument("members < 1");
  if (config_.level == RaidLevel::kRaid1 && config_.members < 2) {
    return Status::InvalidArgument("raid1 needs at least 2 members");
  }
  if (config_.chunk_blocks < 1) {
    return Status::InvalidArgument("chunk_blocks < 1");
  }
  if (config_.threads < 1) return Status::InvalidArgument("threads < 1");
  if (config_.resync_granule_blocks < 1) {
    return Status::InvalidArgument("resync_granule_blocks < 1");
  }
  if (config_.rearrange_blocks < 1) {
    return Status::InvalidArgument("rearrange_blocks < 1");
  }
  if (config_.spare_slots < 0) {
    return Status::InvalidArgument("spare_slots < 0");
  }
  if (!config_.fault_plans.empty() &&
      config_.fault_plans.size() != static_cast<std::size_t>(config_.members)) {
    return Status::InvalidArgument("fault_plans must be empty or per-member");
  }
  if (config_.ranking == Ranking::kMemberAnalyzers) {
    if (config_.level == RaidLevel::kRaid1) {
      return Status::InvalidArgument(
          "raid1 ranks from device counts (mirror tables move in lockstep)");
    }
    if (config_.scrub_batch > 0) {
      return Status::InvalidArgument(
          "scrub finds cold blocks from device counts");
    }
  } else if (config_.system.continuous || config_.system.count_decay > 0) {
    return Status::InvalidArgument(
        "continuous plans and count decay need member analyzers");
  }
  return Status::Ok();
}

Status ArrayDevice::Layout() {
  const disk::Geometry& g = config_.drive.geometry;
  StatusOr<disk::DiskLabel> label =
      disk::DiskLabel::Rearranged(g, config_.reserved_cylinders);
  if (!label.ok()) return label.status();
  label_ = std::move(*label);
  Status s = label_.PartitionEvenly(1);
  if (!s.ok()) return s;

  block_sectors_ = config_.system.driver.block_size_bytes / g.bytes_per_sector;
  if (block_sectors_ <= 0) return Status::InvalidArgument("bad block size");
  member_blocks_ = label_.partitions()[0].sector_count / block_sectors_;
  if (member_blocks_ <= 0) return Status::InvalidArgument("device too small");

  if (config_.level == RaidLevel::kRaid0) {
    // Clamp each member to whole chunks so every virtual block maps to a
    // full local block on some member.
    const std::int64_t usable =
        (member_blocks_ / config_.chunk_blocks) * config_.chunk_blocks;
    if (usable <= 0) {
      return Status::InvalidArgument("chunk larger than a member");
    }
    device_blocks_ = usable * config_.members;
    stripe_ = sim::StripeMap(config_.members, config_.chunk_blocks,
                             device_blocks_);
  } else {
    device_blocks_ = member_blocks_;
    refs_.assign(static_cast<std::size_t>(member_blocks_), 0);
  }
  granule_sectors_ =
      config_.resync_granule_blocks * static_cast<std::int64_t>(block_sectors_);
  return Status::Ok();
}

Status ArrayDevice::Start() {
  if (started()) return Status::FailedPrecondition("already started");
  if (!init_error_.ok()) return init_error_;
  pass_blocks_ = config_.rearrange_blocks;
  merger_ = sim::CompletionMerger(config_.members);
  members_.clear();
  for (std::int32_t i = 0; i < config_.members; ++i) {
    members_.push_back(std::make_unique<Member>(this, i));
    Status b = BuildMember(i);
    if (!b.ok()) return b;
  }
  Timing timing;
  timing.members = config_.members;
  timing.threads = config_.threads;
  timing.epoch = config_.epoch;
  timing.adaptive_epoch = config_.adaptive_epoch;
  timing.max_epoch_grids = config_.max_epoch_grids;
  timing.lookahead_floor = sim::LookaheadFloor(config_.drive.geometry);
  InitEngine(timing);
  MarkStarted(/*submit_floor=*/0);
  return Status::Ok();
}

Status ArrayDevice::BuildMember(std::int32_t index) {
  Member& m = *members_[index];
  fault::FaultPlan plan;
  if (!config_.fault_plans.empty()) plan = config_.fault_plans[index];
  m.disk = std::make_unique<fault::FaultyDisk>(
      config_.drive, std::move(plan),
      config_.fault_seed ^ (0x9E3779B97F4A7C15ULL * (index + 1)));
  m.store = std::make_unique<fault::CrashTableStore>();
  m.disk->set_table_observer(m.store.get());
  m.disk->SetTableArea(
      label_.reserved_first_sector(),
      driver::BlockTable::SerializedSectors(
          config_.rearrange_blocks + config_.spare_slots,
          config_.drive.geometry.bytes_per_sector));
  // Only a mirror keeps a dirty-region log.
  if (config_.level == RaidLevel::kRaid1) m.disk->set_write_observer(&m);
  if (config_.level == RaidLevel::kRaid0 &&
      config_.ranking == Ranking::kDeviceCounts) {
    m.refs.assign(static_cast<std::size_t>(device_blocks_ / config_.members),
                  0);
  }
  return BuildMemberSystem(m, /*after_crash=*/false);
}

Status ArrayDevice::BuildMemberSystem(Member& m, bool after_crash) {
  core::AdaptiveSystemConfig cfg = config_.system;
  cfg.rearrange_blocks = pass_blocks_;
  cfg.driver.block_table_capacity =
      config_.rearrange_blocks + config_.spare_slots;
  cfg.driver.spare_slots = config_.spare_slots;
  // A device that ranks from its own counts never drains the member
  // analyzers, so they keep no preallocated entries.
  if (config_.ranking == Ranking::kDeviceCounts) cfg.analyzer_entries = 0;
  m.system = std::make_unique<core::AdaptiveSystem>(m.disk.get(), label_, cfg,
                                                    m.store.get());
  Status s = m.system->Start(after_crash);
  m.driver().set_client_sink(&m);
  // Resync and scrub run in the member's idle windows. Without either, the
  // driver keeps the idle sink its system gave it: the continuous arranger
  // or none. (Validate keeps continuous plans and maintenance apart.)
  if (config_.level == RaidLevel::kRaid1 || config_.scrub_batch > 0) {
    m.driver().set_idle_sink(&m);
  }
  // A crash point firing inside the attach reads is a scheduled death,
  // detected at the next barrier — not a configuration error.
  if (!s.ok() && !m.driver().halted()) return s;
  return Status::Ok();
}

Micros ArrayDevice::now() const {
  Micros t = 0;
  for (const auto& m : members_) {
    t = std::max(t, m->driver().now());
  }
  return t;
}

std::int32_t ArrayDevice::online_members() const {
  std::int32_t n = 0;
  for (const auto& m : members_) {
    if (m->state == MemberState::kOnline) ++n;
  }
  return n;
}

bool ArrayDevice::degraded() const {
  for (const auto& m : members_) {
    if (m->state != MemberState::kOnline) return true;
  }
  return false;
}

bool ArrayDevice::failed() const {
  if (config_.level == RaidLevel::kRaid0) {
    for (const auto& m : members_) {
      if (m->state == MemberState::kDead) return true;
    }
    return false;
  }
  for (const auto& m : members_) {
    if (m->state != MemberState::kDead) return false;
  }
  return true;
}

std::uint64_t ArrayDevice::LiveWriteMask() const {
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i]->state != MemberState::kDead) mask |= 1ULL << i;
  }
  return mask;
}

std::int64_t ArrayDevice::resync_granules_pending() const {
  if (resync_.target < 0) return 0;
  return static_cast<std::int64_t>(resync_.reads.size()) +
         static_cast<std::int64_t>(resync_.read_done.size()) +
         (resync_.read_inflight ? 1 : 0);
}

SectorNo ArrayDevice::OriginalSectorOf(BlockNo local_block) const {
  const disk::Partition& part = label_.partitions()[0];
  const SectorNo vfirst =
      part.first_sector + local_block * static_cast<SectorNo>(block_sectors_);
  const SectorNo pfirst = label_.VirtualToPhysical(vfirst);
  const SectorNo plast = label_.VirtualToPhysical(vfirst + block_sectors_ - 1);
  if (plast - pfirst != block_sectors_ - 1) return -1;  // straddles
  return pfirst;
}

Status ArrayDevice::Submit(const workload::TraceRecord& record) {
  return SubmitBatch(&record, 1);
}

void ArrayDevice::RouteRaid1(const workload::TraceRecord& record) {
  ++refs_[static_cast<std::size_t>(record.block)];
  if (record.type == sched::IoType::kWrite) {
    // Writes fan out to every member that holds (or is catching up to)
    // the mirror; a resyncing member takes new writes immediately so its
    // dirty-region log only shrinks.
    bool any = false;
    for (auto& m : members_) {
      if (m->state == MemberState::kDead) continue;
      ++m->outstanding_writes[record.block];
      Stage(m->index,
            workload::TraceRecord{record.time, 0, record.block, record.type});
      any = true;
    }
    if (!any) ++lost_requests_;
    return;
  }
  const std::int32_t pick = PickReadMember(record.block);
  if (pick < 0) {
    ++lost_requests_;
    return;
  }
  Stage(pick, workload::TraceRecord{record.time, 0, record.block, record.type});
}

std::int32_t ArrayDevice::PickReadMember(BlockNo block) const {
  // Shortest predicted seek: compare each online member's head position
  // with the block's mapped (or original) cylinder. Ties go to the lowest
  // index so routing is deterministic.
  const disk::Geometry& g = config_.drive.geometry;
  const disk::Partition& part = label_.partitions()[0];
  const SectorNo vfirst =
      part.first_sector + block * static_cast<SectorNo>(block_sectors_);
  const SectorNo original = OriginalSectorOf(block);
  std::int32_t best = -1;
  std::int64_t best_dist = std::numeric_limits<std::int64_t>::max();
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const Member& m = *members_[i];
    if (m.state != MemberState::kOnline) continue;
    SectorNo target = original >= 0 ? original : label_.VirtualToPhysical(vfirst);
    if (original >= 0) {
      if (auto mapped = m.driver().block_table().Lookup(original)) {
        target = *mapped;
      }
    }
    const std::int64_t dist =
        std::abs(static_cast<std::int64_t>(m.disk->head_cylinder()) -
                 static_cast<std::int64_t>(g.CylinderOf(target)));
    if (dist < best_dist) {
      best_dist = dist;
      best = static_cast<std::int32_t>(i);
    }
  }
  return best;
}

Status ArrayDevice::SubmitBatch(const workload::TraceRecord* records,
                                std::size_t count) {
  // Member states change only at barriers, never inside a batch, so RAID0
  // routing looks at a member only to count or to find it dead: address
  // arithmetic alone keeps it off memory the members' step threads write.
  const bool device_counts = config_.ranking == Ranking::kDeviceCounts;
  const bool any_dead = degraded();
  for (std::size_t i = 0; i < count; ++i) {
    const workload::TraceRecord& record = records[i];
    ABR_RETURN_IF_ERROR(CheckSubmit(record));
    if (config_.level == RaidLevel::kRaid1) {
      RouteRaid1(record);
      continue;
    }
    const std::int32_t member = stripe_.MemberOf(record.block);
    const BlockNo local = stripe_.LocalOf(record.block);
    if (device_counts) {
      ++members_[static_cast<std::size_t>(member)]
            ->refs[static_cast<std::size_t>(local)];
    }
    if (any_dead &&
        members_[static_cast<std::size_t>(member)]->state ==
            MemberState::kDead) {
      ++lost_requests_;
      continue;
    }
    Stage(member, workload::TraceRecord{record.time, 0, local, record.type});
  }
  return Status::Ok();
}

driver::AdaptiveDriver* ArrayDevice::StepDriver(std::int32_t member) const {
  const Member& m = *members_[static_cast<std::size_t>(member)];
  return m.state == MemberState::kDead ? nullptr : &m.driver();
}

void ArrayDevice::OnBoundary(std::int32_t member, Micros t) {
  if (config_.ranking != Ranking::kMemberAnalyzers) return;
  core::AdaptiveSystem& sys =
      *members_[static_cast<std::size_t>(member)]->system;
  sys.PeriodicTick(std::max(t, sys.driver().now()));
}

bool ArrayDevice::submits_while_stepping() const {
  if (config_.level != RaidLevel::kRaid0 || config_.scrub_batch > 0) {
    return false;
  }
  for (const fault::FaultPlan& plan : config_.fault_plans) {
    if (!plan.crashes.empty()) return false;
  }
  return true;
}

bool ArrayDevice::ExtensionSafe() const {
  if (config_.level != RaidLevel::kRaid0) return false;
  if (config_.scrub_batch > 0) return false;
  if (resync_.target >= 0) return false;
  if (!pending_remaps_.empty()) return false;
  for (const auto& m : members_) {
    if (m->state != MemberState::kOnline || m->disk->crashed()) return false;
    if (m->scrub_inflight || !m->scrub_queue.empty() ||
        !m->scrub_bad.empty()) {
      return false;
    }
  }
  return true;
}

// --- Member callbacks ----------------------------------------------------

void ArrayDevice::Member::OnIoComplete(const sim::CompletedIo& done) {
  // Only mirror routing counts outstanding writes.
  if (!outstanding_writes.empty() && !done.request.internal &&
      done.request.type == sched::IoType::kWrite &&
      done.request.logical_block != kInvalidBlock) {
    auto it = outstanding_writes.find(done.request.logical_block);
    if (it != outstanding_writes.end() && --it->second <= 0) {
      outstanding_writes.erase(it);
    }
  }
  // Worker-side: the lane is this member's own until the barrier.
  if (device->completion_sink_ != nullptr) {
    device->merger_.lane(index).push_back(done);
  }
}

void ArrayDevice::Member::OnWriteServiced(SectorNo sector,
                                          std::int64_t count) {
  write_lane.emplace_back(sector, count);
}

void ArrayDevice::Member::OnIdle(Micros horizon) {
  (void)horizon;
  Resync& rs = device->resync_;
  if (rs.target >= 0 && rs.source == index) {
    // Resync read pump: one granule verify-read at a time, issued only in
    // idle windows so user traffic always wins the disk.
    if (!rs.read_inflight && !rs.reads.empty()) {
      const std::int64_t g = rs.reads.front();
      rs.reads.pop_front();
      const SectorNo first = g * device->granule_sectors_;
      const std::int64_t total =
          device->config_.drive.geometry.total_sectors();
      const std::int64_t count =
          std::min(device->granule_sectors_, total - first);
      Member* self = this;
      Status st = driver().IoctlVerifyExtent(
          first, count, /*scrub=*/false,
          [self, g](bool ok, SectorNo bad) {
            (void)ok;
            (void)bad;
            // Media errors do not block resync: the payload plane is
            // still authoritative in the simulation, and stalling the
            // pump on a bad source granule would wedge the mirror.
            self->device->resync_.read_inflight = false;
            self->device->resync_.read_done.push_back(g);
          });
      if (st.ok()) {
        rs.read_inflight = true;
      } else {
        rs.reads.push_back(g);  // key busy; retry in a later window
      }
    }
    return;  // the source member does not scrub while feeding a resync
  }
  if (device->config_.scrub_batch > 0 && state == MemberState::kOnline &&
      !scrub_inflight && !scrub_queue.empty()) {
    const auto [block, mapped] = scrub_queue.front();
    scrub_queue.pop_front();
    Member* self = this;
    Status st = driver().IoctlVerifyExtent(
        mapped, device->block_sectors_, /*scrub=*/true,
        [self, block](bool ok, SectorNo bad) {
          (void)bad;
          self->scrub_inflight = false;
          if (!ok) self->scrub_bad.push_back(block);
        });
    if (st.ok()) {
      scrub_inflight = true;
    } else {
      scrub_queue.emplace_back(block, mapped);
    }
  }
}

bool ArrayDevice::Member::wants_idle() const {
  // Mirrors exactly the conditions under which OnIdle() could act: the
  // member is feeding an active resync, or scrubbing is configured and
  // cold blocks are queued. Otherwise the driver may advance the clock
  // batched — OnIdle would decline every window anyway.
  const Resync& rs = device->resync_;
  if (rs.target >= 0 && rs.source == index) return true;
  return device->config_.scrub_batch > 0 && state == MemberState::kOnline &&
         !scrub_queue.empty();
}

// --- Barrier maintenance -------------------------------------------------

void ArrayDevice::AtBarrier() {
  merger_.DrainInto(completion_sink_);
  for (auto& m : members_) {
    if (m->state != MemberState::kDead && m->disk->crashed()) {
      HandleDeath(*m);
    }
  }
  FoldWriteLanes();
  if (resync_.target >= 0) PumpResyncAtBarrier();
  ProcessScrubAtBarrier();
}

void ArrayDevice::HandleDeath(Member& m) {
  // If the victim was part of an active resync, unwind the pump: granules
  // in flight return to the target's dirty log.
  if (resync_.target == m.index || resync_.source == m.index) {
    Member& tgt = *members_[resync_.target];
    for (std::int64_t g : resync_.reads) tgt.dirty.insert(g);
    for (std::int64_t g : resync_.read_done) tgt.dirty.insert(g);
    resync_ = Resync{};
  }

  CollectStats(m);

  // Conservative dirty marking: the op on the medium at the crash, plus
  // every write routed here that never completed — each over-approximated
  // to its original extent and any relocated slot a member table knows.
  if (const auto& op = m.disk->crashed_op()) {
    MarkDirtyExtent(m, op->sector, op->count);
  }
  for (const auto& [block, count] : m.outstanding_writes) {
    (void)count;
    MarkDirtyBlock(m, block);
  }
  m.outstanding_writes.clear();
  ClearLane(m.index);
  m.scrub_queue.clear();
  m.scrub_inflight = false;
  m.scrub_bad.clear();
  m.state = MemberState::kDead;

  // A target that lost its source keeps resyncing from another survivor.
  for (auto& other : members_) {
    if (other->state != MemberState::kResync || resync_.target >= 0) continue;
    std::int32_t src = -1;
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (members_[i]->state == MemberState::kOnline) {
        src = static_cast<std::int32_t>(i);
        break;
      }
    }
    if (src < 0) {
      RecordError("resync source lost with no online survivor");
      continue;
    }
    resync_.target = other->index;
    resync_.source = src;
    resync_.reads.assign(other->dirty.begin(), other->dirty.end());
  }
}

void ArrayDevice::MarkDirtyExtent(Member& dead, SectorNo sector,
                                  std::int64_t count) {
  if (count <= 0) count = 1;
  const std::int64_t first = GranuleOf(sector);
  const std::int64_t last = GranuleOf(sector + count - 1);
  for (std::int64_t gg = first; gg <= last; ++gg) dead.dirty.insert(gg);
}

void ArrayDevice::MarkDirtyBlock(Member& dead, BlockNo block) {
  const disk::Partition& part = label_.partitions()[0];
  const SectorNo vfirst =
      part.first_sector + block * static_cast<SectorNo>(block_sectors_);
  const SectorNo plo = label_.VirtualToPhysical(vfirst);
  const SectorNo phi = label_.VirtualToPhysical(vfirst + block_sectors_ - 1);
  MarkDirtyExtent(dead, std::min(plo, phi),
                  std::max(plo, phi) - std::min(plo, phi) + 1);
  const SectorNo original = OriginalSectorOf(block);
  if (original < 0) return;
  for (auto& m : members_) {
    if (auto mapped = m->driver().block_table().Lookup(original)) {
      MarkDirtyExtent(dead, *mapped, block_sectors_);
    }
  }
}

void ArrayDevice::FoldWriteLanes() {
  bool any_dead = false;
  for (const auto& m : members_) {
    if (m->state == MemberState::kDead) any_dead = true;
  }
  for (auto& m : members_) {
    if (any_dead && !m->write_lane.empty()) {
      for (const auto& [sector, count] : m->write_lane) {
        for (auto& d : members_) {
          // Resyncing members take the write fan-out directly; only truly
          // dead members accumulate divergence.
          if (d->state != MemberState::kDead) continue;
          MarkDirtyExtent(*d, sector, count);
        }
      }
    }
    m->write_lane.clear();
  }
}

bool ArrayDevice::OutstandingOverlapsGranule(const Member& m,
                                             std::int64_t granule) const {
  const SectorNo glo = granule * granule_sectors_;
  const SectorNo ghi = glo + granule_sectors_;  // exclusive
  const disk::Partition& part = label_.partitions()[0];
  for (const auto& [block, count] : m.outstanding_writes) {
    (void)count;
    const SectorNo vfirst =
        part.first_sector + block * static_cast<SectorNo>(block_sectors_);
    const SectorNo plo = label_.VirtualToPhysical(vfirst);
    const SectorNo phi = label_.VirtualToPhysical(vfirst + block_sectors_ - 1);
    if (std::min(plo, phi) < ghi && glo <= std::max(plo, phi)) return true;
    const SectorNo original = OriginalSectorOf(block);
    if (original >= 0) {
      if (auto mapped = m.driver().block_table().Lookup(original)) {
        if (*mapped < ghi && glo < *mapped + block_sectors_) return true;
      }
    }
  }
  return false;
}

void ArrayDevice::CopyGranule(std::int64_t granule) {
  Member& src = *members_[resync_.source];
  Member& tgt = *members_[resync_.target];
  const SectorNo first = granule * granule_sectors_;
  const std::int64_t total = config_.drive.geometry.total_sectors();
  const std::int64_t count = std::min(granule_sectors_, total - first);
  for (std::int64_t k = 0; k < count; ++k) {
    tgt.disk->WritePayload(first + k, src.disk->ReadPayload(first + k));
  }
}

void ArrayDevice::PumpResyncAtBarrier() {
  Member& src = *members_[resync_.source];
  Member& tgt = *members_[resync_.target];
  std::vector<std::int64_t> done;
  done.swap(resync_.read_done);
  for (std::int64_t g : done) {
    // A write still in flight on the source means the source payload for
    // this granule may be older than what the target has already applied
    // (or will apply) from its own fan-out copy: defer the copy.
    if (OutstandingOverlapsGranule(src, g)) {
      resync_.reads.push_back(g);
      continue;
    }
    CopyGranule(g);
    const SectorNo first = g * granule_sectors_;
    const std::int64_t total = config_.drive.geometry.total_sectors();
    const std::int64_t count = std::min(granule_sectors_, total - first);
    Status st = tgt.driver().IoctlWriteExtent(
        first, count,
        [this](bool ok) {
          (void)ok;
          --resync_.writes_inflight;
        });
    if (!st.ok()) {
      // Chain key busy on the target: re-verify and retry later.
      resync_.reads.push_back(g);
      continue;
    }
    ++resync_.writes_inflight;
    tgt.dirty.erase(g);
    ++resync_copied_;
  }
  if (resync_.reads.empty() && !resync_.read_inflight &&
      resync_.read_done.empty() && resync_.writes_inflight == 0 &&
      tgt.dirty.empty()) {
    tgt.state = MemberState::kOnline;
    resync_ = Resync{};
    ++resyncs_completed_;
  }
}

void ArrayDevice::ProcessScrubAtBarrier() {
  // Collect new persistent-error hits.
  for (auto& m : members_) {
    for (BlockNo block : m->scrub_bad) {
      if (config_.level == RaidLevel::kRaid0) continue;  // detected only
      bool seen = false;
      for (const auto& [b, who] : pending_remaps_) {
        if (b == block) seen = true;
      }
      if (!seen) pending_remaps_.emplace_back(block, m->index);
    }
    m->scrub_bad.clear();
  }

  // Attempt deferred remaps when the array is quiet enough that the
  // lockstep repair cannot collide with anything: all members online, no
  // resync, no active move chains, no outstanding writes on the block.
  if (!pending_remaps_.empty() && config_.level == RaidLevel::kRaid1 &&
      !degraded() && resync_.target < 0) {
    bool quiet = true;
    for (auto& m : members_) {
      if (m->driver().active_chain_count() != 0) {
        quiet = false;
      }
    }
    if (quiet) {
      std::vector<std::pair<BlockNo, std::int32_t>> keep;
      for (const auto& [block, who] : pending_remaps_) {
        if (spare_cursor_ >= members_[0]->driver().spare_slot_count()) {
          keep.emplace_back(block, who);  // spares exhausted; park it
          continue;
        }
        bool outstanding = false;
        for (auto& m : members_) {
          if (m->outstanding_writes.count(block) != 0) outstanding = true;
        }
        if (outstanding) {
          keep.emplace_back(block, who);
          continue;
        }
        Status st = RemapBlock(block, who);
        if (!st.ok()) keep.emplace_back(block, who);
      }
      pending_remaps_.swap(keep);
    }
  }

  // Refill the scrub queues with cold blocks (zero references since the
  // last pass), in address order, wrapping around.
  if (config_.scrub_batch <= 0) return;
  for (auto& m : members_) {
    if (m->state != MemberState::kOnline) continue;
    if (resync_.target >= 0 && resync_.source == m->index) continue;
    if (!m->scrub_queue.empty() || m->scrub_inflight) continue;
    const std::int64_t local_blocks =
        config_.level == RaidLevel::kRaid0
            ? static_cast<std::int64_t>(m->refs.size())
            : member_blocks_;
    std::int32_t added = 0;
    for (std::int64_t scanned = 0;
         scanned < local_blocks && added < config_.scrub_batch; ++scanned) {
      const std::int64_t b = m->scrub_cursor;
      m->scrub_cursor = (m->scrub_cursor + 1) % local_blocks;
      const std::int64_t r = config_.level == RaidLevel::kRaid0
                                 ? m->refs[static_cast<std::size_t>(b)]
                                 : refs_[static_cast<std::size_t>(b)];
      if (r != 0) continue;
      const SectorNo original = OriginalSectorOf(b);
      if (original < 0) continue;
      SectorNo mapped = original;
      if (auto e = m->driver().block_table().Lookup(original)) mapped = *e;
      m->scrub_queue.emplace_back(b, mapped);
      ++added;
    }
  }
}

Status ArrayDevice::RemapBlock(BlockNo block, std::int32_t bad_member) {
  const SectorNo original = OriginalSectorOf(block);
  if (original < 0) return Status::InvalidArgument("straddling block");
  const SectorNo target = members_[0]->driver().SpareSlotSector(spare_cursor_);

  // Stage the good payload at the spare slot on every member before the
  // lockstep table redirection: the member that hit the error copies from
  // a healthy peer, everyone else from its own current location.
  for (auto& m : members_) {
    const Member* from = m.get();
    if (m->index == bad_member) {
      for (const auto& peer : members_) {
        if (peer->index != bad_member &&
            peer->state == MemberState::kOnline) {
          from = peer.get();
          break;
        }
      }
    }
    SectorNo src = original;
    if (auto e = from->driver().block_table().Lookup(original)) src = *e;
    for (std::int32_t k = 0; k < block_sectors_; ++k) {
      m->disk->WritePayload(target + k, from->disk->ReadPayload(src + k));
    }
  }
  for (auto& m : members_) {
    Status st = m->driver().IoctlRepairBlock(original, target);
    if (!st.ok()) {
      // The preconditions above make this unreachable; if it happens the
      // mirror tables are no longer provably lockstep.
      RecordError("lockstep remap failed on member " +
                  std::to_string(m->index) + ": " + st.ToString());
      return st;
    }
  }
  ++spare_cursor_;
  return Status::Ok();
}

// --- Arrangement ---------------------------------------------------------

StatusOr<placement::ArrangeResult> ArrayDevice::RearrangeAll() {
  if (!started()) return Status::FailedPrecondition("Start() has not run");
  const bool device_counts = config_.ranking == Ranking::kDeviceCounts;

  // Device counts track *submissions* — not completions — so the ranked
  // lists are identical across runs that saw the same request stream,
  // whatever each member's fate was.
  std::vector<analyzer::HotBlock> shared_ranked;
  std::vector<std::vector<analyzer::HotBlock>> member_ranked;
  auto build = [this](std::vector<std::int64_t>& refs) {
    std::vector<analyzer::HotBlock> ranked;
    for (std::size_t b = 0; b < refs.size(); ++b) {
      if (refs[b] > 0) {
        ranked.push_back(analyzer::HotBlock{
            analyzer::BlockId{0, static_cast<BlockNo>(b)}, refs[b]});
      }
      refs[b] = 0;
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const analyzer::HotBlock& a, const analyzer::HotBlock& b) {
                if (a.count != b.count) return a.count > b.count;
                return a.id.block < b.id.block;
              });
    if (ranked.size() > static_cast<std::size_t>(pass_blocks_)) {
      ranked.resize(static_cast<std::size_t>(pass_blocks_));
    }
    return ranked;
  };
  if (device_counts && config_.level == RaidLevel::kRaid1) {
    shared_ranked = build(refs_);
  } else if (device_counts) {
    member_ranked.resize(members_.size());
    for (std::size_t i = 0; i < members_.size(); ++i) {
      member_ranked[i] = build(members_[i]->refs);
    }
  }

  // The counts are reset either way, but the pass only runs with the full
  // mirror set online: arranging a partial set would fork the lockstep
  // tables, and the next all-online pass restores service anyway.
  if (degraded()) {
    ++passes_skipped_degraded_;
    return placement::ArrangeResult{};
  }

  return RunPass([&](std::int32_t i) -> StatusOr<placement::ArrangeResult> {
    Member& m = *members_[static_cast<std::size_t>(i)];
    StatusOr<placement::ArrangeResult> r =
        !device_counts ? m.system->Rearrange()
                       : m.system->RearrangeFrom(
                             config_.level == RaidLevel::kRaid1
                                 ? shared_ranked
                                 : member_ranked[static_cast<std::size_t>(i)]);
    if (!r.ok() && m.driver().halted()) {
      // The machine died mid-pass: a scheduled crash, not a pass error.
      placement::ArrangeResult dead;
      dead.halted = true;
      return dead;
    }
    return r;
  });
}

StatusOr<placement::ArrangeResult> ArrayDevice::CleanAll() {
  if (!started()) return Status::FailedPrecondition("Start() has not run");
  const bool device_counts = config_.ranking == Ranking::kDeviceCounts;
  if (device_counts) {
    for (auto& r : refs_) r = 0;
    for (auto& m : members_) {
      for (auto& r : m->refs) r = 0;
    }
  }
  if (degraded()) {
    ++passes_skipped_degraded_;
    return placement::ArrangeResult{};
  }
  return RunPass([&](std::int32_t i) -> StatusOr<placement::ArrangeResult> {
    Member& m = *members_[static_cast<std::size_t>(i)];
    driver::AdaptiveDriver& drv = m.driver();
    const std::int32_t before = drv.block_table().size();
    Status st = device_counts ? drv.IoctlClean() : m.system->Clean();
    if (!st.ok() && !drv.halted()) return st;
    if (device_counts) drv.Drain();
    placement::ArrangeResult r;
    r.cleaned = before - drv.block_table().size();
    r.evicted = r.cleaned;
    r.halted = drv.halted();
    return r;
  });
}

void ArrayDevice::set_rearrange_blocks(std::int32_t n) {
  pass_blocks_ = n;
  for (auto& m : members_) m->system->set_rearrange_blocks(n);
}

Status ArrayDevice::OpenContinuousPlanAll() {
  ABR_RETURN_IF_ERROR(CheckQuiesced());
  return ForEachMemberStatus([this](std::int32_t i) {
    return members_[static_cast<std::size_t>(i)]->system->OpenContinuousPlan();
  });
}

placement::ArrangeResult ArrayDevice::CloseContinuousDayAll() {
  StatusOr<placement::ArrangeResult> total =
      RunPass([this](std::int32_t i) -> StatusOr<placement::ArrangeResult> {
        return members_[static_cast<std::size_t>(i)]
            ->system->CloseContinuousDay();
      });
  return total.ok() ? *total : placement::ArrangeResult{};
}

bool ArrayDevice::continuous_plan_open() const {
  for (const auto& m : members_) {
    if (m->system->continuous_plan_open()) return true;
  }
  return false;
}

// --- Statistics ----------------------------------------------------------

void ArrayDevice::CollectStats(Member& m) {
  m.carry.MergeFrom(m.driver().IoctlReadStats(true));
  m.carry_valid = true;
}

driver::PerfSnapshot ArrayDevice::ReadStatsMerged(bool clear) {
  driver::PerfSnapshot merged;
  for (auto& m : members_) {
    if (m->carry_valid) {
      merged.MergeFrom(m->carry);
      if (clear) {
        m->faults_total.MergeFrom(m->carry.faults);
        m->carry = driver::PerfSnapshot();
        m->carry_valid = false;
      }
    }
    if (m->state != MemberState::kDead) {
      driver::PerfSnapshot s = m->driver().IoctlReadStats(clear);
      merged.MergeFrom(s);
      if (clear) m->faults_total.MergeFrom(s.faults);
    }
  }
  return merged;
}

driver::FaultCounters ArrayDevice::MemberFaults(std::int32_t member) const {
  const Member& m = *members_[member];
  driver::FaultCounters f = m.faults_total;
  if (m.carry_valid) f.MergeFrom(m.carry.faults);
  f.MergeFrom(m.driver().IoctlReadStats(false).faults);  // peek, no clear
  return f;
}

// --- Reattach ------------------------------------------------------------

Status ArrayDevice::ReattachMember(std::int32_t member) {
  if (!started()) return Status::FailedPrecondition("Start() has not run");
  if (config_.level != RaidLevel::kRaid1) {
    return Status::Unimplemented(
        "a raid0 member has no mirror to resync from");
  }
  if (member < 0 || member >= config_.members) {
    return Status::OutOfRange("no such member");
  }
  Member& m = *members_[member];
  if (m.state != MemberState::kDead) {
    return Status::FailedPrecondition("member is not dead");
  }
  if (resync_.target >= 0) {
    return Status::FailedPrecondition("another resync is active");
  }
  std::int32_t source = -1;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i]->state == MemberState::kOnline) {
      source = static_cast<std::int32_t>(i);
      break;
    }
  }
  if (source < 0) {
    return Status::FailedPrecondition("no online member to resync from");
  }

  // Boot the member from the survivor's durable table image (the dead
  // boot's own images lost the race when it dropped out of the mirror),
  // with the conservative after-crash recovery marking.
  m.store->MirrorDurableFrom(*members_[source]->store);
  m.disk->ClearCrash();
  Status s = BuildMemberSystem(m, /*after_crash=*/true);
  if (!s.ok()) return s;

  m.outstanding_writes.clear();
  m.write_lane.clear();
  m.state = MemberState::kResync;
  resync_.target = member;
  resync_.source = source;
  resync_.reads.assign(m.dirty.begin(), m.dirty.end());
  resync_.read_inflight = false;
  resync_.read_done.clear();
  resync_.writes_inflight = 0;
  return Status::Ok();
}

void ArrayDevice::RecordError(const std::string& what) {
  if (first_error_.empty()) first_error_ = what;
}

}  // namespace abr::array

#include "array/array_harness.h"

#include <algorithm>

namespace abr::array {

namespace {

// splitmix64 finalizer: cheap, well-mixed stamp.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void Fold(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
}

}  // namespace

std::uint64_t ArrayCrashHarness::PayloadValue(BlockNo block,
                                              std::uint64_t version,
                                              std::int64_t offset) {
  return Mix((static_cast<std::uint64_t>(block) << 32) ^ (version << 8) ^
             static_cast<std::uint64_t>(offset) ^ 0xABCD1234ULL);
}

ArrayCrashHarness::ArrayCrashHarness(ArrayHarnessConfig config)
    : config_(config), rng_(config.seed ^ 0xA77A4D15E1ULL) {
  ArrayConfig ac;
  ac.level = RaidLevel::kRaid1;
  ac.members = config_.members;
  ac.threads = 1;
  ac.epoch = config_.epoch;
  // RAID1 devices never fuse windows, but the flag still exercises the
  // adaptive planner's fall-back path end to end.
  ac.adaptive_epoch = config_.adaptive_epoch;
  ac.drive = disk::DriveSpec::TestDrive(config_.cylinders,
                                        config_.tracks_per_cylinder,
                                        config_.sectors_per_track);
  ac.reserved_cylinders = config_.reserved_cylinders;
  ac.rearrange_blocks = config_.rearrange_blocks;
  ac.spare_slots = config_.spare_slots;
  ac.resync_granule_blocks = config_.resync_granule_blocks;
  ac.scrub_batch = 0;
  ac.system.driver.block_size_bytes = 8192;
  ac.system.driver.request_monitor_capacity = 1 << 12;
  // Full-rebuild oracle: see the class comment — this is what makes the
  // killed run's final tables provably equal to the twin's.
  ac.system.arranger.incremental = false;
  ac.fault_seed = config_.seed ^ 0x51ED270BULL;
  if (config_.kill_member >= 0) {
    ac.fault_plans.resize(static_cast<std::size_t>(config_.members));
    fault::CrashPoint cp;
    cp.at_io = config_.kill_at_io;
    ac.fault_plans[static_cast<std::size_t>(config_.kill_member)]
        .crashes.push_back(cp);
  }

  device_ = std::make_unique<ArrayDevice>(std::move(ac));
  device_->set_completion_sink(this);
  Status s = device_->Start();
  if (!s.ok()) {
    RecordError("array start failed: " + s.ToString());
    return;
  }

  // Eligible blocks: whole-block originals that do not straddle the hidden
  // reserved region (same restriction the arranger itself has).
  const disk::DiskLabel& label = device_->member_driver(0).label();
  const disk::Partition part = label.partitions()[0];
  const std::int32_t bs = device_->block_sectors();
  for (BlockNo b = 0; b < device_->device_blocks(); ++b) {
    const SectorNo vfirst = part.first_sector + b * bs;
    const SectorNo pfirst = label.VirtualToPhysical(vfirst);
    const SectorNo plast = label.VirtualToPhysical(vfirst + bs - 1);
    if (plast - pfirst != bs - 1) continue;
    eligible_index_.emplace(b, eligible_.size());
    eligible_.push_back(b);
    original_sector_.push_back(pfirst);
  }
  expected_.assign(eligible_.size(), 0);
  next_version_.assign(eligible_.size(), 1);
  zipf_ = std::make_unique<ZipfSampler>(
      static_cast<std::int64_t>(eligible_.size()), config_.zipf_theta);

  // Known initial contents: version 0 in place, on every member.
  for (std::int32_t m = 0; m < config_.members; ++m) {
    for (std::size_t i = 0; i < eligible_.size(); ++i) {
      for (std::int32_t k = 0; k < bs; ++k) {
        device_->member_disk(m).WritePayload(
            original_sector_[i] + k, PayloadValue(eligible_[i], 0, k));
      }
    }
  }
}

ArrayCrashHarness::~ArrayCrashHarness() = default;

void ArrayCrashHarness::RecordError(const std::string& what) {
  if (result_.first_error.empty()) result_.first_error = what;
}

void ArrayCrashHarness::GeneratePhase(std::vector<workload::TraceRecord>& out,
                                      std::vector<bool>& is_write) {
  // Every RNG draw happens unconditionally and in a fixed order, so the
  // schedule is identical whatever happened to the array so far — the
  // twin-comparability invariant.
  std::unordered_set<std::size_t> wrote;
  for (std::int32_t i = 0; i < config_.requests_per_phase; ++i) {
    clock_ += 1 + static_cast<Micros>(rng_.NextExponential(
                    static_cast<double>(config_.mean_interarrival)));
    const std::size_t idx =
        static_cast<std::size_t>(zipf_->Sample(rng_));
    const bool want_write = rng_.NextBernoulli(config_.write_fraction);
    const bool write = want_write && wrote.count(idx) == 0;
    if (write) wrote.insert(idx);
    out.push_back(workload::TraceRecord{
        clock_, 0, eligible_[idx],
        write ? sched::IoType::kWrite : sched::IoType::kRead});
    is_write.push_back(write);
  }
}

void ArrayCrashHarness::OnShardIoComplete(std::int32_t member,
                                          const sim::CompletedIo& done) {
  if (done.request.internal) return;
  if (done.breakdown.media != disk::MediaStatus::kOk) return;
  const BlockNo block = done.request.logical_block;
  auto idx_it = eligible_index_.find(block);
  if (idx_it == eligible_index_.end()) return;
  const std::size_t idx = idx_it->second;
  const std::int32_t bs = device_->block_sectors();

  if (done.request.type == sched::IoType::kWrite) {
    auto it = pending_.find(block);
    if (it == pending_.end()) return;  // stale copy from a pruned member
    // The data is on this member's platter now: stamp it where the
    // request actually landed.
    for (std::int32_t k = 0; k < bs; ++k) {
      device_->member_disk(member).WritePayload(
          done.request.sector + k, PayloadValue(block, it->second.version, k));
    }
    it->second.needed &= ~(1ULL << member);
    if ((it->second.needed & device_->LiveWriteMask()) == 0) {
      Ack(block, it->second);
      pending_.erase(it);
    }
    return;
  }

  // Read: verify against the last acked version, unless a write to the
  // block is still in flight (indeterminate which version it sees).
  if (pending_.count(block) != 0) return;
  const std::uint64_t v = expected_[idx];
  for (std::int32_t k = 0; k < bs; ++k) {
    if (device_->member_disk(member).ReadPayload(done.request.sector + k) !=
        PayloadValue(block, v, k)) {
      ++result_.mismatches;
      RecordError("read returned wrong payload for block " +
                  std::to_string(block));
      return;
    }
  }
  ++result_.reads_checked;
}

void ArrayCrashHarness::Ack(BlockNo block, const PendingWrite& w) {
  expected_[eligible_index_.at(block)] = w.version;
  ++result_.writes_acked;
}

void ArrayCrashHarness::PruneAcks() {
  const std::uint64_t live = device_->LiveWriteMask();
  for (auto it = pending_.begin(); it != pending_.end();) {
    if ((it->second.needed & live) == 0) {
      Ack(it->first, it->second);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void ArrayCrashHarness::MaybeKillProgress() {
  if (config_.kill_member < 0 || reattached_) return;
  if (!death_seen_) {
    if (device_->member_state(config_.kill_member) == MemberState::kDead) {
      death_seen_ = true;
      ++result_.crashes;
    }
    return;
  }
  ++phases_since_death_;
  if (phases_since_death_ > config_.reattach_after_phases) {
    Status s = device_->ReattachMember(config_.kill_member);
    if (!s.ok()) {
      RecordError("reattach failed: " + s.ToString());
    }
    reattached_ = true;
  }
}

void ArrayCrashHarness::Arrange() {
  const std::int64_t skipped_before = device_->passes_skipped_degraded();
  StatusOr<placement::ArrangeResult> r = device_->RearrangeAll();
  if (!r.ok()) {
    RecordError("arrange failed: " + r.status().ToString());
    return;
  }
  if (device_->passes_skipped_degraded() == skipped_before) {
    ++result_.arrange_passes;
  }
  clock_ = std::max(clock_, device_->now());
}

void ArrayCrashHarness::FinishResync() {
  for (std::int32_t spins = 0; device_->resync_active(); ++spins) {
    if (spins > 100000) {
      RecordError("resync did not converge");
      return;
    }
    Status s = device_->AdvanceTo(device_->now() + config_.epoch);
    if (!s.ok()) {
      RecordError("resync advance failed: " + s.ToString());
      return;
    }
  }
  clock_ = std::max(clock_, device_->now());
}

ArrayHarnessResult ArrayCrashHarness::Run() {
  if (ran_ || !result_.first_error.empty()) {
    Finalize();
    return result_;
  }
  ran_ = true;

  std::vector<workload::TraceRecord> records;
  std::vector<bool> is_write;
  for (std::int32_t phase = 0; phase < config_.phases; ++phase) {
    records.clear();
    is_write.clear();
    GeneratePhase(records, is_write);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const workload::TraceRecord& rec = records[i];
      if (is_write[i]) {
        const std::size_t idx = eligible_index_.at(rec.block);
        pending_[rec.block] =
            PendingWrite{next_version_[idx]++, device_->LiveWriteMask()};
        ++result_.writes_submitted;
      }
      Status s = device_->Submit(rec);
      if (s.ok()) s = device_->AdvanceTo(rec.time);
      if (!s.ok()) {
        RecordError("submit failed: " + s.ToString());
        Finalize();
        return result_;
      }
      PruneAcks();
    }
    if (!device_->Drain().ok()) RecordError("drain failed");
    PruneAcks();
    clock_ = std::max(clock_, device_->now());
    MaybeKillProgress();
    if ((phase + 1) % config_.arrange_every == 0) Arrange();
  }

  // Wind down: make sure the victim is back and caught up, then run one
  // final all-online pass so both runs land on the oracle placement of the
  // same final ranked list. The crash point may not have fired yet — it
  // can land inside this wind-down, even mid-pass — so loop: heal, issue
  // the final pass once, heal again if the pass itself killed the victim.
  // A member that dies mid-pass is rebuilt from a survivor's durable
  // image, which already holds the completed pass's table, so the pass is
  // never re-issued (a second pass would consume an empty ranked list and
  // diverge from the twin).
  bool final_pass_issued = false;
  for (std::int32_t rounds = 0; rounds < 6; ++rounds) {
    if (config_.kill_member >= 0 &&
        device_->member_state(config_.kill_member) == MemberState::kDead) {
      if (!death_seen_) {
        death_seen_ = true;
        ++result_.crashes;
      }
      Status s = device_->ReattachMember(config_.kill_member);
      if (!s.ok()) {
        RecordError("reattach failed: " + s.ToString());
        break;
      }
      reattached_ = true;
    }
    FinishResync();
    PruneAcks();
    if (device_->degraded()) continue;
    if (final_pass_issued) break;
    const std::int32_t passes_before = result_.arrange_passes;
    Arrange();
    if (!device_->Drain().ok()) RecordError("final drain failed");
    PruneAcks();
    final_pass_issued = result_.arrange_passes > passes_before;
  }
  if (!final_pass_issued) {
    RecordError("wind-down never completed an all-online pass");
  }

  Finalize();
  return result_;
}

void ArrayCrashHarness::Finalize() {
  if (device_ == nullptr) return;
  result_.passes_skipped = device_->passes_skipped_degraded();
  result_.resync_granules_copied = device_->resync_granules_copied();
  result_.lost_requests = device_->lost_requests();
  result_.resyncs_completed =
      static_cast<std::int32_t>(device_->resyncs_completed());
  if (!device_->first_error().empty()) {
    RecordError("array error: " + device_->first_error());
  }
  if (result_.crashes > 0 && device_->degraded()) {
    RecordError("array still degraded after resync");
  }

  const std::int32_t bs = device_->block_sectors();
  std::uint64_t fp = kFnvOffset;
  for (std::size_t i = 0; i < eligible_.size(); ++i) {
    const BlockNo block = eligible_[i];
    if (pending_.count(block) != 0) {
      ++result_.mismatches;
      RecordError("write still unresolved at end of run");
      continue;
    }
    const std::uint64_t v = expected_[i];
    Fold(fp, static_cast<std::uint64_t>(block));
    Fold(fp, v);
    for (std::int32_t m = 0; m < config_.members; ++m) {
      if (device_->member_state(m) != MemberState::kOnline) continue;
      SectorNo mapped = original_sector_[i];
      if (auto e = device_->member_driver(m).block_table().Lookup(
              original_sector_[i])) {
        mapped = *e;
      }
      for (std::int32_t k = 0; k < bs; ++k) {
        const std::uint64_t payload =
            device_->member_disk(m).ReadPayload(mapped + k);
        Fold(fp, payload);
        if (payload != PayloadValue(block, v, k)) {
          ++result_.mismatches;
          RecordError("acked payload lost: block " + std::to_string(block) +
                      " member " + std::to_string(m));
          break;
        }
      }
    }
  }
  result_.fingerprint_hash = fp;

  // Mapping lockstep: every online member must hold the identical sorted
  // (original, relocated) set; the hash digests member 0's.
  std::vector<std::pair<SectorNo, SectorNo>> base;
  bool have_base = false;
  std::uint64_t mh = kFnvOffset;
  for (std::int32_t m = 0; m < config_.members; ++m) {
    if (device_->member_state(m) != MemberState::kOnline) continue;
    std::vector<std::pair<SectorNo, SectorNo>> set;
    for (const auto& e :
         device_->member_driver(m).block_table().entries()) {
      set.emplace_back(e.original, e.relocated);
    }
    std::sort(set.begin(), set.end());
    if (!have_base) {
      base = set;
      have_base = true;
      for (const auto& [o, r] : set) {
        Fold(mh, static_cast<std::uint64_t>(o));
        Fold(mh, static_cast<std::uint64_t>(r));
      }
    } else if (set != base) {
      ++result_.mismatches;
      RecordError("mirror mapping sets diverged on member " +
                  std::to_string(m));
    }
  }
  result_.mapping_hash = mh;
}

}  // namespace abr::array

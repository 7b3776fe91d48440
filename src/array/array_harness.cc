#include "array/array_harness.h"

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

namespace abr::array {

namespace {

constexpr std::int32_t kRearrangeBlocks = 16;
constexpr std::int32_t kSpareSlots = 4;
constexpr std::int64_t kResyncGranuleBlocks = 4;
constexpr std::int32_t kArrangeEvery = 2;  // pass cadence, in phases
/// Full phases the array runs degraded before the victim is reattached.
constexpr std::int32_t kReattachAfterPhases = 2;

}  // namespace

ArrayCrashHarness::ArrayCrashHarness(ArrayHarnessConfig config)
    : config_(config),
      ledger_(fault::HarnessLabel(), config.seed ^ 0xA77A4D15E1ULL) {
  ArrayConfig ac;
  ac.level = RaidLevel::kRaid1;
  ac.members = config_.members;
  ac.threads = 1;
  ac.epoch = config_.epoch;
  // RAID1 devices never fuse windows, but the flag still exercises the
  // adaptive planner's fall-back path end to end.
  ac.adaptive_epoch = config_.adaptive_epoch;
  ac.drive = fault::HarnessDrive();
  ac.reserved_cylinders = fault::kHarnessReservedCylinders;
  ac.rearrange_blocks = kRearrangeBlocks;
  ac.spare_slots = kSpareSlots;
  ac.resync_granule_blocks = kResyncGranuleBlocks;
  ac.scrub_batch = 0;
  ac.system.driver.block_size_bytes = fault::kHarnessBlockBytes;
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
    ledger_.RecordError("array start failed: " + s.ToString());
    device_.reset();
    return;
  }

  // Known initial contents: version 0 in place, on every member. The
  // device's label is the ledger's: same drive, same reserved cylinders.
  for (std::int32_t m = 0; m < config_.members; ++m) {
    ledger_.StampInitial(device_->member_disk(m));
  }
}

ArrayCrashHarness::~ArrayCrashHarness() = default;

void ArrayCrashHarness::OnShardIoComplete(std::int32_t member,
                                          const sim::CompletedIo& done) {
  if (done.request.internal || !done.breakdown.ok()) return;
  fault::FaultyDisk& disk = device_->member_disk(member);
  if (done.request.type == sched::IoType::kWrite) {
    ledger_.Landed(disk, done.request.sector, done.request.logical_block,
                   member, device_->LiveWriteMask());
  } else if (ledger_.CheckRead(disk, done.request.sector,
                               done.request.logical_block)) {
    ++result_.reads_checked;
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
  if (phases_since_death_ > kReattachAfterPhases) {
    Status s = device_->ReattachMember(config_.kill_member);
    if (!s.ok()) {
      ledger_.RecordError("reattach failed: " + s.ToString());
    }
    reattached_ = true;
  }
}

void ArrayCrashHarness::Arrange() {
  const std::int64_t skipped_before = device_->passes_skipped_degraded();
  StatusOr<placement::ArrangeResult> r = device_->RearrangeAll();
  if (!r.ok()) {
    ledger_.RecordError("arrange failed: " + r.status().ToString());
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
      ledger_.RecordError("resync did not converge");
      return;
    }
    Status s = device_->AdvanceTo(device_->now() + config_.epoch);
    if (!s.ok()) {
      ledger_.RecordError("resync advance failed: " + s.ToString());
      return;
    }
  }
  clock_ = std::max(clock_, device_->now());
}

ArrayHarnessResult ArrayCrashHarness::Run() {
  if (device_ != nullptr) RunSchedule();
  Finalize();
  return result_;
}

void ArrayCrashHarness::RunSchedule() {
  for (std::int32_t phase = 0; phase < config_.phases; ++phase) {
    // Every draw happens unconditionally and in a fixed order, so the
    // schedule is identical whatever happened to the array so far — the
    // twin-comparability invariant.
    std::unordered_set<std::size_t> wrote;
    for (std::int32_t r = 0; r < config_.requests_per_phase; ++r) {
      const fault::AckLedger::Draw d = ledger_.DrawRequest(clock_);
      clock_ = d.time;
      const bool write = d.write && wrote.insert(d.index).second;
      if (write) ledger_.BeginWrite(d.index, device_->LiveWriteMask());
      Status s = device_->Submit(workload::TraceRecord{
          d.time, 0, ledger_.block(d.index),
          write ? sched::IoType::kWrite : sched::IoType::kRead});
      if (s.ok()) s = device_->AdvanceTo(d.time);
      if (!s.ok()) {
        ledger_.RecordError("submit failed: " + s.ToString());
        return;
      }
      ledger_.AckSettled(device_->LiveWriteMask());
    }
    if (!device_->Drain().ok()) ledger_.RecordError("drain failed");
    ledger_.AckSettled(device_->LiveWriteMask());
    clock_ = std::max(clock_, device_->now());
    MaybeKillProgress();
    if ((phase + 1) % kArrangeEvery == 0) Arrange();
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
        ledger_.RecordError("reattach failed: " + s.ToString());
        break;
      }
      reattached_ = true;
    }
    FinishResync();
    ledger_.AckSettled(device_->LiveWriteMask());
    if (device_->degraded()) continue;
    if (final_pass_issued) break;
    const std::int32_t passes_before = result_.arrange_passes;
    Arrange();
    if (!device_->Drain().ok()) ledger_.RecordError("final drain failed");
    ledger_.AckSettled(device_->LiveWriteMask());
    final_pass_issued = result_.arrange_passes > passes_before;
  }
  if (!final_pass_issued) {
    ledger_.RecordError("wind-down never completed an all-online pass");
  }
}

void ArrayCrashHarness::Finalize() {
  if (device_ != nullptr) {
    result_.passes_skipped = device_->passes_skipped_degraded();
    result_.resync_granules_copied = device_->resync_granules_copied();
    result_.lost_requests = device_->lost_requests();
    result_.resyncs_completed =
        static_cast<std::int32_t>(device_->resyncs_completed());
    if (!device_->first_error().empty()) {
      ledger_.RecordError("array error: " + device_->first_error());
    }
    if (result_.crashes > 0 && device_->degraded()) {
      ledger_.RecordError("array still degraded after resync");
    }

    std::vector<fault::AckLedger::Replica> replicas;
    for (std::int32_t m = 0; m < config_.members; ++m) {
      if (device_->member_state(m) != MemberState::kOnline) continue;
      replicas.push_back({&device_->member_disk(m),
                          &device_->member_driver(m).block_table()});
    }
    result_.fingerprint_hash = ledger_.VerifyAndFingerprint(replicas);

    // Mapping lockstep: every online member must hold the identical sorted
    // (original, relocated) set; the hash digests the first one's.
    std::vector<std::pair<SectorNo, SectorNo>> base;
    for (std::size_t r = 0; r < replicas.size(); ++r) {
      std::vector<std::pair<SectorNo, SectorNo>> set;
      for (const auto& e : replicas[r].table->entries()) {
        set.emplace_back(e.original, e.relocated);
      }
      std::sort(set.begin(), set.end());
      if (r == 0) {
        base = std::move(set);
      } else if (set != base) {
        ledger_.Mismatch("mirror mapping sets diverged on replica " +
                         std::to_string(r));
      }
    }
    result_.mapping_hash = fault::AckLedger::kFoldBasis;
    for (const auto& [o, r] : base) {
      fault::AckLedger::Fold(result_.mapping_hash,
                             static_cast<std::uint64_t>(o));
      fault::AckLedger::Fold(result_.mapping_hash,
                             static_cast<std::uint64_t>(r));
    }
  }
  result_.writes_acked = ledger_.writes_acked();
  result_.mismatches = ledger_.mismatches();
  result_.first_error = ledger_.first_error();
}

}  // namespace abr::array

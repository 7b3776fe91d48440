#include "fault/crash_harness.h"

#include <cassert>
#include <vector>

namespace abr::fault {

namespace {

constexpr std::int32_t kTableCapacity = 16;

}  // namespace

CrashHarness::CrashHarness(CrashHarnessConfig config)
    : config_(config),
      label_(HarnessLabel()),
      ledger_(label_, config.seed ^ 0x9E3779B97F4A7C15ULL) {
  const disk::DriveSpec spec = HarnessDrive();
  FaultPlanConfig pc;
  pc.sector_count = spec.geometry.total_sectors();
  pc.transient_faults = config_.transient_faults;
  pc.persistent_faults = config_.persistent_faults;
  pc.torn_writes = config_.torn_writes;
  pc.crash_points = config_.crash_points;
  pc.io_horizon = static_cast<std::int64_t>(config_.phases) *
                  config_.requests_per_phase;
  pc.timed_crash_points = config_.timed_crash_points;
  pc.time_horizon = static_cast<Micros>(config_.phases) *
                    config_.requests_per_phase * kHarnessMeanInterarrival;
  disk_ = std::make_unique<FaultyDisk>(
      spec, FaultPlan::Random(config_.seed, pc), config_.seed ^ 0x51ED270BULL);
  disk_->set_table_observer(&store_);
  disk_->SetTableArea(label_.reserved_first_sector(),
                      driver::BlockTable::SerializedSectors(
                          kTableCapacity, spec.geometry.bytes_per_sector));

  // Known initial contents: every block starts at version 0 in place.
  ledger_.StampInitial(*disk_);

  BuildMachine(/*after_crash=*/false);
}

CrashHarness::~CrashHarness() = default;

void CrashHarness::BuildMachine(bool after_crash) {
  // The boot's clock restarts near zero; the disk carries the accumulated
  // global offset so timed crash points stay on the wall schedule.
  disk_->set_time_offset(time_base_);
  core::AdaptiveSystemConfig sc;
  sc.driver.block_size_bytes = kHarnessBlockBytes;
  sc.driver.block_table_capacity = kTableCapacity;
  sc.driver.request_monitor_capacity = 1 << 12;
  sc.analyzer_entries = 0;  // the harness ranks from its own counts
  sc.arranger.incremental = config_.incremental;
  sc.continuous = config_.continuous;
  system_ = std::make_unique<core::AdaptiveSystem>(disk_.get(), label_, sc,
                                                   &store_);
  driver().set_client_sink(this);
  Status s = system_->Start(after_crash);
  // A timed crash point can fire during the attach reads themselves; that
  // is a scheduled crash (the run loop rebuilds again), not a failure.
  if (!s.ok() && !driver().halted()) {
    ledger_.RecordError("attach failed: " + s.ToString());
  }
  clock_ = driver().now();
}

void CrashHarness::OnIoComplete(const sim::CompletedIo& done) {
  const BlockNo b = done.request.logical_block;
  if (done.request.type == sched::IoType::kWrite) {
    if (done.breakdown.ok()) {
      ledger_.Landed(*disk_, done.request.sector, b, /*member=*/0,
                     /*live=*/1);
    } else {
      // The error was reported to the "application"; the previous version
      // remains the expected contents.
      ledger_.Fail(b);
    }
    return;
  }
  if (done.breakdown.ok() &&
      ledger_.CheckRead(*disk_, done.request.sector, b) && verifying_) {
    ++result_.blocks_verified;
  }
}

void CrashHarness::RunWorkloadPhase() {
  for (std::int32_t r = 0; r < config_.requests_per_phase; ++r) {
    if (driver().halted()) return;
    const AckLedger::Draw d = ledger_.DrawRequest(clock_);
    clock_ = d.time;
    const BlockNo b = ledger_.block(d.index);
    refs_.Observe(analyzer::BlockId{0, b});
    const bool write = d.write && !ledger_.in_flight(b);  // one in flight
    if (write) ledger_.BeginWrite(d.index, /*owed=*/1);
    Status s = driver().SubmitBlock(
        0, b, write ? sched::IoType::kWrite : sched::IoType::kRead, clock_);
    assert(s.ok());
    (void)s;
  }
  // The driver's clock may already be past the last arrival.
  if (!driver().halted() && clock_ > driver().now()) {
    driver().AdvanceTo(clock_);
  }
}

void CrashHarness::MaybeArrange(std::int32_t phase) {
  if (config_.arrange_every <= 0 || phase % config_.arrange_every != 0) {
    return;
  }
  // Hottest first, block ascending on ties.
  const std::vector<analyzer::HotBlock> ranked = refs_.TopK(ledger_.size());
  if (config_.continuous) {
    // Retire the previous plan (its unexecuted tail is simply dropped) and
    // open a fresh one from the counts so far; the new plan's chains run
    // during idle gaps in the next phases' traffic.
    if (system_->continuous_plan_open()) (void)system_->CloseContinuousDay();
    if (driver().halted()) return;
    Status s = system_->continuous_arranger()->OpenPlan(driver(), ranked);
    if (!s.ok()) {
      ledger_.RecordError("open plan failed: " + s.ToString());
      return;
    }
    ++result_.arrange_passes;
    return;
  }
  arranging_ = true;
  StatusOr<placement::ArrangeResult> r = system_->RearrangeFrom(ranked);
  // On a crash mid-pass the flag stays set so HandleCrash classifies the
  // crash as in-arrangement; it clears it after classifying.
  if (!driver().halted()) arranging_ = false;
  if (!r.ok()) {
    ledger_.RecordError("rearrange failed: " + r.status().ToString());
    return;
  }
  ++result_.arrange_passes;
}

void CrashHarness::HandleCrash() {
  ++result_.crashes;
  assert(disk_->crashed_op().has_value());
  const FaultyDisk::CrashedOp op = *disk_->crashed_op();

  // Classify where the crash landed. The arranger's copy-back writes go to
  // ordinary data sectors, so the in-arrangement flag (not the address)
  // decides between arrangement and steady-state crashes.
  const SectorNo table_first = label_.reserved_first_sector();
  const SectorNo table_end = table_first + driver().table_area_sectors();
  // In continuous mode arrangement I/O interleaves with user traffic; a
  // live move chain at the crash marks it as in-arrangement.
  if (config_.continuous && driver().active_chain_count() > 0) {
    arranging_ = true;
  }
  if (!op.is_read && op.sector < table_end &&
      table_first < op.sector + op.count) {
    ++result_.crash_in_table_save;
  } else if (arranging_) {
    ++result_.crash_in_arrangement;
  } else {
    ++result_.crash_in_steady_state;
  }
  arranging_ = false;

  // Torn-at-crash write: if the interrupted op was an external write for a
  // block with a write in flight, a prefix of its sectors reached the
  // platter. The block is indeterminate either way; stamping the prefix
  // checks that recovery never presents partial data as an acknowledged
  // version.
  if (!op.is_read && op.count == ledger_.block_sectors()) {
    for (const auto& [b, w] : ledger_.pending()) {
      const SectorNo loc =
          ledger_.MappedSector(*ledger_.IndexOf(b), driver().block_table());
      if (loc == op.sector) {
        const std::int64_t landed = static_cast<std::int64_t>(
            ledger_.rng().NextBounded(static_cast<std::uint64_t>(op.count)));
        AckLedger::Stamp(*disk_, loc, landed, b, w.version);
        break;
      }
    }
  }

  // Everything unacknowledged at the crash may or may not have reached the
  // platter: indeterminate until the next acknowledged write.
  result_.blocks_indeterminate += ledger_.AbandonPending();

  result_.faults.MergeFrom(driver().IoctlReadStats(true).faults);
  // Global simulated time keeps running across the reboot: the next boot
  // starts where the crashed operation stopped the clock.
  time_base_ += op.time;
  disk_->ClearCrash();
  BuildMachine(/*after_crash=*/true);
  VerifyAll();
}

void CrashHarness::VerifyAll() {
  verifying_ = true;
  for (std::size_t i = 0; i < ledger_.size(); ++i) {
    if (driver().halted()) break;
    if (!ledger_.Settled(i)) continue;
    Status s = driver().SubmitBlock(0, ledger_.block(i), sched::IoType::kRead,
                                    clock_);
    assert(s.ok());
    (void)s;
  }
  if (!driver().halted()) {
    driver().Drain();
    if (clock_ < driver().now()) clock_ = driver().now();
  }
  verifying_ = false;
}

CrashHarnessResult CrashHarness::Run() {
  std::int32_t phase = 0;
  while (phase < config_.phases) {
    if (driver().halted()) {
      HandleCrash();
      continue;
    }
    RunWorkloadPhase();
    ++phase;
    if (driver().halted()) continue;
    MaybeArrange(phase);
  }
  while (driver().halted()) HandleCrash();
  if (system_->continuous_plan_open()) (void)system_->CloseContinuousDay();
  while (driver().halted()) HandleCrash();
  driver().Drain();
  while (driver().halted()) HandleCrash();
  VerifyAll();
  while (driver().halted()) HandleCrash();
  result_.faults.MergeFrom(driver().IoctlReadStats(true).faults);
  result_.injected_faults = disk_->injected_faults();

  result_.fingerprint_hash =
      ledger_.VerifyAndFingerprint({{disk_.get(), &driver().block_table()}});
  result_.writes_acked = ledger_.writes_acked();
  result_.mismatches = ledger_.mismatches();
  result_.first_error = ledger_.first_error();
  return result_;
}

}  // namespace abr::fault

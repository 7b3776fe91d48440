#include "fault/crash_harness.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "disk/drive_spec.h"
#include "placement/arranger.h"

namespace abr::fault {

namespace {

/// 64-bit finalizer (splitmix64-style); spreads (block, version, offset)
/// into a full-width fingerprint so a misdirected sector never matches.
std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

void AccumulateFaults(driver::FaultCounters& into,
                      const driver::FaultCounters& from) {
  into.MergeFrom(from);
}

}  // namespace

std::uint64_t CrashHarness::PayloadValue(BlockNo block, std::uint64_t version,
                                         std::int64_t offset) {
  return Mix((static_cast<std::uint64_t>(block) << 32) ^ (version << 8) ^
             static_cast<std::uint64_t>(offset) ^ 0xABCD1234ULL);
}

CrashHarness::CrashHarness(CrashHarnessConfig config)
    : config_(config), workload_rng_(config.seed ^ 0x9E3779B97F4A7C15ULL) {
  disk::DriveSpec spec = disk::DriveSpec::TestDrive(
      config_.cylinders, config_.tracks_per_cylinder,
      config_.sectors_per_track);
  const disk::Geometry& g = spec.geometry;

  StatusOr<disk::DiskLabel> label =
      disk::DiskLabel::Rearranged(g, config_.reserved_cylinders);
  assert(label.ok());
  label_ = std::move(*label);
  Status s = label_.PartitionEvenly(1);
  assert(s.ok());
  (void)s;

  FaultPlanConfig pc;
  pc.sector_count = g.total_sectors();
  pc.transient_faults = config_.transient_faults;
  pc.persistent_faults = config_.persistent_faults;
  pc.torn_writes = config_.torn_writes;
  pc.crash_points = config_.crash_points;
  pc.io_horizon = static_cast<std::int64_t>(config_.phases) *
                  config_.requests_per_phase;
  pc.timed_crash_points = config_.timed_crash_points;
  pc.time_horizon = static_cast<Micros>(config_.phases) *
                    config_.requests_per_phase * config_.mean_interarrival;
  disk_ = std::make_unique<FaultyDisk>(
      spec, FaultPlan::Random(config_.seed, pc), config_.seed ^ 0x51ED270BULL);
  disk_->set_table_observer(&store_);
  disk_->SetTableArea(
      label_.reserved_first_sector(),
      driver::BlockTable::SerializedSectors(config_.block_table_capacity,
                                            g.bytes_per_sector));

  policy_ = placement::MakePolicy(placement::PolicyKind::kOrganPipe);

  block_sectors_ = 8192 / g.bytes_per_sector;
  const disk::Partition part = label_.partitions()[0];
  const BlockNo blocks = part.sector_count / block_sectors_;
  for (BlockNo b = 0; b < blocks; ++b) {
    const SectorNo vfirst = part.first_sector + b * block_sectors_;
    const SectorNo pfirst = label_.VirtualToPhysical(vfirst);
    const SectorNo plast =
        label_.VirtualToPhysical(vfirst + block_sectors_ - 1);
    if (plast - pfirst != block_sectors_ - 1) continue;  // straddles
    eligible_index_.emplace(b, eligible_.size());
    eligible_.push_back(b);
    original_sector_.push_back(pfirst);
  }
  expected_.assign(eligible_.size(), 0);
  next_version_.assign(eligible_.size(), 1);
  refs_.assign(eligible_.size(), 0);
  zipf_ = std::make_unique<ZipfSampler>(
      static_cast<std::int64_t>(eligible_.size()), config_.zipf_theta);

  // Known initial contents: every block starts at version 0 in place.
  for (std::size_t i = 0; i < eligible_.size(); ++i) {
    for (std::int64_t k = 0; k < block_sectors_; ++k) {
      disk_->WritePayload(original_sector_[i] + k,
                          PayloadValue(eligible_[i], 0, k));
    }
  }

  BuildMachine(/*after_crash=*/false);
}

CrashHarness::~CrashHarness() = default;

void CrashHarness::BuildMachine(bool after_crash) {
  // The boot's clock restarts near zero; the disk carries the accumulated
  // global offset so timed crash points stay on the wall schedule.
  disk_->set_time_offset(time_base_);
  driver::DriverConfig dcfg;
  dcfg.block_size_bytes = 8192;
  dcfg.block_table_capacity = config_.block_table_capacity;
  dcfg.request_monitor_capacity = 1 << 12;
  driver_ =
      std::make_unique<driver::AdaptiveDriver>(disk_.get(), label_, dcfg,
                                               &store_);
  driver_->set_client_sink(this);
  if (config_.continuous) {
    continuous_ = std::make_unique<placement::ContinuousArranger>(
        policy_.get(), placement::ContinuousArrangerConfig{});
    driver_->set_idle_sink(continuous_.get());
  }
  Status s = driver_->Attach(after_crash);
  // A timed crash point can fire during the attach reads themselves; that
  // is a scheduled crash (the run loop rebuilds again), not a failure.
  if (!s.ok() && !driver_->halted()) {
    RecordError("attach failed: " + s.ToString());
  }
  clock_ = driver_->now();
}

void CrashHarness::RecordError(std::string what) {
  if (result_.first_error.empty()) result_.first_error = std::move(what);
}

void CrashHarness::CheckBlockAt(SectorNo sector, BlockNo block,
                                std::uint64_t version) {
  for (std::int64_t k = 0; k < block_sectors_; ++k) {
    if (disk_->ReadPayload(sector + k) != PayloadValue(block, version, k)) {
      ++result_.mismatches;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "block %lld: acked version %llu missing at sector %lld "
                    "(+%lld)",
                    static_cast<long long>(block),
                    static_cast<unsigned long long>(version),
                    static_cast<long long>(sector), static_cast<long long>(k));
      RecordError(buf);
      return;
    }
  }
}

void CrashHarness::OnIoComplete(const sim::CompletedIo& done) {
  auto eit = eligible_index_.find(done.request.logical_block);
  if (eit == eligible_index_.end()) return;
  const BlockNo b = done.request.logical_block;
  const std::size_t idx = eit->second;
  const bool failed = !done.breakdown.ok();

  if (done.request.type == sched::IoType::kWrite) {
    auto it = pending_.find(b);
    if (it == pending_.end()) return;
    if (!failed) {
      // Acknowledged: from here on this version must survive any crash.
      const std::uint64_t version = it->second;
      for (std::int64_t k = 0; k < done.request.sector_count; ++k) {
        disk_->WritePayload(done.request.sector + k,
                            PayloadValue(b, version, k));
      }
      expected_[idx] = version;
      ++result_.writes_acked;
    }
    // Failed: the error was reported to the "application"; the previous
    // version remains the expected contents.
    pending_.erase(it);
    return;
  }

  if (failed) {
    if (verifying_) ++result_.verify_reads_failed;
    return;
  }
  if (expected_[idx] == kIndeterminate || pending_.contains(b)) return;
  CheckBlockAt(done.request.sector, b, expected_[idx]);
  ++result_.reads_checked;
  if (verifying_) ++result_.blocks_verified;
}

void CrashHarness::RunWorkloadPhase() {
  for (std::int32_t r = 0; r < config_.requests_per_phase; ++r) {
    if (driver_->halted()) return;
    clock_ += static_cast<Micros>(workload_rng_.NextExponential(
                  static_cast<double>(config_.mean_interarrival))) +
              1;
    const std::size_t idx =
        static_cast<std::size_t>(zipf_->Sample(workload_rng_));
    const BlockNo b = eligible_[idx];
    ++refs_[idx];
    bool write = workload_rng_.NextBernoulli(config_.write_fraction);
    if (write && pending_.contains(b)) write = false;  // one in flight/block
    if (write) pending_[b] = next_version_[idx]++;
    Status s = driver_->SubmitBlock(
        0, b, write ? sched::IoType::kWrite : sched::IoType::kRead, clock_);
    assert(s.ok());
    (void)s;
    ++result_.requests_submitted;
  }
  // The driver's clock may already be past the last arrival.
  if (!driver_->halted() && clock_ > driver_->now()) {
    driver_->AdvanceTo(clock_);
  }
}

void CrashHarness::MaybeArrange(std::int32_t phase) {
  if (config_.arrange_every <= 0 || phase % config_.arrange_every != 0) {
    return;
  }
  // Rank by reference count (hottest first, block ascending on ties).
  std::vector<analyzer::HotBlock> ranked;
  ranked.reserve(eligible_.size());
  for (std::size_t i = 0; i < eligible_.size(); ++i) {
    if (refs_[i] > 0) {
      ranked.push_back(
          analyzer::HotBlock{analyzer::BlockId{0, eligible_[i]}, refs_[i]});
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const analyzer::HotBlock& a, const analyzer::HotBlock& b) {
              return a.count != b.count ? a.count > b.count
                                        : a.id.block < b.id.block;
            });
  if (config_.continuous) {
    // Retire the previous plan (its unexecuted tail is simply dropped) and
    // open a fresh one from the counts so far; the new plan's chains run
    // during idle gaps in the next phases' traffic.
    if (continuous_->plan_open()) (void)continuous_->CloseDay();
    if (driver_->halted()) return;
    Status s = continuous_->OpenPlan(*driver_, ranked);
    if (!s.ok()) {
      RecordError("open plan failed: " + s.ToString());
      return;
    }
    ++result_.arrange_passes;
    return;
  }
  placement::ArrangerConfig acfg;
  acfg.incremental = config_.incremental;
  placement::BlockArranger arranger(policy_.get(), acfg);
  arranging_ = true;
  StatusOr<placement::ArrangeResult> r = arranger.Rearrange(*driver_, ranked);
  // On a crash mid-pass the flag stays set so HandleCrash classifies the
  // crash as in-arrangement; it clears it after classifying.
  if (!driver_->halted()) arranging_ = false;
  if (!r.ok()) {
    RecordError("rearrange failed: " + r.status().ToString());
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
  const SectorNo table_end =
      table_first + driver_->table_area_sectors();
  // In continuous mode arrangement I/O interleaves with user traffic; a
  // live move chain at the crash marks it as in-arrangement.
  if (continuous_ != nullptr && driver_->active_chain_count() > 0) {
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
  if (!op.is_read && op.count == block_sectors_) {
    for (const auto& [b, version] : pending_) {
      const std::size_t idx = eligible_index_.at(b);
      SectorNo loc = original_sector_[idx];
      if (std::optional<SectorNo> reloc =
              driver_->block_table().Lookup(original_sector_[idx])) {
        loc = *reloc;
      }
      if (loc == op.sector) {
        const std::int64_t landed = static_cast<std::int64_t>(
            workload_rng_.NextBounded(static_cast<std::uint64_t>(op.count)));
        for (std::int64_t k = 0; k < landed; ++k) {
          disk_->WritePayload(loc + k, PayloadValue(b, version, k));
        }
        break;
      }
    }
  }

  // Everything unacknowledged at the crash may or may not have reached the
  // platter: indeterminate until the next acknowledged write.
  for (const auto& [b, version] : pending_) {
    expected_[eligible_index_.at(b)] = kIndeterminate;
    ++result_.blocks_indeterminate;
  }
  pending_.clear();

  CollectDriverStats();
  // Global simulated time keeps running across the reboot: the next boot
  // starts where the crashed operation stopped the clock.
  time_base_ += op.time;
  disk_->ClearCrash();
  BuildMachine(/*after_crash=*/true);
  VerifyAll();
}

void CrashHarness::VerifyAll() {
  verifying_ = true;
  for (std::size_t i = 0; i < eligible_.size(); ++i) {
    if (driver_->halted()) break;
    if (expected_[i] == kIndeterminate || pending_.contains(eligible_[i])) {
      continue;
    }
    Status s =
        driver_->SubmitBlock(0, eligible_[i], sched::IoType::kRead, clock_);
    assert(s.ok());
    (void)s;
  }
  if (!driver_->halted()) {
    driver_->Drain();
    if (clock_ < driver_->now()) clock_ = driver_->now();
  }
  verifying_ = false;
}

void CrashHarness::CollectDriverStats() {
  AccumulateFaults(result_.faults, driver_->IoctlReadStats(true).faults);
}

CrashHarnessResult CrashHarness::Run() {
  std::int32_t phase = 0;
  while (phase < config_.phases) {
    if (driver_->halted()) {
      HandleCrash();
      continue;
    }
    RunWorkloadPhase();
    ++phase;
    if (driver_->halted()) continue;
    MaybeArrange(phase);
  }
  while (driver_->halted()) HandleCrash();
  if (continuous_ != nullptr && continuous_->plan_open()) {
    (void)continuous_->CloseDay();
  }
  while (driver_->halted()) HandleCrash();
  driver_->Drain();
  while (driver_->halted()) HandleCrash();
  VerifyAll();
  while (driver_->halted()) HandleCrash();
  CollectDriverStats();
  result_.injected_faults = disk_->injected_faults();

  // Order-independent digest of the final verified state.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  for (std::size_t i = 0; i < eligible_.size(); ++i) {
    fold(static_cast<std::uint64_t>(eligible_[i]));
    fold(expected_[i]);
    if (expected_[i] == kIndeterminate || pending_.contains(eligible_[i])) {
      continue;
    }
    SectorNo loc = original_sector_[i];
    if (std::optional<SectorNo> reloc =
            driver_->block_table().Lookup(original_sector_[i])) {
      loc = *reloc;
    }
    for (std::int64_t k = 0; k < block_sectors_; ++k) {
      fold(disk_->ReadPayload(loc + k));
    }
  }
  result_.fingerprint_hash = h;
  return result_;
}

}  // namespace abr::fault

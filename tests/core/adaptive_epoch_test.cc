// Differential twins for lookahead-adaptive epoch barriers: the adaptive
// engine (multi-grid windows) must be bit-identical to the fixed-epoch
// oracle (adaptive_epoch = false) on both array shapes — the sharded
// fleet (RAID0 at chunk 1 ranking from member analyzers) and the RAID
// arrays — for any thread count, under clean traffic and under randomized
// faults, crashes, and member deaths. The windows
// themselves are checked against the lookahead bound: a window never
// overshoots a member's next provable fault/crash event.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "array/array_device.h"
#include "core/array_day.h"
#include "disk/disk.h"
#include "disk/drive_spec.h"
#include "fault/fault_plan.h"
#include "workload/synthetic.h"

namespace abr::core {
namespace {

// --- Fingerprint helpers (sharded_system_test.cc idiom) ---------------------

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t Bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

std::uint64_t SliceFp(std::uint64_t h, const SliceMetrics& s) {
  h = Mix(h, Bits(s.mean_seek_ms));
  h = Mix(h, Bits(s.fcfs_seek_ms));
  h = Mix(h, Bits(s.mean_seek_dist));
  h = Mix(h, Bits(s.zero_seek_pct));
  h = Mix(h, Bits(s.mean_service_ms));
  h = Mix(h, Bits(s.mean_wait_ms));
  h = Mix(h, static_cast<std::uint64_t>(s.count));
  return h;
}

std::uint64_t PassFp(const placement::ArrangeResult& r) {
  std::uint64_t h = 0xA44A;
  h = Mix(h, static_cast<std::uint64_t>(r.cleaned));
  h = Mix(h, static_cast<std::uint64_t>(r.copied));
  h = Mix(h, static_cast<std::uint64_t>(r.skipped));
  h = Mix(h, static_cast<std::uint64_t>(r.aborted));
  h = Mix(h, static_cast<std::uint64_t>(r.kept));
  h = Mix(h, static_cast<std::uint64_t>(r.shuffled));
  h = Mix(h, static_cast<std::uint64_t>(r.evicted));
  h = Mix(h, static_cast<std::uint64_t>(r.admitted));
  h = Mix(h, r.halted ? 1 : 0);
  h = Mix(h, static_cast<std::uint64_t>(r.internal_ios));
  h = Mix(h, static_cast<std::uint64_t>(r.io_time));
  return h;
}

// Deliberately excludes DayMetrics::barriers and the barrier wall-clock
// fields: fewer barriers for the same simulated outcome is the adaptive
// mode's entire point, so the fingerprint covers what the simulation
// computed, not how many parallel windows computed it.
std::uint64_t DayFp(const DayMetrics& day) {
  std::uint64_t h = 0xDA1;
  h = SliceFp(h, day.all);
  h = SliceFp(h, day.reads);
  h = SliceFp(h, day.writes);
  h = Mix(h, static_cast<std::uint64_t>(day.faults.media_errors));
  h = Mix(h, static_cast<std::uint64_t>(day.faults.retries));
  h = Mix(h, static_cast<std::uint64_t>(day.faults.failed_requests));
  h = Mix(h, static_cast<std::uint64_t>(day.faults.aborted_chains));
  h = Mix(h, static_cast<std::uint64_t>(day.moves.copy_ins));
  h = Mix(h, static_cast<std::uint64_t>(day.moves.shuffles));
  h = Mix(h, static_cast<std::uint64_t>(day.moves.evictions));
  h = Mix(h, PassFp(day.arrange));
  return h;
}

std::uint64_t TableFp(const driver::AdaptiveDriver& drv) {
  std::uint64_t h = 0x7AB1;
  for (const driver::BlockTableEntry& e : drv.block_table().entries()) {
    h = Mix(h, static_cast<std::uint64_t>(e.original));
    h = Mix(h, static_cast<std::uint64_t>(e.relocated));
    h = Mix(h, e.dirty ? 1 : 0);
  }
  return h;
}

std::uint64_t PayloadFp(const disk::Disk& disk) {
  std::uint64_t h = 0xD15C;
  const std::int64_t n = disk.geometry().total_sectors();
  for (SectorNo s = 0; s < n; ++s) h = Mix(h, disk.ReadPayload(s));
  return h;
}

/// Hashes the merged completion stream and checks time order.
struct HashSink : sim::ShardCompletionSink {
  std::uint64_t hash = 0x51AB;
  std::int64_t count = 0;
  Micros last_time = 0;
  bool ordered = true;

  void OnShardIoComplete(std::int32_t shard,
                         const sim::CompletedIo& done) override {
    if (done.completion_time < last_time) ordered = false;
    last_time = done.completion_time;
    hash = Mix(hash, static_cast<std::uint64_t>(shard));
    hash = Mix(hash, static_cast<std::uint64_t>(done.completion_time));
    hash = Mix(hash, static_cast<std::uint64_t>(done.request.sector));
    hash = Mix(hash, static_cast<std::uint64_t>(done.service_time));
    ++count;
  }
};

// --- Fleet twin -------------------------------------------------------------

constexpr Micros kGrid = 30 * kSecond;

array::ArrayConfig FleetConfig(std::int32_t shards, std::int32_t threads,
                               bool adaptive) {
  array::ArrayConfig config;
  config.level = array::RaidLevel::kRaid0;
  config.members = shards;
  config.chunk_blocks = 1;
  config.spare_slots = 0;
  config.ranking = array::Ranking::kMemberAnalyzers;
  config.threads = threads;
  config.epoch = kGrid;
  config.adaptive_epoch = adaptive;
  config.drive = disk::DriveSpec::TestDrive();
  config.reserved_cylinders = 10;
  config.rearrange_blocks = 64;
  return config;
}

/// A fleet day addresses one member's blocks.
ArrayDayConfig FleetDay(const array::ArrayDevice& fleet, Micros day_length) {
  ArrayDayConfig day;
  day.synthetic.population = 300;
  day.synthetic.theta = 1.0;
  day.synthetic.write_fraction = 0.3;
  day.synthetic.arrivals.mean_burst_gap = 2 * kSecond;
  day.synthetic.arrivals.mean_burst_size = 4.0;
  day.synthetic.arrivals.mean_intra_gap = 20 * kMillisecond;
  day.day_length = day_length;
  day.seed = 0xC0FFEE;
  day.chunk = kGrid;  // a fleet generates on its barrier grid
  day.span_blocks = fleet.member_blocks();
  return day;
}

struct TwinOutcome {
  std::uint64_t fp = 0;
  std::int64_t barriers = 0;
};

TwinOutcome RunCleanFleet(bool adaptive, std::int32_t threads) {
  array::ArrayDevice sys(FleetConfig(/*shards=*/3, threads, adaptive));
  HashSink sink;
  sys.set_completion_sink(&sink);
  EXPECT_TRUE(sys.Start().ok());
  ArrayDayRunner runner(&sys, FleetDay(sys, 3 * kMinute));

  TwinOutcome out;
  out.fp = 0xF1EE7;
  for (int phase = 0; phase < 2; ++phase) {
    StatusOr<DayMetrics> day = runner.RunMeasuredDay();
    EXPECT_TRUE(day.ok());
    if (day.ok()) {
      out.fp = Mix(out.fp, DayFp(*day));
      out.barriers += day->barriers;
    }
    Status pass = (phase % 2 == 0) ? runner.RearrangeForNextDay()
                                   : runner.CleanForNextDay();
    EXPECT_TRUE(pass.ok());
    out.fp = Mix(out.fp, PassFp(runner.last_arrange()));
  }
  for (std::int32_t s = 0; s < 3; ++s) {
    out.fp = Mix(out.fp, TableFp(sys.member_driver(s)));
    out.fp = Mix(out.fp, PayloadFp(sys.member_disk(s)));
  }
  out.fp = Mix(out.fp, sink.hash);
  out.fp = Mix(out.fp, static_cast<std::uint64_t>(sink.count));
  EXPECT_TRUE(sink.ordered);
  EXPECT_GT(sink.count, 0);
  return out;
}

TEST(AdaptiveEpochTest, FleetMatchesFixedOracleAndFusesWhenQuiet) {
  const TwinOutcome fixed = RunCleanFleet(/*adaptive=*/false, /*threads=*/1);
  const TwinOutcome adaptive = RunCleanFleet(/*adaptive=*/true, /*threads=*/1);
  const TwinOutcome adaptive_mt =
      RunCleanFleet(/*adaptive=*/true, /*threads=*/4);

  EXPECT_EQ(adaptive.fp, fixed.fp);
  EXPECT_EQ(adaptive_mt.fp, fixed.fp);
  EXPECT_EQ(adaptive_mt.barriers, adaptive.barriers);
  // Clean members schedule no fault events, so quiet grids fuse: the same
  // two days take strictly fewer parallel windows.
  EXPECT_GT(adaptive.barriers, 0);
  EXPECT_LT(adaptive.barriers, fixed.barriers);
}

// Randomized twin under media faults, torn writes, io-indexed and timed
// crash points, and member deaths — the sharded_system_test faulty
// scenario with the epoch mode as the variable under test.
std::uint64_t RunFaultyFleet(std::uint64_t seed, bool adaptive,
                             std::int32_t threads, int* deaths_out) {
  const std::int32_t shards = 1 + static_cast<std::int32_t>(seed % 4);
  array::ArrayConfig config = FleetConfig(shards, threads, adaptive);
  config.fault_seed = seed;
  const Micros day_len = 3 * kMinute;

  for (std::int32_t s = 0; s < shards; ++s) {
    fault::FaultPlanConfig plan_cfg;
    plan_cfg.sector_count = config.drive.geometry.total_sectors();
    plan_cfg.transient_faults = 2;
    plan_cfg.persistent_faults = 1;
    plan_cfg.torn_writes = 1;
    plan_cfg.crash_points = static_cast<std::int32_t>((seed + s) % 2);
    plan_cfg.io_horizon = 400;
    fault::FaultPlan plan =
        fault::FaultPlan::Random(seed * 0x9E37 + s, plan_cfg);
    if (s == 0) {
      // A wall-schedule crash mid day 1 exercises the timed branch of the
      // lookahead bound (io-indexed triggers pin it to zero).
      fault::CrashPoint timed;
      timed.at_time = 100 * kSecond;
      plan.crashes.push_back(timed);
    }
    config.fault_plans.push_back(std::move(plan));
  }

  HashSink sink;
  array::ArrayDevice sys(config);
  sys.set_completion_sink(&sink);
  Status st = sys.Start();
  EXPECT_TRUE(st.ok()) << st.message();

  workload::SyntheticBlockWorkload workload(
      0, sys.member_blocks(), FleetDay(sys, day_len).synthetic, seed);
  workload::Trace trace;
  Micros clock = sys.now();
  std::uint64_t fp = 0x5EED;
  for (int phase = 0; phase < 3; ++phase) {
    (void)sys.ReadStatsMerged(/*clear=*/true);
    const Micros start = std::max(clock, sys.now());
    trace.Clear();
    workload.Generate(start, start + day_len, trace);
    Status sub = sys.SubmitBatch(trace.records().data(), trace.size());
    EXPECT_TRUE(sub.ok()) << sub.message();
    EXPECT_TRUE(sys.AdvanceTo(start + day_len).ok());
    EXPECT_TRUE(sys.Drain().ok());
    clock = start + day_len;
    fp = Mix(fp, DayFp(DayMetrics::From(sys.ReadStatsMerged(/*clear=*/true),
                                        sys.seek_model())));
    StatusOr<placement::ArrangeResult> pass =
        (phase % 2 == 0) ? sys.RearrangeAll() : sys.CleanAll();
    fp = Mix(fp, pass.ok() ? PassFp(*pass) : 0xBAD);
  }

  int deaths = 0;
  for (std::int32_t s = 0; s < shards; ++s) {
    fp = Mix(fp, TableFp(sys.member_driver(s)));
    fp = Mix(fp, PayloadFp(sys.member_disk(s)));
    if (sys.member_state(s) == array::MemberState::kDead) ++deaths;
  }
  fp = Mix(fp, sink.hash);
  fp = Mix(fp, static_cast<std::uint64_t>(sink.count));
  fp = Mix(fp, static_cast<std::uint64_t>(deaths));
  fp = Mix(fp, static_cast<std::uint64_t>(sys.lost_requests()));
  EXPECT_TRUE(sink.ordered);
  if (deaths_out != nullptr) *deaths_out += deaths;
  return fp;
}

TEST(AdaptiveEpochTest, FleetMatchesFixedUnderFaultsCrashesAndReboots) {
  int deaths = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::uint64_t fixed =
        RunFaultyFleet(seed, /*adaptive=*/false, /*threads=*/1, &deaths);
    EXPECT_EQ(fixed,
              RunFaultyFleet(seed, /*adaptive=*/true, /*threads=*/1, nullptr));
    EXPECT_EQ(fixed,
              RunFaultyFleet(seed, /*adaptive=*/true, /*threads=*/4, nullptr));
  }
  // The sweep must exercise member deaths, not just media faults.
  EXPECT_GT(deaths, 0);
}

TEST(AdaptiveEpochTest, FleetWindowNeverOvershootsATimedCrash) {
  array::ArrayConfig config =
      FleetConfig(/*shards=*/2, /*threads=*/1, /*adaptive=*/true);

  // Member 0 crashes by wall schedule half way through grid 3.
  config.fault_plans.resize(2);
  fault::CrashPoint timed;
  timed.at_time = 2 * kGrid + kGrid / 2;
  config.fault_plans[0].crashes.push_back(timed);

  array::ArrayDevice sys(config);
  ASSERT_TRUE(sys.Start().ok());
  // Grids 1 and 2 end at or before the crash bound and fuse; grid 3 would
  // end past it and is refused, even with a far larger advance on offer.
  EXPECT_EQ(sys.PlanStepEnd(20 * kGrid), 2 * kGrid);
  // The bound caps the window, not the advance: a sub-grid request is
  // honored exactly.
  EXPECT_EQ(sys.PlanStepEnd(kGrid / 2), kGrid / 2);
}

TEST(AdaptiveEpochTest, FleetFixedModePlansSingleGrids) {
  array::ArrayDevice sys(FleetConfig(/*shards=*/2, /*threads=*/1,
                                     /*adaptive=*/false));
  ASSERT_TRUE(sys.Start().ok());
  EXPECT_EQ(sys.PlanStepEnd(20 * kGrid), kGrid);
}

// --- Array twin -------------------------------------------------------------

constexpr Micros kArrayGrid = 15 * kSecond;

array::ArrayConfig ArrayTwinConfig(array::RaidLevel level,
                                   std::int32_t members, bool adaptive,
                                   std::int32_t threads) {
  array::ArrayConfig c;
  c.level = level;
  c.members = members;
  c.threads = threads;
  c.chunk_blocks = 4;
  c.epoch = kArrayGrid;
  c.adaptive_epoch = adaptive;
  c.drive = disk::DriveSpec::TestDrive(60, 2, 32);
  c.reserved_cylinders = 8;
  c.rearrange_blocks = 16;
  c.spare_slots = 4;
  c.resync_granule_blocks = 4;
  c.system.driver.block_size_bytes = 8192;
  c.system.driver.request_monitor_capacity = 1 << 12;
  return c;
}

ArrayDayConfig ArrayTwinDay() {
  ArrayDayConfig day;
  day.synthetic.population = 200;
  day.synthetic.theta = 1.0;
  day.synthetic.write_fraction = 0.3;
  day.synthetic.arrivals.mean_burst_gap = kSecond;
  day.synthetic.arrivals.mean_burst_size = 4.0;
  day.synthetic.arrivals.mean_intra_gap = 20 * kMillisecond;
  day.day_length = 2 * kMinute;
  day.seed = 0xBEEF;
  day.chunk = kArrayGrid;
  return day;
}

TwinOutcome RunArrayTwin(array::RaidLevel level, std::int32_t members,
                         bool adaptive, std::int32_t threads,
                         std::vector<fault::FaultPlan> plans = {}) {
  array::ArrayConfig c = ArrayTwinConfig(level, members, adaptive, threads);
  c.fault_plans = std::move(plans);
  array::ArrayDevice dev(c);
  EXPECT_TRUE(dev.Start().ok()) << dev.first_error();
  ArrayDayRunner runner(&dev, ArrayTwinDay());

  TwinOutcome out;
  out.fp = 0xA77A;
  for (int phase = 0; phase < 2; ++phase) {
    StatusOr<DayMetrics> day = runner.RunMeasuredDay();
    EXPECT_TRUE(day.ok());
    if (day.ok()) {
      out.fp = Mix(out.fp, DayFp(*day));
      out.barriers += day->barriers;
    }
    Status pass = (phase % 2 == 0) ? runner.RearrangeForNextDay()
                                   : runner.CleanForNextDay();
    EXPECT_TRUE(pass.ok());
    out.fp = Mix(out.fp, PassFp(runner.last_arrange()));
  }
  for (std::int32_t m = 0; m < members; ++m) {
    out.fp = Mix(out.fp, TableFp(dev.member_driver(m)));
    out.fp = Mix(out.fp, PayloadFp(dev.member_disk(m)));
  }
  out.fp = Mix(out.fp, static_cast<std::uint64_t>(dev.lost_requests()));
  EXPECT_TRUE(dev.first_error().empty()) << dev.first_error();
  return out;
}

TEST(AdaptiveEpochTest, ArrayRaid0MatchesFixedOracleAndFuses) {
  const TwinOutcome fixed =
      RunArrayTwin(array::RaidLevel::kRaid0, 3, /*adaptive=*/false, 1);
  const TwinOutcome adaptive =
      RunArrayTwin(array::RaidLevel::kRaid0, 3, /*adaptive=*/true, 1);
  const TwinOutcome adaptive_mt =
      RunArrayTwin(array::RaidLevel::kRaid0, 3, /*adaptive=*/true, 2);

  EXPECT_EQ(adaptive.fp, fixed.fp);
  EXPECT_EQ(adaptive_mt.fp, fixed.fp);
  EXPECT_EQ(adaptive_mt.barriers, adaptive.barriers);
  EXPECT_GT(adaptive.barriers, 0);
  EXPECT_LT(adaptive.barriers, fixed.barriers);
}

TEST(AdaptiveEpochTest, ArrayRaid1NeverFusesButStaysIdentical) {
  const TwinOutcome fixed =
      RunArrayTwin(array::RaidLevel::kRaid1, 2, /*adaptive=*/false, 1);
  const TwinOutcome adaptive =
      RunArrayTwin(array::RaidLevel::kRaid1, 2, /*adaptive=*/true, 1);

  EXPECT_EQ(adaptive.fp, fixed.fp);
  // Mirror reads route on live head positions at submit time, so RAID1
  // refuses multi-grid windows: the barrier count must not change.
  EXPECT_EQ(adaptive.barriers, fixed.barriers);
}

TEST(AdaptiveEpochTest, ArrayRaid0MatchesFixedUnderMediaFaults) {
  auto make_plans = [] {
    std::vector<fault::FaultPlan> plans;
    for (std::int32_t m = 0; m < 3; ++m) {
      fault::FaultPlanConfig plan_cfg;
      plan_cfg.sector_count =
          disk::DriveSpec::TestDrive(60, 2, 32).geometry.total_sectors();
      plan_cfg.transient_faults = 2;
      plan_cfg.persistent_faults = 1;
      plan_cfg.torn_writes = 1;
      plan_cfg.crash_points = 0;
      plan_cfg.io_horizon = 300;
      plans.push_back(fault::FaultPlan::Random(0xFA07 + m, plan_cfg));
    }
    return plans;
  };
  const TwinOutcome fixed = RunArrayTwin(array::RaidLevel::kRaid0, 3,
                                         /*adaptive=*/false, 1, make_plans());
  const TwinOutcome adaptive = RunArrayTwin(array::RaidLevel::kRaid0, 3,
                                            /*adaptive=*/true, 1, make_plans());
  EXPECT_EQ(adaptive.fp, fixed.fp);
  // Armed io-indexed triggers pin the lookahead bound to zero, so fused
  // windows can only appear once budgets are spent — never more barriers
  // than the oracle.
  EXPECT_LE(adaptive.barriers, fixed.barriers);
}

TEST(AdaptiveEpochTest, ArrayWindowNeverOvershootsATimedCrash) {
  array::ArrayConfig c =
      ArrayTwinConfig(array::RaidLevel::kRaid0, 3, /*adaptive=*/true, 1);
  c.fault_plans.resize(3);
  fault::CrashPoint timed;
  timed.at_time = 2 * kArrayGrid + kArrayGrid / 2;
  c.fault_plans[1].crashes.push_back(timed);
  array::ArrayDevice dev(c);
  ASSERT_TRUE(dev.Start().ok()) << dev.first_error();

  // Member 1's scheduled crash caps both the step window (grid 3 would
  // end past the bound) and how far submissions may batch ahead.
  EXPECT_EQ(dev.PlanStepEnd(20 * kArrayGrid), 2 * kArrayGrid);
  EXPECT_EQ(dev.PlanSubmitHorizon(20 * kArrayGrid), timed.at_time);

  // RAID1 exposes no batching horizon at all.
  array::ArrayDevice mirror(
      ArrayTwinConfig(array::RaidLevel::kRaid1, 2, /*adaptive=*/true, 1));
  ASSERT_TRUE(mirror.Start().ok()) << mirror.first_error();
  EXPECT_EQ(mirror.PlanStepEnd(20 * kArrayGrid), kArrayGrid);
  EXPECT_EQ(mirror.PlanSubmitHorizon(20 * kArrayGrid), 0);  // == advanced_to
}

}  // namespace
}  // namespace abr::core

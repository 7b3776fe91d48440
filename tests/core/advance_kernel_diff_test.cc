// Differential tests for the batched driver stepping kernels.
//
// AdaptiveDriver::AdvanceTo and SubmitBlockBatch take a batched fast path
// whenever no idle sink wants the clock walked completion by completion;
// DriverConfig::stepped_advance is the retained oracle that forces the
// original stepped loops everywhere (abrsim --stepped-advance). Twin runs
// of the same seeded fleet day — one batched, one stepped — must land on
// bit-identical day metrics, mapping tables, and payload images, with and
// without a continuous plan armed (the armed plan is exactly the case the
// batched path must step through).

#include "core/sharded_system.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "core/array_day.h"
#include "core/metrics.h"

namespace abr::core {
namespace {

// --- Order-sensitive outcome fingerprints ----------------------------------

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
  h = Mix(h, Bits(s.rot_plus_transfer_ms));
  h = Mix(h, static_cast<std::uint64_t>(s.count));
  return h;
}

std::uint64_t HistFp(std::uint64_t h, const stats::TimeHistogram& hist) {
  h = Mix(h, static_cast<std::uint64_t>(hist.count()));
  h = Mix(h, static_cast<std::uint64_t>(hist.total()));
  h = Mix(h, static_cast<std::uint64_t>(hist.max()));
  for (std::int64_t b : hist.buckets()) {
    h = Mix(h, static_cast<std::uint64_t>(b));
  }
  return h;
}

std::uint64_t DayFp(const DayMetrics& day) {
  std::uint64_t h = 0xDA1;
  h = SliceFp(h, day.all);
  h = SliceFp(h, day.reads);
  h = SliceFp(h, day.writes);
  h = HistFp(h, day.service_all);
  h = HistFp(h, day.service_reads);
  h = Mix(h, static_cast<std::uint64_t>(day.moves.copy_ins));
  h = Mix(h, static_cast<std::uint64_t>(day.moves.shuffles));
  h = Mix(h, static_cast<std::uint64_t>(day.moves.evictions));
  h = Mix(h, static_cast<std::uint64_t>(day.arrange.internal_ios));
  h = Mix(h, static_cast<std::uint64_t>(day.arrange.io_time));
  h = Mix(h, static_cast<std::uint64_t>(day.faults.retries));
  h = Mix(h, static_cast<std::uint64_t>(day.faults.aborted_chains));
  h = Mix(h, static_cast<std::uint64_t>(day.util.external_busy));
  h = Mix(h, static_cast<std::uint64_t>(day.util.internal_busy));
  h = Mix(h, static_cast<std::uint64_t>(day.util.arrange_stall));
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

// --- Twin runs --------------------------------------------------------------

ShardedSystemConfig MiniConfig(std::int32_t shards, bool continuous,
                               bool stepped) {
  ShardedSystemConfig config;
  config.shards = shards;
  config.threads = 1;
  config.epoch = 30 * kSecond;
  config.drive = disk::DriveSpec::TestDrive();
  config.reserved_cylinders = 10;
  config.rearrange_blocks = 64;
  config.system.continuous = continuous;
  config.system.driver.stepped_advance = stepped;
  return config;
}

ArrayDayConfig MiniDay() {
  ArrayDayConfig day;
  day.synthetic.population = 300;
  day.synthetic.theta = 1.0;
  day.synthetic.write_fraction = 0.3;
  day.synthetic.arrivals.mean_burst_gap = 2 * kSecond;
  day.synthetic.arrivals.mean_burst_size = 4.0;
  day.synthetic.arrivals.mean_intra_gap = 20 * kMillisecond;
  day.day_length = 4 * kMinute;
  day.seed = 0xC0FFEE;
  day.chunk = 30 * kSecond;  // a fleet generates on its barrier grid
  return day;
}

/// Runs an off/on day sequence and folds everything observable into one
/// fingerprint: per-day metrics plus final mapping tables and payloads.
std::uint64_t RunScenario(std::int32_t shards, bool continuous,
                          bool stepped) {
  ShardedSystem sys(MiniConfig(shards, continuous, stepped));
  EXPECT_TRUE(sys.Start().ok());
  ArrayDayRunner runner(&sys, MiniDay());
  StatusOr<OnOffResult> result = RunOnOffLoop(runner, /*days=*/2);
  EXPECT_TRUE(result.ok());
  std::uint64_t h = 0xFEED;
  for (const DayMetrics& d : result->off_days) h = Mix(h, DayFp(d));
  for (const DayMetrics& d : result->on_days) h = Mix(h, DayFp(d));
  for (std::int32_t s = 0; s < shards; ++s) {
    h = Mix(h, TableFp(sys.shard_driver(s)));
    h = Mix(h, PayloadFp(sys.shard_driver(s).disk()));
  }
  return h;
}

TEST(AdvanceKernelDiffTest, BatchedMatchesSteppedSerial) {
  // One shard, batch arranger: no idle sink registered, so the batched
  // AdvanceTo covers the entire day.
  EXPECT_EQ(RunScenario(1, /*continuous=*/false, /*stepped=*/false),
            RunScenario(1, /*continuous=*/false, /*stepped=*/true));
}

TEST(AdvanceKernelDiffTest, BatchedMatchesSteppedContinuousPlan) {
  // Continuous arranger armed: a sink is registered and plans open on
  // on-days, so the batched path must fall back to stepping exactly while
  // a plan is live and may batch in between.
  EXPECT_EQ(RunScenario(1, /*continuous=*/true, /*stepped=*/false),
            RunScenario(1, /*continuous=*/true, /*stepped=*/true));
}

TEST(AdvanceKernelDiffTest, BatchedMatchesSteppedFleet) {
  EXPECT_EQ(RunScenario(3, /*continuous=*/false, /*stepped=*/false),
            RunScenario(3, /*continuous=*/false, /*stepped=*/true));
}

TEST(AdvanceKernelDiffTest, BatchedMatchesSteppedFleetContinuous) {
  EXPECT_EQ(RunScenario(3, /*continuous=*/true, /*stepped=*/false),
            RunScenario(3, /*continuous=*/true, /*stepped=*/true));
}

TEST(AdvanceKernelDiffTest, AnalyticSeekOracleMatchesLutEndToEnd) {
  // The seek-LUT oracle rides the same twin harness: flipping the drive's
  // seek evaluation to per-call analytic must not move a single bit.
  ShardedSystemConfig lut = MiniConfig(1, /*continuous=*/false,
                                       /*stepped=*/false);
  ShardedSystemConfig ana = lut;
  ana.drive.analytic_seek = true;
  ana.drive.seek_model.set_analytic(true);
  auto run = [](const ShardedSystemConfig& config) {
    ShardedSystem sys(config);
    EXPECT_TRUE(sys.Start().ok());
    ArrayDayRunner runner(&sys, MiniDay());
    StatusOr<OnOffResult> result = RunOnOffLoop(runner, 2);
    EXPECT_TRUE(result.ok());
    std::uint64_t h = 0xFEED;
    for (const DayMetrics& d : result->off_days) h = Mix(h, DayFp(d));
    for (const DayMetrics& d : result->on_days) h = Mix(h, DayFp(d));
    h = Mix(h, TableFp(sys.shard_driver(0)));
    h = Mix(h, PayloadFp(sys.shard_driver(0).disk()));
    return h;
  };
  EXPECT_EQ(run(lut), run(ana));
}

}  // namespace
}  // namespace abr::core

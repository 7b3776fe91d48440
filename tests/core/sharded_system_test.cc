// The sharded fleet: one drive's worth of blocks striped block by block
// (RAID0 at chunk 1) across S member stacks, each ranking from its own
// analyzer. Checked against a plain serial AdaptiveSystem, across thread
// counts, under faults and member deaths, and across shard counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "array/array_device.h"
#include "core/adaptive_system.h"
#include "core/array_day.h"
#include "disk/disk_label.h"
#include "driver/table_store.h"
#include "fault/fault_plan.h"
#include "workload/synthetic.h"

namespace abr::core {
namespace {

// --- Fingerprint helpers ----------------------------------------------------
// The differential tests compare whole simulation outcomes (metrics, tables,
// payload images, completion streams) as order-sensitive hashes: any
// divergence anywhere shows up as a different fingerprint.

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
  h = Mix(h, Bits(s.fcfs_seek_dist));
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

std::uint64_t DayFp(const DayMetrics& day) {
  std::uint64_t h = 0xDA1;
  h = SliceFp(h, day.all);
  h = SliceFp(h, day.reads);
  h = SliceFp(h, day.writes);
  h = HistFp(h, day.service_all);
  h = HistFp(h, day.service_reads);
  h = Mix(h, static_cast<std::uint64_t>(day.faults.media_errors));
  h = Mix(h, static_cast<std::uint64_t>(day.faults.retries));
  h = Mix(h, static_cast<std::uint64_t>(day.faults.failed_requests));
  h = Mix(h, static_cast<std::uint64_t>(day.faults.aborted_chains));
  h = Mix(h, static_cast<std::uint64_t>(day.faults.recovery_dirtied));
  h = Mix(h, static_cast<std::uint64_t>(day.faults.recovery_fallbacks));
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

/// Hashes the merged completion stream and checks it is time-ordered.
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
    hash = Mix(hash, static_cast<std::uint64_t>(done.queue_time));
    ++count;
  }
};

// --- Miniature fleet configurations ----------------------------------------

array::ArrayConfig MiniConfig(std::int32_t shards, std::int32_t threads) {
  array::ArrayConfig config;
  config.level = array::RaidLevel::kRaid0;
  config.members = shards;
  config.chunk_blocks = 1;
  config.spare_slots = 0;
  config.ranking = array::Ranking::kMemberAnalyzers;
  config.threads = threads;
  config.epoch = 30 * kSecond;
  config.drive = disk::DriveSpec::TestDrive();
  config.reserved_cylinders = 10;
  config.rearrange_blocks = 64;
  return config;
}

/// A fleet day addresses one member's blocks.
ArrayDayConfig MiniDay(const array::ArrayDevice& fleet,
                       Micros day_length = 4 * kMinute) {
  ArrayDayConfig day;
  day.synthetic.population = 300;
  day.synthetic.theta = 1.0;
  day.synthetic.write_fraction = 0.3;
  day.synthetic.arrivals.mean_burst_gap = 2 * kSecond;
  day.synthetic.arrivals.mean_burst_size = 4.0;
  day.synthetic.arrivals.mean_intra_gap = 20 * kMillisecond;
  day.day_length = day_length;
  day.seed = 0xC0FFEE;
  day.chunk = 30 * kSecond;  // a fleet generates on its barrier grid
  day.span_blocks = fleet.member_blocks();
  return day;
}

// --- Oracle equivalence -----------------------------------------------------

TEST(ShardedSystemTest, SingleShardMatchesSerialOracle) {
  const array::ArrayConfig config = MiniConfig(/*shards=*/1, /*threads=*/1);

  // The fleet with one shard.
  array::ArrayDevice sys(config);
  ASSERT_TRUE(sys.Start().ok());
  const ArrayDayConfig day = MiniDay(sys);
  ArrayDayRunner runner(&sys, day);
  StatusOr<DayMetrics> sharded_day = runner.RunMeasuredDay();
  ASSERT_TRUE(sharded_day.ok());
  std::vector<analyzer::HotBlock> sharded_hot =
      sys.member_system(0).analyzer().HotList(20);

  // The serial oracle: a plain AdaptiveSystem driven with the identical
  // chunked generation + barrier-tick protocol, no sharding machinery.
  AdaptiveSystemConfig oracle_cfg = config.system;
  oracle_cfg.driver.block_table_capacity = config.rearrange_blocks;
  oracle_cfg.rearrange_blocks = config.rearrange_blocks;
  StatusOr<disk::DiskLabel> label = disk::DiskLabel::Rearranged(
      config.drive.geometry, config.reserved_cylinders);
  ASSERT_TRUE(label.ok());
  ASSERT_TRUE(label->PartitionEvenly(1).ok());
  disk::Disk disk(config.drive);
  driver::InMemoryTableStore store;
  AdaptiveSystem oracle(&disk, *label, oracle_cfg, &store);
  ASSERT_TRUE(oracle.Start().ok());
  driver::AdaptiveDriver& drv = oracle.driver();

  workload::SyntheticBlockWorkload workload(0, sys.member_blocks(),
                                            day.synthetic, day.seed);
  (void)drv.IoctlReadStats(/*clear=*/true);
  const Micros start = drv.now();
  const Micros end = start + day.day_length;
  workload::Trace chunk;
  std::int64_t generated = 0;
  Micros cur = start;
  while (cur < end) {
    const Micros cur_end = std::min(end, cur + config.epoch);
    chunk.Clear();
    workload.Generate(cur, cur_end, chunk);
    generated += static_cast<std::int64_t>(chunk.size());
    for (const workload::TraceRecord& rec : chunk.records()) {
      ASSERT_TRUE(
          drv.SubmitBlock(rec.device, rec.block, rec.type, rec.time).ok());
    }
    if (cur_end > drv.now()) drv.AdvanceTo(cur_end);
    oracle.PeriodicTick(std::max(cur_end, drv.now()));
    cur = cur_end;
  }
  drv.Drain();
  oracle.PeriodicTick(drv.now());
  DayMetrics oracle_day =
      DayMetrics::From(drv.IoctlReadStats(/*clear=*/true),
                       config.drive.seek_model);

  // Identical request stream, identical metrics, identical hot list.
  EXPECT_EQ(runner.requests_generated(), generated);
  EXPECT_EQ(DayFp(*sharded_day), DayFp(oracle_day));
  std::vector<analyzer::HotBlock> oracle_hot = oracle.analyzer().HotList(20);
  ASSERT_EQ(sharded_hot.size(), oracle_hot.size());
  for (std::size_t i = 0; i < oracle_hot.size(); ++i) {
    EXPECT_EQ(sharded_hot[i].id.block, oracle_hot[i].id.block) << "rank " << i;
    EXPECT_EQ(sharded_hot[i].count, oracle_hot[i].count) << "rank " << i;
  }

  // Rearrangement passes produce identical moves, tables, and media images.
  StatusOr<placement::ArrangeResult> sharded_pass = sys.RearrangeAll();
  StatusOr<placement::ArrangeResult> oracle_pass = oracle.Rearrange();
  ASSERT_TRUE(sharded_pass.ok());
  ASSERT_TRUE(oracle_pass.ok());
  EXPECT_EQ(PassFp(*sharded_pass), PassFp(*oracle_pass));
  EXPECT_GT(sharded_pass->copied, 0);
  EXPECT_EQ(TableFp(sys.member_driver(0)), TableFp(drv));
  EXPECT_EQ(PayloadFp(sys.member_disk(0)), PayloadFp(disk));
}

// --- Thread-count invariance (fault-free) -----------------------------------

std::uint64_t RunCleanScenario(std::int32_t shards, std::int32_t threads) {
  array::ArrayDevice sys(MiniConfig(shards, threads));
  HashSink sink;
  sys.set_completion_sink(&sink);
  EXPECT_TRUE(sys.Start().ok());
  ArrayDayRunner runner(&sys, MiniDay(sys, 3 * kMinute));

  std::uint64_t fp = 0xF1EE7;
  for (int phase = 0; phase < 2; ++phase) {
    StatusOr<DayMetrics> day = runner.RunMeasuredDay();
    EXPECT_TRUE(day.ok());
    if (day.ok()) fp = Mix(fp, DayFp(*day));
    Status pass = (phase % 2 == 0) ? runner.RearrangeForNextDay()
                                   : runner.CleanForNextDay();
    EXPECT_TRUE(pass.ok());
    fp = Mix(fp, PassFp(runner.last_arrange()));
  }
  for (std::int32_t s = 0; s < shards; ++s) {
    fp = Mix(fp, TableFp(sys.member_driver(s)));
    fp = Mix(fp, PayloadFp(sys.member_disk(s)));
  }
  fp = Mix(fp, sink.hash);
  fp = Mix(fp, static_cast<std::uint64_t>(sink.count));
  EXPECT_TRUE(sink.ordered);
  EXPECT_GT(sink.count, 0);
  return fp;
}

TEST(ShardedSystemTest, ByteIdenticalAcrossThreadCounts) {
  const std::uint64_t serial = RunCleanScenario(/*shards=*/3, /*threads=*/1);
  EXPECT_EQ(serial, RunCleanScenario(3, 2));
  EXPECT_EQ(serial, RunCleanScenario(3, 8));
}

// --- Randomized differential: faults, crashes, member deaths ---------------

std::uint64_t RunFaultyScenario(std::uint64_t seed, std::int32_t threads,
                                int* deaths_out = nullptr) {
  // Random shard count per seed; the invariant under test is that the
  // worker-thread count never changes anything.
  const std::int32_t shards = 1 + static_cast<std::int32_t>(seed % 4);
  array::ArrayConfig config = MiniConfig(shards, threads);
  config.fault_seed = seed;
  const Micros day_len = 3 * kMinute;

  // One deterministic fault plan per member: media faults, torn writes,
  // and a crash point on roughly every other member.
  for (std::int32_t s = 0; s < shards; ++s) {
    fault::FaultPlanConfig plan_cfg;
    plan_cfg.sector_count = config.drive.geometry.total_sectors();
    plan_cfg.transient_faults = 2;
    plan_cfg.persistent_faults = 1;
    plan_cfg.torn_writes = 1;
    plan_cfg.crash_points = static_cast<std::int32_t>((seed + s) % 2);
    plan_cfg.io_horizon = 400;
    config.fault_plans.push_back(
        fault::FaultPlan::Random(seed * 0x9E37 + s, plan_cfg));
  }

  // A crashed member is a dead machine in a live fleet: it goes dead at
  // the next barrier, the traffic routed to it afterwards is lost, and the
  // fleet skips passes from then on.
  HashSink sink;
  array::ArrayDevice sys(config);
  sys.set_completion_sink(&sink);
  Status st = sys.Start();
  EXPECT_TRUE(st.ok()) << st.message();

  workload::SyntheticBlockWorkload workload(0, sys.member_blocks(),
                                            MiniDay(sys).synthetic, seed);
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

  // Final state: mapping sets, full payload images and member states,
  // member by member.
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
  fp = Mix(fp, static_cast<std::uint64_t>(sys.passes_skipped_degraded()));
  EXPECT_TRUE(sink.ordered);
  if (deaths_out != nullptr) *deaths_out += deaths;
  return fp;
}

TEST(ShardedSystemTest, ThreadCountInvariantUnderFaultsAndCrashes) {
  int deaths = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::uint64_t serial =
        RunFaultyScenario(seed, /*threads=*/1, &deaths);
    EXPECT_EQ(serial, RunFaultyScenario(seed, /*threads=*/4));
  }
  // The sweep must actually exercise the member-death path, not just the
  // media-fault path.
  EXPECT_GT(deaths, 0);
}

// --- Request-stream identity across shard counts ----------------------------

TEST(ShardedSystemTest, RequestStreamMatchesAcrossShardCounts) {
  std::vector<std::int64_t> generated;
  std::vector<std::int64_t> completed;
  std::vector<std::map<BlockNo, std::int64_t>> counts;
  for (std::int32_t shards : {1, 2, 4}) {
    array::ArrayDevice sys(MiniConfig(shards, /*threads=*/2));
    HashSink sink;
    sys.set_completion_sink(&sink);
    ASSERT_TRUE(sys.Start().ok());
    ArrayDayRunner runner(&sys, MiniDay(sys));
    ASSERT_TRUE(runner.RunMeasuredDay().ok());
    generated.push_back(runner.requests_generated());
    completed.push_back(sink.count);
    // Every reference lands in its block's member analyzer, which holds
    // them all at this size: local block b of member s is block b*S + s.
    std::map<BlockNo, std::int64_t> by_block;
    for (std::int32_t s = 0; s < shards; ++s) {
      for (const analyzer::HotBlock& hot :
           sys.member_system(s).analyzer().HotList(sys.member_blocks())) {
        by_block[hot.id.block * shards + s] += hot.count;
      }
    }
    counts.push_back(std::move(by_block));
    EXPECT_TRUE(sink.ordered);
  }
  for (std::size_t i = 1; i < generated.size(); ++i) {
    EXPECT_EQ(generated[i], generated[0]);
    EXPECT_EQ(counts[i], counts[0]);
  }
  std::int64_t referenced = 0;
  for (const auto& [block, n] : counts[0]) referenced += n;
  EXPECT_EQ(referenced, generated[0]);
  // Fault-free: every generated request completes exactly once.
  for (std::size_t i = 0; i < generated.size(); ++i) {
    EXPECT_EQ(completed[i], generated[i]);
  }
}

// --- The paper's protocol on a fleet ----------------------------------------

TEST(ShardedSystemTest, OnDaysBeatOffDays) {
  array::ArrayConfig config = MiniConfig(/*shards=*/3, /*threads=*/2);
  config.rearrange_blocks = 96;
  array::ArrayDevice sys(config);
  ASSERT_TRUE(sys.Start().ok());
  ArrayDayRunner runner(&sys, MiniDay(sys, 6 * kMinute));
  StatusOr<OnOffResult> result =
      RunOnOffLoop(runner, /*days_per_side=*/1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->off_days.size(), 1u);
  ASSERT_EQ(result->on_days.size(), 1u);
  EXPECT_GT(result->on_days[0].arrange.copied, 0);
  // Rearrangement must shorten seeks, the paper's core claim.
  EXPECT_LT(result->on_days[0].all.mean_seek_dist,
            result->off_days[0].all.mean_seek_dist);
}

// --- API guard rails --------------------------------------------------------

TEST(ShardedSystemTest, RejectsMalformedSubmissions) {
  array::ArrayDevice sys(MiniConfig(2, 1));
  workload::TraceRecord rec;
  rec.time = kSecond;
  EXPECT_EQ(sys.Submit(rec).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(sys.Start().ok());

  rec.time = sys.now() + kSecond;
  rec.device = 1;
  EXPECT_EQ(sys.Submit(rec).code(), StatusCode::kInvalidArgument);
  rec.device = 0;
  rec.block = sys.device_blocks();
  EXPECT_EQ(sys.Submit(rec).code(), StatusCode::kOutOfRange);
  rec.block = 0;
  ASSERT_TRUE(sys.Submit(rec).ok());
  rec.time -= 1;  // time moves backwards
  EXPECT_EQ(sys.Submit(rec).code(), StatusCode::kInvalidArgument);
}

TEST(ShardedSystemTest, StartTwiceFails) {
  array::ArrayDevice sys(MiniConfig(2, 1));
  ASSERT_TRUE(sys.Start().ok());
  EXPECT_EQ(sys.Start().code(), StatusCode::kFailedPrecondition);
}

TEST(ShardedSystemTest, StepProtocolGuarded) {
  array::ArrayDevice sys(MiniConfig(2, 2));
  ASSERT_TRUE(sys.Start().ok());
  EXPECT_EQ(sys.EndStep().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(sys.BeginStep(sys.now() + kSecond).ok());
  EXPECT_EQ(sys.BeginStep(sys.now() + kSecond).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(sys.EndStep().ok());
}

}  // namespace
}  // namespace abr::core

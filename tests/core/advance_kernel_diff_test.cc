// Differential tests for the batched driver stepping kernels.
//
// AdaptiveDriver::AdvanceTo and SubmitBlockBatch take a batched fast path
// whenever no idle sink wants the clock walked completion by completion.
// The stepped twin forces the original stepped loops from outside the
// driver: each member driver gets a SteppingSink in front of the sink its
// system registered (a continuous arranger, an array member's resync and
// scrub pump, or none). It forwards every idle offer and busy signal but
// always wants idle windows, so the driver never batches. Twin runs of the
// same seeded days — production and stepped — must land on bit-identical
// day metrics, mapping tables and payload images: on the sharded fleet
// (RAID0 at chunk 1 ranking from member analyzers) with and without a
// continuous plan armed (the armed plan is exactly the case the batched
// path must step through), and on a RAID0 array and a scrubbing RAID1
// array.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "array/array_device.h"
#include "core/array_day.h"
#include "core/metrics.h"
#include "driver/adaptive_driver.h"

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

/// Forces the stepped loops on one driver: registered in front of the sink
/// the system installed, it forwards every offer and busy signal to that
/// sink but always wants idle windows, so AdvanceTo and SubmitBlockBatch
/// never take their batched paths.
class SteppingSink final : public driver::IdleSink {
 public:
  explicit SteppingSink(driver::AdaptiveDriver& drv)
      : inner_(drv.idle_sink()) {
    drv.set_idle_sink(this);
  }

  void OnIdle(Micros horizon) override {
    ++offers_;
    if (inner_ != nullptr) inner_->OnIdle(horizon);
  }
  void OnBusy() override {
    if (inner_ != nullptr) inner_->OnBusy();
  }
  bool wants_idle() const override { return true; }

  /// Idle windows the driver offered: nonzero proves the run stepped.
  std::int64_t offers() const { return offers_; }

 private:
  driver::IdleSink* inner_;
  std::int64_t offers_ = 0;
};

/// One twin's outcome: everything observable folded into a fingerprint,
/// plus the idle offers its stepping sinks saw (0 for production).
struct Outcome {
  std::uint64_t fp = 0xFEED;
  std::int64_t offers = 0;
};

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

/// Runs two days on each side of the on/off protocol on a started device
/// whose traffic addresses `span_blocks` (0: the whole device). With
/// `stepped`, each member driver gets a SteppingSink first. No member dies
/// in these days, so each driver lives the whole run.
Outcome RunTwin(array::ArrayDevice& dev, std::int64_t span_blocks,
                bool stepped) {
  std::vector<driver::AdaptiveDriver*> members;
  for (std::int32_t m = 0; m < dev.members(); ++m) {
    members.push_back(&dev.member_driver(m));
  }
  std::vector<std::unique_ptr<SteppingSink>> sinks;
  if (stepped) {
    for (driver::AdaptiveDriver* drv : members) {
      sinks.push_back(std::make_unique<SteppingSink>(*drv));
    }
  }
  ArrayDayConfig day = MiniDay();
  day.span_blocks = span_blocks;
  ArrayDayRunner runner(&dev, day);
  StatusOr<OnOffResult> result = RunOnOffLoop(runner, /*days=*/2);
  EXPECT_TRUE(result.ok());
  Outcome out;
  if (!result.ok()) return out;
  for (const DayMetrics& d : result->off_days) out.fp = Mix(out.fp, DayFp(d));
  for (const DayMetrics& d : result->on_days) out.fp = Mix(out.fp, DayFp(d));
  for (driver::AdaptiveDriver* drv : members) {
    out.fp = Mix(out.fp, TableFp(*drv));
    out.fp = Mix(out.fp, PayloadFp(drv->disk()));
  }
  for (const auto& sink : sinks) out.offers += sink->offers();
  return out;
}

array::ArrayConfig MiniConfig(std::int32_t shards, bool continuous) {
  array::ArrayConfig config;
  config.level = array::RaidLevel::kRaid0;
  config.members = shards;
  config.chunk_blocks = 1;
  config.spare_slots = 0;
  config.ranking = array::Ranking::kMemberAnalyzers;
  config.threads = 1;
  config.epoch = 30 * kSecond;
  config.drive = disk::DriveSpec::TestDrive();
  config.reserved_cylinders = 10;
  config.rearrange_blocks = 64;
  config.system.continuous = continuous;
  return config;
}

Outcome RunFleet(std::int32_t shards, bool continuous, bool stepped) {
  array::ArrayDevice sys(MiniConfig(shards, continuous));
  EXPECT_TRUE(sys.Start().ok());
  // A fleet day addresses one member's blocks.
  return RunTwin(sys, sys.member_blocks(), stepped);
}

/// Production and stepped twins must agree bit for bit, and the stepped
/// twin must really have stepped.
void ExpectTwinsAgree(const Outcome& batched, const Outcome& stepped) {
  EXPECT_EQ(batched.fp, stepped.fp);
  EXPECT_GT(stepped.offers, 0);
}

TEST(AdvanceKernelDiffTest, BatchedMatchesSteppedSerial) {
  // One shard, batch arranger: no idle sink registered, so the batched
  // AdvanceTo covers the entire day.
  ExpectTwinsAgree(RunFleet(1, /*continuous=*/false, /*stepped=*/false),
                   RunFleet(1, /*continuous=*/false, /*stepped=*/true));
}

TEST(AdvanceKernelDiffTest, BatchedMatchesSteppedContinuousPlan) {
  // Continuous arranger armed: a sink is registered and plans open on
  // on-days, so the batched path must fall back to stepping exactly while
  // a plan is live and may batch in between.
  ExpectTwinsAgree(RunFleet(1, /*continuous=*/true, /*stepped=*/false),
                   RunFleet(1, /*continuous=*/true, /*stepped=*/true));
}

TEST(AdvanceKernelDiffTest, BatchedMatchesSteppedFleet) {
  ExpectTwinsAgree(RunFleet(3, /*continuous=*/false, /*stepped=*/false),
                   RunFleet(3, /*continuous=*/false, /*stepped=*/true));
}

TEST(AdvanceKernelDiffTest, BatchedMatchesSteppedFleetContinuous) {
  ExpectTwinsAgree(RunFleet(3, /*continuous=*/true, /*stepped=*/false),
                   RunFleet(3, /*continuous=*/true, /*stepped=*/true));
}

// --- Arrays -----------------------------------------------------------------

array::ArrayConfig MiniArray(array::RaidLevel level, std::int32_t members,
                             std::int32_t scrub_batch) {
  array::ArrayConfig c;
  c.level = level;
  c.members = members;
  c.threads = 1;
  c.epoch = 30 * kSecond;
  c.drive = disk::DriveSpec::TestDrive();
  c.reserved_cylinders = 10;
  c.rearrange_blocks = 48;
  c.spare_slots = 4;
  c.scrub_batch = scrub_batch;
  return c;
}

Outcome RunArray(array::RaidLevel level, std::int32_t members,
                 std::int32_t scrub_batch, bool stepped) {
  array::ArrayDevice dev(MiniArray(level, members, scrub_batch));
  EXPECT_TRUE(dev.Start().ok()) << dev.first_error();
  Outcome out = RunTwin(dev, /*span_blocks=*/0, stepped);
  EXPECT_TRUE(dev.first_error().empty()) << dev.first_error();
  return out;
}

TEST(AdvanceKernelDiffTest, BatchedMatchesSteppedRaid0) {
  // Four striped members with no resync or scrub: no member registers an
  // idle sink, so production batches all day.
  ExpectTwinsAgree(
      RunArray(array::RaidLevel::kRaid0, 4, /*scrub_batch=*/0, false),
      RunArray(array::RaidLevel::kRaid0, 4, /*scrub_batch=*/0, true));
}

TEST(AdvanceKernelDiffTest, BatchedMatchesSteppedRaid1Scrub) {
  // A scrubbing mirror: members want idle windows while cold blocks are
  // queued, so production steps through those stretches and batches the
  // rest.
  ExpectTwinsAgree(
      RunArray(array::RaidLevel::kRaid1, 2, /*scrub_batch=*/4, false),
      RunArray(array::RaidLevel::kRaid1, 2, /*scrub_batch=*/4, true));
}

}  // namespace
}  // namespace abr::core

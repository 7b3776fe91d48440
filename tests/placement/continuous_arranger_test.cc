// Tests for the continuous cost-bounded arranger: unit coverage of the
// move-utility economics and the online threshold, then a randomized
// differential test of the suspend/resume executor — one machine's clock
// is chopped into arbitrary small AdvanceTo() increments under traffic
// (so the open plan suspends and resumes at arbitrary points), the other
// runs the identical day uninterrupted, and both must land bit-identical
// final mapping sets and payload stamps. The executor's progress may only
// depend on simulated event times, never on how the caller slices them.

#include "placement/continuous_arranger.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "disk/drive_spec.h"
#include "driver/adaptive_driver.h"
#include "placement/arranger.h"
#include "placement/move_utility.h"
#include "placement/policy.h"
#include "util/rng.h"

namespace abr::placement {
namespace {

using analyzer::BlockId;
using analyzer::HotBlock;

constexpr std::int32_t kBlockSectors = 16;
constexpr BlockNo kHotPool = 48;  // hot sets are drawn from [0, kHotPool)
constexpr BlockNo kBlocks = 56;   // day traffic spans [0, kBlocks)

std::uint64_t StampTag(BlockNo b) {
  return 0xC0000000ull + static_cast<std::uint64_t>(b) * 0x100;
}

// --- Move-utility economics ------------------------------------------------

class MoveUtilityModelTest : public ::testing::Test {
 protected:
  MoveUtilityModelTest()
      : spec_(disk::DriveSpec::TestDrive()),
        model_(&spec_.seek_model, /*center=*/4) {}

  disk::DriveSpec spec_;
  MoveUtilityModel model_;
};

TEST_F(MoveUtilityModelTest, SavingsGrowWithDistanceFromCenter) {
  EXPECT_EQ(model_.SavingsPerReference(4), 0);  // already at the center
  const Micros near = model_.SavingsPerReference(8);
  const Micros far = model_.SavingsPerReference(60);
  EXPECT_GT(near, 0);
  EXPECT_GT(far, near);
  // Distances clamp at the seek model's max stroke.
  EXPECT_EQ(model_.SavingsPerReference(10000),
            spec_.seek_model.TimeFor(spec_.seek_model.max_distance()));
}

TEST_F(MoveUtilityModelTest, ShuffleCostChargesTheShortHop) {
  // A one-cylinder reshuffle inside the region must price far below a
  // cross-disk copy chain — otherwise the threshold rejects every rank
  // reordering the drift pays for.
  const Micros shuffle = model_.ShuffleCost(3, 4, 5);
  const Micros copy = model_.MoveCost(3);
  EXPECT_GT(shuffle, 0);
  EXPECT_LT(shuffle, copy);
  // Equal-cylinder shuffles still charge a minimal hop (rotation is real).
  EXPECT_EQ(model_.ShuffleCost(3, 4, 4), model_.ShuffleCost(3, 4, 5));
  // The hop is symmetric and grows with distance.
  EXPECT_EQ(model_.ShuffleCost(3, 2, 7), model_.ShuffleCost(3, 7, 2));
  EXPECT_GT(model_.ShuffleCost(3, 0, 9), model_.ShuffleCost(3, 4, 5));
}

TEST_F(MoveUtilityModelTest, AdmitShuffleOnlyBuysInwardMoves) {
  // Outward or equal-distance moves save nothing — never admitted, at any
  // reference count.
  EXPECT_FALSE(model_.AdmitShuffle(1 << 30, 5, 6, 1.0, 3));
  EXPECT_FALSE(model_.AdmitShuffle(1 << 30, 2, 6, 1.0, 3));  // |2-4| == |6-4|
  // An inward move is admitted once the references pay for the hop.
  EXPECT_TRUE(model_.AdmitShuffle(1 << 20, 9, 4, 1.0, 3));
  EXPECT_FALSE(model_.AdmitShuffle(0, 9, 4, 1.0, 3));
}

TEST_F(MoveUtilityModelTest, AdmitCopyScalesWithThresholdAndRefs) {
  const Cylinder home = 40;
  // Find the marginal reference count at threshold 1.0, then check the
  // admission boundary moves with the threshold.
  const double cost = static_cast<double>(model_.MoveCost(3));
  const double per_ref = static_cast<double>(model_.SavingsPerReference(home));
  const std::int64_t marginal =
      static_cast<std::int64_t>(cost / per_ref) + 1;
  EXPECT_TRUE(model_.AdmitCopy(marginal, home, 1.0, 3));
  EXPECT_FALSE(model_.AdmitCopy(marginal - 1, home, 1.0, 3) &&
               model_.AdmitCopy(marginal - 2, home, 1.0, 3));
  EXPECT_FALSE(model_.AdmitCopy(marginal, home, 4.0, 3));
  EXPECT_TRUE(model_.AdmitCopy(marginal * 4 + 1, home, 4.0, 3));
  EXPECT_FALSE(model_.AdmitCopy(0, home, 1.0, 3));
}

TEST(UtilityThresholdTest, RaisesWhenIdleTimeFellShort) {
  UtilityThreshold thr;
  EXPECT_DOUBLE_EQ(thr.value(), 1.0);
  thr.Update(/*admitted=*/10, /*executed=*/4, /*rejected=*/0);
  EXPECT_DOUBLE_EQ(thr.value(), 2.0);
  thr.Update(10, 0, 0);
  EXPECT_DOUBLE_EQ(thr.value(), 4.0);
}

TEST(UtilityThresholdTest, LowersOnlyAfterFinishingWithRejects) {
  UtilityThreshold thr;
  thr.Update(10, 0, 0);
  thr.Update(10, 0, 0);
  EXPECT_DOUBLE_EQ(thr.value(), 4.0);
  // Finished completely but nothing was priced out: deadband, hold.
  thr.Update(10, 10, 0);
  EXPECT_DOUBLE_EQ(thr.value(), 4.0);
  // Finished with candidates left on the table: there was budget to spare.
  thr.Update(10, 10, 3);
  EXPECT_DOUBLE_EQ(thr.value(), 2.0);
  // Nearly finished (above the low-water mark): deadband again.
  thr.Update(10, 9, 3);
  EXPECT_DOUBLE_EQ(thr.value(), 2.0);
}

TEST(UtilityThresholdTest, ClampsAtBreakEvenFloorAndCeiling) {
  UtilityThreshold thr;
  // The floor is break-even: finishing with rejects forever never drops
  // the bar below 1.0 (a cheaper move would cost more than it saves).
  for (int i = 0; i < 8; ++i) thr.Update(10, 10, 5);
  EXPECT_DOUBLE_EQ(thr.value(), UtilityThreshold::kMin);
  for (int i = 0; i < 32; ++i) thr.Update(10, 0, 0);
  EXPECT_DOUBLE_EQ(thr.value(), UtilityThreshold::kMax);
}

// --- Executor differential -------------------------------------------------

/// One machine: disk + store + driver + continuous arranger wired in as
/// the driver's idle sink.
struct Machine {
  std::unique_ptr<disk::Disk> disk;
  driver::InMemoryTableStore store;
  std::unique_ptr<driver::AdaptiveDriver> driver;
  std::unique_ptr<PlacementPolicy> policy;
  std::unique_ptr<ContinuousArranger> arranger;

  void Create(PolicyKind kind = PolicyKind::kOrganPipe) {
    disk = std::make_unique<disk::Disk>(disk::DriveSpec::TestDrive());
    auto label = disk::DiskLabel::Rearranged(disk->geometry(), 10);
    ASSERT_TRUE(label.ok());
    ASSERT_TRUE(label->PartitionEvenly(1).ok());
    driver::DriverConfig config;
    config.block_table_capacity = 16;
    driver = std::make_unique<driver::AdaptiveDriver>(
        disk.get(), std::move(*label), config, &store);
    ASSERT_TRUE(driver->Attach().ok());
    policy = MakePolicy(kind);
    arranger = std::make_unique<ContinuousArranger>(policy.get());
    driver->set_idle_sink(arranger.get());
    for (BlockNo b = 0; b < kBlocks; ++b) {
      const SectorNo start = Original(b);
      for (std::int32_t k = 0; k < kBlockSectors; ++k) {
        disk->WritePayload(start + k,
                           StampTag(b) + static_cast<std::uint64_t>(k));
      }
    }
  }

  SectorNo Original(BlockNo b) const {
    const auto extents =
        driver->MapVirtualExtent(b * kBlockSectors, kBlockSectors);
    EXPECT_EQ(extents.size(), 1u);
    return extents[0].sector;
  }
};

std::vector<std::pair<SectorNo, SectorNo>> MappingSet(const Machine& m) {
  std::vector<std::pair<SectorNo, SectorNo>> out;
  for (const driver::BlockTableEntry& e : m.driver->block_table().entries()) {
    out.emplace_back(e.original, e.relocated);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The translated view of every block must still read its original stamp
/// — suspension and resumption may never lose or misplace a payload.
void CheckPayloads(const Machine& m) {
  for (BlockNo b = 0; b < kBlocks; ++b) {
    const SectorNo origin = m.Original(b);
    const SectorNo at = m.driver->block_table().Lookup(origin).value_or(origin);
    for (std::int32_t k = 0; k < kBlockSectors; ++k) {
      ASSERT_EQ(m.disk->ReadPayload(at + k),
                StampTag(b) + static_cast<std::uint64_t>(k))
          << "block " << b << " sector " << k;
    }
  }
}

std::vector<HotBlock> Ranked(const std::vector<BlockNo>& hot) {
  std::vector<HotBlock> ranked;
  std::int64_t count = 1 << 20;
  for (BlockNo b : hot) {
    ranked.push_back(HotBlock{BlockId{0, b}, count});
    count -= 13;
  }
  return ranked;
}

class ContinuousArrangerDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ContinuousArrangerDiffTest, ChoppedClockMatchesUninterruptedRun) {
  Rng rng(GetParam());
  Machine chop;      // clock advanced in arbitrary small increments
  Machine straight;  // same day, advanced in single strides
  chop.Create();
  straight.Create();

  std::vector<BlockNo> hot;
  for (BlockNo b = 0; b < 12; ++b) hot.push_back(b);

  for (int day = 0; day < 5; ++day) {
    const std::vector<HotBlock> ranked = Ranked(hot);
    ASSERT_TRUE(chop.arranger->OpenPlan(*chop.driver, ranked).ok());
    ASSERT_TRUE(straight.arranger->OpenPlan(*straight.driver, ranked).ok());

    // Identical arrival schedule with real idle gaps (a TestDrive request
    // costs ~15-25 ms of service, so 5-35 ms gaps leave idle windows the
    // executor can spend). The chopped machine additionally advances its
    // clock to each arrival through random small steps, suspending and
    // resuming the open plan at arbitrary points along the way.
    Micros t = std::max(chop.driver->now(), straight.driver->now());
    for (int step = 0; step < 60; ++step) {
      t += 5000 + static_cast<Micros>(rng.NextBounded(30000));
      const BlockNo b = static_cast<BlockNo>(rng.NextBounded(kBlocks));
      const sched::IoType type = rng.NextBernoulli(0.3)
                                     ? sched::IoType::kWrite
                                     : sched::IoType::kRead;
      while (chop.driver->now() < t) {
        const Micros inc = 1 + static_cast<Micros>(rng.NextBounded(8000));
        chop.driver->AdvanceTo(std::min<Micros>(t, chop.driver->now() + inc));
      }
      ASSERT_TRUE(chop.driver->SubmitBlock(0, b, type, t).ok());
      ASSERT_TRUE(straight.driver->SubmitBlock(0, b, type, t).ok());
    }

    // A generous idle tail: both plans must drain completely, one through
    // many tiny windows, one through a single wide-open horizon.
    const Micros end =
        std::max(chop.driver->now(), straight.driver->now()) + 5'000'000;
    while (chop.driver->now() < end) {
      const Micros inc = 1 + static_cast<Micros>(rng.NextBounded(40000));
      chop.driver->AdvanceTo(std::min<Micros>(end, chop.driver->now() + inc));
    }
    straight.driver->AdvanceTo(end);
    chop.driver->Drain();
    straight.driver->Drain();

    const ArrangeResult rc = chop.arranger->CloseDay();
    const ArrangeResult rs = straight.arranger->CloseDay();
    ASSERT_FALSE(rc.halted);
    ASSERT_FALSE(rs.halted);
    EXPECT_EQ(rc.aborted, 0) << "day " << day;
    EXPECT_EQ(rs.aborted, 0) << "day " << day;
    // With the idle tail both plans execute fully; what remains deferred
    // is exactly the threshold-rejected candidates, identical by design.
    EXPECT_EQ(rc.deferred, rs.deferred) << "day " << day;
    EXPECT_EQ(rc.admitted, rs.admitted) << "day " << day;
    EXPECT_EQ(rc.shuffled, rs.shuffled) << "day " << day;
    EXPECT_EQ(rc.evicted, rs.evicted) << "day " << day;
    EXPECT_DOUBLE_EQ(chop.arranger->threshold(),
                     straight.arranger->threshold());

    ASSERT_EQ(MappingSet(chop), MappingSet(straight)) << "day " << day;
    CheckPayloads(chop);
    CheckPayloads(straight);

    // The chopped machine really did suspend mid-plan at least once over
    // the run (otherwise the test proves nothing).
    if (day == 0) {
      EXPECT_GT(chop.arranger->idle_windows(), 0);
    }

    // Drift the hot set for tomorrow: a few replacements plus a shuffle.
    for (int n = 0; n < 3; ++n) {
      BlockNo repl;
      do {
        repl = static_cast<BlockNo>(rng.NextBounded(kHotPool));
      } while (std::find(hot.begin(), hot.end(), repl) != hot.end());
      hot[rng.NextBounded(hot.size())] = repl;
    }
    for (std::size_t i = hot.size(); i > 1; --i) {
      std::swap(hot[i - 1], hot[rng.NextBounded(i)]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContinuousArrangerDiffTest,
                         ::testing::Values(1u, 17u, 1993u, 0xABCDu));

// --- Parity and preemption -------------------------------------------------

/// From an empty table every candidate is a copy-in and every copy-in
/// clears the break-even threshold at Ranked()'s reference counts, so a
/// day of pure idle must land exactly the batch arranger's layout under
/// the same policy.
void ExpectFullIdleMatchesBatchArranger(PolicyKind kind,
                                        const std::vector<BlockNo>& hot) {
  SCOPED_TRACE(PolicyKindName(kind));
  Machine cont;
  cont.Create(kind);
  Machine batch;
  batch.Create(kind);
  batch.driver->set_idle_sink(nullptr);
  BlockArranger oracle(batch.policy.get());
  const std::vector<HotBlock> ranked = Ranked(hot);

  ASSERT_TRUE(cont.arranger->OpenPlan(*cont.driver, ranked).ok());
  cont.driver->AdvanceTo(cont.driver->now() + 5'000'000);
  cont.driver->Drain();
  const ArrangeResult rc = cont.arranger->CloseDay();
  const auto rb = oracle.Rearrange(*batch.driver, ranked);
  ASSERT_TRUE(rb.ok());

  EXPECT_EQ(rc.deferred, 0);
  EXPECT_EQ(rc.admitted, rb->copied);
  EXPECT_EQ(MappingSet(cont), MappingSet(batch));
  CheckPayloads(cont);
}

TEST(ContinuousArrangerTest, FullIdleMatchesBatchArrangerOnFreshTable) {
  // Rank order is not block order, so serial placement (slots by block
  // number) lists its assignments in another order than the ranking.
  const std::vector<BlockNo> hot = {33, 6, 21, 0, 30, 12, 3, 27, 9, 18, 24, 15};
  for (PolicyKind kind : {PolicyKind::kOrganPipe, PolicyKind::kInterleaved,
                          PolicyKind::kSerial, PolicyKind::kStaggered}) {
    ExpectFullIdleMatchesBatchArranger(kind, hot);
  }
}

TEST(ContinuousArrangerTest,
     FullIdleMatchesBatchArrangerAlongInterleavedChains) {
  // At interleave factor 1, block X + 2 succeeds X. Three chains of four
  // hot blocks each, ranked across the chains, so interleaved placement
  // lists its assignments chain by chain rather than in rank order.
  const std::vector<BlockNo> hot = {0, 10, 20, 2, 12, 22, 4, 14, 24, 6, 16, 26};
  ExpectFullIdleMatchesBatchArranger(PolicyKind::kInterleaved, hot);
}

TEST(ContinuousArrangerTest, ArrivalSuspendsInFlightPlanWithoutAborting) {
  Machine m;
  m.Create();
  std::vector<BlockNo> hot;
  for (BlockNo b = 0; b < 12; ++b) hot.push_back(b);
  ASSERT_TRUE(m.arranger->OpenPlan(*m.driver, Ranked(hot)).ok());

  // Arrivals spaced tighter than a move chain's duration: the pre-advance
  // to each arrival opens an idle window, the window issues a chain, and
  // the arrival lands while it is still in flight — the plan must suspend
  // (preemption counted), never abort.
  Micros t = m.driver->now();
  for (int step = 0; step < 12; ++step) {
    t += 15000;
    ASSERT_TRUE(m.driver
                    ->SubmitBlock(0, static_cast<BlockNo>(step % kBlocks),
                                  sched::IoType::kRead, t)
                    .ok());
  }
  m.driver->AdvanceTo(t + 5'000'000);
  m.driver->Drain();
  EXPECT_GT(m.arranger->preemptions(), 0);

  const ArrangeResult r = m.arranger->CloseDay();
  EXPECT_EQ(r.aborted, 0);
  EXPECT_EQ(r.deferred, 0);  // the idle tail finished the suspended plan
  EXPECT_EQ(r.admitted, 12);
  CheckPayloads(m);
}

TEST(ContinuousArrangerTest, ThresholdPricesOutColdCandidates) {
  // Hot head with real traffic behind it, ice-cold tail: the tail's
  // expected savings cannot pay for its copy chains, so the plan admits
  // only the head and reports the tail as deferred.
  Machine m;
  m.Create();
  std::vector<HotBlock> ranked;
  for (BlockNo b = 0; b < 6; ++b) {
    ranked.push_back(HotBlock{BlockId{0, b}, 1 << 20});
  }
  for (BlockNo b = 6; b < 12; ++b) {
    ranked.push_back(HotBlock{BlockId{0, b}, 1});
  }
  ASSERT_TRUE(m.arranger->OpenPlan(*m.driver, ranked).ok());
  m.driver->AdvanceTo(m.driver->now() + 5'000'000);
  m.driver->Drain();
  const ArrangeResult r = m.arranger->CloseDay();
  EXPECT_EQ(r.admitted, 6);
  EXPECT_EQ(r.deferred, 6);
  EXPECT_EQ(static_cast<std::int32_t>(m.driver->block_table().size()), 6);
}

}  // namespace
}  // namespace abr::placement

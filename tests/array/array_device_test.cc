#include "array/array_device.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

namespace abr::array {
namespace {

ArrayConfig SmallConfig(RaidLevel level, std::int32_t members) {
  ArrayConfig c;
  c.level = level;
  c.members = members;
  c.threads = 1;
  c.chunk_blocks = 4;
  c.epoch = 50 * kMillisecond;
  c.drive = disk::DriveSpec::TestDrive(60, 2, 32);
  c.reserved_cylinders = 8;
  c.rearrange_blocks = 16;
  c.spare_slots = 4;
  c.resync_granule_blocks = 4;
  c.system.driver.block_size_bytes = 8192;
  c.system.driver.request_monitor_capacity = 1 << 12;
  return c;
}

struct CountingSink : sim::ShardCompletionSink {
  std::map<std::int32_t, std::int64_t> writes;
  std::map<std::int32_t, std::int64_t> reads;
  void OnShardIoComplete(std::int32_t member,
                         const sim::CompletedIo& done) override {
    if (done.request.internal) return;
    if (done.request.type == sched::IoType::kWrite) {
      ++writes[member];
    } else {
      ++reads[member];
    }
  }
  std::int64_t total_reads() const {
    std::int64_t n = 0;
    for (const auto& [m, c] : reads) n += c;
    return n;
  }
};

workload::TraceRecord Rec(Micros t, BlockNo block, sched::IoType type) {
  return workload::TraceRecord{t, 0, block, type};
}

std::vector<std::pair<SectorNo, SectorNo>> MappingSet(
    const ArrayDevice& dev, std::int32_t member) {
  std::vector<std::pair<SectorNo, SectorNo>> set;
  for (const auto& e : dev.member_driver(member).block_table().entries()) {
    set.emplace_back(e.original, e.relocated);
  }
  std::sort(set.begin(), set.end());
  return set;
}

TEST(ArrayDeviceTest, Raid0CapacityClampsToWholeChunks) {
  ArrayConfig c = SmallConfig(RaidLevel::kRaid0, 3);
  ArrayDevice dev(c);
  ASSERT_TRUE(dev.Start().ok()) << dev.first_error();
  ASSERT_GT(dev.member_blocks(), 0);
  const std::int64_t usable =
      (dev.member_blocks() / c.chunk_blocks) * c.chunk_blocks;
  EXPECT_EQ(dev.device_blocks(), usable * 3);
}

TEST(ArrayDeviceTest, Raid1CapacityIsOneMember) {
  ArrayDevice dev(SmallConfig(RaidLevel::kRaid1, 2));
  ASSERT_TRUE(dev.Start().ok()) << dev.first_error();
  EXPECT_EQ(dev.device_blocks(), dev.member_blocks());
}

TEST(ArrayDeviceTest, Raid1WritesFanOutReadsPickOneMember) {
  ArrayConfig c = SmallConfig(RaidLevel::kRaid1, 3);
  CountingSink sink;
  ArrayDevice dev(c);
  dev.set_completion_sink(&sink);
  ASSERT_TRUE(dev.Start().ok()) << dev.first_error();

  Micros t = 0;
  for (BlockNo b = 0; b < 10; ++b) {
    t += 2 * kMillisecond;
    ASSERT_TRUE(dev.Submit(Rec(t, b, sched::IoType::kWrite)).ok());
    ASSERT_TRUE(dev.AdvanceTo(t).ok());
  }
  for (BlockNo b = 0; b < 10; ++b) {
    t += 2 * kMillisecond;
    ASSERT_TRUE(dev.Submit(Rec(t, b, sched::IoType::kRead)).ok());
    ASSERT_TRUE(dev.AdvanceTo(t).ok());
  }
  ASSERT_TRUE(dev.Drain().ok());

  // Every member sees every write; the 10 reads land on exactly one
  // member each.
  for (std::int32_t m = 0; m < 3; ++m) {
    EXPECT_EQ(sink.writes[m], 10) << "member " << m;
  }
  EXPECT_EQ(sink.total_reads(), 10);
  EXPECT_EQ(dev.lost_requests(), 0);
  EXPECT_TRUE(dev.first_error().empty()) << dev.first_error();
}

TEST(ArrayDeviceTest, Raid1MirrorTablesStayInLockstepAfterRearrange) {
  ArrayDevice dev(SmallConfig(RaidLevel::kRaid1, 3));
  ASSERT_TRUE(dev.Start().ok()) << dev.first_error();

  // Skewed traffic so the ranked list is non-trivial.
  Micros t = 0;
  for (std::int32_t round = 0; round < 20; ++round) {
    for (BlockNo b = 0; b < 8; ++b) {
      t += kMillisecond;
      ASSERT_TRUE(dev
                      .Submit(Rec(t, b,
                                  (round + b) % 3 == 0
                                      ? sched::IoType::kWrite
                                      : sched::IoType::kRead))
                      .ok());
      ASSERT_TRUE(dev.AdvanceTo(t).ok());
    }
  }
  ASSERT_TRUE(dev.Drain().ok());
  StatusOr<placement::ArrangeResult> pass = dev.RearrangeAll();
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  EXPECT_GT(pass->copied + pass->kept, 0);

  const auto base = MappingSet(dev, 0);
  EXPECT_FALSE(base.empty());
  for (std::int32_t m = 1; m < 3; ++m) {
    EXPECT_EQ(MappingSet(dev, m), base) << "member " << m;
  }
  EXPECT_TRUE(dev.first_error().empty()) << dev.first_error();
}

TEST(ArrayDeviceTest, ResultsAreIdenticalForAnyThreadCount) {
  // The same workload against 1 worker thread and 3 must produce the same
  // clock and the same member tables — the epoch-barrier protocol promise.
  auto run = [](std::int32_t threads) {
    ArrayConfig c = SmallConfig(RaidLevel::kRaid1, 3);
    c.threads = threads;
    auto dev = std::make_unique<ArrayDevice>(c);
    EXPECT_TRUE(dev->Start().ok()) << dev->first_error();
    Micros t = 0;
    for (std::int32_t round = 0; round < 15; ++round) {
      for (BlockNo b = 0; b < 12; ++b) {
        t += kMillisecond + b * 100;
        EXPECT_TRUE(
            dev->Submit(Rec(t, (b * 7) % dev->device_blocks(),
                            b % 2 == 0 ? sched::IoType::kWrite
                                       : sched::IoType::kRead))
                .ok());
        EXPECT_TRUE(dev->AdvanceTo(t).ok());
      }
    }
    EXPECT_TRUE(dev->Drain().ok());
    EXPECT_TRUE(dev->RearrangeAll().ok());
    EXPECT_TRUE(dev->Drain().ok());
    return dev;
  };

  auto a = run(1);
  auto b = run(3);
  EXPECT_EQ(a->now(), b->now());
  for (std::int32_t m = 0; m < 3; ++m) {
    EXPECT_EQ(MappingSet(*a, m), MappingSet(*b, m)) << "member " << m;
  }
}

TEST(ArrayDeviceTest, DegradedMirrorKeepsServingAndSkipsPasses) {
  ArrayConfig c = SmallConfig(RaidLevel::kRaid1, 2);
  c.fault_plans.resize(2);
  fault::CrashPoint cp;
  cp.at_io = 50;
  c.fault_plans[1].crashes.push_back(cp);

  CountingSink sink;
  ArrayDevice dev(c);
  dev.set_completion_sink(&sink);
  ASSERT_TRUE(dev.Start().ok()) << dev.first_error();

  Micros t = 0;
  for (std::int32_t i = 0; i < 120; ++i) {
    t += 2 * kMillisecond;
    ASSERT_TRUE(
        dev.Submit(Rec(t, i % dev.device_blocks(), sched::IoType::kWrite))
            .ok());
    ASSERT_TRUE(dev.AdvanceTo(t).ok());
  }
  ASSERT_TRUE(dev.Drain().ok());

  ASSERT_EQ(dev.member_state(1), MemberState::kDead);
  EXPECT_TRUE(dev.degraded());
  EXPECT_FALSE(dev.failed());
  EXPECT_GT(dev.dirty_granules(1), 0);

  // Arrangement is deferred while degraded.
  ASSERT_TRUE(dev.RearrangeAll().ok());
  EXPECT_EQ(dev.passes_skipped_degraded(), 1);

  // Reads are still served — by the survivor.
  const std::int64_t reads_before = sink.total_reads();
  for (std::int32_t i = 0; i < 20; ++i) {
    t += 2 * kMillisecond;
    ASSERT_TRUE(dev.Submit(Rec(t, i, sched::IoType::kRead)).ok());
    ASSERT_TRUE(dev.AdvanceTo(t).ok());
  }
  ASSERT_TRUE(dev.Drain().ok());
  EXPECT_EQ(sink.total_reads() - reads_before, 20);
  EXPECT_EQ(sink.reads[1], 0);
  EXPECT_EQ(dev.lost_requests(), 0);
  EXPECT_TRUE(dev.first_error().empty()) << dev.first_error();
}

TEST(ArrayDeviceTest, ResyncCopiesOnlyDirtyGranulesAndRestoresMirror) {
  ArrayConfig c = SmallConfig(RaidLevel::kRaid1, 2);
  c.fault_plans.resize(2);
  fault::CrashPoint cp;
  cp.at_io = 30;
  c.fault_plans[1].crashes.push_back(cp);

  ArrayDevice dev(c);
  ASSERT_TRUE(dev.Start().ok()) << dev.first_error();

  Micros t = 0;
  for (std::int32_t i = 0; i < 60; ++i) {
    t += 2 * kMillisecond;
    ASSERT_TRUE(
        dev.Submit(Rec(t, i % dev.device_blocks(), sched::IoType::kWrite))
            .ok());
    ASSERT_TRUE(dev.AdvanceTo(t).ok());
  }
  ASSERT_TRUE(dev.Drain().ok());
  ASSERT_EQ(dev.member_state(1), MemberState::kDead);

  // A few more writes while degraded: the divergence resync must heal.
  for (std::int32_t i = 0; i < 8; ++i) {
    t += 2 * kMillisecond;
    ASSERT_TRUE(dev.Submit(Rec(t, i, sched::IoType::kWrite)).ok());
    ASSERT_TRUE(dev.AdvanceTo(t).ok());
  }
  ASSERT_TRUE(dev.Drain().ok());
  const std::int64_t dirty = dev.dirty_granules(1);
  ASSERT_GT(dirty, 0);

  ASSERT_TRUE(dev.ReattachMember(1).ok()) << dev.first_error();
  EXPECT_EQ(dev.member_state(1), MemberState::kResync);
  EXPECT_TRUE(dev.resync_active());

  std::int32_t spins = 0;
  while (dev.resync_active() && spins++ < 10000) {
    ASSERT_TRUE(dev.AdvanceTo(dev.now() + c.epoch).ok());
  }
  ASSERT_LT(spins, 10000) << "resync did not converge";

  EXPECT_EQ(dev.member_state(1), MemberState::kOnline);
  EXPECT_FALSE(dev.degraded());
  EXPECT_EQ(dev.resyncs_completed(), 1);
  EXPECT_EQ(dev.resync_granules_copied(), dirty);
  EXPECT_EQ(dev.dirty_granules(1), 0);

  // Only the divergent part of the platter moved: far fewer granules than
  // the whole member.
  const std::int64_t member_granules =
      dev.member_blocks() / c.resync_granule_blocks + 1;
  EXPECT_LT(dev.resync_granules_copied(), member_granules / 2);
  EXPECT_TRUE(dev.first_error().empty()) << dev.first_error();
}

TEST(ArrayDeviceTest, ScrubFindsPersistentErrorAndRemapsIntoSpare) {
  ArrayConfig c = SmallConfig(RaidLevel::kRaid1, 2);
  c.scrub_batch = 8;
  c.fault_plans.resize(2);

  // Plant a persistent defect under a block the workload never touches;
  // only the scrubber will find it.
  ArrayDevice probe(c);
  ASSERT_TRUE(probe.Start().ok()) << probe.first_error();
  const disk::DiskLabel& label = probe.member_driver(0).label();
  const BlockNo cold = probe.device_blocks() - 2;
  const SectorNo vfirst =
      label.partitions()[0].first_sector + cold * probe.block_sectors();
  const SectorNo original = label.VirtualToPhysical(vfirst);

  fault::MediaFault bad;
  bad.first = original;
  bad.count = 1;
  bad.persistent = true;
  c.fault_plans[0].media.push_back(bad);

  ArrayDevice dev(c);
  ASSERT_TRUE(dev.Start().ok()) << dev.first_error();

  // Light foreground traffic on the first few blocks, then idle epochs for
  // the scrubber to sweep the cold remainder.
  Micros t = 0;
  for (std::int32_t i = 0; i < 10; ++i) {
    t += 2 * kMillisecond;
    ASSERT_TRUE(dev.Submit(Rec(t, i % 4, sched::IoType::kWrite)).ok());
    ASSERT_TRUE(dev.AdvanceTo(t).ok());
  }
  ASSERT_TRUE(dev.Drain().ok());

  std::int32_t epochs = 0;
  while (dev.spares_used() == 0 && epochs++ < 400) {
    ASSERT_TRUE(dev.AdvanceTo(dev.now() + c.epoch).ok());
  }
  ASSERT_GE(dev.spares_used(), 1) << "scrub never remapped the bad block";
  // The repair itself is an asynchronous move chain (spare write + table
  // save); run it to retirement before inspecting the tables.
  ASSERT_TRUE(dev.Drain().ok());
  EXPECT_GE(dev.MemberFaults(0).scrub_hits, 1);
  EXPECT_GE(dev.MemberFaults(0).remaps, 1);

  // The redirection is mirrored: both members now map the block into the
  // same reserved-area spare slot.
  for (std::int32_t m = 0; m < 2; ++m) {
    const auto mapped =
        dev.member_driver(m).block_table().Lookup(original);
    ASSERT_TRUE(mapped.has_value()) << "member " << m;
    EXPECT_TRUE(dev.member_driver(m).IsSpareSlot(*mapped)) << "member " << m;
    EXPECT_EQ(*mapped, dev.member_driver(0).SpareSlotSector(0));
  }
  EXPECT_TRUE(dev.first_error().empty()) << dev.first_error();
}

TEST(ArrayDeviceTest, RejectsBadConfigurations) {
  {
    ArrayConfig c = SmallConfig(RaidLevel::kRaid1, 1);
    ArrayDevice dev(c);
    EXPECT_FALSE(dev.Start().ok());
  }
  {
    ArrayConfig c = SmallConfig(RaidLevel::kRaid1, 2);
    c.fault_plans.resize(1);  // must be empty or one per member
    ArrayDevice dev(c);
    EXPECT_FALSE(dev.Start().ok());
  }
  {
    // Mirror tables move in lockstep only from one shared ranked list.
    ArrayConfig c = SmallConfig(RaidLevel::kRaid1, 2);
    c.ranking = Ranking::kMemberAnalyzers;
    ArrayDevice dev(c);
    EXPECT_EQ(dev.Start().code(), StatusCode::kInvalidArgument);
  }
  {
    // Scrub finds its cold blocks from device counts.
    ArrayConfig c = SmallConfig(RaidLevel::kRaid0, 2);
    c.ranking = Ranking::kMemberAnalyzers;
    c.scrub_batch = 4;
    ArrayDevice dev(c);
    EXPECT_EQ(dev.Start().code(), StatusCode::kInvalidArgument);
  }
  {
    // Continuous plans and count decay rank from member analyzers.
    ArrayConfig c = SmallConfig(RaidLevel::kRaid0, 2);
    c.system.continuous = true;
    ArrayDevice dev(c);
    EXPECT_EQ(dev.Start().code(), StatusCode::kInvalidArgument);
    c.system.continuous = false;
    c.system.count_decay = 0.5;
    ArrayDevice decayed(c);
    EXPECT_EQ(decayed.Start().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ArrayDeviceTest, Raid0HasNoReattach) {
  ArrayDevice dev(SmallConfig(RaidLevel::kRaid0, 3));
  ASSERT_TRUE(dev.Start().ok()) << dev.first_error();
  const Status s = dev.ReattachMember(1);
  EXPECT_EQ(s.code(), StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace abr::array

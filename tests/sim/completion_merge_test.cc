#include "sim/completion_merge.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace abr::sim {
namespace {

CompletedIo Done(std::int64_t id, Micros completion) {
  CompletedIo io;
  io.request.id = id;
  io.completion_time = completion;
  return io;
}

struct Collector : ShardCompletionSink {
  std::vector<std::pair<std::int32_t, std::int64_t>> seen;  // (shard, id)
  std::vector<Micros> times;
  void OnShardIoComplete(std::int32_t shard, const CompletedIo& done) override {
    seen.emplace_back(shard, done.request.id);
    times.push_back(done.completion_time);
  }
};

TEST(CompletionMergerTest, MergesLanesInGlobalTimeOrder) {
  CompletionMerger merger(3);
  merger.lane(0).push_back(Done(1, 100));
  merger.lane(0).push_back(Done(2, 500));
  merger.lane(1).push_back(Done(10, 50));
  merger.lane(1).push_back(Done(11, 400));
  merger.lane(2).push_back(Done(20, 300));

  Collector sink;
  merger.DrainInto(&sink);
  ASSERT_EQ(sink.seen.size(), 5u);
  EXPECT_TRUE(std::is_sorted(sink.times.begin(), sink.times.end()));
  EXPECT_EQ(sink.seen[0], (std::pair<std::int32_t, std::int64_t>{1, 10}));
  EXPECT_EQ(sink.seen[1], (std::pair<std::int32_t, std::int64_t>{0, 1}));
  EXPECT_EQ(sink.seen[4], (std::pair<std::int32_t, std::int64_t>{0, 2}));
  EXPECT_EQ(merger.merged_count(), 5);
  EXPECT_EQ(merger.buffered(), 0u);
}

TEST(CompletionMergerTest, TiesKeepTheLowerShard) {
  CompletionMerger merger(2);
  merger.lane(1).push_back(Done(10, 100));
  merger.lane(0).push_back(Done(1, 100));
  Collector sink;
  merger.DrainInto(&sink);
  ASSERT_EQ(sink.seen.size(), 2u);
  EXPECT_EQ(sink.seen[0].first, 0);
  EXPECT_EQ(sink.seen[1].first, 1);
}

TEST(CompletionMergerTest, WithinShardLaneOrderIsPreserved) {
  CompletionMerger merger(1);
  // Same completion time: delivery order is the lane's own order.
  merger.lane(0).push_back(Done(7, 100));
  merger.lane(0).push_back(Done(3, 100));
  Collector sink;
  merger.DrainInto(&sink);
  ASSERT_EQ(sink.seen.size(), 2u);
  EXPECT_EQ(sink.seen[0].second, 7);
  EXPECT_EQ(sink.seen[1].second, 3);
}

TEST(CompletionMergerTest, NullSinkJustClearsLanes) {
  CompletionMerger merger(2);
  merger.lane(0).push_back(Done(1, 1));
  merger.lane(1).push_back(Done(2, 2));
  merger.DrainInto(nullptr);
  EXPECT_EQ(merger.buffered(), 0u);
  EXPECT_EQ(merger.merged_count(), 0);
}

TEST(CompletionMergerTest, DrainAcrossEpochsStaysOrdered) {
  CompletionMerger merger(2);
  Collector sink;
  merger.lane(0).push_back(Done(1, 10));
  merger.lane(1).push_back(Done(2, 20));
  merger.DrainInto(&sink);
  merger.lane(1).push_back(Done(3, 30));
  merger.lane(0).push_back(Done(4, 40));
  merger.DrainInto(&sink);
  ASSERT_EQ(sink.times.size(), 4u);
  EXPECT_TRUE(std::is_sorted(sink.times.begin(), sink.times.end()));
  EXPECT_EQ(merger.merged_count(), 4);
}

TEST(CompletionMergerTest, LaneCapacityIsRetainedAcrossEpochs) {
  constexpr std::int32_t kShards = 3;
  constexpr int kPerEpoch = 64;
  CompletionMerger merger(kShards);
  Collector sink;
  // Warm-up epochs grow the lanes (and the tree and head scratch) to
  // steady-state size.
  auto run_epoch = [&](Micros base) {
    for (std::int32_t s = 0; s < kShards; ++s) {
      for (int i = 0; i < kPerEpoch; ++i) {
        merger.lane(s).push_back(Done(s * 1000 + i, base + i));
      }
    }
    merger.DrainInto(&sink);
  };
  run_epoch(0);
  run_epoch(10000);
  std::vector<std::size_t> warm;
  for (std::int32_t s = 0; s < kShards; ++s) {
    EXPECT_GE(merger.lane_capacity(s), static_cast<std::size_t>(kPerEpoch));
    warm.push_back(merger.lane_capacity(s));
  }
  // Steady state: many more epochs of the same load must not re-allocate —
  // clear() keeps capacity.
  for (int e = 2; e < 20; ++e) {
    run_epoch(e * 10000);
    for (std::int32_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(merger.lane_capacity(s), warm[static_cast<std::size_t>(s)])
          << "lane " << s << " re-allocated in epoch " << e;
    }
  }
  EXPECT_EQ(merger.merged_count(), 20 * kShards * kPerEpoch);
  EXPECT_EQ(merger.buffered(), 0u);
}

}  // namespace
}  // namespace abr::sim

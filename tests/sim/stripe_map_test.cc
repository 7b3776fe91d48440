#include "sim/stripe_map.h"

#include <vector>

#include "gtest/gtest.h"

namespace abr::sim {
namespace {

TEST(StripeMapTest, SingleMemberIsIdentity) {
  StripeMap map(1, 4, 100);
  for (BlockNo b = 0; b < 100; ++b) {
    EXPECT_EQ(map.MemberOf(b), 0);
    EXPECT_EQ(map.LocalOf(b), b);
    EXPECT_EQ(map.GlobalOf(0, b), b);
  }
  EXPECT_EQ(map.LocalCount(0), 100);
}

TEST(StripeMapTest, ChunkOfOneMatchesShardMap) {
  // Chunk 1 is the sharded fleet's round-robin layout: block b on member
  // b mod n as local block b div n, early members owning the remainder.
  const std::int64_t total = 137;
  const std::int32_t n = 5;
  StripeMap stripe(n, 1, total);
  for (BlockNo b = 0; b < total; ++b) {
    EXPECT_EQ(stripe.MemberOf(b), b % n);
    EXPECT_EQ(stripe.LocalOf(b), b / n);
    EXPECT_EQ(stripe.GlobalOf(static_cast<std::int32_t>(b % n), b / n), b);
  }
  for (std::int32_t m = 0; m < n; ++m) {
    EXPECT_EQ(stripe.LocalCount(m), (total - m + n - 1) / n);
  }
}

TEST(StripeMapTest, ChunksStayContiguousOnOneMember) {
  StripeMap map(3, 4, 96);
  // Blocks 0..3 on member 0, 4..7 on member 1, 8..11 on member 2, then
  // the stripe rotates back to member 0 with local numbers continuing.
  for (BlockNo b = 0; b < 4; ++b) {
    EXPECT_EQ(map.MemberOf(b), 0);
    EXPECT_EQ(map.LocalOf(b), b);
  }
  for (BlockNo b = 4; b < 8; ++b) {
    EXPECT_EQ(map.MemberOf(b), 1);
    EXPECT_EQ(map.LocalOf(b), b - 4);
  }
  for (BlockNo b = 8; b < 12; ++b) {
    EXPECT_EQ(map.MemberOf(b), 2);
    EXPECT_EQ(map.LocalOf(b), b - 8);
  }
  EXPECT_EQ(map.MemberOf(12), 0);
  EXPECT_EQ(map.LocalOf(12), 4);
}

TEST(StripeMapTest, RoundTripCoversEveryBlockExactlyOnce) {
  // A total that is not a multiple of chunk * members leaves a partial
  // tail stripe; the round trip must still be a bijection.
  const std::int64_t total = 131;
  const std::int32_t n = 4;
  const std::int64_t chunk = 3;
  StripeMap map(n, chunk, total);
  std::vector<int> seen(total, 0);
  std::int64_t covered = 0;
  for (std::int32_t m = 0; m < n; ++m) {
    const std::int64_t count = map.LocalCount(m);
    for (BlockNo local = 0; local < count; ++local) {
      const BlockNo global = map.GlobalOf(m, local);
      ASSERT_TRUE(map.Contains(global));
      EXPECT_EQ(map.MemberOf(global), m);
      EXPECT_EQ(map.LocalOf(global), local);
      ++seen[static_cast<std::size_t>(global)];
      ++covered;
    }
  }
  EXPECT_EQ(covered, total);
  for (std::int64_t b = 0; b < total; ++b) EXPECT_EQ(seen[b], 1);
}

TEST(StripeMapTest, LocalCountsHandlePartialTailStripe) {
  // total = 2 full stripes (24) + a tail of 7: member 0 gets a full
  // chunk (4), member 1 the remaining 3, member 2 nothing extra.
  StripeMap map(3, 4, 31);
  EXPECT_EQ(map.LocalCount(0), 8 + 4);
  EXPECT_EQ(map.LocalCount(1), 8 + 3);
  EXPECT_EQ(map.LocalCount(2), 8 + 0);
  EXPECT_EQ(map.LocalCount(0) + map.LocalCount(1) + map.LocalCount(2), 31);
}

TEST(StripeMapTest, BoundaryBlocksRoundTrip) {
  StripeMap map(4, 8, 1024);
  for (BlockNo b : {BlockNo{0}, BlockNo{7}, BlockNo{8}, BlockNo{31},
                    BlockNo{32}, BlockNo{1023}}) {
    const std::int32_t m = map.MemberOf(b);
    EXPECT_EQ(map.GlobalOf(m, map.LocalOf(b)), b);
  }
  EXPECT_FALSE(map.Contains(-1));
  EXPECT_FALSE(map.Contains(1024));
}

// The sharded fleet's layout: StripeMap at chunk 1 (round-robin striping).

TEST(ShardMapTest, SingleShardIsIdentity) {
  StripeMap map(1, 1, 100);
  for (BlockNo b = 0; b < 100; ++b) {
    EXPECT_EQ(map.MemberOf(b), 0);
    EXPECT_EQ(map.LocalOf(b), b);
    EXPECT_EQ(map.GlobalOf(0, b), b);
  }
  EXPECT_EQ(map.LocalCount(0), 100);
}

TEST(ShardMapTest, RoundRobinStriping) {
  StripeMap map(3, 1, 10);
  // Blocks 0..9 land on shards 0,1,2,0,1,2,... with consecutive locals.
  EXPECT_EQ(map.MemberOf(0), 0);
  EXPECT_EQ(map.MemberOf(1), 1);
  EXPECT_EQ(map.MemberOf(2), 2);
  EXPECT_EQ(map.MemberOf(3), 0);
  EXPECT_EQ(map.LocalOf(0), 0);
  EXPECT_EQ(map.LocalOf(3), 1);
  EXPECT_EQ(map.LocalOf(7), 2);
}

TEST(ShardMapTest, RoundTripCoversEveryBlockExactlyOnce) {
  const std::int32_t shards = 5;
  const std::int64_t total = 137;  // not a multiple of the shard count
  StripeMap map(shards, 1, total);
  std::vector<int> seen(static_cast<std::size_t>(total), 0);
  for (std::int32_t s = 0; s < shards; ++s) {
    for (BlockNo local = 0; local < map.LocalCount(s); ++local) {
      const BlockNo global = map.GlobalOf(s, local);
      ASSERT_TRUE(map.Contains(global));
      EXPECT_EQ(map.MemberOf(global), s);
      EXPECT_EQ(map.LocalOf(global), local);
      ++seen[static_cast<std::size_t>(global)];
    }
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(ShardMapTest, LocalCountsSumToTotal) {
  for (std::int32_t shards = 1; shards <= 8; ++shards) {
    StripeMap map(shards, 1, 1000);
    std::int64_t sum = 0;
    for (std::int32_t s = 0; s < shards; ++s) sum += map.LocalCount(s);
    EXPECT_EQ(sum, 1000) << "shards=" << shards;
  }
}

TEST(ShardMapTest, ContainsRejectsOutOfRange) {
  StripeMap map(4, 1, 64);
  EXPECT_TRUE(map.Contains(0));
  EXPECT_TRUE(map.Contains(63));
  EXPECT_FALSE(map.Contains(-1));
  EXPECT_FALSE(map.Contains(64));
}

TEST(ShardMapTest, IndivisibleTotalsGiveEarlyShardsOneExtraBlock) {
  // total mod shards = r: shards 0..r-1 own ceil(total/shards) blocks,
  // the rest floor(total/shards) — for every remainder class.
  for (std::int64_t total = 97; total <= 103; ++total) {
    StripeMap map(7, 1, total);
    const std::int64_t floor_count = total / 7;
    const std::int64_t rem = total % 7;
    std::int64_t sum = 0;
    for (std::int32_t s = 0; s < 7; ++s) {
      const std::int64_t expected = floor_count + (s < rem ? 1 : 0);
      EXPECT_EQ(map.LocalCount(s), expected)
          << "total=" << total << " shard=" << s;
      sum += map.LocalCount(s);
    }
    EXPECT_EQ(sum, total);
  }
}

TEST(ShardMapTest, SingleShardDegenerateEdges) {
  StripeMap map(1, 1, 1);
  EXPECT_EQ(map.MemberOf(0), 0);
  EXPECT_EQ(map.LocalOf(0), 0);
  EXPECT_EQ(map.GlobalOf(0, 0), 0);
  EXPECT_EQ(map.LocalCount(0), 1);

  StripeMap empty(3, 1, 0);
  EXPECT_FALSE(empty.Contains(0));
  for (std::int32_t s = 0; s < 3; ++s) EXPECT_EQ(empty.LocalCount(s), 0);
}

TEST(ShardMapTest, RoundTripAtBothBoundaries) {
  // First and last virtual block, and the first/last local block of each
  // shard, all survive the global -> (shard, local) -> global round trip.
  StripeMap map(5, 1, 137);
  for (BlockNo b : {BlockNo{0}, BlockNo{136}}) {
    EXPECT_EQ(map.GlobalOf(map.MemberOf(b), map.LocalOf(b)), b);
  }
  for (std::int32_t s = 0; s < 5; ++s) {
    const std::int64_t count = map.LocalCount(s);
    ASSERT_GT(count, 0);
    for (BlockNo local : {BlockNo{0}, BlockNo{count - 1}}) {
      const BlockNo global = map.GlobalOf(s, local);
      ASSERT_TRUE(map.Contains(global));
      EXPECT_EQ(map.MemberOf(global), s);
      EXPECT_EQ(map.LocalOf(global), local);
    }
  }
}

}  // namespace
}  // namespace abr::sim

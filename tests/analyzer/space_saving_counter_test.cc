// Differential tests pinning the O(1) stream-summary SpaceSavingCounter to
// the O(log n) multimap implementation it replaced (space_saving_ref.h):
// on identical streams both must produce identical TopK, ErrorOf, tracked
// sets, and replacement counts — the rewrite is a pure speedup, not a
// behavior change.

#include "analyzer/space_saving_counter.h"

#include <gtest/gtest.h>

#include <vector>

#include "oracles/space_saving_ref.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace abr::analyzer {
namespace {

/// Feeds both counters one stream and asserts every observable matches.
void ExpectIdentical(const std::vector<BlockId>& stream,
                     std::size_t capacity) {
  SpaceSavingCounter fast(capacity);
  SpaceSavingCounterRef ref(capacity);
  for (const BlockId& id : stream) {
    fast.Observe(id);
    ref.Observe(id);
  }
  EXPECT_EQ(fast.total(), ref.total());
  EXPECT_EQ(fast.tracked(), ref.tracked());
  EXPECT_EQ(fast.replacements(), ref.replacements());

  const std::vector<HotBlock> fast_top = fast.TopK(capacity);
  const std::vector<HotBlock> ref_top = ref.TopK(capacity);
  ASSERT_EQ(fast_top.size(), ref_top.size());
  for (std::size_t i = 0; i < fast_top.size(); ++i) {
    EXPECT_EQ(fast_top[i].id, ref_top[i].id) << "rank " << i;
    EXPECT_EQ(fast_top[i].count, ref_top[i].count) << "rank " << i;
    EXPECT_EQ(fast.ErrorOf(fast_top[i].id), ref.ErrorOf(ref_top[i].id))
        << "rank " << i;
  }
}

TEST(SpaceSavingDifferentialTest, MatchesRefOnRecordedZipfStream) {
  // The analyzer's canonical workload: heavily skewed references over a
  // universe far larger than the tracked list.
  ZipfSampler zipf(20000, 1.1);
  Rng rng(0x5EED);
  std::vector<BlockId> stream;
  stream.reserve(150000);
  for (int i = 0; i < 150000; ++i) {
    stream.push_back(BlockId{static_cast<std::int32_t>(rng.NextBounded(4)),
                             zipf.Sample(rng)});
  }
  ExpectIdentical(stream, 256);
}

TEST(SpaceSavingDifferentialTest, MatchesRefAcrossCapacities) {
  ZipfSampler zipf(5000, 1.0);
  Rng rng(42);
  std::vector<BlockId> stream;
  for (int i = 0; i < 50000; ++i) {
    stream.push_back(BlockId{0, zipf.Sample(rng)});
  }
  for (const std::size_t capacity : {1u, 2u, 16u, 64u, 512u}) {
    SCOPED_TRACE(capacity);
    ExpectIdentical(stream, capacity);
  }
}

TEST(SpaceSavingDifferentialTest, MatchesRefOnUniformChurn) {
  // Uniform stream keeps every count at the minimum: maximum replacement
  // pressure, every Observe evicts — the worst case for victim-order
  // agreement between the two structures.
  Rng rng(7);
  std::vector<BlockId> stream;
  for (int i = 0; i < 30000; ++i) {
    stream.push_back(
        BlockId{0, static_cast<BlockNo>(rng.NextBounded(10000))});
  }
  ExpectIdentical(stream, 32);
}

TEST(SpaceSavingDifferentialTest, MatchesRefAfterReset) {
  ZipfSampler zipf(1000, 1.2);
  Rng rng(9);
  SpaceSavingCounter fast(64);
  SpaceSavingCounterRef ref(64);
  for (int i = 0; i < 20000; ++i) {
    const BlockId id{0, zipf.Sample(rng)};
    fast.Observe(id);
    ref.Observe(id);
  }
  fast.Reset();
  ref.Reset();
  EXPECT_EQ(fast.tracked(), 0u);
  for (int i = 0; i < 20000; ++i) {
    const BlockId id{0, zipf.Sample(rng)};
    fast.Observe(id);
    ref.Observe(id);
  }
  const auto fast_top = fast.TopK(64);
  const auto ref_top = ref.TopK(64);
  ASSERT_EQ(fast_top.size(), ref_top.size());
  for (std::size_t i = 0; i < fast_top.size(); ++i) {
    EXPECT_EQ(fast_top[i].id, ref_top[i].id);
    EXPECT_EQ(fast_top[i].count, ref_top[i].count);
  }
}

}  // namespace
}  // namespace abr::analyzer

#include "driver/block_table.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "driver/table_store.h"
#include "util/rng.h"

namespace abr::driver {
namespace {

TEST(BlockTableTest, InsertAndLookup) {
  BlockTable t(8);
  ASSERT_TRUE(t.Insert(100, 5000).ok());
  ASSERT_TRUE(t.Insert(200, 5016).ok());
  EXPECT_EQ(t.size(), 2);
  EXPECT_EQ(t.Lookup(100).value(), 5000);
  EXPECT_EQ(t.Lookup(200).value(), 5016);
  EXPECT_FALSE(t.Lookup(300).has_value());
}

TEST(BlockTableTest, DuplicateOriginalRejected) {
  BlockTable t(8);
  ASSERT_TRUE(t.Insert(100, 5000).ok());
  EXPECT_EQ(t.Insert(100, 6000).code(), StatusCode::kAlreadyExists);
}

TEST(BlockTableTest, DuplicateTargetRejected) {
  BlockTable t(8);
  ASSERT_TRUE(t.Insert(100, 5000).ok());
  EXPECT_EQ(t.Insert(200, 5000).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(t.TargetInUse(5000));
  EXPECT_FALSE(t.TargetInUse(6000));
}

TEST(BlockTableTest, CapacityEnforced) {
  BlockTable t(2);
  ASSERT_TRUE(t.Insert(1, 100).ok());
  ASSERT_TRUE(t.Insert(2, 200).ok());
  EXPECT_EQ(t.Insert(3, 300).code(), StatusCode::kResourceExhausted);
}

TEST(BlockTableTest, DirtyBit) {
  BlockTable t(4);
  ASSERT_TRUE(t.Insert(100, 5000).ok());
  EXPECT_FALSE(t.LookupEntry(100)->dirty);
  ASSERT_TRUE(t.MarkDirty(100).ok());
  EXPECT_TRUE(t.LookupEntry(100)->dirty);
  EXPECT_EQ(t.MarkDirty(999).code(), StatusCode::kNotFound);
}

TEST(BlockTableTest, MarkAllDirty) {
  BlockTable t(4);
  ASSERT_TRUE(t.Insert(1, 100).ok());
  ASSERT_TRUE(t.Insert(2, 200).ok());
  t.MarkAllDirty();
  for (const BlockTableEntry& e : t.entries()) EXPECT_TRUE(e.dirty);
}

TEST(BlockTableTest, RemoveSwapsLast) {
  BlockTable t(4);
  ASSERT_TRUE(t.Insert(1, 100).ok());
  ASSERT_TRUE(t.Insert(2, 200).ok());
  ASSERT_TRUE(t.Insert(3, 300).ok());
  ASSERT_TRUE(t.Remove(2).ok());
  EXPECT_EQ(t.size(), 2);
  EXPECT_FALSE(t.Lookup(2).has_value());
  EXPECT_EQ(t.Lookup(1).value(), 100);
  EXPECT_EQ(t.Lookup(3).value(), 300);
  EXPECT_FALSE(t.TargetInUse(200));
  EXPECT_EQ(t.Remove(2).code(), StatusCode::kNotFound);
}

TEST(BlockTableTest, RemoveLastEntry) {
  BlockTable t(4);
  ASSERT_TRUE(t.Insert(1, 100).ok());
  ASSERT_TRUE(t.Remove(1).ok());
  EXPECT_EQ(t.size(), 0);
}

TEST(BlockTableTest, ReinsertAfterRemove) {
  BlockTable t(2);
  ASSERT_TRUE(t.Insert(1, 100).ok());
  ASSERT_TRUE(t.Remove(1).ok());
  EXPECT_TRUE(t.Insert(1, 100).ok());
}

TEST(BlockTableTest, Clear) {
  BlockTable t(4);
  ASSERT_TRUE(t.Insert(1, 100).ok());
  t.Clear();
  EXPECT_EQ(t.size(), 0);
  EXPECT_FALSE(t.Lookup(1).has_value());
  EXPECT_TRUE(t.Insert(1, 100).ok());
}

TEST(BlockTableTest, SerializeRoundTrip) {
  BlockTable t(16);
  ASSERT_TRUE(t.Insert(100, 5000).ok());
  ASSERT_TRUE(t.Insert(200, 5016).ok());
  ASSERT_TRUE(t.MarkDirty(200).ok());
  auto image = t.Serialize();
  StatusOr<BlockTable> loaded = BlockTable::Deserialize(image, 16);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2);
  EXPECT_EQ(loaded->Lookup(100).value(), 5000);
  EXPECT_FALSE(loaded->LookupEntry(100)->dirty);
  EXPECT_TRUE(loaded->LookupEntry(200)->dirty);
}

TEST(BlockTableTest, SerializeEmpty) {
  BlockTable t(16);
  StatusOr<BlockTable> loaded = BlockTable::Deserialize(t.Serialize(), 16);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0);
}

TEST(BlockTableTest, DeserializeRejectsCorruption) {
  BlockTable t(16);
  ASSERT_TRUE(t.Insert(100, 5000).ok());
  auto image = t.Serialize();
  image[30] ^= 0xFF;  // flip a bit inside an entry
  EXPECT_EQ(BlockTable::Deserialize(image, 16).status().code(),
            StatusCode::kCorruption);
}

TEST(BlockTableTest, DeserializeRejectsBadMagic) {
  BlockTable t(16);
  auto image = t.Serialize();
  image[0] ^= 0xFF;
  EXPECT_EQ(BlockTable::Deserialize(image, 16).status().code(),
            StatusCode::kCorruption);
}

TEST(BlockTableTest, DeserializeRejectsTruncation) {
  BlockTable t(16);
  ASSERT_TRUE(t.Insert(100, 5000).ok());
  auto image = t.Serialize();
  image.resize(20);
  EXPECT_EQ(BlockTable::Deserialize(image, 16).status().code(),
            StatusCode::kCorruption);
}

TEST(BlockTableTest, DeserializeRejectsOverCapacity) {
  BlockTable t(16);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.Insert(i, 1000 + i).ok());
  }
  EXPECT_EQ(BlockTable::Deserialize(t.Serialize(), 5).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BlockTableTest, SerializedSizeIndependentOfFill) {
  // The on-disk area is sized for a full table.
  EXPECT_EQ(BlockTable::SerializedBytes(1018), 24 + 1018 * 16);
  EXPECT_EQ(BlockTable::SerializedSectors(1018, 512),
            (24 + 1018 * 16 + 511) / 512);
}

TEST(BlockTableTest, PaperToshibaTableFitsInTwoBlocks) {
  // 1018 entries -> 32 sectors = exactly 2 file-system blocks, leaving
  // 1018 data slots in the 48-cylinder reserved region (Section 5).
  EXPECT_EQ(BlockTable::SerializedSectors(1018, 512), 32);
}

// Regression for the flat-hash index: backward-shift deletion must keep
// every remaining entry findable through any interleaving of Insert,
// Remove, and Lookup. Thousands of random ops run against an
// std::unordered_map oracle; the dense key range keeps the flat table's
// probe chains long so deletions constantly shift occupied slots.
TEST(BlockTableTest, InterleavedOpsMatchUnorderedMapOracle) {
  constexpr std::int32_t kCapacity = 1024;
  BlockTable table(kCapacity);
  std::unordered_map<SectorNo, SectorNo> oracle;       // original -> target
  std::unordered_set<SectorNo> targets_in_use;
  Rng rng(0xB10C);
  for (int op = 0; op < 50000; ++op) {
    const SectorNo original = static_cast<SectorNo>(rng.NextBounded(2048));
    switch (rng.NextBounded(4)) {
      case 0: {  // Insert (may collide on original, target, or capacity)
        const SectorNo target =
            1000000 + static_cast<SectorNo>(rng.NextBounded(2048));
        const Status s = table.Insert(original, target);
        if (oracle.size() >= static_cast<std::size_t>(kCapacity)) {
          EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
        } else if (oracle.contains(original) ||
                   targets_in_use.contains(target)) {
          EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
        } else {
          ASSERT_TRUE(s.ok()) << s.ToString();
          oracle.emplace(original, target);
          targets_in_use.insert(target);
        }
        break;
      }
      case 1: {  // Remove
        const Status s = table.Remove(original);
        auto it = oracle.find(original);
        if (it == oracle.end()) {
          EXPECT_EQ(s.code(), StatusCode::kNotFound);
        } else {
          ASSERT_TRUE(s.ok()) << s.ToString();
          targets_in_use.erase(it->second);
          oracle.erase(it);
        }
        break;
      }
      case 2: {  // Lookup
        auto it = oracle.find(original);
        const std::optional<SectorNo> got = table.Lookup(original);
        if (it == oracle.end()) {
          EXPECT_FALSE(got.has_value());
        } else {
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(*got, it->second);
        }
        break;
      }
      default: {  // TargetInUse
        const SectorNo target =
            1000000 + static_cast<SectorNo>(rng.NextBounded(2048));
        EXPECT_EQ(table.TargetInUse(target), targets_in_use.contains(target));
      }
    }
    ASSERT_EQ(table.size(), static_cast<std::int32_t>(oracle.size()));
  }
  // Drain everything through Remove: the index must stay consistent all
  // the way to empty.
  while (!oracle.empty()) {
    const SectorNo original = oracle.begin()->first;
    ASSERT_TRUE(table.Remove(original).ok());
    oracle.erase(oracle.begin());
    ASSERT_EQ(table.size(), static_cast<std::int32_t>(oracle.size()));
  }
  EXPECT_EQ(table.size(), 0);
}

TEST(BlockTableTest, HostileEntryCountRejectedWithoutOverflow) {
  // A count near 2^64 must be rejected by the capacity check before any
  // `count * entry_bytes` arithmetic can wrap and admit the image.
  BlockTable t(8);
  std::vector<std::uint8_t> image = t.Serialize();
  for (int i = 0; i < 8; ++i) {
    image[8 + static_cast<std::size_t>(i)] = 0xFF;  // count = 2^64 - 1
  }
  const StatusOr<BlockTable> loaded = BlockTable::Deserialize(image, 8);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);

  // A count that is huge but under 2^61 (so the multiply cannot wrap)
  // still fails the same way at a larger capacity-shaped boundary.
  for (int i = 0; i < 8; ++i) {
    image[8 + static_cast<std::size_t>(i)] =
        i == 7 ? 0x0F : 0xFF;  // count = 2^60 - 1
  }
  const StatusOr<BlockTable> big = BlockTable::Deserialize(image, 8);
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kInvalidArgument);
}

TEST(BlockTableTest, CorruptByteReportsReach) {
  InMemoryTableStore store;
  // No image saved yet: nothing to corrupt.
  EXPECT_FALSE(store.CorruptByte(0));
  BlockTable t(4);
  store.Save(t);
  EXPECT_TRUE(store.CorruptByte(0));
  // Offsets past the image are out of reach.
  EXPECT_FALSE(store.CorruptByte(t.Serialize().size()));
  EXPECT_FALSE(store.CorruptByte(1u << 20));
}

TEST(BlockTableTest, ManyEntriesRoundTrip) {
  BlockTable t(4096);
  for (int i = 0; i < 4096; ++i) {
    ASSERT_TRUE(t.Insert(i * 16, 1000000 + i * 16).ok());
    if (i % 3 == 0) {
      ASSERT_TRUE(t.MarkDirty(i * 16).ok());
    }
  }
  StatusOr<BlockTable> loaded = BlockTable::Deserialize(t.Serialize(), 4096);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 4096);
  for (int i = 0; i < 4096; ++i) {
    ASSERT_EQ(loaded->Lookup(i * 16).value(), 1000000 + i * 16);
    EXPECT_EQ(loaded->LookupEntry(i * 16)->dirty, i % 3 == 0);
  }
}

TEST(BlockTableTest, UpdateRelocatedRepointsEntry) {
  BlockTable t(4);
  ASSERT_TRUE(t.Insert(100, 5000).ok());
  ASSERT_TRUE(t.MarkDirty(100).ok());
  ASSERT_TRUE(t.UpdateRelocated(100, 5016).ok());
  EXPECT_EQ(t.Lookup(100).value(), 5016);
  // The dirty bit survives the re-point; the old target is free again.
  EXPECT_TRUE(t.LookupEntry(100)->dirty);
  EXPECT_FALSE(t.TargetInUse(5000));
  EXPECT_TRUE(t.TargetInUse(5016));
  ASSERT_TRUE(t.Insert(200, 5000).ok());
}

TEST(BlockTableTest, UpdateRelocatedValidation) {
  BlockTable t(4);
  ASSERT_TRUE(t.Insert(100, 5000).ok());
  ASSERT_TRUE(t.Insert(200, 5016).ok());
  EXPECT_EQ(t.UpdateRelocated(300, 5032).code(), StatusCode::kNotFound);
  EXPECT_EQ(t.UpdateRelocated(100, 5016).code(), StatusCode::kAlreadyExists);
  // Re-pointing to the current target is a no-op success.
  ASSERT_TRUE(t.UpdateRelocated(100, 5000).ok());
  EXPECT_EQ(t.Lookup(100).value(), 5000);
}

TEST(BlockTableTest, UpdateRelocatedSurvivesSerialization) {
  BlockTable t(4);
  ASSERT_TRUE(t.Insert(100, 5000).ok());
  ASSERT_TRUE(t.UpdateRelocated(100, 5016).ok());
  StatusOr<BlockTable> loaded = BlockTable::Deserialize(t.Serialize(), 4);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Lookup(100).value(), 5016);
  EXPECT_FALSE(loaded->TargetInUse(5000));
}

}  // namespace
}  // namespace abr::driver

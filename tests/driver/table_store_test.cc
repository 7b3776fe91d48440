#include "driver/table_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "driver/block_table.h"
#include "fault/crash_table_store.h"
#include "util/rng.h"

namespace abr::driver {
namespace {

using Image = std::optional<std::vector<std::uint8_t>>;

// The two-area store's rules written over serialized bytes: every Save
// stages the bytes Serialize() gives at that moment; a durable write
// promotes them and keeps the last durable image as the other area; a
// crash tears the staged bytes to a prefix; a mirror resync copies both
// durable areas and drops the rest. The snapshot store must expose exactly
// these images.
struct ImageModel {
  Image pending;
  Image committed;
  Image previous;
  Image torn;
  std::int64_t saves = 0;
  std::int64_t commits = 0;
  std::int64_t tears = 0;

  void Save(std::vector<std::uint8_t> image) {
    pending = std::move(image);
    ++saves;
  }
  void Durable() {
    if (!pending.has_value()) return;
    previous = std::move(committed);
    committed = std::move(pending);
    pending.reset();
    torn.reset();
    ++commits;
  }
  void Torn(double keep_fraction) {
    if (!pending.has_value()) return;
    std::vector<std::uint8_t> image = std::move(*pending);
    pending.reset();
    keep_fraction = std::clamp(keep_fraction, 0.0, 1.0);
    image.resize(static_cast<std::size_t>(
        keep_fraction * static_cast<double>(image.size())));
    torn = std::move(image);
    ++tears;
  }
  void MirrorFrom(const ImageModel& peer) {
    committed = peer.committed;
    previous = peer.previous;
    pending.reset();
    torn.reset();
  }
  Image Load() const { return torn.has_value() ? torn : committed; }
  Image LoadFallback() const { return torn.has_value() ? committed : previous; }
};

// One random table mutation: an insert (it may fail on a full table or a
// taken original or slot, leaving the table as it was), a remove, a slot
// update, a dirty mark, or now and then marking every entry dirty.
void Mutate(BlockTable& table, Rng& rng) {
  const auto slot = [&rng]() {
    return static_cast<SectorNo>(100000 + 16 * rng.NextBounded(48));
  };
  const std::uint64_t kind = table.size() == 0 ? 0 : rng.NextBounded(16);
  if (kind < 6) {
    (void)table.Insert(static_cast<SectorNo>(16 * rng.NextBounded(64)),
                       slot());
    return;
  }
  const SectorNo original =
      table.entries()[rng.NextBounded(static_cast<std::uint64_t>(
                          table.size()))]
          .original;
  if (kind < 9) {
    ASSERT_TRUE(table.Remove(original).ok());
  } else if (kind < 12) {
    (void)table.UpdateRelocated(original, slot());
  } else if (kind < 15) {
    ASSERT_TRUE(table.MarkDirty(original).ok());
  } else {
    table.MarkAllDirty();
  }
}

// Seeded walks over table mutations, saves, durable and torn table writes
// and mirror resyncs, on two stores that resync from each other. After
// every step each store's Load() and LoadFallback() must equal the byte
// model's, and its counters must agree.
TEST(TableStoreTest, CrashStoreExposesTheBytesOfEachSave) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    BlockTable table(32);
    fault::CrashTableStore stores[2];
    ImageModel models[2];
    for (int step = 0; step < 3000; ++step) {
      const std::size_t k = rng.NextBounded(2);
      const std::uint64_t action = rng.NextBounded(100);
      if (action < 50) {
        Mutate(table, rng);
        ASSERT_FALSE(testing::Test::HasFatalFailure());
      } else if (action < 72) {
        stores[k].Save(table);
        models[k].Save(table.Serialize());
      } else if (action < 88) {
        stores[k].OnTableWriteDurable();
        models[k].Durable();
      } else if (action < 96) {
        // Fractions outside [0, 1] exercise the clamp.
        const double keep = rng.NextDouble() * 1.4 - 0.2;
        stores[k].OnTableWriteTorn(keep);
        models[k].Torn(keep);
      } else {
        stores[k].MirrorDurableFrom(stores[1 - k]);
        models[k].MirrorFrom(models[1 - k]);
      }
      for (std::size_t i = 0; i < 2; ++i) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " step "
                                        << step << " store " << i);
        ASSERT_EQ(stores[i].Load(), models[i].Load());
        ASSERT_EQ(stores[i].LoadFallback(), models[i].LoadFallback());
        ASSERT_EQ(stores[i].torn(), models[i].torn.has_value());
        ASSERT_EQ(stores[i].saves(), models[i].saves);
        ASSERT_EQ(stores[i].commits(), models[i].commits);
        ASSERT_EQ(stores[i].tears(), models[i].tears);
      }
    }
    // The walk reached every rule on both stores.
    for (const ImageModel& m : models) {
      EXPECT_GT(m.commits, 0);
      EXPECT_GT(m.tears, 0);
    }
  }
}

// The driver may set a dirty bit while a table write is in flight. The
// image that write commits is the one staged at Save, not the table as it
// stands when the write lands.
TEST(TableStoreTest, DirtyBitSetAfterSaveStaysOutOfTheCommittedImage) {
  BlockTable table(8);
  fault::CrashTableStore store;
  ASSERT_TRUE(table.Insert(64, 4096).ok());
  store.Save(table);
  store.OnTableWriteDurable();
  const std::vector<std::uint8_t> first = table.Serialize();

  ASSERT_TRUE(table.Insert(128, 4112).ok());
  store.Save(table);
  const std::vector<std::uint8_t> staged = table.Serialize();
  ASSERT_TRUE(table.MarkDirty(64).ok());
  ASSERT_NE(table.Serialize(), staged);
  store.OnTableWriteDurable();

  EXPECT_EQ(store.Load(), staged);
  EXPECT_EQ(store.LoadFallback(), first);
  StatusOr<BlockTable> loaded = BlockTable::Deserialize(*store.Load(), 8);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->LookupEntry(64)->dirty);
  EXPECT_EQ(loaded->size(), 2);

  // A whole-image tear of the next save also shows the bytes as staged.
  store.Save(table);
  const std::vector<std::uint8_t> dirty_staged = table.Serialize();
  ASSERT_TRUE(table.MarkDirty(128).ok());
  store.OnTableWriteTorn(1.0);
  EXPECT_EQ(store.Load(), dirty_staged);
  EXPECT_EQ(store.LoadFallback(), staged);
}

TEST(TableStoreTest, NothingSavedLoadsNothing) {
  fault::CrashTableStore crash;
  EXPECT_EQ(crash.Load(), std::nullopt);
  EXPECT_EQ(crash.LoadFallback(), std::nullopt);
  crash.OnTableWriteDurable();  // no staged image: nothing to commit
  crash.OnTableWriteTorn(0.5);  // nor to tear
  EXPECT_EQ(crash.Load(), std::nullopt);
  EXPECT_EQ(crash.commits(), 0);
  EXPECT_EQ(crash.tears(), 0);

  InMemoryTableStore memory;
  EXPECT_EQ(memory.Load(), std::nullopt);
  EXPECT_EQ(memory.LoadFallback(), std::nullopt);
}

TEST(TableStoreTest, InMemoryLoadReturnsTheLastSaveAfterLaterMutations) {
  BlockTable table(8);
  InMemoryTableStore store;
  store.Save(table);
  EXPECT_EQ(store.Load(), table.Serialize());

  ASSERT_TRUE(table.Insert(64, 4096).ok());
  ASSERT_TRUE(table.Insert(128, 4112).ok());
  store.Save(table);
  const std::vector<std::uint8_t> saved = table.Serialize();
  ASSERT_TRUE(table.MarkDirty(64).ok());
  ASSERT_TRUE(table.UpdateRelocated(128, 4128).ok());
  ASSERT_TRUE(table.Remove(64).ok());
  ASSERT_TRUE(table.Insert(192, 4144).ok());
  EXPECT_EQ(store.Load(), saved);
  EXPECT_EQ(store.LoadFallback(), std::nullopt);

  store.Save(table);
  EXPECT_EQ(store.Load(), table.Serialize());
}

TEST(TableStoreTest, InMemoryCorruptionLastsUntilTheNextSave) {
  BlockTable table(8);
  ASSERT_TRUE(table.Insert(64, 4096).ok());
  InMemoryTableStore store;
  store.Save(table);
  std::vector<std::uint8_t> expected = table.Serialize();

  ASSERT_TRUE(store.CorruptByte(30));
  expected[30] ^= 0xFF;
  EXPECT_EQ(store.Load(), expected);
  // A second hit lands on the already damaged image.
  ASSERT_TRUE(store.CorruptByte(3));
  expected[3] ^= 0xFF;
  EXPECT_EQ(store.Load(), expected);
  // Out of reach: the image stays as it was.
  EXPECT_FALSE(store.CorruptByte(expected.size()));
  EXPECT_EQ(store.Load(), expected);

  // Mutating the table without a save leaves the damage in place.
  ASSERT_TRUE(table.MarkDirty(64).ok());
  EXPECT_EQ(store.Load(), expected);
  EXPECT_FALSE(BlockTable::Deserialize(*store.Load(), 8).ok());

  store.Save(table);
  EXPECT_EQ(store.Load(), table.Serialize());
  StatusOr<BlockTable> loaded = BlockTable::Deserialize(*store.Load(), 8);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->LookupEntry(64)->dirty);
}

}  // namespace
}  // namespace abr::driver

// Randomized check of the translation fast path. One driver is driven
// through a randomized sequence of block I/O, raw I/O, DKIOCBCOPY,
// DKIOCCLEAN, clean reboots and crash re-attaches, so its presence filter
// and last-translation cache see every kind of table and move-chain
// mutation.
//
// The oracle is inside the driver: at both exits of the fast path it
// asserts that the direct move-chain and block-table probes give the same
// answer. A filter miss must mean no table entry and no active chain; a
// cache hit must match the table entry's slot and dirty bit, with the
// block not moving. Every translation of this run is checked that way in
// any build that keeps assert() (the default one does).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "disk/drive_spec.h"
#include "driver/adaptive_driver.h"
#include "util/rng.h"

namespace abr::driver {
namespace {

constexpr std::int32_t kBlocks = 64;       // logical blocks exercised
constexpr std::int32_t kBlockSectors = 16; // TestDrive block size

class TranslationFastPathTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<disk::Disk>(disk::DriveSpec::TestDrive());
    Rebuild(/*after_crash=*/false);
  }

  void Rebuild(bool after_crash) {
    driver_.reset();
    auto label = disk::DiskLabel::Rearranged(disk_->geometry(), 10);
    ASSERT_TRUE(label.ok());
    ASSERT_TRUE(label->PartitionEvenly(1).ok());
    DriverConfig config;
    config.block_table_capacity = 16;
    driver_ = std::make_unique<AdaptiveDriver>(disk_.get(), std::move(*label),
                                               config, &store_);
    ASSERT_TRUE(driver_->Attach(after_crash).ok());
  }

  /// After a drain nothing may be held or moving.
  void ExpectQuiet() {
    EXPECT_EQ(driver_->held_request_count(), 0u);
    EXPECT_EQ(driver_->active_chain_count(), 0u);
  }

  std::unique_ptr<disk::Disk> disk_;
  InMemoryTableStore store_;
  std::unique_ptr<AdaptiveDriver> driver_;
};

TEST_P(TranslationFastPathTest, BitIdenticalUnderRandomOperations) {
  Rng rng(GetParam());
  Micros t = 0;
  std::int64_t copies = 0;

  for (int step = 0; step < 400; ++step) {
    const double r = rng.NextDouble();
    t += 1 + static_cast<Micros>(rng.NextBounded(5000));
    if (r < 0.45) {
      // Block-interface request; repeated blocks exercise the cache.
      const BlockNo block = static_cast<BlockNo>(rng.NextBounded(kBlocks));
      const sched::IoType type = rng.NextBernoulli(0.3)
                                     ? sched::IoType::kWrite
                                     : sched::IoType::kRead;
      ASSERT_TRUE(driver_->SubmitBlock(0, block, type, t).ok());
    } else if (r < 0.6) {
      // Raw request, possibly spanning block boundaries (physio split).
      const SectorNo sector = static_cast<SectorNo>(
          rng.NextBounded(kBlocks * kBlockSectors - 1));
      const std::int64_t count = 1 + static_cast<std::int64_t>(
          rng.NextBounded(3 * kBlockSectors));
      const sched::IoType type = rng.NextBernoulli(0.3)
                                     ? sched::IoType::kWrite
                                     : sched::IoType::kRead;
      ASSERT_TRUE(driver_->SubmitRaw(0, sector, count, type, t).ok());
    } else if (r < 0.72) {
      // Copy a random block into a random reserved slot. May legitimately
      // fail (occupied / duplicate / table full).
      const BlockNo block = static_cast<BlockNo>(rng.NextBounded(kBlocks));
      auto extents =
          driver_->MapVirtualExtent(block * kBlockSectors, kBlockSectors);
      ASSERT_EQ(extents.size(), 1u);
      const std::int32_t slot = static_cast<std::int32_t>(rng.NextBounded(
          static_cast<std::uint64_t>(driver_->reserved_slot_count())));
      if (driver_->IoctlCopyBlock(extents[0].sector,
                                  driver_->ReservedSlotSector(slot))
              .ok()) {
        ++copies;
      }
    } else if (r < 0.8) {
      // Busy while a previous clean is still pumping.
      (void)driver_->IoctlClean();
    } else if (r < 0.88) {
      driver_->Drain();
      ExpectQuiet();
    } else if (r < 0.94) {
      // Crash: the driver loses its in-memory dirty bits and recovers
      // conservatively from the store.
      driver_->Drain();
      Rebuild(/*after_crash=*/true);
      t = 0;
    } else {
      // Clean reboot through Detach().
      ASSERT_TRUE(driver_->Detach().ok());
      Rebuild(/*after_crash=*/false);
      t = 0;
    }
  }
  // The sequence must have put blocks in the table for the cache and the
  // filter's positive side to be exercised at all.
  EXPECT_GT(copies, 0);

  driver_->Drain();
  ExpectQuiet();

  // Final clean-out must retire every entry.
  ASSERT_TRUE(driver_->IoctlClean().ok());
  driver_->Drain();
  ExpectQuiet();
  EXPECT_EQ(driver_->block_table().size(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TranslationFastPathTest,
                         ::testing::Values(7, 11, 19, 23, 42, 1993));

}  // namespace
}  // namespace abr::driver

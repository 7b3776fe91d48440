#include "driver/adaptive_driver.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "disk/drive_spec.h"
#include "fault/crash_table_store.h"
#include "fault/fault_plan.h"
#include "fault/faulty_disk.h"

namespace abr::driver {
namespace {

using sched::IoType;

// Test drive: 100 cylinders x 4 tracks x 32 sectors = 12800 sectors;
// 8 KB blocks = 16 sectors; 128 sectors per cylinder (block aligned).
// Rearranged label hides 10 cylinders: physical cylinders 45..54.
class AdaptiveDriverTest : public ::testing::Test {
 protected:
  static constexpr std::int32_t kBlockSectors = 16;

  void Build(bool attach = true, bool after_crash = false) {
    if (!disk_) {
      disk_ = std::make_unique<disk::Disk>(disk::DriveSpec::TestDrive());
    }
    auto label = disk::DiskLabel::Rearranged(disk_->geometry(), 10);
    ASSERT_TRUE(label.ok());
    ASSERT_TRUE(label->PartitionEvenly(1).ok());
    DriverConfig config;
    config.block_size_bytes = 8192;
    config.block_table_capacity = 32;
    config.request_monitor_capacity = 1 << 12;
    driver_ = std::make_unique<AdaptiveDriver>(disk_.get(), std::move(*label),
                                               config, &store_);
    if (attach) {
      ASSERT_TRUE(driver_->Attach(after_crash).ok());
    }
  }

  /// Fresh driver instance on the same disk + store (a "reboot").
  void Reboot(bool after_crash) {
    driver_.reset();
    Build(/*attach=*/true, after_crash);
  }

  /// Original physical start sector of logical block `b` on device 0.
  SectorNo OriginalOf(BlockNo b) {
    auto extents = driver_->MapVirtualExtent(b * kBlockSectors,
                                             kBlockSectors);
    EXPECT_EQ(extents.size(), 1u);
    return extents[0].sector;
  }

  /// Stamps recognizable payloads on the block's original sectors.
  void Stamp(SectorNo start, std::uint64_t tag) {
    for (int i = 0; i < kBlockSectors; ++i) {
      disk_->WritePayload(start + i, tag + static_cast<std::uint64_t>(i));
    }
  }

  bool HasStamp(SectorNo start, std::uint64_t tag) {
    for (int i = 0; i < kBlockSectors; ++i) {
      if (disk_->ReadPayload(start + i) !=
          tag + static_cast<std::uint64_t>(i)) {
        return false;
      }
    }
    return true;
  }

  std::unique_ptr<disk::Disk> disk_;
  InMemoryTableStore store_;
  std::unique_ptr<AdaptiveDriver> driver_;
};

TEST_F(AdaptiveDriverTest, SubmitBeforeAttachFails) {
  Build(/*attach=*/false);
  EXPECT_EQ(driver_->SubmitBlock(0, 0, IoType::kRead, 0).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(AdaptiveDriverTest, DoubleAttachFails) {
  Build();
  EXPECT_EQ(driver_->Attach().code(), StatusCode::kFailedPrecondition);
}

TEST_F(AdaptiveDriverTest, AttachRearrangedWithoutStoreFails) {
  disk::Disk disk(disk::DriveSpec::TestDrive());
  auto label = disk::DiskLabel::Rearranged(disk.geometry(), 10);
  ASSERT_TRUE(label.ok());
  AdaptiveDriver driver(&disk, std::move(*label), DriverConfig{},
                        /*store=*/nullptr);
  EXPECT_EQ(driver.Attach().code(), StatusCode::kInvalidArgument);
}

TEST_F(AdaptiveDriverTest, PlainDiskNeedsNoStore) {
  disk::Disk disk(disk::DriveSpec::TestDrive());
  disk::DiskLabel label = disk::DiskLabel::Plain(disk.geometry());
  AdaptiveDriver driver(&disk, label, DriverConfig{}, nullptr);
  ASSERT_TRUE(driver.Attach().ok());
  EXPECT_TRUE(driver.SubmitBlock(0, 5, IoType::kRead, 0).ok());
  driver.Drain();
}

TEST_F(AdaptiveDriverTest, MapVirtualExtentSkipsHiddenRegion) {
  Build();
  const SectorNo boundary = 45 * 128;
  // Before the boundary: identity.
  auto before = driver_->MapVirtualExtent(0, 16);
  ASSERT_EQ(before.size(), 1u);
  EXPECT_EQ(before[0].sector, 0);
  // After: shifted by the hidden region.
  auto after = driver_->MapVirtualExtent(boundary, 16);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].sector, boundary + 10 * 128);
  // Straddling extent splits in two.
  auto split = driver_->MapVirtualExtent(boundary - 8, 16);
  ASSERT_EQ(split.size(), 2u);
  EXPECT_EQ(split[0].sector, boundary - 8);
  EXPECT_EQ(split[0].count, 8);
  EXPECT_EQ(split[1].sector, boundary + 10 * 128);
  EXPECT_EQ(split[1].count, 8);
}

TEST_F(AdaptiveDriverTest, SubmitValidation) {
  Build();
  EXPECT_EQ(driver_->SubmitBlock(5, 0, IoType::kRead, 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(driver_->SubmitBlock(0, -1, IoType::kRead, 0).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(driver_->SubmitBlock(0, 1 << 20, IoType::kRead, 0).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(driver_->SubmitRaw(0, -1, 16, IoType::kRead, 0).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(driver_->SubmitRaw(0, 0, 0, IoType::kRead, 0).code(),
            StatusCode::kOutOfRange);
}

TEST_F(AdaptiveDriverTest, ReservedSlotGeometry) {
  Build();
  // Table: 24 + 32*16 = 536 bytes -> 2 sectors.
  EXPECT_EQ(driver_->table_area_sectors(), 2);
  EXPECT_EQ(driver_->reserved_data_first_sector(), 45 * 128 + 2);
  // (1280 - 2) / 16 = 79 slots, capped by table capacity 32.
  EXPECT_EQ(driver_->reserved_slot_count(), 32);
  EXPECT_EQ(driver_->ReservedSlotSector(0), 45 * 128 + 2);
  EXPECT_EQ(driver_->ReservedSlotSector(1), 45 * 128 + 18);
  EXPECT_EQ(driver_->ReservedSlotCylinder(0), 45);
}

TEST_F(AdaptiveDriverTest, CopyBlockMovesDataAndCostsThreeIos) {
  Build();
  const SectorNo original = OriginalOf(7);
  const SectorNo target = driver_->ReservedSlotSector(0);
  Stamp(original, 0x700);
  ASSERT_TRUE(driver_->IoctlCopyBlock(original, target).ok());
  driver_->Drain();
  EXPECT_EQ(driver_->internal_io_count(), 3);  // read + write + table
  EXPECT_TRUE(HasStamp(target, 0x700));
  EXPECT_EQ(driver_->block_table().Lookup(original).value(), target);
  // The on-disk image was updated.
  auto image = store_.Load();
  ASSERT_TRUE(image.has_value());
  auto loaded = BlockTable::Deserialize(*image, 32);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Lookup(original).value(), target);
}

TEST_F(AdaptiveDriverTest, CopyBlockValidation) {
  Build();
  const SectorNo original = OriginalOf(7);
  const SectorNo target = driver_->ReservedSlotSector(0);
  // Target not on the slot grid.
  EXPECT_EQ(driver_->IoctlCopyBlock(original, target + 1).code(),
            StatusCode::kInvalidArgument);
  // Target outside the reserved area.
  EXPECT_EQ(driver_->IoctlCopyBlock(original, 0).code(),
            StatusCode::kInvalidArgument);
  // Original inside the reserved area.
  EXPECT_EQ(driver_->IoctlCopyBlock(target, target).code(),
            StatusCode::kInvalidArgument);
  // Original out of the disk.
  EXPECT_EQ(
      driver_->IoctlCopyBlock(disk_->geometry().total_sectors(), target)
          .code(),
      StatusCode::kOutOfRange);
  ASSERT_TRUE(driver_->IoctlCopyBlock(original, target).ok());
  driver_->Drain();
  // Occupied target and already-rearranged block.
  EXPECT_EQ(driver_->IoctlCopyBlock(OriginalOf(8), target).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(driver_->IoctlCopyBlock(original,
                                    driver_->ReservedSlotSector(1))
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(AdaptiveDriverTest, ReadOfRearrangedBlockGoesToReservedRegion) {
  Build();
  const SectorNo original = OriginalOf(7);  // cylinder 0
  ASSERT_TRUE(
      driver_->IoctlCopyBlock(original, driver_->ReservedSlotSector(0)).ok());
  driver_->Drain();
  ASSERT_TRUE(driver_->SubmitBlock(0, 7, IoType::kRead, driver_->now()).ok());
  driver_->Drain();
  // The head finished in the reserved region, not at the original cylinder.
  EXPECT_EQ(disk_->head_cylinder(), 45);
}

TEST_F(AdaptiveDriverTest, ReadOfNormalBlockUnaffected) {
  Build();
  ASSERT_TRUE(driver_->SubmitBlock(0, 7, IoType::kRead, 0).ok());
  driver_->Drain();
  EXPECT_EQ(disk_->head_cylinder(), 0);
}

TEST_F(AdaptiveDriverTest, WriteMarksEntryDirtyAndCleanCopiesBack) {
  Build();
  const SectorNo original = OriginalOf(7);
  const SectorNo target = driver_->ReservedSlotSector(0);
  Stamp(original, 0x700);
  ASSERT_TRUE(driver_->IoctlCopyBlock(original, target).ok());
  driver_->Drain();

  // A write is redirected to the reserved copy; model the data plane by
  // stamping the relocated sectors with the new contents.
  ASSERT_TRUE(
      driver_->SubmitBlock(0, 7, IoType::kWrite, driver_->now()).ok());
  driver_->Drain();
  Stamp(target, 0xBEEF00);
  ASSERT_TRUE(driver_->block_table().LookupEntry(original)->dirty);

  const std::int64_t ios_before = driver_->internal_io_count();
  ASSERT_TRUE(driver_->IoctlClean().ok());
  driver_->Drain();
  // Dirty move-out: read relocated + write original + table write.
  EXPECT_EQ(driver_->internal_io_count() - ios_before, 3);
  EXPECT_EQ(driver_->block_table().size(), 0);
  EXPECT_TRUE(HasStamp(original, 0xBEEF00));
}

TEST_F(AdaptiveDriverTest, CleanOfCleanBlockCostsOneIo) {
  Build();
  const SectorNo original = OriginalOf(7);
  ASSERT_TRUE(
      driver_->IoctlCopyBlock(original, driver_->ReservedSlotSector(0)).ok());
  driver_->Drain();
  const std::int64_t ios_before = driver_->internal_io_count();
  ASSERT_TRUE(driver_->IoctlClean().ok());
  driver_->Drain();
  EXPECT_EQ(driver_->internal_io_count() - ios_before, 1);  // table only
  EXPECT_EQ(driver_->block_table().size(), 0);
}

TEST_F(AdaptiveDriverTest, CleanEmptyTableIsNoOp) {
  Build();
  ASSERT_TRUE(driver_->IoctlClean().ok());
  driver_->Drain();
  EXPECT_EQ(driver_->internal_io_count(), 0);
}

TEST_F(AdaptiveDriverTest, RequestsForMovingBlockAreHeld) {
  Build();
  const SectorNo original = OriginalOf(7);
  ASSERT_TRUE(
      driver_->IoctlCopyBlock(original, driver_->ReservedSlotSector(0)).ok());
  // Move I/O still in flight; a request for the block must be delayed.
  ASSERT_TRUE(driver_->SubmitBlock(0, 7, IoType::kRead, driver_->now()).ok());
  EXPECT_EQ(driver_->held_request_count(), 1u);
  driver_->Drain();
  EXPECT_EQ(driver_->held_request_count(), 0u);
  // The held read was released and serviced from the reserved region.
  EXPECT_EQ(disk_->head_cylinder(), 45);
  const PerfSnapshot stats = driver_->IoctlReadStats();
  EXPECT_EQ(stats.reads.count(), 1);
  // Its queueing time includes the move delay.
  EXPECT_GT(stats.reads.queue_time.MeanMillis(), 0.0);
}

TEST_F(AdaptiveDriverTest, RequestsForOtherBlocksInterleaveWithMove) {
  Build();
  ASSERT_TRUE(driver_
                  ->IoctlCopyBlock(OriginalOf(7),
                                   driver_->ReservedSlotSector(0))
                  .ok());
  ASSERT_TRUE(driver_->SubmitBlock(0, 20, IoType::kRead, driver_->now()).ok());
  EXPECT_EQ(driver_->held_request_count(), 0u);  // different block: not held
  driver_->Drain();
  EXPECT_EQ(driver_->IoctlReadStats().reads.count(), 1);
}

TEST_F(AdaptiveDriverTest, CrashRecoveryMarksAllDirtyAndPreservesUpdates) {
  Build();
  const SectorNo original = OriginalOf(7);
  const SectorNo target = driver_->ReservedSlotSector(0);
  Stamp(original, 0x700);
  ASSERT_TRUE(driver_->IoctlCopyBlock(original, target).ok());
  driver_->Drain();
  // Update the relocated copy; the in-memory dirty bit is set but the
  // on-disk table still says "clean" (the paper's stale-dirty-bit case).
  ASSERT_TRUE(
      driver_->SubmitBlock(0, 7, IoType::kWrite, driver_->now()).ok());
  driver_->Drain();
  Stamp(target, 0xCAFE00);

  // Crash: new driver instance, conservative recovery.
  Reboot(/*after_crash=*/true);
  ASSERT_EQ(driver_->block_table().size(), 1);
  EXPECT_TRUE(driver_->block_table().LookupEntry(original)->dirty);

  ASSERT_TRUE(driver_->IoctlClean().ok());
  driver_->Drain();
  // The update survived the crash because recovery assumed dirty.
  EXPECT_TRUE(HasStamp(original, 0xCAFE00));
}

TEST_F(AdaptiveDriverTest, DetachPersistsDirtyBits) {
  Build();
  const SectorNo original = OriginalOf(7);
  const SectorNo target = driver_->ReservedSlotSector(0);
  Stamp(original, 0x700);
  ASSERT_TRUE(driver_->IoctlCopyBlock(original, target).ok());
  driver_->Drain();
  // Dirty the relocated copy; the on-disk table still says clean.
  ASSERT_TRUE(
      driver_->SubmitBlock(0, 7, IoType::kWrite, driver_->now()).ok());
  driver_->Drain();
  Stamp(target, 0xFEED00);

  // Clean shutdown persists the dirty bit, so a plain (non-crash) attach
  // still copies the update back on clean-out.
  ASSERT_TRUE(driver_->Detach().ok());
  Reboot(/*after_crash=*/false);
  ASSERT_TRUE(driver_->block_table().LookupEntry(original)->dirty);
  ASSERT_TRUE(driver_->IoctlClean().ok());
  driver_->Drain();
  EXPECT_TRUE(HasStamp(original, 0xFEED00));
}

TEST_F(AdaptiveDriverTest, DetachRequiresAttach) {
  Build(/*attach=*/false);
  EXPECT_EQ(driver_->Detach().code(), StatusCode::kFailedPrecondition);
}

TEST_F(AdaptiveDriverTest, ReattachAfterDetach) {
  Build();
  ASSERT_TRUE(driver_->Detach().ok());
  ASSERT_TRUE(driver_->Attach().ok());
  EXPECT_TRUE(driver_->SubmitBlock(0, 3, IoType::kRead, driver_->now()).ok());
  driver_->Drain();
}

TEST_F(AdaptiveDriverTest, RebootWithoutCrashKeepsStoredDirtyBits) {
  Build();
  const SectorNo original = OriginalOf(7);
  ASSERT_TRUE(
      driver_->IoctlCopyBlock(original, driver_->ReservedSlotSector(0)).ok());
  driver_->Drain();
  Reboot(/*after_crash=*/false);
  ASSERT_EQ(driver_->block_table().size(), 1);
  EXPECT_FALSE(driver_->block_table().LookupEntry(original)->dirty);
}

TEST_F(AdaptiveDriverTest, AttachRejectsCorruptTable) {
  Build();
  ASSERT_TRUE(driver_
                  ->IoctlCopyBlock(OriginalOf(7),
                                   driver_->ReservedSlotSector(0))
                  .ok());
  driver_->Drain();
  ASSERT_TRUE(store_.CorruptByte(30));  // inside the single entry's bytes
  driver_.reset();
  Build(/*attach=*/false);
  EXPECT_EQ(driver_->Attach().code(), StatusCode::kCorruption);
}

TEST_F(AdaptiveDriverTest, PhysioSplitsRawRequests) {
  Build();
  // A raw extent spanning parts of three blocks -> three sub-requests.
  ASSERT_TRUE(driver_->SubmitRaw(0, 8, 32, IoType::kRead, 0).ok());
  driver_->Drain();
  const PerfSnapshot stats = driver_->IoctlReadStats();
  EXPECT_EQ(stats.reads.count(), 3);
}

TEST_F(AdaptiveDriverTest, RawFragmentOfRearrangedBlockRedirected) {
  Build();
  const SectorNo original = OriginalOf(7);
  const SectorNo target = driver_->ReservedSlotSector(0);
  ASSERT_TRUE(driver_->IoctlCopyBlock(original, target).ok());
  driver_->Drain();
  disk_->MoveHeadTo(0);
  // Sectors 4..8 of block 7 = partition sectors 7*16+4 .. +8.
  ASSERT_TRUE(
      driver_->SubmitRaw(0, 7 * 16 + 4, 4, IoType::kRead, driver_->now())
          .ok());
  driver_->Drain();
  EXPECT_EQ(disk_->head_cylinder(), 45);  // served from the reserved region
}

TEST_F(AdaptiveDriverTest, RawWholeBlockSingleRequest) {
  Build();
  ASSERT_TRUE(driver_->SubmitRaw(0, 64, 16, IoType::kRead, 0).ok());
  driver_->Drain();
  EXPECT_EQ(driver_->IoctlReadStats().reads.count(), 1);
}

TEST_F(AdaptiveDriverTest, FcfsDistancesUseOriginalAddresses) {
  Build();
  const SectorNo original = OriginalOf(0);  // block 0, cylinder 0
  ASSERT_TRUE(
      driver_->IoctlCopyBlock(original, driver_->ReservedSlotSector(0)).ok());
  driver_->Drain();
  driver_->IoctlReadStats();  // clear

  // Read the rearranged block (original cylinder 0), then a block on
  // virtual cylinder 80 (physical 90 after the skip).
  ASSERT_TRUE(driver_->SubmitBlock(0, 0, IoType::kRead, driver_->now()).ok());
  ASSERT_TRUE(
      driver_->SubmitBlock(0, 80 * 8, IoType::kRead, driver_->now()).ok());
  driver_->Drain();
  const PerfSnapshot stats = driver_->IoctlReadStats();
  ASSERT_EQ(stats.reads.fcfs_seek_distance.count(), 1);
  // FCFS distance = |90 - 0| from *original* addresses, even though the
  // first request was actually served at cylinder 45.
  EXPECT_DOUBLE_EQ(stats.reads.fcfs_seek_distance.Mean(), 90.0);
}

TEST_F(AdaptiveDriverTest, GeometryIoctl) {
  Build();
  const auto info = driver_->IoctlGetGeometry();
  EXPECT_TRUE(info.rearranged);
  EXPECT_EQ(info.virtual_geometry.cylinders, 90);
  EXPECT_EQ(info.reserved_first_cylinder, 45);
  EXPECT_EQ(info.reserved_cylinder_count, 10);
  EXPECT_EQ(info.block_size_bytes, 8192);
}

TEST_F(AdaptiveDriverTest, GeometryIoctlPlainDisk) {
  disk::Disk disk(disk::DriveSpec::TestDrive());
  disk::DiskLabel label = disk::DiskLabel::Plain(disk.geometry());
  AdaptiveDriver driver(&disk, label, DriverConfig{}, nullptr);
  ASSERT_TRUE(driver.Attach().ok());
  const auto info = driver.IoctlGetGeometry();
  EXPECT_FALSE(info.rearranged);
  EXPECT_EQ(info.virtual_geometry.cylinders, 100);
}

TEST_F(AdaptiveDriverTest, RequestMonitorRecordsLogicalBlocks) {
  Build();
  ASSERT_TRUE(driver_->SubmitBlock(0, 42, IoType::kWrite, 0).ok());
  ASSERT_TRUE(driver_->SubmitBlock(0, 43, IoType::kRead, 0).ok());
  driver_->Drain();
  auto records = driver_->IoctlReadRequests();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].block, 42);
  EXPECT_EQ(records[0].type, IoType::kWrite);
  EXPECT_EQ(records[1].block, 43);
  EXPECT_EQ(records[0].size_bytes, 8192);
}

TEST_F(AdaptiveDriverTest, InternalIoExcludedFromStats) {
  Build();
  ASSERT_TRUE(driver_
                  ->IoctlCopyBlock(OriginalOf(7),
                                   driver_->ReservedSlotSector(0))
                  .ok());
  driver_->Drain();
  const PerfSnapshot stats = driver_->IoctlReadStats();
  EXPECT_EQ(stats.all.count(), 0);
  EXPECT_TRUE(driver_->IoctlReadRequests().empty());
  EXPECT_GT(driver_->internal_io_time(), 0);
}

// Straddling geometry: 34 sectors/track * 4 tracks = 136 sectors/cylinder,
// not a multiple of 16, so some blocks cross the hidden-region boundary.
class StraddlingDriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<disk::Disk>(
        disk::DriveSpec::TestDrive(100, 4, 34));
    auto label = disk::DiskLabel::Rearranged(disk_->geometry(), 10);
    ASSERT_TRUE(label.ok());
    ASSERT_TRUE(label->PartitionEvenly(1).ok());
    DriverConfig config;
    config.block_table_capacity = 32;
    driver_ = std::make_unique<AdaptiveDriver>(disk_.get(), std::move(*label),
                                               config, &store_);
    ASSERT_TRUE(driver_->Attach().ok());
  }

  std::unique_ptr<disk::Disk> disk_;
  InMemoryTableStore store_;
  std::unique_ptr<AdaptiveDriver> driver_;
};

TEST_F(StraddlingDriverTest, StraddlingBlockServedAsTwoRequests) {
  // Boundary at 45 * 136 = 6120; block 382 covers sectors 6112..6127.
  const BlockNo straddler = 382;
  auto extents = driver_->MapVirtualExtent(straddler * 16, 16);
  ASSERT_EQ(extents.size(), 2u);
  ASSERT_TRUE(
      driver_->SubmitBlock(0, straddler, IoType::kRead, 0).ok());
  driver_->Drain();
  EXPECT_EQ(driver_->IoctlReadStats().reads.count(), 2);
}

TEST_F(StraddlingDriverTest, StraddlingBlockIneligibleForCopy) {
  // Its "original" would overlap the reserved region.
  EXPECT_FALSE(driver_
                   ->IoctlCopyBlock(382 * 16,
                                    driver_->reserved_data_first_sector())
                   .ok());
}

/// Collects every completion forwarded to the client sink.
struct RecordingSink : public sim::CompletionSink {
  void OnIoComplete(const sim::CompletedIo& done) override {
    completions.push_back(done);
  }
  std::vector<sim::CompletedIo> completions;
};

// Fault-path tests: same machine as AdaptiveDriverTest but the disk is a
// fault::FaultyDisk and the table store models torn saves.
class FaultyDriverTest : public ::testing::Test {
 protected:
  static constexpr std::int32_t kBlockSectors = 16;

  void Build(fault::FaultPlan plan, bool after_crash = false) {
    if (!disk_) {
      disk_ = std::make_unique<fault::FaultyDisk>(
          disk::DriveSpec::TestDrive(), std::move(plan), /*seed=*/7);
    }
    auto label = disk::DiskLabel::Rearranged(disk_->geometry(), 10);
    ASSERT_TRUE(label.ok());
    ASSERT_TRUE(label->PartitionEvenly(1).ok());
    DriverConfig config;
    config.block_size_bytes = 8192;
    config.block_table_capacity = 32;
    config.request_monitor_capacity = 1 << 12;
    driver_ = std::make_unique<AdaptiveDriver>(disk_.get(), std::move(*label),
                                               config, &store_);
    driver_->set_client_sink(&sink_);
    disk_->set_table_observer(&store_);
    ASSERT_TRUE(driver_->Attach(after_crash).ok());
    // The table footprint is computed at attach time.
    disk_->SetTableArea(label_first(), driver_->table_area_sectors());
  }

  SectorNo label_first() const { return 45 * 128; }

  SectorNo OriginalOf(BlockNo b) {
    auto extents =
        driver_->MapVirtualExtent(b * kBlockSectors, kBlockSectors);
    EXPECT_EQ(extents.size(), 1u);
    return extents[0].sector;
  }

  void Stamp(SectorNo start, std::uint64_t tag) {
    for (int i = 0; i < kBlockSectors; ++i) {
      disk_->WritePayload(start + i, tag + static_cast<std::uint64_t>(i));
    }
  }

  bool HasStamp(SectorNo start, std::uint64_t tag) {
    for (int i = 0; i < kBlockSectors; ++i) {
      if (disk_->ReadPayload(start + i) !=
          tag + static_cast<std::uint64_t>(i)) {
        return false;
      }
    }
    return true;
  }

  std::unique_ptr<fault::FaultyDisk> disk_;
  fault::CrashTableStore store_;
  RecordingSink sink_;
  std::unique_ptr<AdaptiveDriver> driver_;
};

TEST_F(FaultyDriverTest, TransientErrorRetriedToSuccess) {
  fault::FaultPlan plan;
  // Block 7 lives at sectors 112..127; one marginal sector, heals after
  // a single failure — inside the driver's retry budget.
  plan.media.push_back(fault::MediaFault{/*first=*/115, /*count=*/1,
                                         /*persistent=*/false,
                                         /*fail_budget=*/1,
                                         /*arm_after_io=*/0});
  Build(std::move(plan));
  ASSERT_TRUE(driver_->SubmitBlock(0, 7, IoType::kRead, 0).ok());
  driver_->Drain();

  ASSERT_EQ(sink_.completions.size(), 1u);
  EXPECT_TRUE(sink_.completions[0].breakdown.ok());
  const FaultCounters faults = driver_->IoctlReadStats().faults;
  EXPECT_EQ(faults.media_errors, 1);
  EXPECT_EQ(faults.retries, 1);
  EXPECT_EQ(faults.failed_requests, 0);
}

TEST_F(FaultyDriverTest, PersistentErrorReportedAfterRetryBudget) {
  fault::FaultPlan plan;
  plan.media.push_back(fault::MediaFault{/*first=*/112, /*count=*/2,
                                         /*persistent=*/true,
                                         /*fail_budget=*/1,
                                         /*arm_after_io=*/0});
  Build(std::move(plan));
  ASSERT_TRUE(driver_->SubmitBlock(0, 7, IoType::kWrite, 0).ok());
  driver_->Drain();

  ASSERT_EQ(sink_.completions.size(), 1u);
  EXPECT_FALSE(sink_.completions[0].breakdown.ok());
  EXPECT_EQ(sink_.completions[0].breakdown.media,
            disk::MediaStatus::kPersistentError);
  const FaultCounters faults = driver_->IoctlReadStats().faults;
  EXPECT_EQ(faults.failed_requests, 1);
  // Persistent errors are not worth retrying: the request fails at once.
  EXPECT_EQ(faults.retries, 0);
  EXPECT_EQ(faults.media_errors, 1);
}

TEST_F(FaultyDriverTest, PersistentErrorAbortsCopyChainAndRollsBack) {
  fault::FaultPlan plan;
  // The first reserved slot is permanently bad: the copy's write leg can
  // never land, so the chain must abort and remove the inserted entry.
  Build(fault::FaultPlan{});
  const SectorNo original = OriginalOf(7);
  const SectorNo target = driver_->ReservedSlotSector(0);
  // Inject the defect on the slot now that the geometry is known.
  fault::FaultPlan bad;
  bad.media.push_back(fault::MediaFault{target, /*count=*/1,
                                        /*persistent=*/true,
                                        /*fail_budget=*/1,
                                        /*arm_after_io=*/0});
  driver_ = nullptr;
  disk_ = nullptr;
  store_ = fault::CrashTableStore{};
  sink_.completions.clear();
  Build(std::move(bad));

  Stamp(original, 0x700);
  ASSERT_TRUE(driver_->IoctlCopyBlock(original, target).ok());
  driver_->Drain();

  const FaultCounters faults = driver_->IoctlReadStats().faults;
  EXPECT_EQ(faults.aborted_chains, 1);
  // Rollback: the table does not advertise the failed copy, the original
  // data is untouched, and the block is readable at its original address.
  EXPECT_FALSE(driver_->block_table().Lookup(original).has_value());
  EXPECT_TRUE(HasStamp(original, 0x700));
  ASSERT_TRUE(driver_->SubmitBlock(0, 7, IoType::kRead, driver_->now()).ok());
  driver_->Drain();
  ASSERT_FALSE(sink_.completions.empty());
  EXPECT_TRUE(sink_.completions.back().breakdown.ok());
}

TEST_F(FaultyDriverTest, TornTableSaveFallsBackToDurableImage) {
  Build(fault::FaultPlan{});
  const SectorNo orig7 = OriginalOf(7);
  const SectorNo orig9 = OriginalOf(9);
  ASSERT_TRUE(
      driver_->IoctlCopyBlock(orig7, driver_->ReservedSlotSector(0)).ok());
  driver_->Drain();
  ASSERT_TRUE(
      driver_->IoctlCopyBlock(orig9, driver_->ReservedSlotSector(1)).ok());
  driver_->Drain();
  ASSERT_EQ(store_.commits(), 2);

  // A later save is torn mid-write by a crash: only a header fragment of
  // the new image reaches the platter.
  store_.Save(driver_->block_table());
  store_.OnTableWriteTorn(0.1);
  ASSERT_TRUE(store_.torn());

  driver_.reset();
  auto label = disk::DiskLabel::Rearranged(disk_->geometry(), 10);
  ASSERT_TRUE(label.ok());
  ASSERT_TRUE(label->PartitionEvenly(1).ok());
  DriverConfig config;
  config.block_table_capacity = 32;
  driver_ = std::make_unique<AdaptiveDriver>(disk_.get(), std::move(*label),
                                             config, &store_);

  // A plain attach refuses the corrupt image; a crash attach falls back to
  // the last durable image and conservatively dirties everything.
  EXPECT_EQ(driver_->Attach(/*after_crash=*/false).code(),
            StatusCode::kCorruption);
  ASSERT_TRUE(driver_->Attach(/*after_crash=*/true).ok());
  EXPECT_EQ(driver_->block_table().size(), 2);
  EXPECT_TRUE(driver_->block_table().LookupEntry(orig7)->dirty);
  EXPECT_TRUE(driver_->block_table().LookupEntry(orig9)->dirty);
  EXPECT_EQ(driver_->IoctlReadStats().faults.recovery_fallbacks, 1);
}

TEST_F(AdaptiveDriverTest, CleanAfterCrashCopiesAllDirtyBlocksBack) {
  // Satellite of the crash work: DKIOCCLEAN after a crash must copy every
  // conservatively-dirtied block back with its latest contents.
  Build();
  const SectorNo orig7 = OriginalOf(7);
  const SectorNo orig9 = OriginalOf(9);
  const SectorNo slot0 = driver_->ReservedSlotSector(0);
  const SectorNo slot1 = driver_->ReservedSlotSector(1);
  Stamp(orig7, 0x700);
  Stamp(orig9, 0x900);
  ASSERT_TRUE(driver_->IoctlCopyBlock(orig7, slot0).ok());
  ASSERT_TRUE(driver_->IoctlCopyBlock(orig9, slot1).ok());
  driver_->Drain();

  // Updates land on the relocated copies only.
  ASSERT_TRUE(
      driver_->SubmitBlock(0, 7, IoType::kWrite, driver_->now()).ok());
  ASSERT_TRUE(
      driver_->SubmitBlock(0, 9, IoType::kWrite, driver_->now()).ok());
  driver_->Drain();
  Stamp(slot0, 0xA700);
  Stamp(slot1, 0xA900);

  // Crash (no Detach): the new instance distrusts every on-disk dirty bit.
  Reboot(/*after_crash=*/true);
  ASSERT_EQ(driver_->block_table().size(), 2);

  ASSERT_TRUE(driver_->IoctlClean().ok());
  driver_->Drain();
  EXPECT_EQ(driver_->block_table().size(), 0);
  // The post-crash copy-back preserved the updated payloads, fingerprinted
  // sector by sector.
  EXPECT_TRUE(HasStamp(orig7, 0xA700));
  EXPECT_TRUE(HasStamp(orig9, 0xA900));
  // And reads now resolve to the originals.
  ASSERT_TRUE(driver_->SubmitBlock(0, 7, IoType::kRead, driver_->now()).ok());
  driver_->Drain();
}

TEST_F(AdaptiveDriverTest, MoveBlockShufflesWithinRegionAndCostsThreeIos) {
  Build();
  const SectorNo original = OriginalOf(7);
  const SectorNo slot0 = driver_->ReservedSlotSector(0);
  const SectorNo slot1 = driver_->ReservedSlotSector(1);
  Stamp(original, 0x700);
  ASSERT_TRUE(driver_->IoctlCopyBlock(original, slot0).ok());
  driver_->Drain();
  const std::int64_t ios_before = driver_->internal_io_count();

  ASSERT_TRUE(driver_->IoctlMoveBlock(original, slot1).ok());
  driver_->Drain();
  EXPECT_EQ(driver_->internal_io_count() - ios_before, 3);  // read+write+table
  EXPECT_TRUE(HasStamp(slot1, 0x700));
  EXPECT_EQ(driver_->block_table().Lookup(original).value(), slot1);
  EXPECT_EQ(driver_->IoctlReadStats().moves.shuffles, 1);

  // The on-disk image followed the shuffle.
  auto image = store_.Load();
  ASSERT_TRUE(image.has_value());
  auto loaded = BlockTable::Deserialize(*image, 32);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Lookup(original).value(), slot1);

  // Reads of the block now land on the new slot.
  ASSERT_TRUE(driver_->SubmitBlock(0, 7, IoType::kRead, driver_->now()).ok());
  driver_->Drain();
}

TEST_F(AdaptiveDriverTest, MoveBlockPreservesDirtyBit) {
  Build();
  const SectorNo original = OriginalOf(7);
  const SectorNo slot0 = driver_->ReservedSlotSector(0);
  const SectorNo slot1 = driver_->ReservedSlotSector(1);
  Stamp(original, 0x700);
  ASSERT_TRUE(driver_->IoctlCopyBlock(original, slot0).ok());
  driver_->Drain();
  ASSERT_TRUE(
      driver_->SubmitBlock(0, 7, IoType::kWrite, driver_->now()).ok());
  driver_->Drain();
  Stamp(slot0, 0xA700);  // the redirected write's new payload
  ASSERT_TRUE(driver_->block_table().LookupEntry(original)->dirty);

  ASSERT_TRUE(driver_->IoctlMoveBlock(original, slot1).ok());
  driver_->Drain();
  // The dirty bit travels with the entry, so a later clean-out still
  // copies the updated payload back to the original location.
  ASSERT_TRUE(driver_->block_table().LookupEntry(original)->dirty);
  ASSERT_TRUE(driver_->IoctlEvictBlock(original).ok());
  driver_->Drain();
  EXPECT_FALSE(driver_->block_table().Lookup(original).has_value());
  EXPECT_TRUE(HasStamp(original, 0xA700));
}

TEST_F(AdaptiveDriverTest, MoveBlockValidation) {
  Build();
  const SectorNo original = OriginalOf(7);
  const SectorNo slot0 = driver_->ReservedSlotSector(0);
  const SectorNo slot1 = driver_->ReservedSlotSector(1);
  // Not rearranged yet.
  EXPECT_EQ(driver_->IoctlMoveBlock(original, slot1).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(driver_->IoctlCopyBlock(original, slot0).ok());
  ASSERT_TRUE(driver_->IoctlCopyBlock(OriginalOf(9), slot1).ok());
  driver_->Drain();
  // Target off the slot grid / outside the region.
  EXPECT_EQ(driver_->IoctlMoveBlock(original, slot1 + 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(driver_->IoctlMoveBlock(original, 0).code(),
            StatusCode::kInvalidArgument);
  // Already at the target.
  EXPECT_EQ(driver_->IoctlMoveBlock(original, slot0).code(),
            StatusCode::kInvalidArgument);
  // Target occupied by another entry.
  EXPECT_EQ(driver_->IoctlMoveBlock(original, slot1).code(),
            StatusCode::kAlreadyExists);
  // A block whose move is still in flight is busy.
  ASSERT_TRUE(
      driver_->IoctlMoveBlock(original, driver_->ReservedSlotSector(2)).ok());
  EXPECT_EQ(
      driver_->IoctlMoveBlock(original, driver_->ReservedSlotSector(3)).code(),
      StatusCode::kBusy);
  // And its in-flight target slot is reserved against other claims.
  EXPECT_EQ(driver_->IoctlCopyBlock(OriginalOf(11),
                                    driver_->ReservedSlotSector(2))
                .code(),
            StatusCode::kAlreadyExists);
  driver_->Drain();
}

TEST_F(AdaptiveDriverTest, EvictBlockRemovesSingleEntry) {
  Build();
  const SectorNo orig7 = OriginalOf(7);
  const SectorNo orig9 = OriginalOf(9);
  const SectorNo slot0 = driver_->ReservedSlotSector(0);
  const SectorNo slot1 = driver_->ReservedSlotSector(1);
  Stamp(orig7, 0x700);
  ASSERT_TRUE(driver_->IoctlCopyBlock(orig7, slot0).ok());
  ASSERT_TRUE(driver_->IoctlCopyBlock(orig9, slot1).ok());
  driver_->Drain();
  const std::int64_t ios_before = driver_->internal_io_count();

  // Clean entry: the original still holds current bytes, so eviction is
  // just the table write.
  ASSERT_TRUE(driver_->IoctlEvictBlock(orig7).ok());
  driver_->Drain();
  EXPECT_EQ(driver_->internal_io_count() - ios_before, 1);
  EXPECT_FALSE(driver_->block_table().Lookup(orig7).has_value());
  // The other entry is untouched — unlike DKIOCCLEAN, which empties all.
  EXPECT_TRUE(driver_->block_table().Lookup(orig9).has_value());
  EXPECT_TRUE(HasStamp(orig7, 0x700));
  EXPECT_EQ(driver_->IoctlReadStats().moves.evictions, 1);

  // Absent blocks report NotFound.
  EXPECT_EQ(driver_->IoctlEvictBlock(orig7).code(), StatusCode::kNotFound);
}

TEST_F(AdaptiveDriverTest, EvictDirtyBlockCopiesBack) {
  Build();
  const SectorNo original = OriginalOf(7);
  const SectorNo slot0 = driver_->ReservedSlotSector(0);
  Stamp(original, 0x700);
  ASSERT_TRUE(driver_->IoctlCopyBlock(original, slot0).ok());
  driver_->Drain();
  ASSERT_TRUE(
      driver_->SubmitBlock(0, 7, IoType::kWrite, driver_->now()).ok());
  driver_->Drain();
  Stamp(slot0, 0xA700);
  const std::int64_t ios_before = driver_->internal_io_count();

  ASSERT_TRUE(driver_->IoctlEvictBlock(original).ok());
  driver_->Drain();
  // Dirty eviction: read relocation + write original + table write.
  EXPECT_EQ(driver_->internal_io_count() - ios_before, 3);
  EXPECT_FALSE(driver_->block_table().Lookup(original).has_value());
  EXPECT_TRUE(HasStamp(original, 0xA700));
}

TEST_F(AdaptiveDriverTest, VacatedSlotQuarantinedUntilTableWriteDurable) {
  Build();
  const SectorNo orig7 = OriginalOf(7);
  const SectorNo slot0 = driver_->ReservedSlotSector(0);
  ASSERT_TRUE(driver_->IoctlCopyBlock(orig7, slot0).ok());
  driver_->Drain();

  // The eviction's entry removal happens synchronously for clean entries,
  // but its table write is still in flight: the vacated slot must refuse
  // new claims until the removal is durable on disk.
  ASSERT_TRUE(driver_->IoctlEvictBlock(orig7).ok());
  EXPECT_FALSE(driver_->block_table().Lookup(orig7).has_value());
  EXPECT_EQ(driver_->IoctlCopyBlock(OriginalOf(9), slot0).code(),
            StatusCode::kAlreadyExists);
  driver_->Drain();
  // Once durable, the slot is reusable.
  ASSERT_TRUE(driver_->IoctlCopyBlock(OriginalOf(9), slot0).ok());
  driver_->Drain();
  EXPECT_EQ(driver_->block_table().Lookup(OriginalOf(9)).value(), slot0);
}

TEST_F(FaultyDriverTest, PersistentErrorAbortsMoveChainAndRollsBack) {
  Build(fault::FaultPlan{});
  const SectorNo original = OriginalOf(7);
  const SectorNo slot0 = driver_->ReservedSlotSector(0);
  const SectorNo slot1 = driver_->ReservedSlotSector(1);
  // Rebuild with a permanently bad second slot so the shuffle's write leg
  // can never land.
  fault::FaultPlan bad;
  bad.media.push_back(fault::MediaFault{slot1, /*count=*/1,
                                        /*persistent=*/true,
                                        /*fail_budget=*/1,
                                        /*arm_after_io=*/0});
  driver_ = nullptr;
  disk_ = nullptr;
  store_ = fault::CrashTableStore{};
  sink_.completions.clear();
  Build(std::move(bad));

  Stamp(original, 0x700);
  ASSERT_TRUE(driver_->IoctlCopyBlock(original, slot0).ok());
  driver_->Drain();
  ASSERT_TRUE(driver_->IoctlMoveBlock(original, slot1).ok());
  driver_->Drain();

  const FaultCounters faults = driver_->IoctlReadStats().faults;
  EXPECT_EQ(faults.aborted_chains, 1);
  // Rollback: the entry still points at the source slot, whose payload is
  // intact, and reads of the block succeed.
  EXPECT_EQ(driver_->block_table().Lookup(original).value(), slot0);
  EXPECT_TRUE(HasStamp(slot0, 0x700));
  EXPECT_EQ(driver_->IoctlReadStats().moves.shuffles, 0);
  ASSERT_TRUE(driver_->SubmitBlock(0, 7, IoType::kRead, driver_->now()).ok());
  driver_->Drain();
  ASSERT_FALSE(sink_.completions.empty());
  EXPECT_TRUE(sink_.completions.back().breakdown.ok());
}

}  // namespace
}  // namespace abr::driver

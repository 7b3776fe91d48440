// Relocation rollbacks: each chain that relocates a block's table entry
// (DKIOCBCOPY copy-in, DKIOCBMOVE shuffle, DKIOCBREPAIR of a resident
// block and of a new one) is aborted at its table write. That is the one
// abort point where the in-memory entry already names the target, so the
// rollback must undo it: withdraw a new entry or point a re-pointed one
// back at its source slot, and quarantine the abandoned target until a
// later table write makes the undo durable.
//
// A transient media fault on the table area, armed once the setup I/O is
// done, fails the chain's table write one time more than the retry budget
// allows and then heals, so later table writes land.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "disk/drive_spec.h"
#include "driver/adaptive_driver.h"
#include "fault/crash_table_store.h"
#include "fault/fault_plan.h"
#include "fault/faulty_disk.h"

namespace abr::driver {
namespace {

using sched::IoType;

struct RecordingSink : public sim::CompletionSink {
  void OnIoComplete(const sim::CompletedIo& done) override {
    completions.push_back(done);
  }
  std::vector<sim::CompletedIo> completions;
};

// Test drive: 100 cylinders x 4 tracks x 32 sectors, 8 KB blocks of 16
// sectors; the rearranged label hides 10 cylinders in the middle.
class RelocationRollbackTest : public ::testing::Test {
 protected:
  static constexpr std::int32_t kBlockSectors = 16;
  static constexpr std::int32_t kMaxRetries = 3;

  /// Builds a fresh machine (disk, store, driver) with `plan`.
  void Build(fault::FaultPlan plan) {
    driver_.reset();
    sink_.completions.clear();
    store_ = fault::CrashTableStore{};
    disk_ = std::make_unique<fault::FaultyDisk>(disk::DriveSpec::TestDrive(),
                                                std::move(plan), /*seed=*/7);
    auto label = disk::DiskLabel::Rearranged(disk_->geometry(), 10);
    ASSERT_TRUE(label.ok());
    ASSERT_TRUE(label->PartitionEvenly(1).ok());
    DriverConfig config;
    config.block_table_capacity = 32;
    config.request_monitor_capacity = 1 << 12;
    config.max_io_retries = kMaxRetries;
    config.spare_slots = 2;
    driver_ = std::make_unique<AdaptiveDriver>(disk_.get(), std::move(*label),
                                               config, &store_);
    driver_->set_client_sink(&sink_);
    disk_->set_table_observer(&store_);
    ASSERT_TRUE(driver_->Attach().ok());
    disk_->SetTableArea(driver_->label().reserved_first_sector(),
                        driver_->table_area_sectors());
  }

  /// Runs `setup` on a fault-free machine to learn how many operations it
  /// services, then rebuilds the machine with a table-area fault armed
  /// from that operation on and replays `setup`. The next table write —
  /// the chain under test's — fails kMaxRetries + 1 times and aborts.
  void BuildWithTableFaultAfter(const std::function<void()>& setup) {
    Build(fault::FaultPlan{});
    setup();
    const std::int64_t arm = disk_->io_index();
    const SectorNo table_first = driver_->label().reserved_first_sector();
    fault::FaultPlan plan;
    plan.media.push_back(fault::MediaFault{table_first, /*count=*/1,
                                           /*persistent=*/false,
                                           /*fail_budget=*/kMaxRetries + 1,
                                           /*arm_after_io=*/arm});
    Build(std::move(plan));
    setup();
    ASSERT_EQ(disk_->io_index(), arm);
    before_ = driver_->IoctlReadStats(/*clear=*/false);
  }

  SectorNo OriginalOf(BlockNo b) const {
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

  bool HasStamp(SectorNo start, std::uint64_t tag) const {
    for (int i = 0; i < kBlockSectors; ++i) {
      if (disk_->ReadPayload(start + i) !=
          tag + static_cast<std::uint64_t>(i)) {
        return false;
      }
    }
    return true;
  }

  /// The chain aborted once, at its table write, and no move or remap
  /// counter ticked for it.
  void ExpectAbortedUncounted() const {
    const PerfSnapshot after = driver_->IoctlReadStats(/*clear=*/false);
    EXPECT_EQ(after.faults.aborted_chains - before_.faults.aborted_chains, 1);
    EXPECT_EQ(after.moves.copy_ins, before_.moves.copy_ins);
    EXPECT_EQ(after.moves.shuffles, before_.moves.shuffles);
    EXPECT_EQ(after.moves.evictions, before_.moves.evictions);
    EXPECT_EQ(after.faults.remaps, before_.faults.remaps);
  }

  /// `claim` is refused while the abandoned target is quarantined, and
  /// accepted once another chain's table write has landed.
  void ExpectTargetHeldUntilTableWrite(
      const std::function<Status()>& claim) {
    EXPECT_EQ(claim().code(), StatusCode::kAlreadyExists);
    ASSERT_TRUE(
        driver_->IoctlCopyBlock(OriginalOf(11), driver_->ReservedSlotSector(5))
            .ok());
    driver_->Drain();
    ASSERT_EQ(driver_->block_table().Lookup(OriginalOf(11)),
              std::optional<SectorNo>(driver_->ReservedSlotSector(5)));
    EXPECT_TRUE(claim().ok());
    driver_->Drain();
  }

  /// Logical block `b` reads successfully from wherever the table maps it,
  /// and that location holds `tag`.
  void ExpectReadsPayload(BlockNo b, std::uint64_t tag) {
    const SectorNo original = OriginalOf(b);
    const SectorNo at =
        driver_->block_table().Lookup(original).value_or(original);
    EXPECT_TRUE(HasStamp(at, tag));
    sink_.completions.clear();
    ASSERT_TRUE(driver_->SubmitBlock(0, b, IoType::kRead, driver_->now()).ok());
    driver_->Drain();
    ASSERT_EQ(sink_.completions.size(), 1u);
    EXPECT_TRUE(sink_.completions[0].breakdown.ok());
    EXPECT_EQ(sink_.completions[0].request.sector, at);
  }

  std::unique_ptr<fault::FaultyDisk> disk_;
  fault::CrashTableStore store_;
  RecordingSink sink_;
  std::unique_ptr<AdaptiveDriver> driver_;
  PerfSnapshot before_;
};

TEST_F(RelocationRollbackTest, CopyInAbortedAtTableWriteWithdrawsEntry) {
  BuildWithTableFaultAfter([&] { Stamp(OriginalOf(7), 0x700); });
  const SectorNo original = OriginalOf(7);
  const SectorNo target = driver_->ReservedSlotSector(0);

  ASSERT_TRUE(driver_->IoctlCopyBlock(original, target).ok());
  driver_->Drain();

  ExpectAbortedUncounted();
  EXPECT_FALSE(driver_->block_table().Lookup(original).has_value());
  ExpectReadsPayload(7, 0x700);
  ExpectTargetHeldUntilTableWrite(
      [&] { return driver_->IoctlCopyBlock(OriginalOf(9), target); });
}

TEST_F(RelocationRollbackTest, ShuffleAbortedAtTableWritePointsBackAtSource) {
  const auto setup = [&] {
    Stamp(OriginalOf(7), 0x700);
    ASSERT_TRUE(
        driver_->IoctlCopyBlock(OriginalOf(7), driver_->ReservedSlotSector(0))
            .ok());
    driver_->Drain();
  };
  BuildWithTableFaultAfter(setup);
  const SectorNo original = OriginalOf(7);
  const SectorNo source = driver_->ReservedSlotSector(0);
  const SectorNo target = driver_->ReservedSlotSector(1);
  ASSERT_EQ(driver_->block_table().Lookup(original),
            std::optional<SectorNo>(source));

  ASSERT_TRUE(driver_->IoctlMoveBlock(original, target).ok());
  driver_->Drain();

  ExpectAbortedUncounted();
  EXPECT_EQ(driver_->block_table().Lookup(original),
            std::optional<SectorNo>(source));
  ExpectReadsPayload(7, 0x700);
  ExpectTargetHeldUntilTableWrite(
      [&] { return driver_->IoctlCopyBlock(OriginalOf(9), target); });
}

TEST_F(RelocationRollbackTest,
       RepairOfResidentBlockAbortedAtTableWritePointsBackAtSource) {
  const auto setup = [&] {
    Stamp(OriginalOf(7), 0x700);
    ASSERT_TRUE(
        driver_->IoctlCopyBlock(OriginalOf(7), driver_->ReservedSlotSector(0))
            .ok());
    driver_->Drain();
    // The caller stages the good payload in the spare before the repair.
    Stamp(driver_->SpareSlotSector(0), 0x700);
  };
  BuildWithTableFaultAfter(setup);
  const SectorNo original = OriginalOf(7);
  const SectorNo source = driver_->ReservedSlotSector(0);
  const SectorNo target = driver_->SpareSlotSector(0);

  ASSERT_TRUE(driver_->IoctlRepairBlock(original, target).ok());
  driver_->Drain();

  ExpectAbortedUncounted();
  EXPECT_EQ(driver_->block_table().Lookup(original),
            std::optional<SectorNo>(source));
  ExpectReadsPayload(7, 0x700);
  ExpectTargetHeldUntilTableWrite(
      [&] { return driver_->IoctlRepairBlock(OriginalOf(9), target); });
}

TEST_F(RelocationRollbackTest,
       RepairOfNewBlockAbortedAtTableWriteWithdrawsEntry) {
  const auto setup = [&] {
    Stamp(OriginalOf(7), 0x700);
    Stamp(driver_->SpareSlotSector(0), 0x700);
  };
  BuildWithTableFaultAfter(setup);
  const SectorNo original = OriginalOf(7);
  const SectorNo target = driver_->SpareSlotSector(0);

  ASSERT_TRUE(driver_->IoctlRepairBlock(original, target).ok());
  driver_->Drain();

  ExpectAbortedUncounted();
  EXPECT_FALSE(driver_->block_table().Lookup(original).has_value());
  ExpectReadsPayload(7, 0x700);
  ExpectTargetHeldUntilTableWrite(
      [&] { return driver_->IoctlRepairBlock(OriginalOf(9), target); });
}

}  // namespace
}  // namespace abr::driver

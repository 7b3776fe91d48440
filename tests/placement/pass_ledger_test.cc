// The pass ledger counts a pass's aborted move chains from the driver's
// own monotone counter, so both arrangers report an abort even when the
// driver's stats are read and cleared in mid-pass, as the day runners do
// before a continuous day closes.
//
// One block is ranked hot, so each pass issues exactly one copy-in chain.
// A transient media fault on the table area, armed once the machine has
// attached, fails that chain's table write one time more than the retry
// budget allows, so the chain aborts; then the fault heals.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "disk/drive_spec.h"
#include "driver/adaptive_driver.h"
#include "fault/crash_table_store.h"
#include "fault/fault_plan.h"
#include "fault/faulty_disk.h"
#include "placement/arranger.h"
#include "placement/continuous_arranger.h"
#include "placement/policy.h"

namespace abr::placement {
namespace {

using analyzer::BlockId;
using analyzer::HotBlock;

// Test drive: 100 cylinders x 4 tracks x 32 sectors, 8 KB blocks; the
// rearranged label hides 10 cylinders in the middle.
class PassLedgerTest : public ::testing::Test {
 protected:
  static constexpr std::int32_t kMaxRetries = 3;

  void SetUp() override {
    // A fault-free attach first, to learn the I/O index the fault arms at.
    Build(fault::FaultPlan{});
    const std::int64_t arm = disk_->io_index();
    fault::FaultPlan plan;
    plan.media.push_back(fault::MediaFault{
        driver_->label().reserved_first_sector(), /*count=*/1,
        /*persistent=*/false, /*fail_budget=*/kMaxRetries + 1,
        /*arm_after_io=*/arm});
    Build(std::move(plan));
    ASSERT_EQ(disk_->io_index(), arm);
  }

  void Build(fault::FaultPlan plan) {
    driver_.reset();
    store_ = fault::CrashTableStore{};
    disk_ = std::make_unique<fault::FaultyDisk>(disk::DriveSpec::TestDrive(),
                                                std::move(plan), /*seed=*/7);
    auto label = disk::DiskLabel::Rearranged(disk_->geometry(), 10);
    ASSERT_TRUE(label.ok());
    ASSERT_TRUE(label->PartitionEvenly(1).ok());
    driver::DriverConfig config;
    config.block_table_capacity = 32;
    config.max_io_retries = kMaxRetries;
    driver_ = std::make_unique<driver::AdaptiveDriver>(
        disk_.get(), std::move(*label), config, &store_);
    disk_->set_table_observer(&store_);
    ASSERT_TRUE(driver_->Attach().ok());
    disk_->SetTableArea(driver_->label().reserved_first_sector(),
                        driver_->table_area_sectors());
  }

  const std::vector<HotBlock> ranked_ = {HotBlock{BlockId{0, 3}, 1 << 20}};
  const OrganPipePolicy policy_;
  fault::CrashTableStore store_;
  std::unique_ptr<fault::FaultyDisk> disk_;
  std::unique_ptr<driver::AdaptiveDriver> driver_;
};

TEST_F(PassLedgerTest, BatchPassReportsItsAbortedChain) {
  const BlockArranger arranger(&policy_);
  StatusOr<ArrangeResult> result = arranger.Rearrange(*driver_, ranked_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->aborted, 1);
  EXPECT_EQ(driver_->aborted_chain_count(), 1);
}

TEST_F(PassLedgerTest, ContinuousDayReportsItsAbortedChainAfterStatsClear) {
  ContinuousArranger arranger(&policy_);
  ASSERT_TRUE(arranger.OpenPlan(*driver_, ranked_).ok());
  arranger.OnIdle(driver_->now() + kMinute);
  driver_->Drain();
  ASSERT_EQ(driver_->aborted_chain_count(), 1);
  // The day runner reads and clears the stats before the day closes.
  driver_->IoctlReadStats(/*clear=*/true);
  EXPECT_EQ(arranger.CloseDay().aborted, 1);
}

}  // namespace
}  // namespace abr::placement

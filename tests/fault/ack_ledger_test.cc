#include "fault/ack_ledger.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "disk/disk.h"
#include "driver/block_table.h"

namespace abr::fault {
namespace {

// One disk stamped at version 0 and an empty block table: every block is
// settled at its original location.
class AckLedgerTest : public ::testing::Test {
 protected:
  AckLedgerTest() : ledger_(HarnessLabel(), 1), disk_(HarnessDrive()) {
    ledger_.StampInitial(disk_);
  }

  SectorNo At(std::size_t i) const { return ledger_.MappedSector(i, table_); }

  /// Writes and acknowledges the next version of eligible block i.
  void WriteAndAck(std::size_t i) {
    ledger_.BeginWrite(i, /*owed=*/1);
    ledger_.Landed(disk_, At(i), ledger_.block(i), /*member=*/0, /*live=*/1);
  }

  AckLedger ledger_;
  disk::Disk disk_;
  driver::BlockTable table_{16};
};

TEST_F(AckLedgerTest, AcknowledgedWritesReadBackClean) {
  ASSERT_GT(ledger_.size(), 2u);
  WriteAndAck(0);
  WriteAndAck(0);
  EXPECT_EQ(ledger_.writes_acked(), 2);
  EXPECT_TRUE(ledger_.CheckRead(disk_, At(0), ledger_.block(0)));
  EXPECT_TRUE(ledger_.CheckRead(disk_, At(1), ledger_.block(1)));
  EXPECT_EQ(ledger_.mismatches(), 0);
  EXPECT_TRUE(ledger_.first_error().empty());
}

TEST_F(AckLedgerTest, ReadOfAnOlderVersionIsOneMismatch) {
  WriteAndAck(0);
  WriteAndAck(0);
  AckLedger::Stamp(disk_, At(0), ledger_.block_sectors(), ledger_.block(0),
                   1);
  EXPECT_TRUE(ledger_.CheckRead(disk_, At(0), ledger_.block(0)));
  EXPECT_EQ(ledger_.mismatches(), 1);
  EXPECT_FALSE(ledger_.first_error().empty());
}

TEST_F(AckLedgerTest, AnotherBlocksPayloadIsOneMismatch) {
  AckLedger::Stamp(disk_, At(0), ledger_.block_sectors(), ledger_.block(1),
                   0);
  EXPECT_TRUE(ledger_.CheckRead(disk_, At(0), ledger_.block(0)));
  EXPECT_EQ(ledger_.mismatches(), 1);
  EXPECT_FALSE(ledger_.first_error().empty());
}

TEST_F(AckLedgerTest, TornPrefixOfANewVersionIsOneMismatch) {
  WriteAndAck(0);
  // Version 2 fails after landing half its sectors: version 1 stays the
  // acknowledged contents.
  ledger_.BeginWrite(0, /*owed=*/1);
  ledger_.Fail(ledger_.block(0));
  AckLedger::Stamp(disk_, At(0), ledger_.block_sectors() / 2,
                   ledger_.block(0), 2);
  EXPECT_TRUE(ledger_.CheckRead(disk_, At(0), ledger_.block(0)));
  EXPECT_EQ(ledger_.mismatches(), 1);
  EXPECT_FALSE(ledger_.first_error().empty());
}

TEST_F(AckLedgerTest, UnsettledBlocksAreNotChecked) {
  // A write in flight: either version may be read.
  ledger_.BeginWrite(0, /*owed=*/1);
  EXPECT_FALSE(ledger_.CheckRead(disk_, At(0), ledger_.block(0)));
  // A crash makes it indeterminate until the next acknowledged write.
  EXPECT_EQ(ledger_.AbandonPending(), 1);
  AckLedger::Stamp(disk_, At(0), 3, ledger_.block(0), 1);
  EXPECT_FALSE(ledger_.CheckRead(disk_, At(0), ledger_.block(0)));
  ledger_.VerifyAndFingerprint({{&disk_, &table_}});
  EXPECT_EQ(ledger_.mismatches(), 0);
  WriteAndAck(0);
  EXPECT_TRUE(ledger_.CheckRead(disk_, At(0), ledger_.block(0)));
  EXPECT_EQ(ledger_.mismatches(), 0);
}

TEST_F(AckLedgerTest, WriteAckedOnceNoLiveMemberOwesIt) {
  ledger_.BeginWrite(0, /*owed=*/0b11);
  ledger_.Landed(disk_, At(0), ledger_.block(0), /*member=*/0,
                 /*live=*/0b11);
  EXPECT_TRUE(ledger_.in_flight(ledger_.block(0)));
  EXPECT_EQ(ledger_.writes_acked(), 0);
  // Member 1 dies: its unfinished copy no longer holds the ack back.
  ledger_.AckSettled(/*live=*/0b01);
  EXPECT_FALSE(ledger_.in_flight(ledger_.block(0)));
  EXPECT_EQ(ledger_.writes_acked(), 1);
  EXPECT_TRUE(ledger_.CheckRead(disk_, At(0), ledger_.block(0)));
  EXPECT_EQ(ledger_.mismatches(), 0);
}

TEST_F(AckLedgerTest, WriteInFlightAtTheFinalWalkIsAMismatch) {
  ledger_.BeginWrite(0, /*owed=*/1);
  ledger_.VerifyAndFingerprint({{&disk_, &table_}});
  EXPECT_EQ(ledger_.mismatches(), 1);
  EXPECT_FALSE(ledger_.first_error().empty());
}

TEST_F(AckLedgerTest, FinalWalkReadsWhereTheTableMapsABlock) {
  const SectorNo original = At(0);
  const SectorNo slot = HarnessLabel().reserved_first_sector() + 64;
  ASSERT_TRUE(table_.Insert(original, slot).ok());
  ASSERT_EQ(At(0), slot);
  // The block lives in its slot now; whatever its original location holds
  // is not its contents any more.
  AckLedger::Stamp(disk_, slot, ledger_.block_sectors(), ledger_.block(0),
                   0);
  AckLedger::Stamp(disk_, original, ledger_.block_sectors(),
                   ledger_.block(1), 0);
  ledger_.VerifyAndFingerprint({{&disk_, &table_}});
  EXPECT_EQ(ledger_.mismatches(), 0);

  AckLedger::Stamp(disk_, slot, 1, ledger_.block(1), 0);
  ledger_.VerifyAndFingerprint({{&disk_, &table_}});
  EXPECT_EQ(ledger_.mismatches(), 1);
}

TEST_F(AckLedgerTest, FingerprintChangesWithOneSectorOfOneReplica) {
  disk::Disk mirror(HarnessDrive());
  ledger_.StampInitial(mirror);
  WriteAndAck(0);
  AckLedger::Stamp(mirror, At(0), ledger_.block_sectors(), ledger_.block(0),
                   1);

  const std::uint64_t clean =
      ledger_.VerifyAndFingerprint({{&disk_, &table_}, {&mirror, &table_}});
  EXPECT_EQ(ledger_.mismatches(), 0);
  EXPECT_EQ(clean, ledger_.VerifyAndFingerprint(
                       {{&disk_, &table_}, {&mirror, &table_}}));

  const SectorNo sector = At(ledger_.size() - 1) + 3;
  mirror.WritePayload(sector, mirror.ReadPayload(sector) ^ 1);
  EXPECT_NE(clean, ledger_.VerifyAndFingerprint(
                       {{&disk_, &table_}, {&mirror, &table_}}));
  EXPECT_EQ(ledger_.mismatches(), 1);
  EXPECT_FALSE(ledger_.first_error().empty());
}

}  // namespace
}  // namespace abr::fault

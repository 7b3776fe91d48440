#ifndef ABR_FAULT_ACK_LEDGER_H_
#define ABR_FAULT_ACK_LEDGER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "disk/disk.h"
#include "disk/disk_label.h"
#include "disk/drive_spec.h"
#include "driver/block_table.h"
#include "util/rng.h"
#include "util/types.h"
#include "util/zipf.h"

namespace abr::fault {

/// What both crash harnesses run: a small drive (so a run is fast) with
/// reserved cylinders, blocks of kHarnessBlockBytes, and this mean gap
/// between two requests.
disk::DriveSpec HarnessDrive();
inline constexpr std::int32_t kHarnessReservedCylinders = 8;
inline constexpr std::int32_t kHarnessBlockBytes = 8192;
inline constexpr Micros kHarnessMeanInterarrival = 1500;

/// HarnessDrive()'s rearranged label with one partition.
disk::DiskLabel HarnessLabel();

/// The acknowledged-write contract both crash harnesses check: the blocks
/// they address, the payload every version of a block leaves on the
/// platter, each block's last acknowledged version and the writes in
/// flight. The ledger draws the harnesses' seeded traffic and verifies
/// reads as they complete and every replica at the end of a run; each
/// failed check counts one mismatch. When a write is acknowledged, and how
/// many writes a block may have in flight, are the harness's rules.
class AckLedger {
 public:
  /// Start value of a fingerprint (see Fold).
  static constexpr std::uint64_t kFoldBasis = 0xCBF29CE484222325ULL;

  /// A write in flight, and the members (bit m for member m) that still
  /// owe its completion. A single disk is member 0.
  struct PendingWrite {
    std::uint64_t version = 0;
    std::uint64_t owed = 0;
  };

  /// One request of the seeded traffic; `write` is the coin, before the
  /// harness's write rule.
  struct Draw {
    Micros time = 0;
    std::size_t index = 0;  // into the eligible blocks
    bool write = false;
  };

  /// One copy of the data: its payloads and the table that maps them.
  struct Replica {
    const disk::Disk* disk = nullptr;
    const driver::BlockTable* table = nullptr;
  };

  /// Addresses the blocks of `label`'s first partition that do not
  /// straddle the hidden reserved region (the arranger skips those too),
  /// all at version 0. `seed` seeds the traffic.
  AckLedger(const disk::DiskLabel& label, std::uint64_t seed);

  /// Payload of sector `offset` of `block` at `version`.
  static std::uint64_t PayloadValue(BlockNo block, std::uint64_t version,
                                    std::int64_t offset);

  /// Writes `block`'s first `count` sectors at `version` from `first` on.
  static void Stamp(disk::Disk& disk, SectorNo first, std::int64_t count,
                    BlockNo block, std::uint64_t version);

  /// Folds `value` into an FNV-1a `hash`, byte by byte.
  static void Fold(std::uint64_t& hash, std::uint64_t value);

  std::size_t size() const { return eligible_.size(); }
  BlockNo block(std::size_t i) const { return eligible_[i]; }
  std::int32_t block_sectors() const { return block_sectors_; }
  std::optional<std::size_t> IndexOf(BlockNo block) const;

  /// Where `table` puts eligible block i: relocated, or in place.
  SectorNo MappedSector(std::size_t i, const driver::BlockTable& table) const;

  /// Stamps version 0 of every block in place.
  void StampInitial(disk::Disk& disk) const;

  /// Draws the request after `after`: an exponential gap of at least 1 us,
  /// then a Zipf-ranked block, then the write coin.
  Draw DrawRequest(Micros after);

  /// The traffic stream; the serial harness also draws torn prefixes here.
  Rng& rng() { return rng_; }

  /// Gives eligible block i its next version, owed by the `owed` members.
  void BeginWrite(std::size_t i, std::uint64_t owed);

  bool in_flight(BlockNo block) const { return pending_.contains(block); }
  const std::unordered_map<BlockNo, PendingWrite>& pending() const {
    return pending_;
  }

  /// A write of `block` completed on `member`, at `sector` of its `disk`:
  /// stamps the version there and acks it once no member in `live` owes
  /// it. Ignored when no write of `block` is in flight.
  void Landed(disk::Disk& disk, SectorNo sector, BlockNo block,
              std::int32_t member, std::uint64_t live);

  /// Acks every write that no member in `live` owes any more.
  void AckSettled(std::uint64_t live);

  /// Drops a failed write: the block keeps its previous version.
  void Fail(BlockNo block) { pending_.erase(block); }

  /// A crash: each block with a write in flight becomes indeterminate.
  /// Returns how many did.
  std::int64_t AbandonPending();

  /// True when block i has an acked version and no write in flight.
  bool Settled(std::size_t i) const;

  /// Checks a completed read of `block` from `sector` against its acked
  /// version. Returns false, without checking, unless the block is an
  /// eligible, Settled one.
  bool CheckRead(const disk::Disk& disk, SectorNo sector, BlockNo block);

  /// The final walk: for every block in order, folds (block, expected
  /// version) and then, replica by replica, the payload where the replica
  /// maps the block. Every payload folded is checked, and a write still in
  /// flight is a mismatch. Returns the fingerprint.
  std::uint64_t VerifyAndFingerprint(const std::vector<Replica>& replicas);

  /// Records `what` unless an error came first; Mismatch also counts one
  /// mismatch.
  void Mismatch(std::string what);
  void RecordError(std::string what);

  std::int64_t writes_acked() const { return writes_acked_; }
  std::int64_t mismatches() const { return mismatches_; }
  const std::string& first_error() const { return first_error_; }

 private:
  /// Expected version of a block whose write was in flight at a crash:
  /// either outcome is legal until its next acknowledged write.
  static constexpr std::uint64_t kIndeterminate = ~0ULL;

  void Ack(BlockNo block, std::uint64_t version);
  void CheckPayload(const disk::Disk& disk, SectorNo sector, std::size_t i);

  std::int32_t block_sectors_ = 0;
  std::vector<BlockNo> eligible_;
  std::vector<SectorNo> original_sector_;  // by eligible index
  std::unordered_map<BlockNo, std::size_t> eligible_index_;
  std::vector<std::uint64_t> expected_;      // version or kIndeterminate
  std::vector<std::uint64_t> next_version_;
  std::unordered_map<BlockNo, PendingWrite> pending_;

  Rng rng_;
  std::optional<ZipfSampler> zipf_;  // over the eligible blocks

  std::int64_t writes_acked_ = 0;
  std::int64_t mismatches_ = 0;
  std::string first_error_;
};

}  // namespace abr::fault

#endif  // ABR_FAULT_ACK_LEDGER_H_

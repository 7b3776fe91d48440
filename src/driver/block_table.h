#ifndef ABR_DRIVER_BLOCK_TABLE_H_
#define ABR_DRIVER_BLOCK_TABLE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "util/flat_map.h"
#include "util/status.h"
#include "util/types.h"

namespace abr::driver {

/// One block-table entry (Section 4.1.2): when a block is copied into the
/// reserved area its old and new physical addresses are recorded, plus a
/// dirty bit saying whether the reserved-area copy has been written since
/// the move and must be copied back before the entry may be dropped.
///
/// Addresses are the *start sectors* of the block at its original location
/// and at its reserved-area location. (File-system blocks need not be
/// aligned to any sector-number multiple: partitions start on cylinder
/// boundaries and cylinders rarely hold a whole number of blocks.)
struct BlockTableEntry {
  SectorNo original = 0;
  SectorNo relocated = 0;
  bool dirty = false;
};

/// In-memory block table with binary serialization for the on-disk copy.
///
/// A copy of the table lives at the beginning of the reserved area; it is
/// re-read by the driver's attach routine at start-up. The on-disk copy
/// always correctly lists the relocated blocks and their positions, but its
/// dirty bits may be stale; recovery therefore conservatively marks every
/// entry dirty (MarkAllDirty) so that no update to a repositioned block can
/// be lost to a crash.
class BlockTable {
 public:
  /// Creates an empty table that can hold up to `capacity` entries.
  explicit BlockTable(std::int32_t capacity);

  /// Maximum number of entries.
  std::int32_t capacity() const { return capacity_; }

  /// Current number of entries.
  std::int32_t size() const { return static_cast<std::int32_t>(entries_.size()); }

  /// Adds a mapping original -> relocated (clean). Fails if the table is
  /// full, if `original` is already mapped, or if `relocated` is already in
  /// use as a target.
  Status Insert(SectorNo original, SectorNo relocated);

  /// Returns the relocated address for `original`, or nullopt.
  std::optional<SectorNo> Lookup(SectorNo original) const;

  /// Returns the full entry for `original`, or nullopt.
  std::optional<BlockTableEntry> LookupEntry(SectorNo original) const;

  /// True iff some entry relocates to `relocated`.
  bool TargetInUse(SectorNo relocated) const;

  /// Sets the dirty bit of the entry for `original`. Returns NotFound if no
  /// such entry exists.
  Status MarkDirty(SectorNo original);

  /// Marks every entry dirty (conservative crash recovery).
  void MarkAllDirty();

  /// Changes the relocated address of the entry for `original`, preserving
  /// its dirty bit (an intra-region shuffle: the payload moves between
  /// slots, the origin does not change). Returns NotFound if no entry
  /// exists and AlreadyExists if `new_relocated` is already a target.
  Status UpdateRelocated(SectorNo original, SectorNo new_relocated);

  /// Removes the entry for `original`. Returns NotFound if absent.
  Status Remove(SectorNo original);

  /// Removes all entries.
  void Clear();

  /// All entries in insertion order.
  const std::vector<BlockTableEntry>& entries() const { return entries_; }

  // --- Persistence ------------------------------------------------------

  /// Serializes the table (header + checksum + entries) to bytes, the image
  /// written to the start of the reserved area.
  std::vector<std::uint8_t> Serialize() const;

  /// Serializes into a caller-owned buffer, reusing its capacity.
  void SerializeInto(std::vector<std::uint8_t>& out) const;

  /// Serializes an entry list (a store's snapshot of `entries()`) into
  /// `out`, reusing its capacity: the one byte format behind Serialize()
  /// and SerializeInto().
  static void SerializeEntries(const std::vector<BlockTableEntry>& entries,
                               std::vector<std::uint8_t>& out);

  /// Reconstructs a table from a serialized image. Fails with Corruption on
  /// bad magic or checksum. The result has the given capacity (which must
  /// hold all stored entries).
  static StatusOr<BlockTable> Deserialize(const std::vector<std::uint8_t>& in,
                                          std::int32_t capacity);

  /// Size in bytes of the serialized image of a table with `capacity`
  /// entries, independent of fill level (the on-disk area is fixed-size).
  static std::int64_t SerializedBytes(std::int32_t capacity);

  /// Number of disk sectors the on-disk table copy occupies.
  static std::int64_t SerializedSectors(std::int32_t capacity,
                                        std::int32_t bytes_per_sector);

 private:
  // Both address directions are indexed in ONE open-addressing flat table
  // (util/flat_map.h): a sector number is tagged with its direction in the
  // low bit, so originals and relocation targets never collide. The
  // per-request redirection lookup (the paper's strategy routine runs on
  // every I/O) therefore probes a contiguous array — no node allocation,
  // no pointer chasing.
  static std::uint64_t OriginalKey(SectorNo s) {
    return static_cast<std::uint64_t>(s) << 1;
  }
  static std::uint64_t RelocatedKey(SectorNo s) {
    return (static_cast<std::uint64_t>(s) << 1) | 1u;
  }

  std::int32_t capacity_;
  std::vector<BlockTableEntry> entries_;
  FlatMap64<std::uint32_t> index_;  // tagged sector -> index into entries_
};

}  // namespace abr::driver

#endif  // ABR_DRIVER_BLOCK_TABLE_H_

#ifndef ABR_DRIVER_TABLE_STORE_H_
#define ABR_DRIVER_TABLE_STORE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "driver/block_table.h"

namespace abr::driver {

/// Stable storage for the on-disk copy of the block table.
///
/// The simulator's disk data plane carries one 64-bit payload fingerprint
/// per sector (enough to verify block copies end-to-end); the block table's
/// byte-exact image is held by this store instead. The driver still charges
/// the I/O for every table write by issuing an internal write over the
/// table's sectors at the head of the reserved area, so timing and layout
/// are faithful; only the bytes live here. The store outlives driver
/// instances, which is how "reboot" and "crash" are modeled: a new driver
/// attaches and loads whatever image the previous one last saved.
///
/// The driver saves after every table mutation, but an image is read only
/// at attach. So Save() snapshots the table's entries, and a store builds
/// the serialized bytes (BlockTable::SerializeEntries) only where it
/// exposes them: each image holds exactly the bytes Serialize() gave at the
/// Save() that produced it, however the table changed since.
class BlockTableStore {
 public:
  virtual ~BlockTableStore() = default;

  /// Persists the table's current entries (atomically, whole-image).
  virtual void Save(const BlockTable& table) = 0;

  /// Returns the last saved image, or nullopt if none was ever saved.
  virtual std::optional<std::vector<std::uint8_t>> Load() const = 0;

  /// Previous complete image, for stores that keep a two-area (ping-pong)
  /// table layout: when a crash tears the primary image mid-Save, recovery
  /// falls back to the shadow copy. The default store keeps no shadow.
  virtual std::optional<std::vector<std::uint8_t>> LoadFallback() const {
    return std::nullopt;
  }
};

/// Trivial in-memory store: one snapshot of the last saved entries.
class InMemoryTableStore : public BlockTableStore {
 public:
  void Save(const BlockTable& table) override {
    entries_ = table.entries();
    corrupted_.reset();
  }

  std::optional<std::vector<std::uint8_t>> Load() const override {
    if (corrupted_.has_value()) return corrupted_;
    if (!entries_.has_value()) return std::nullopt;
    std::vector<std::uint8_t> image;
    BlockTable::SerializeEntries(*entries_, image);
    return image;
  }

  /// Corrupts one byte of the stored image (failure-injection tests); the
  /// damage lasts until the next Save(). Returns false when there was
  /// nothing to corrupt (no image, or offset past its end) so a test aiming
  /// at the wrong byte fails loudly instead of silently passing against an
  /// intact image.
  [[nodiscard]] bool CorruptByte(std::size_t offset) {
    if (!corrupted_.has_value()) {
      if (!entries_.has_value()) return false;
      BlockTable::SerializeEntries(*entries_, corrupted_.emplace());
    }
    if (offset >= corrupted_->size()) return false;
    (*corrupted_)[offset] ^= 0xFF;
    return true;
  }

 private:
  std::optional<std::vector<BlockTableEntry>> entries_;  // last Save()
  std::optional<std::vector<std::uint8_t>> corrupted_;   // until next Save()
};

}  // namespace abr::driver

#endif  // ABR_DRIVER_TABLE_STORE_H_

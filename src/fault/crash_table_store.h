#ifndef ABR_FAULT_CRASH_TABLE_STORE_H_
#define ABR_FAULT_CRASH_TABLE_STORE_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "driver/table_store.h"
#include "fault/faulty_disk.h"

namespace abr::fault {

/// Crash-accurate two-area (ping-pong) block-table store.
///
/// The driver's SaveTable() persists the table immediately, but the
/// matching table-area disk write completes later; between the two, the
/// platter still holds the previous image. This store models that window:
/// Save() only *stages* a snapshot of the table's entries, and it becomes
/// durable when FaultyDisk reports the table-area write complete
/// (TableWriteObserver). A crash mid-write leaves a torn prefix as the
/// newest on-disk image; the previous durable image survives intact in the
/// other area, which is what AdaptiveDriver::Attach(after_crash=true) falls
/// back to via LoadFallback().
///
/// Staged, committed and previous images are held as entry snapshots taken
/// at Save() and serialized only when exposed: by Load(), by LoadFallback(),
/// and when a tear cuts the staged image to its prefix. Every exposed image
/// holds the bytes BlockTable::Serialize() gave at that Save(), so a dirty
/// bit set after Save() never reaches the image it staged. A commit swaps
/// the snapshot buffers, so steady-state saves allocate nothing.
///
/// Safety: the durable image is only ever replaced by a *completed* table
/// write, and the driver releases requests held for a move only after the
/// move's table write completes — so no acknowledged write can depend on
/// table state newer than the fallback image.
class CrashTableStore : public driver::BlockTableStore,
                        public TableWriteObserver {
 public:
  // --- BlockTableStore --------------------------------------------------

  void Save(const driver::BlockTable& table) override {
    pending_.entries = table.entries();
    pending_.valid = true;
    ++saves_;
  }

  std::optional<std::vector<std::uint8_t>> Load() const override {
    // The newest image the platter holds: a torn write attempt if one was
    // interrupted, else the last durable image.
    return torn_.has_value() ? torn_ : Image(committed_);
  }

  std::optional<std::vector<std::uint8_t>> LoadFallback() const override {
    return Image(torn_.has_value() ? committed_ : previous_);
  }

  // --- TableWriteObserver ----------------------------------------------

  void OnTableWriteDurable() override {
    if (!pending_.valid) return;
    std::swap(previous_, committed_);
    std::swap(committed_, pending_);
    pending_.valid = false;
    torn_.reset();
    ++commits_;
  }

  void OnTableWriteTorn(double keep_fraction) override {
    if (!pending_.valid) return;
    pending_.valid = false;
    std::vector<std::uint8_t> image;
    driver::BlockTable::SerializeEntries(pending_.entries, image);
    if (keep_fraction < 0) keep_fraction = 0;
    if (keep_fraction > 1) keep_fraction = 1;
    image.resize(static_cast<std::size_t>(
        keep_fraction * static_cast<double>(image.size())));
    torn_ = std::move(image);
    ++tears_;
  }

  // --- Array resync -----------------------------------------------------

  /// Overwrites both durable areas with a surviving mirror peer's, as the
  /// array layer's reattach does after physically copying the table-area
  /// granules: the rebuilt member must boot from the survivor's committed
  /// image, not from whatever its own platter held when it died. Any torn
  /// or staged image of the dead boot is discarded — it lost the race the
  /// moment the member dropped out of the mirror.
  void MirrorDurableFrom(const CrashTableStore& peer) {
    committed_ = peer.committed_;
    previous_ = peer.previous_;
    pending_.valid = false;
    torn_.reset();
  }

  // --- Introspection ----------------------------------------------------

  std::int64_t saves() const { return saves_; }
  std::int64_t commits() const { return commits_; }
  std::int64_t tears() const { return tears_; }
  bool torn() const { return torn_.has_value(); }

 private:
  // The entries of one saved table; `entries` keeps its capacity while
  // the snapshot is invalid, so the next Save() reuses it.
  struct Snapshot {
    bool valid = false;
    std::vector<driver::BlockTableEntry> entries;
  };

  static std::optional<std::vector<std::uint8_t>> Image(const Snapshot& s) {
    if (!s.valid) return std::nullopt;
    std::vector<std::uint8_t> image;
    driver::BlockTable::SerializeEntries(s.entries, image);
    return image;
  }

  Snapshot pending_;    // staged, in flight
  Snapshot committed_;  // last durable
  Snapshot previous_;   // the other area
  std::optional<std::vector<std::uint8_t>> torn_;  // interrupted write

  std::int64_t saves_ = 0;
  std::int64_t commits_ = 0;
  std::int64_t tears_ = 0;
};

}  // namespace abr::fault

#endif  // ABR_FAULT_CRASH_TABLE_STORE_H_

#include "driver/block_table.h"

#include <cassert>
#include <cstring>

namespace abr::driver {
namespace {

constexpr std::uint64_t kTableMagic = 0xAB12B70C4BB71EULL;
constexpr std::int64_t kHeaderBytes = 8 /*magic*/ + 8 /*count*/ + 8 /*cksum*/;
constexpr std::int64_t kEntryBytes = 8 /*original*/ + 8 /*relocated+dirty*/;

void StoreU64(std::uint8_t* out, std::uint64_t v) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  std::memcpy(out, &v, 8);
#else
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
#endif
}

std::uint64_t LoadU64(const std::uint8_t* in) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  std::uint64_t v;
  std::memcpy(&v, in, 8);
  return v;
#else
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return v;
#endif
}

std::uint64_t GetU64(const std::vector<std::uint8_t>& in, std::size_t pos) {
  return LoadU64(in.data() + pos);
}

// FNV-1a folded 8 bytes at a time (byte-wise tail for torn images): one
// multiply per word instead of per byte, since the multiply chain is
// serial and dominates the cost of every image built or verified.
std::uint64_t Checksum(const std::uint8_t* data, std::size_t len) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    h ^= LoadU64(data + i);
    h *= 0x100000001B3ULL;
  }
  for (; i < len; ++i) {
    h ^= data[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

// The index holds two tagged keys per entry. Reserving 4x capacity keeps
// the table under ~25% load, where linear-probe chains are almost always
// length 1 — Lookup runs on every request, and nearly all of those probes
// miss (only the rearranged blocks are present), so short miss chains
// matter more than the extra 64KB of slots.
BlockTable::BlockTable(std::int32_t capacity)
    : capacity_(capacity), index_(static_cast<std::size_t>(capacity) * 4) {
  assert(capacity > 0);
  entries_.reserve(static_cast<std::size_t>(capacity));
}

Status BlockTable::Insert(SectorNo original, SectorNo relocated) {
  if (size() >= capacity_) {
    return Status::ResourceExhausted("block table full");
  }
  if (index_.Contains(OriginalKey(original))) {
    return Status::AlreadyExists("block already rearranged");
  }
  if (index_.Contains(RelocatedKey(relocated))) {
    return Status::AlreadyExists("reserved-area target already occupied");
  }
  const std::uint32_t idx = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(BlockTableEntry{original, relocated, /*dirty=*/false});
  index_.Insert(OriginalKey(original), idx);
  index_.Insert(RelocatedKey(relocated), idx);
  return Status::Ok();
}

std::optional<SectorNo> BlockTable::Lookup(SectorNo original) const {
  const std::uint32_t* idx = index_.Find(OriginalKey(original));
  if (idx == nullptr) return std::nullopt;
  return entries_[*idx].relocated;
}

std::optional<BlockTableEntry> BlockTable::LookupEntry(
    SectorNo original) const {
  const std::uint32_t* idx = index_.Find(OriginalKey(original));
  if (idx == nullptr) return std::nullopt;
  return entries_[*idx];
}

bool BlockTable::TargetInUse(SectorNo relocated) const {
  return index_.Contains(RelocatedKey(relocated));
}

Status BlockTable::MarkDirty(SectorNo original) {
  const std::uint32_t* idx = index_.Find(OriginalKey(original));
  if (idx == nullptr) {
    return Status::NotFound("no entry for block");
  }
  entries_[*idx].dirty = true;
  return Status::Ok();
}

void BlockTable::MarkAllDirty() {
  for (auto& e : entries_) e.dirty = true;
}

Status BlockTable::UpdateRelocated(SectorNo original,
                                   SectorNo new_relocated) {
  const std::uint32_t* found = index_.Find(OriginalKey(original));
  if (found == nullptr) {
    return Status::NotFound("no entry for block");
  }
  const std::uint32_t idx = *found;
  if (entries_[idx].relocated == new_relocated) return Status::Ok();
  if (index_.Contains(RelocatedKey(new_relocated))) {
    return Status::AlreadyExists("reserved-area target already occupied");
  }
  index_.Erase(RelocatedKey(entries_[idx].relocated));
  entries_[idx].relocated = new_relocated;
  index_.Insert(RelocatedKey(new_relocated), idx);
  return Status::Ok();
}

Status BlockTable::Remove(SectorNo original) {
  const std::uint32_t* found = index_.Find(OriginalKey(original));
  if (found == nullptr) {
    return Status::NotFound("no entry for block");
  }
  const std::uint32_t idx = *found;
  const std::uint32_t last = static_cast<std::uint32_t>(entries_.size()) - 1;
  index_.Erase(RelocatedKey(entries_[idx].relocated));
  index_.Erase(OriginalKey(original));
  if (idx != last) {
    entries_[idx] = entries_[last];
    *index_.Find(OriginalKey(entries_[idx].original)) = idx;
    *index_.Find(RelocatedKey(entries_[idx].relocated)) = idx;
  }
  entries_.pop_back();
  return Status::Ok();
}

void BlockTable::Clear() {
  entries_.clear();
  index_.Clear();
}

std::vector<std::uint8_t> BlockTable::Serialize() const {
  std::vector<std::uint8_t> out;
  SerializeInto(out);
  return out;
}

void BlockTable::SerializeInto(std::vector<std::uint8_t>& out) const {
  SerializeEntries(entries_, out);
}

void BlockTable::SerializeEntries(const std::vector<BlockTableEntry>& entries,
                                  std::vector<std::uint8_t>& out) {
  const std::size_t bytes =
      static_cast<std::size_t>(kHeaderBytes) +
      entries.size() * static_cast<std::size_t>(kEntryBytes);
  out.resize(bytes);
  std::uint8_t* p = out.data();
  StoreU64(p, kTableMagic);
  StoreU64(p + 8, static_cast<std::uint64_t>(entries.size()));
  std::uint8_t* body = p + kHeaderBytes;
  for (const BlockTableEntry& e : entries) {
    StoreU64(body, static_cast<std::uint64_t>(e.original));
    StoreU64(body + 8, (static_cast<std::uint64_t>(e.relocated) << 1) |
                           (e.dirty ? 1u : 0u));
    body += kEntryBytes;
  }
  StoreU64(p + 16,
           Checksum(p + kHeaderBytes,
                    bytes - static_cast<std::size_t>(kHeaderBytes)));
}

StatusOr<BlockTable> BlockTable::Deserialize(
    const std::vector<std::uint8_t>& in, std::int32_t capacity) {
  if (in.size() < static_cast<std::size_t>(kHeaderBytes)) {
    return Status::Corruption("block table image truncated");
  }
  if (GetU64(in, 0) != kTableMagic) {
    return Status::Corruption("bad block table magic");
  }
  // Validate the entry count BEFORE any size arithmetic: a hostile count
  // near 2^64 would overflow `count * kEntryBytes` and slip past the
  // truncation check below.
  const std::uint64_t count = GetU64(in, 8);
  if (count > static_cast<std::uint64_t>(capacity)) {
    return Status::InvalidArgument("stored table exceeds capacity");
  }
  if (in.size() < static_cast<std::size_t>(kHeaderBytes) +
                      count * static_cast<std::size_t>(kEntryBytes)) {
    return Status::Corruption("block table image shorter than entry count");
  }
  if (GetU64(in, 16) !=
      Checksum(in.data() + kHeaderBytes,
               in.size() - static_cast<std::size_t>(kHeaderBytes))) {
    return Status::Corruption("block table checksum mismatch");
  }
  BlockTable table(capacity);
  std::size_t pos = static_cast<std::size_t>(kHeaderBytes);
  for (std::uint64_t i = 0; i < count; ++i) {
    const SectorNo original = static_cast<SectorNo>(GetU64(in, pos));
    const std::uint64_t packed = GetU64(in, pos + 8);
    pos += static_cast<std::size_t>(kEntryBytes);
    ABR_RETURN_IF_ERROR(
        table.Insert(original, static_cast<SectorNo>(packed >> 1)));
    if ((packed & 1) != 0) {
      ABR_RETURN_IF_ERROR(table.MarkDirty(original));
    }
  }
  return table;
}

std::int64_t BlockTable::SerializedBytes(std::int32_t capacity) {
  return kHeaderBytes + static_cast<std::int64_t>(capacity) * kEntryBytes;
}

std::int64_t BlockTable::SerializedSectors(std::int32_t capacity,
                                           std::int32_t bytes_per_sector) {
  const std::int64_t bytes = SerializedBytes(capacity);
  return (bytes + bytes_per_sector - 1) / bytes_per_sector;
}

}  // namespace abr::driver

#include "fault/ack_ledger.h"

#include <cassert>

namespace abr::fault {

namespace {

constexpr double kWriteFraction = 0.5;
constexpr double kZipfTheta = 0.9;

/// 64-bit finalizer (murmur3's fmix64): spreads (block, version, offset)
/// over the full width.
std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

disk::DriveSpec HarnessDrive() { return disk::DriveSpec::TestDrive(60, 2, 32); }

disk::DiskLabel HarnessLabel() {
  StatusOr<disk::DiskLabel> label = disk::DiskLabel::Rearranged(
      HarnessDrive().geometry, kHarnessReservedCylinders);
  assert(label.ok());
  Status s = label->PartitionEvenly(1);
  assert(s.ok());
  (void)s;
  return std::move(*label);
}

AckLedger::AckLedger(const disk::DiskLabel& label, std::uint64_t seed)
    : rng_(seed) {
  block_sectors_ =
      kHarnessBlockBytes / label.physical_geometry().bytes_per_sector;
  const disk::Partition& part = label.partitions()[0];
  const BlockNo blocks = part.sector_count / block_sectors_;
  for (BlockNo b = 0; b < blocks; ++b) {
    const SectorNo vfirst = part.first_sector + b * block_sectors_;
    const SectorNo pfirst = label.VirtualToPhysical(vfirst);
    const SectorNo plast =
        label.VirtualToPhysical(vfirst + block_sectors_ - 1);
    if (plast - pfirst != block_sectors_ - 1) continue;  // straddles
    eligible_index_.emplace(b, eligible_.size());
    eligible_.push_back(b);
    original_sector_.push_back(pfirst);
  }
  expected_.assign(eligible_.size(), 0);
  next_version_.assign(eligible_.size(), 1);
  zipf_.emplace(static_cast<std::int64_t>(eligible_.size()), kZipfTheta);
}

std::uint64_t AckLedger::PayloadValue(BlockNo block, std::uint64_t version,
                                      std::int64_t offset) {
  return Mix((static_cast<std::uint64_t>(block) << 32) ^ (version << 8) ^
             static_cast<std::uint64_t>(offset) ^ 0xABCD1234ULL);
}

void AckLedger::Stamp(disk::Disk& disk, SectorNo first, std::int64_t count,
                      BlockNo block, std::uint64_t version) {
  for (std::int64_t k = 0; k < count; ++k) {
    disk.WritePayload(first + k, PayloadValue(block, version, k));
  }
}

void AckLedger::Fold(std::uint64_t& hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFF;
    hash *= 0x100000001B3ULL;
  }
}

std::optional<std::size_t> AckLedger::IndexOf(BlockNo block) const {
  auto it = eligible_index_.find(block);
  if (it == eligible_index_.end()) return std::nullopt;
  return it->second;
}

SectorNo AckLedger::MappedSector(std::size_t i,
                                 const driver::BlockTable& table) const {
  return table.Lookup(original_sector_[i]).value_or(original_sector_[i]);
}

void AckLedger::StampInitial(disk::Disk& disk) const {
  for (std::size_t i = 0; i < eligible_.size(); ++i) {
    Stamp(disk, original_sector_[i], block_sectors_, eligible_[i], 0);
  }
}

AckLedger::Draw AckLedger::DrawRequest(Micros after) {
  Draw d;
  d.time = after + 1 +
           static_cast<Micros>(rng_.NextExponential(
               static_cast<double>(kHarnessMeanInterarrival)));
  d.index = static_cast<std::size_t>(zipf_->Sample(rng_));
  d.write = rng_.NextBernoulli(kWriteFraction);
  return d;
}

void AckLedger::BeginWrite(std::size_t i, std::uint64_t owed) {
  pending_[eligible_[i]] = PendingWrite{next_version_[i]++, owed};
}

void AckLedger::Landed(disk::Disk& disk, SectorNo sector, BlockNo block,
                       std::int32_t member, std::uint64_t live) {
  auto it = pending_.find(block);
  if (it == pending_.end()) return;
  // The data is on this member's platter now: stamp it where the request
  // actually landed.
  Stamp(disk, sector, block_sectors_, block, it->second.version);
  it->second.owed &= ~(1ULL << member);
  if ((it->second.owed & live) == 0) {
    Ack(block, it->second.version);
    pending_.erase(it);
  }
}

void AckLedger::AckSettled(std::uint64_t live) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if ((it->second.owed & live) == 0) {
      Ack(it->first, it->second.version);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void AckLedger::Ack(BlockNo block, std::uint64_t version) {
  // From here on this version must survive any crash.
  expected_[eligible_index_.at(block)] = version;
  ++writes_acked_;
}

std::int64_t AckLedger::AbandonPending() {
  for (const auto& [block, w] : pending_) {
    expected_[eligible_index_.at(block)] = kIndeterminate;
  }
  const std::int64_t n = static_cast<std::int64_t>(pending_.size());
  pending_.clear();
  return n;
}

bool AckLedger::Settled(std::size_t i) const {
  return expected_[i] != kIndeterminate && !pending_.contains(eligible_[i]);
}

bool AckLedger::CheckRead(const disk::Disk& disk, SectorNo sector,
                          BlockNo block) {
  const std::optional<std::size_t> i = IndexOf(block);
  if (!i.has_value() || !Settled(*i)) return false;
  CheckPayload(disk, sector, *i);
  return true;
}

void AckLedger::CheckPayload(const disk::Disk& disk, SectorNo sector,
                             std::size_t i) {
  for (std::int64_t k = 0; k < block_sectors_; ++k) {
    if (disk.ReadPayload(sector + k) !=
        PayloadValue(eligible_[i], expected_[i], k)) {
      Mismatch("block " + std::to_string(eligible_[i]) + ": acked version " +
               std::to_string(expected_[i]) + " missing at sector " +
               std::to_string(sector) + " (+" + std::to_string(k) + ")");
      return;
    }
  }
}

std::uint64_t AckLedger::VerifyAndFingerprint(
    const std::vector<Replica>& replicas) {
  std::uint64_t hash = kFoldBasis;
  for (std::size_t i = 0; i < eligible_.size(); ++i) {
    if (pending_.contains(eligible_[i])) {
      Mismatch("block " + std::to_string(eligible_[i]) +
               ": write still unresolved at end of run");
      continue;
    }
    Fold(hash, static_cast<std::uint64_t>(eligible_[i]));
    Fold(hash, expected_[i]);
    if (expected_[i] == kIndeterminate) continue;
    for (const Replica& r : replicas) {
      const SectorNo at = MappedSector(i, *r.table);
      for (std::int64_t k = 0; k < block_sectors_; ++k) {
        Fold(hash, r.disk->ReadPayload(at + k));
      }
      CheckPayload(*r.disk, at, i);
    }
  }
  return hash;
}

void AckLedger::Mismatch(std::string what) {
  ++mismatches_;
  RecordError(std::move(what));
}

void AckLedger::RecordError(std::string what) {
  if (first_error_.empty()) first_error_ = std::move(what);
}

}  // namespace abr::fault

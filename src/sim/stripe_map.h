#ifndef ABR_SIM_STRIPE_MAP_H_
#define ABR_SIM_STRIPE_MAP_H_

#include <cassert>
#include <cstdint>

#include "util/types.h"

namespace abr::sim {

/// Chunked RAID0 striping of one virtual device's logical block space
/// across N members. StripeMap keeps runs of `chunk_blocks` consecutive
/// virtual blocks on one member before rotating to the next — the
/// classic md/raid0 chunk layout, so a sequential scan pays one member's
/// positioning cost per chunk instead of per block while a large hot
/// range still spreads over the whole fleet. chunk_blocks == 1 is the
/// sharded fleet's round-robin layout: block b on member b mod N as local
/// block b div N.
///
/// The map is pure arithmetic: routing depends only on
/// (members, chunk_blocks, total_blocks), never on execution order, which
/// is what lets the barrier engine promise byte-identical output for any
/// worker-thread count.
class StripeMap {
 public:
  StripeMap(std::int32_t members, std::int64_t chunk_blocks,
            std::int64_t total_blocks)
      : members_(members),
        chunk_(chunk_blocks),
        total_blocks_(total_blocks) {
    assert(members_ >= 1);
    assert(chunk_ >= 1);
    assert(total_blocks_ >= 0);
  }

  std::int32_t members() const { return members_; }
  std::int64_t chunk_blocks() const { return chunk_; }

  /// Logical blocks of the virtual device.
  std::int64_t total_blocks() const { return total_blocks_; }

  /// True iff `block` is a valid virtual-device block.
  bool Contains(BlockNo block) const {
    return block >= 0 && block < total_blocks_;
  }

  /// Member owning virtual block `block`.
  std::int32_t MemberOf(BlockNo block) const {
    assert(Contains(block));
    return static_cast<std::int32_t>((block / chunk_) % members_);
  }

  /// `block` as its owning member's local block number: full stripes
  /// before it contribute one chunk each, plus its offset in the chunk.
  BlockNo LocalOf(BlockNo block) const {
    assert(Contains(block));
    return (block / (chunk_ * members_)) * chunk_ + block % chunk_;
  }

  /// Inverse: the virtual block that member `member` serves as `local`.
  BlockNo GlobalOf(std::int32_t member, BlockNo local) const {
    assert(member >= 0 && member < members_);
    assert(local >= 0);
    return (local / chunk_) * chunk_ * members_ + member * chunk_ +
           local % chunk_;
  }

  /// Number of local blocks member `member` owns. The tail stripe may be
  /// partial: members before the split point own a full chunk of it, the
  /// member at the split point owns the remainder, later members none.
  std::int64_t LocalCount(std::int32_t member) const {
    assert(member >= 0 && member < members_);
    const std::int64_t stride = chunk_ * members_;
    const std::int64_t full = (total_blocks_ / stride) * chunk_;
    const std::int64_t rem = total_blocks_ % stride;
    std::int64_t extra = rem - member * chunk_;
    if (extra < 0) extra = 0;
    if (extra > chunk_) extra = chunk_;
    return full + extra;
  }

 private:
  std::int32_t members_;
  std::int64_t chunk_;
  std::int64_t total_blocks_;
};

}  // namespace abr::sim

#endif  // ABR_SIM_STRIPE_MAP_H_

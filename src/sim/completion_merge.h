#ifndef ABR_SIM_COMPLETION_MERGE_H_
#define ABR_SIM_COMPLETION_MERGE_H_

#include <cstdint>
#include <vector>

#include "sim/disk_system.h"
#include "util/types.h"

namespace abr::sim {

/// Receives the fleet-wide completion stream in global time order. The
/// shard index identifies the member drive that serviced the request; the
/// request's sector/block addresses are shard-local.
class ShardCompletionSink {
 public:
  virtual ~ShardCompletionSink() = default;
  virtual void OnShardIoComplete(std::int32_t shard,
                                 const CompletedIo& done) = 0;
};

/// Deterministic k-way merge of per-shard completion streams.
///
/// Each shard's worker appends its completions to its own lane (no other
/// thread touches that lane until the epoch barrier, so lanes need no
/// locking); at the barrier the coordinator drains the lanes in global
/// (completion_time, shard, lane position) order. Within one shard the
/// lane preserves the DiskSystem's delivery order, which is already
/// time-nondecreasing, so the merge only ever compares lane heads. Ties
/// across shards break toward the lower shard index, making the merged
/// stream a pure function of the per-shard streams — independent of
/// worker scheduling, which is what the byte-identity contract rests on.
///
/// The merge is a winner-tree tournament: advancing the output costs one
/// leaf-to-root replay, O(log S) comparisons per completion instead of
/// the O(S) scan a naive k-way merge pays. The lanes and the tree retain
/// their capacity across epochs; steady-state operation allocates
/// nothing.
class CompletionMerger {
 public:
  explicit CompletionMerger(std::int32_t shards)
      : lanes_(static_cast<std::size_t>(shards)) {}

  std::int32_t shards() const {
    return static_cast<std::int32_t>(lanes_.size());
  }

  /// Shard `shard`'s append-only lane. Worker-side.
  std::vector<CompletedIo>& lane(std::int32_t shard) {
    return lanes_[static_cast<std::size_t>(shard)];
  }

  /// Buffered completions across all lanes.
  std::size_t buffered() const {
    std::size_t n = 0;
    for (const auto& lane : lanes_) n += lane.size();
    return n;
  }

  /// Merges every buffered completion into `sink` in global time order
  /// and empties the lanes. Coordinator-side, outside any active step. A
  /// null sink just empties the lanes.
  void DrainInto(ShardCompletionSink* sink) {
    if (sink == nullptr) {
      for (auto& lane : lanes_) lane.clear();
      return;
    }
    const std::int32_t s = shards();
    if (s == 1) {
      // Degenerate tournament: the single lane is already the stream.
      for (const CompletedIo& done : lanes_[0]) {
        sink->OnShardIoComplete(0, done);
        ++merged_;
      }
      lanes_[0].clear();
      return;
    }
    // `tree_` holds, above `cap` leaf slots (the lowest power of two
    // >= S), the winning lane index of each internal match; popping the
    // winner replays only its leaf-to-root path.
    std::size_t cap = 1;
    while (cap < static_cast<std::size_t>(s)) cap <<= 1;
    heads_.assign(lanes_.size(), 0);
    tree_.assign(2 * cap, -1);
    for (std::size_t i = 0; i < cap; ++i) {
      tree_[cap + i] =
          i < static_cast<std::size_t>(s) ? static_cast<std::int32_t>(i) : -1;
    }
    for (std::size_t n = cap - 1; n >= 1; --n) {
      tree_[n] = Winner(tree_[2 * n], tree_[2 * n + 1]);
    }
    while (tree_[1] >= 0 &&
           heads_[static_cast<std::size_t>(tree_[1])] <
               lanes_[static_cast<std::size_t>(tree_[1])].size()) {
      const std::int32_t best = tree_[1];
      const std::size_t h = heads_[static_cast<std::size_t>(best)]++;
      sink->OnShardIoComplete(best, lanes_[static_cast<std::size_t>(best)][h]);
      ++merged_;
      // Replay the winner's path to the root.
      for (std::size_t n = (cap + static_cast<std::size_t>(best)) / 2; n >= 1;
           n /= 2) {
        tree_[n] = Winner(tree_[2 * n], tree_[2 * n + 1]);
      }
    }
    for (auto& lane : lanes_) lane.clear();
  }

  /// Completions delivered through the merge so far (lifetime total).
  std::int64_t merged_count() const { return merged_; }

  /// Capacity retained by shard `shard`'s lane; the capacity-retention
  /// test pins down that steady-state epochs stop allocating.
  std::size_t lane_capacity(std::int32_t shard) const {
    return lanes_[static_cast<std::size_t>(shard)].capacity();
  }

 private:
  /// In the tournament, lane `a`'s head beats lane `b`'s head. Exhausted
  /// lanes always lose; equal completion times go to the lower shard.
  bool HeadBeats(std::int32_t a, std::int32_t b) const {
    const auto& la = lanes_[static_cast<std::size_t>(a)];
    const auto& lb = lanes_[static_cast<std::size_t>(b)];
    const std::size_t ha = heads_[static_cast<std::size_t>(a)];
    const std::size_t hb = heads_[static_cast<std::size_t>(b)];
    if (ha >= la.size()) return false;
    if (hb >= lb.size()) return true;
    if (la[ha].completion_time != lb[hb].completion_time) {
      return la[ha].completion_time < lb[hb].completion_time;
    }
    return a < b;
  }

  std::int32_t Winner(std::int32_t a, std::int32_t b) const {
    if (a < 0) return b;
    if (b < 0) return a;
    return HeadBeats(a, b) ? a : b;
  }

  std::vector<std::vector<CompletedIo>> lanes_;
  std::vector<std::size_t> heads_;
  std::vector<std::int32_t> tree_;
  std::int64_t merged_ = 0;
};

}  // namespace abr::sim

#endif  // ABR_SIM_COMPLETION_MERGE_H_

#ifndef ABR_ORACLES_SPACE_SAVING_REF_H_
#define ABR_ORACLES_SPACE_SAVING_REF_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "analyzer/counter.h"

namespace abr::analyzer {

/// The pre-rewrite Space-Saving implementation: an std::unordered_map of
/// entries plus an std::multimap count index giving O(log n) erase+insert
/// per Observe. Kept verbatim as the behavioral oracle for the O(1)
/// stream-summary SpaceSavingCounter — differential tests assert both
/// produce identical TopK/ErrorOf on the same stream, and bench_micro
/// times the two side by side. Not for production use.
class SpaceSavingCounterRef : public ReferenceCounter {
 public:
  explicit SpaceSavingCounterRef(std::size_t capacity) : capacity_(capacity) {
    assert(capacity > 0);
  }

  void Observe(const BlockId& id) override {
    ++total_;
    const std::uint64_t key = PackBlockId(id);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      Reindex(key, it->second.count, it->second.count + 1);
      ++it->second.count;
      return;
    }
    if (entries_.size() < capacity_) {
      entries_.emplace(key, Entry{1, 0});
      by_count_.emplace(1, key);
      return;
    }
    ++replacements_;
    auto min_it = by_count_.begin();
    const std::int64_t min_count = min_it->first;
    const std::uint64_t victim = min_it->second;
    by_count_.erase(min_it);
    entries_.erase(victim);
    entries_.emplace(key, Entry{min_count + 1, min_count});
    by_count_.emplace(min_count + 1, key);
  }

  std::vector<HotBlock> TopK(std::size_t k) const override {
    std::vector<HotBlock> all;
    all.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) {
      all.push_back(HotBlock{UnpackBlockId(key), entry.count});
    }
    auto by_count_desc = [](const HotBlock& a, const HotBlock& b) {
      if (a.count != b.count) return a.count > b.count;
      if (a.id.device != b.id.device) return a.id.device < b.id.device;
      return a.id.block < b.id.block;
    };
    std::sort(all.begin(), all.end(), by_count_desc);
    if (k < all.size()) all.resize(k);
    return all;
  }

  std::size_t tracked() const override { return entries_.size(); }
  std::int64_t total() const override { return total_; }

  void Reset() override {
    entries_.clear();
    by_count_.clear();
    total_ = 0;
    replacements_ = 0;
  }

  std::size_t capacity() const { return capacity_; }

  std::int64_t ErrorOf(const BlockId& id) const {
    auto it = entries_.find(PackBlockId(id));
    return it == entries_.end() ? 0 : it->second.error;
  }

  std::int64_t replacements() const { return replacements_; }

 private:
  struct Entry {
    std::int64_t count = 0;
    std::int64_t error = 0;
  };

  void Reindex(std::uint64_t key, std::int64_t old_count,
               std::int64_t new_count) {
    auto [lo, hi] = by_count_.equal_range(old_count);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == key) {
        by_count_.erase(it);
        break;
      }
    }
    by_count_.emplace(new_count, key);
  }

  std::size_t capacity_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::multimap<std::int64_t, std::uint64_t> by_count_;
  std::int64_t total_ = 0;
  std::int64_t replacements_ = 0;
};

}  // namespace abr::analyzer

#endif  // ABR_ORACLES_SPACE_SAVING_REF_H_

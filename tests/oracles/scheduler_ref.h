#ifndef ABR_ORACLES_SCHEDULER_REF_H_
#define ABR_ORACLES_SCHEDULER_REF_H_

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "sched/scheduler.h"

namespace abr::sched {

/// The pre-rewrite cylinder-ordered schedulers: one std::multimap per
/// policy, O(log n) node-based operations. Kept verbatim as behavioral
/// oracles for the flat sorted-run versions — differential tests drive
/// both on identical interleavings and assert identical service order,
/// and bench_micro times queue cycles against them (the
/// space_saving_ref.h pattern). Not for production use.

/// Multimap SSTF oracle.
class SstfSchedulerRef : public Scheduler {
 public:
  explicit SstfSchedulerRef(std::int64_t sectors_per_cylinder)
      : sectors_per_cylinder_(sectors_per_cylinder) {
    assert(sectors_per_cylinder > 0);
  }

  void Enqueue(const IoRequest& request) override {
    by_cylinder_.emplace(
        static_cast<Cylinder>(request.sector / sectors_per_cylinder_),
        request);
  }

  std::optional<IoRequest> Dequeue(Cylinder head_cylinder) override {
    if (by_cylinder_.empty()) return std::nullopt;
    // Closest entry at or above the head vs. the closest below it.
    auto above = by_cylinder_.lower_bound(head_cylinder);
    auto chosen = by_cylinder_.end();
    if (above != by_cylinder_.end()) chosen = above;
    if (above != by_cylinder_.begin()) {
      auto below = std::prev(above);
      if (chosen == by_cylinder_.end() ||
          head_cylinder - below->first < chosen->first - head_cylinder) {
        chosen = below;
      }
    }
    IoRequest out = chosen->second;
    by_cylinder_.erase(chosen);
    return out;
  }

  std::size_t size() const override { return by_cylinder_.size(); }
  const char* name() const override { return "SSTF(ref)"; }

 private:
  std::int64_t sectors_per_cylinder_;
  std::multimap<Cylinder, IoRequest> by_cylinder_;
};

/// Multimap SCAN oracle.
class ScanSchedulerRef : public Scheduler {
 public:
  explicit ScanSchedulerRef(std::int64_t sectors_per_cylinder)
      : sectors_per_cylinder_(sectors_per_cylinder) {
    assert(sectors_per_cylinder > 0);
  }

  void Enqueue(const IoRequest& request) override {
    by_cylinder_.emplace(
        static_cast<Cylinder>(request.sector / sectors_per_cylinder_),
        request);
  }

  std::optional<IoRequest> Dequeue(Cylinder head_cylinder) override {
    if (by_cylinder_.empty()) return std::nullopt;
    auto take = [&](std::multimap<Cylinder, IoRequest>::iterator it) {
      IoRequest out = it->second;
      by_cylinder_.erase(it);
      return out;
    };
    if (sweeping_up_) {
      auto it = by_cylinder_.lower_bound(head_cylinder);
      if (it != by_cylinder_.end()) return take(it);
      sweeping_up_ = false;  // nothing ahead; reverse
    }
    // Sweeping down: closest request at or below the head.
    auto it = by_cylinder_.upper_bound(head_cylinder);
    if (it != by_cylinder_.begin()) return take(std::prev(it));
    // Nothing below either; reverse to an upward sweep.
    sweeping_up_ = true;
    return take(by_cylinder_.begin());
  }

  std::size_t size() const override { return by_cylinder_.size(); }
  const char* name() const override { return "SCAN(ref)"; }

 private:
  std::int64_t sectors_per_cylinder_;
  std::multimap<Cylinder, IoRequest> by_cylinder_;
  bool sweeping_up_ = true;
};

/// Multimap C-LOOK oracle.
class CLookSchedulerRef : public Scheduler {
 public:
  explicit CLookSchedulerRef(std::int64_t sectors_per_cylinder)
      : sectors_per_cylinder_(sectors_per_cylinder) {
    assert(sectors_per_cylinder > 0);
  }

  void Enqueue(const IoRequest& request) override {
    by_cylinder_.emplace(
        static_cast<Cylinder>(request.sector / sectors_per_cylinder_),
        request);
  }

  std::optional<IoRequest> Dequeue(Cylinder head_cylinder) override {
    if (by_cylinder_.empty()) return std::nullopt;
    auto it = by_cylinder_.lower_bound(head_cylinder);
    if (it == by_cylinder_.end()) it = by_cylinder_.begin();  // wrap
    IoRequest out = it->second;
    by_cylinder_.erase(it);
    return out;
  }

  std::size_t size() const override { return by_cylinder_.size(); }
  const char* name() const override { return "C-LOOK(ref)"; }

 private:
  std::int64_t sectors_per_cylinder_;
  std::multimap<Cylinder, IoRequest> by_cylinder_;
};

/// Oracle counterpart of MakeScheduler. FCFS was a flat deque before the
/// rewrite and is unchanged, so the production scheduler doubles as its
/// own reference there.
inline std::unique_ptr<Scheduler> MakeRefScheduler(
    SchedulerKind kind, std::int64_t sectors_per_cylinder) {
  switch (kind) {
    case SchedulerKind::kFcfs:
      return std::make_unique<FcfsScheduler>(sectors_per_cylinder);
    case SchedulerKind::kSstf:
      return std::make_unique<SstfSchedulerRef>(sectors_per_cylinder);
    case SchedulerKind::kScan:
      return std::make_unique<ScanSchedulerRef>(sectors_per_cylinder);
    case SchedulerKind::kCLook:
      return std::make_unique<CLookSchedulerRef>(sectors_per_cylinder);
  }
  return nullptr;
}

}  // namespace abr::sched

#endif  // ABR_ORACLES_SCHEDULER_REF_H_

#include "placement/plan_executor.h"

#include <optional>

#include "placement/arranger.h"

namespace abr::placement {

PlanExecutor::PlanExecutor(const DeltaPlan& plan, const ReservedRegion& region)
    : kept_(plan.kept) {
  ops_.reserve(plan.evicts.size() + plan.shuffles.size() + plan.admits.size());
  for (SectorNo original : plan.evicts) {
    ops_.push_back(Op{Op::kEvict, original, 0});
  }
  for (const DeltaMove& m : plan.shuffles) {
    ops_.push_back(Op{Op::kShuffle, m.original, region.SlotSector(m.to_slot)});
  }
  for (const DeltaMove& m : plan.admits) {
    ops_.push_back(Op{Op::kAdmit, m.original, region.SlotSector(m.to_slot)});
  }
}

bool PlanExecutor::Issue(driver::AdaptiveDriver& driver,
                         std::size_t max_active) {
  bool issued = false;
  deferred_.clear();
  for (std::size_t i = first_pending_; i < ops_.size(); ++i) {
    Op& op = ops_[i];
    if (op.done) continue;
    if (driver.active_chain_count() >= max_active) break;
    if (deferred_.contains(op.original)) continue;
    const Status s = op.kind == Op::kEvict
                         ? driver.IoctlEvictBlock(op.original)
                         : op.kind == Op::kShuffle
                               ? driver.IoctlMoveBlock(op.original, op.target)
                               : driver.IoctlCopyBlock(op.original, op.target);
    if (s.ok()) {
      op.done = true;
      issued = true;
    } else if (op.kind == Op::kEvict && s.code() == StatusCode::kNotFound) {
      op.done = true;  // already gone — nothing to do
    } else if (s.code() == StatusCode::kAlreadyExists ||
               s.code() == StatusCode::kBusy ||
               s.code() == StatusCode::kResourceExhausted) {
      // Target still held: retry on a later scan, and keep this block's
      // later ops behind it.
      deferred_.insert(op.original);
    } else {
      op.done = true;  // permanently rejected (e.g. aborted-chain debris)
      ++skipped_;
    }
    if (driver.halted()) break;
  }
  while (first_pending_ < ops_.size() && ops_[first_pending_].done) {
    ++first_pending_;
  }
  return issued;
}

void PlanExecutor::SkipRest() {
  for (std::size_t i = first_pending_; i < ops_.size(); ++i) {
    if (!ops_[i].done) {
      ops_[i].done = true;
      ++skipped_;
    }
  }
  first_pending_ = ops_.size();
}

std::int64_t PlanExecutor::pending() const {
  std::int64_t n = 0;
  for (std::size_t i = first_pending_; i < ops_.size(); ++i) {
    if (!ops_[i].done) ++n;
  }
  return n;
}

void PlanExecutor::Account(const driver::BlockTable& table,
                           ArrangeResult& result) const {
  result.kept = kept_;
  // Walk backwards so each shuffled block is judged at its last planned
  // hop: a spare-slot cycle break moves one block twice, and only the
  // second hop is its real target.
  std::unordered_set<SectorNo> judged;
  for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
    const Op& op = *it;
    const std::optional<SectorNo> at = table.Lookup(op.original);
    switch (op.kind) {
      case Op::kEvict:
        if (!at.has_value()) ++result.evicted;
        break;
      case Op::kShuffle:
        if (judged.insert(op.original).second && at == op.target) {
          ++result.shuffled;
        }
        break;
      case Op::kAdmit:
        if (at == op.target) ++result.admitted;
        break;
    }
  }
  result.skipped += skipped_;
  // Legacy aliases: an incremental pass "cleans" what it evicts and
  // "copies" what it admits.
  result.cleaned = result.evicted;
  result.copied = result.admitted;
}

}  // namespace abr::placement

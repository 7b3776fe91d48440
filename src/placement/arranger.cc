#include "placement/arranger.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <unordered_map>
#include <unordered_set>

namespace abr::placement {

BlockArranger::BlockArranger(const PlacementPolicy* policy,
                             ArrangerConfig config)
    : policy_(policy), config_(config) {
  assert(policy != nullptr);
}

StatusOr<SectorNo> BlockArranger::OriginalSector(
    const driver::AdaptiveDriver& driver, const analyzer::BlockId& id) {
  const auto& partitions = driver.label().partitions();
  if (id.device < 0 ||
      id.device >= static_cast<std::int32_t>(partitions.size())) {
    return Status::InvalidArgument("no such logical device");
  }
  const disk::Partition& part =
      partitions[static_cast<std::size_t>(id.device)];
  const std::int32_t bs = driver.block_sectors();
  if (id.block < 0 || (id.block + 1) * bs > part.sector_count) {
    return Status::OutOfRange("block outside partition");
  }
  const SectorNo vsector = part.first_sector + id.block * bs;
  const driver::AdaptiveDriver::PhysExtents extents =
      driver.MapVirtualExtent(vsector, bs);
  if (extents.size() != 1) {
    return Status::NotFound("block straddles the hidden-region boundary");
  }
  return extents[0].sector;
}

StatusOr<ArrangeResult> BlockArranger::Rearrange(
    driver::AdaptiveDriver& driver,
    const std::vector<analyzer::HotBlock>& ranked) const {
  if (!driver.label().rearranged()) {
    return Status::FailedPrecondition("disk is not set up for rearrangement");
  }
  ArrangeResult result;
  const std::int64_t ios_before = driver.internal_io_count();
  const Micros time_before = driver.internal_io_time();
  const std::int64_t aborted_before =
      driver.IoctlReadStats(/*clear=*/false).faults.aborted_chains;
  auto finish = [&]() {
    result.halted = driver.halted();
    result.aborted = static_cast<std::int32_t>(
        driver.IoctlReadStats(/*clear=*/false).faults.aborted_chains -
        aborted_before);
    result.internal_ios = driver.internal_io_count() - ios_before;
    result.io_time = driver.internal_io_time() - time_before;
    return result;
  };

  // Quiesce first: rearrangement runs in an idle window (the paper's
  // nightly pass). Queued requests were translated against the pre-pass
  // table, so letting them drain before any chain starts is what keeps a
  // clean/copy chain from racing a stale-translated write and stranding
  // its acknowledged data at the old location.
  driver.Drain();
  if (driver.halted()) return finish();

  // Filter the ranked list down to eligible blocks, preserving rank order.
  const ReservedRegion region = ReservedRegion::FromDriver(driver);
  std::vector<analyzer::HotBlock> eligible;
  eligible.reserve(ranked.size());
  for (const analyzer::HotBlock& hb : ranked) {
    if (eligible.size() >= static_cast<std::size_t>(region.slot_count())) {
      break;
    }
    StatusOr<SectorNo> original = OriginalSector(driver, hb.id);
    if (original.ok()) {
      eligible.push_back(hb);
    } else if (original.status().code() == StatusCode::kNotFound ||
               original.status().code() == StatusCode::kOutOfRange) {
      ++result.skipped;
    } else {
      return original.status();
    }
  }

  if (config_.incremental) {
    RearrangeIncremental(driver, eligible, region, result);
  } else {
    ABR_RETURN_IF_ERROR(RearrangeFull(driver, eligible, region, result));
  }
  return finish();
}

Status BlockArranger::RearrangeFull(
    driver::AdaptiveDriver& driver,
    const std::vector<analyzer::HotBlock>& eligible,
    const ReservedRegion& region, ArrangeResult& result) const {
  // Empty the reserved area: cooled blocks return to their original
  // locations (dirty ones are copied back by the driver). Cleaned counts
  // the clean-outs that actually landed — a crash or abort mid-clean
  // leaves entries behind, so the table-size delta is the truth.
  const std::int32_t entries_before = driver.block_table().size();
  ABR_RETURN_IF_ERROR(driver.IoctlClean());
  driver.Drain();
  result.cleaned = entries_before - driver.block_table().size();
  result.evicted = result.cleaned;
  if (driver.halted()) return Status::Ok();  // crash mid-clean: partial pass

  // Place and copy. Each DKIOCBCOPY costs three I/Os which the driver
  // sequences; other requests may interleave, so the arranger simply lets
  // the clock run after each ioctl.
  const PlacementPlan plan = policy_->Place(eligible, region);
  for (const SlotAssignment& a : plan) {
    if (driver.halted()) break;  // crash mid-pass: stop issuing moves
    StatusOr<SectorNo> original = OriginalSector(driver, a.id);
    assert(original.ok());
    // A copy can legitimately be rejected after faults: an aborted clean
    // chain leaves its entry (and slot) occupied. Skip and keep going —
    // the pass should place as much as it can.
    Status s = driver.IoctlCopyBlock(*original, region.SlotSector(a.slot));
    if (!s.ok()) {
      ++result.skipped;
      continue;
    }
    driver.Drain();
    ++result.copied;
  }
  result.admitted = result.copied;
  return Status::Ok();
}

void BlockArranger::RearrangeIncremental(
    driver::AdaptiveDriver& driver,
    const std::vector<analyzer::HotBlock>& eligible,
    const ReservedRegion& region, ArrangeResult& result) const {
  // Ask the policy for the desired layout, then diff it against what the
  // driver already holds.
  const PlacementPlan plan = policy_->Place(eligible, region);
  std::vector<SlotTarget> desired;
  desired.reserve(plan.size());
  for (const SlotAssignment& a : plan) {
    StatusOr<SectorNo> original = OriginalSector(driver, a.id);
    assert(original.ok());
    desired.push_back(SlotTarget{*original, a.slot});
  }
  const DeltaPlan delta = BuildDeltaPlan(driver.block_table(), desired,
                                         region);
  result.kept = delta.kept;

  // Flatten the plan into one issue queue: evicts free slots, shuffles
  // repack survivors, admits fill what remains.
  struct Op {
    enum Kind { kEvict, kShuffle, kAdmit } kind;
    SectorNo original;
    SectorNo target;  // physical slot start (unused for evicts)
    bool done = false;
  };
  std::vector<Op> ops;
  ops.reserve(delta.evicts.size() + delta.shuffles.size() +
              delta.admits.size());
  for (SectorNo original : delta.evicts) {
    ops.push_back(Op{Op::kEvict, original, 0, false});
  }
  for (const DeltaMove& m : delta.shuffles) {
    ops.push_back(
        Op{Op::kShuffle, m.original, region.SlotSector(m.to_slot), false});
  }
  for (const DeltaMove& m : delta.admits) {
    ops.push_back(
        Op{Op::kAdmit, m.original, region.SlotSector(m.to_slot), false});
  }

  // Pipelined executor: keep up to max_inflight chains going, advancing
  // the clock one completion at a time to top the window back up. The
  // driver's own validation is the dependency mechanism — an op whose
  // target slot is still held (by an entry or an in-flight chain) comes
  // back AlreadyExists/Busy/ResourceExhausted and is retried once
  // something completes. Ops are kept in order per block: a later op for
  // the same original never jumps an earlier one still waiting. The scan
  // starts at the first op not yet done, so a pass walks its finished
  // prefix once rather than once per completion.
  const std::size_t window =
      static_cast<std::size_t>(std::max<std::int32_t>(1, config_.max_inflight));
  std::unordered_set<SectorNo> deferred;
  std::size_t first_pending = 0;  // ops[0..first_pending) are done
  while (!driver.halted()) {
    while (first_pending < ops.size() && ops[first_pending].done) {
      ++first_pending;
    }
    if (first_pending == ops.size()) break;
    bool issued = false;
    deferred.clear();
    for (std::size_t i = first_pending; i < ops.size(); ++i) {
      Op& op = ops[i];
      if (op.done) continue;
      if (driver.active_chain_count() >= window) break;
      if (deferred.contains(op.original)) continue;
      Status s = op.kind == Op::kEvict
                     ? driver.IoctlEvictBlock(op.original)
                     : op.kind == Op::kShuffle
                           ? driver.IoctlMoveBlock(op.original, op.target)
                           : driver.IoctlCopyBlock(op.original, op.target);
      if (s.ok()) {
        op.done = true;
        issued = true;
      } else if (op.kind == Op::kEvict &&
                 s.code() == StatusCode::kNotFound) {
        op.done = true;  // already gone — nothing to do
      } else if (s.code() == StatusCode::kAlreadyExists ||
                 s.code() == StatusCode::kBusy ||
                 s.code() == StatusCode::kResourceExhausted) {
        deferred.insert(op.original);  // retry after a completion
      } else {
        op.done = true;  // permanently rejected (e.g. aborted-chain debris)
        ++result.skipped;
      }
      if (driver.halted()) break;
    }
    if (!issued && driver.active_chain_count() == 0) {
      // Nothing in flight and nothing issuable: the remaining ops are
      // wedged (slots pinned by aborted chains or quarantined forever).
      for (Op& op : ops) {
        if (!op.done) {
          op.done = true;
          ++result.skipped;
        }
      }
      break;
    }
    const std::optional<Micros> next =
        driver.disk_system().next_completion_time();
    if (next.has_value()) {
      driver.AdvanceTo(*next);
    }
  }
  driver.Drain();  // retire the tail of the window (no-op when halted)

  // Account from the post-pass table: only moves whose table mutation
  // actually landed count (aborted or halted chains do not).
  const driver::BlockTable& table = driver.block_table();
  for (SectorNo original : delta.evicts) {
    if (!table.Lookup(original).has_value()) ++result.evicted;
  }
  // A spare-slot cycle break moves one block twice; its last planned hop
  // is the real target.
  std::unordered_map<SectorNo, SectorNo> final_slot;
  final_slot.reserve(delta.shuffles.size());
  for (const DeltaMove& m : delta.shuffles) {
    final_slot[m.original] = region.SlotSector(m.to_slot);
  }
  for (const auto& [original, target] : final_slot) {
    const std::optional<SectorNo> relocated = table.Lookup(original);
    if (relocated.has_value() && *relocated == target) ++result.shuffled;
  }
  for (const DeltaMove& m : delta.admits) {
    const std::optional<SectorNo> relocated = table.Lookup(m.original);
    if (relocated.has_value() && *relocated == region.SlotSector(m.to_slot)) {
      ++result.admitted;
    }
  }
  // Legacy aliases: the incremental pass "cleans" what it evicts and
  // "copies" what it admits.
  result.cleaned = result.evicted;
  result.copied = result.admitted;
}

}  // namespace abr::placement

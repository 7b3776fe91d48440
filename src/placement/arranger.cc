#include "placement/arranger.h"

#include <cassert>
#include <optional>

#include "placement/plan_executor.h"

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
  const PassLedger ledger = PassLedger::Open(driver);

  // Quiesce first: rearrangement runs in an idle window (the paper's
  // nightly pass). Queued requests were translated against the pre-pass
  // table, so letting them drain before any chain starts is what keeps a
  // clean/copy chain from racing a stale-translated write and stranding
  // its acknowledged data at the old location.
  driver.Drain();
  if (driver.halted()) return ledger.Close(driver, result);

  const ReservedRegion region = ReservedRegion::FromDriver(driver);
  StatusOr<EligibleBlocks> eligible = Eligible(driver, ranked, region);
  if (!eligible.ok()) return eligible.status();
  result.skipped = eligible->ineligible;

  if (config_.incremental) {
    RearrangeIncremental(driver, eligible->blocks, region, result);
  } else {
    ABR_RETURN_IF_ERROR(
        RearrangeFull(driver, eligible->blocks, region, result));
  }
  return ledger.Close(driver, result);
}

StatusOr<EligibleBlocks> BlockArranger::Eligible(
    const driver::AdaptiveDriver& driver,
    const std::vector<analyzer::HotBlock>& ranked,
    const ReservedRegion& region) {
  EligibleBlocks eligible;
  eligible.blocks.reserve(ranked.size());
  eligible.originals.reserve(ranked.size());
  for (const analyzer::HotBlock& hb : ranked) {
    if (eligible.blocks.size() >=
        static_cast<std::size_t>(region.slot_count())) {
      break;
    }
    StatusOr<SectorNo> original = OriginalSector(driver, hb.id);
    if (original.ok()) {
      eligible.blocks.push_back(hb);
      eligible.originals.push_back(*original);
    } else if (original.status().code() == StatusCode::kNotFound ||
               original.status().code() == StatusCode::kOutOfRange) {
      ++eligible.ineligible;
    } else {
      return original.status();
    }
  }
  return eligible;
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
  PlanExecutor executor(BuildDeltaPlan(driver.block_table(), desired, region),
                        region);

  // Keep up to kMaxInflightChains chains going, advancing the clock one
  // completion at a time to top the window back up.
  while (!driver.halted() && !executor.finished()) {
    if (!executor.Issue(driver, kMaxInflightChains) &&
        driver.active_chain_count() == 0) {
      // Nothing in flight and nothing issuable: the remaining ops are
      // wedged (slots pinned by aborted chains or quarantined forever).
      executor.SkipRest();
      break;
    }
    const std::optional<Micros> next =
        driver.disk_system().next_completion_time();
    if (next.has_value()) {
      driver.AdvanceTo(*next);
    }
  }
  driver.Drain();  // retire the tail of the window (no-op when halted)
  executor.Account(driver.block_table(), result);
}

}  // namespace abr::placement

#include "placement/continuous_arranger.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

namespace abr::placement {

ContinuousArranger::ContinuousArranger(const PlacementPolicy* policy)
    : policy_(policy) {
  assert(policy != nullptr);
}

Status ContinuousArranger::OpenPlan(
    driver::AdaptiveDriver& driver,
    const std::vector<analyzer::HotBlock>& ranked) {
  if (plan_open_) {
    return Status::FailedPrecondition("a continuous plan is already open");
  }
  if (!driver.label().rearranged()) {
    return Status::FailedPrecondition("disk is not set up for rearrangement");
  }
  driver_ = &driver;
  rejected_ = 0;
  idle_windows_ = 0;
  preemptions_ = 0;
  ledger_ = PassLedger::Open(driver);
  const ReservedRegion region = ReservedRegion::FromDriver(driver);
  StatusOr<EligibleBlocks> eligible =
      BlockArranger::Eligible(driver, ranked, region);
  if (!eligible.ok()) return eligible.status();

  // Price every action in the policy's desired layout and build the
  // admitted layout `desired`: an in-table block prefers staying put (zero
  // I/O) unless the shuffle to its assigned slot clears the threshold; a
  // new block is admitted only when its reference count pays for the copy
  // chain. Cooled blocks keep their slot when nobody wants it — evicting a
  // block no one references buys nothing.
  const PlacementPlan plan = policy_->Place(eligible->blocks, region);
  assert(plan.size() == eligible->blocks.size());
  // Serial lists its assignments by block number and interleaved along
  // successor chains, so each block's slot is looked up by its id.
  std::unordered_map<std::uint64_t, std::int32_t> slot_of;
  slot_of.reserve(plan.size());
  for (const SlotAssignment& a : plan) {
    slot_of.emplace(analyzer::PackBlockId(a.id), a.slot);
  }
  const MoveUtilityModel model(&driver.disk().spec().seek_model,
                               region.OrganPipeCylinderOrder().front());
  const double thr = threshold_.value();
  const disk::Geometry& geometry = driver.label().physical_geometry();
  const driver::BlockTable& table = driver.block_table();
  const SectorNo data_first = driver.reserved_data_first_sector();
  const std::int32_t block_sectors = driver.block_sectors();

  std::vector<bool> taken(static_cast<std::size_t>(region.slot_count()),
                          false);
  auto first_free = [&taken]() {
    for (std::size_t s = 0; s < taken.size(); ++s) {
      if (!taken[s]) return static_cast<std::int32_t>(s);
    }
    assert(false && "desired layout larger than the region");
    return 0;
  };
  std::vector<SlotTarget> desired;
  desired.reserve(table.size() + plan.size());
  std::unordered_set<SectorNo> placed;
  placed.reserve(table.size() + plan.size());

  // Rank order: hotter blocks claim contended slots first.
  for (std::size_t i = 0; i < eligible->blocks.size(); ++i) {
    const SectorNo original = eligible->originals[i];
    const std::int64_t refs = eligible->blocks[i].count;
    const std::int32_t want =
        slot_of.at(analyzer::PackBlockId(eligible->blocks[i].id));
    const std::optional<SectorNo> relocated = table.Lookup(original);
    if (relocated.has_value()) {
      const std::int32_t cur_slot = static_cast<std::int32_t>(
          (*relocated - data_first) / block_sectors);
      if (cur_slot == want && !taken[static_cast<std::size_t>(want)]) {
        desired.push_back(SlotTarget{original, cur_slot});
      } else if (!taken[static_cast<std::size_t>(want)] &&
                 model.AdmitShuffle(refs, region.SlotCylinder(cur_slot),
                                    region.SlotCylinder(want), thr,
                                    kChainIos)) {
        desired.push_back(SlotTarget{original, want});
      } else if (!taken[static_cast<std::size_t>(cur_slot)]) {
        // Shuffle priced out (or slot contended): stay where it is.
        if (cur_slot != want) ++rejected_;
        desired.push_back(SlotTarget{original, cur_slot});
      } else {
        // Its slot was claimed by a hotter block: it must move somewhere.
        const std::int32_t slot =
            taken[static_cast<std::size_t>(want)] ? first_free() : want;
        desired.push_back(SlotTarget{original, slot});
      }
    } else {
      if (model.AdmitCopy(refs, geometry.CylinderOf(original), thr,
                          kChainIos)) {
        const std::int32_t slot =
            taken[static_cast<std::size_t>(want)] ? first_free() : want;
        desired.push_back(SlotTarget{original, slot});
      } else {
        ++rejected_;
        continue;
      }
    }
    taken[static_cast<std::size_t>(desired.back().slot)] = true;
    placed.insert(original);
  }

  // Cooled residents: keep any whose slot survived unclaimed (canonical
  // order — sorted by original — so equal mapping sets yield equal plans).
  std::vector<const driver::BlockTableEntry*> cooled;
  for (const driver::BlockTableEntry& e : table.entries()) {
    if (!placed.contains(e.original)) cooled.push_back(&e);
  }
  std::sort(cooled.begin(), cooled.end(),
            [](const driver::BlockTableEntry* a,
               const driver::BlockTableEntry* b) {
              return a->original < b->original;
            });
  for (const driver::BlockTableEntry* e : cooled) {
    const std::int32_t cur_slot = static_cast<std::int32_t>(
        (e->relocated - data_first) / block_sectors);
    if (!taken[static_cast<std::size_t>(cur_slot)]) {
      taken[static_cast<std::size_t>(cur_slot)] = true;
      desired.push_back(SlotTarget{e->original, cur_slot});
    }
  }

  chain_cost_ = model.MoveCost(kChainIos);
  executor_ = PlanExecutor(BuildDeltaPlan(table, desired, region), region);
  ineligible_ = eligible->ineligible;
  plan_open_ = true;
  return Status::Ok();
}

void ContinuousArranger::OnIdle(Micros horizon) {
  if (!plan_open_ || driver_ == nullptr || driver_->halted()) return;
  // Chains serialize on the one disk arm, so the window drains in about
  // active * chain_cost_; issue only chains the horizon has room for —
  // one that spilled past the next known arrival would stall it.
  const Micros budget = horizon - driver_->now();
  Micros fits = static_cast<Micros>(kMaxInflightChains);
  if (budget < 0) {
    fits = 0;
  } else if (chain_cost_ > 0) {
    fits = std::min(fits, budget / chain_cost_);
  }
  if (executor_.Issue(*driver_, static_cast<std::size_t>(fits)) &&
      !driver_->halted()) {
    ++idle_windows_;
  }
}

void ContinuousArranger::OnBusy() {
  if (plan_open_ && driver_ != nullptr && driver_->active_chain_count() > 0) {
    ++preemptions_;
  }
}

ArrangeResult ContinuousArranger::CloseDay() {
  ArrangeResult result;
  if (!plan_open_ || driver_ == nullptr) return result;
  driver::AdaptiveDriver& driver = *driver_;
  // Retire the in-flight tail (no-op on a quiesced or halted machine); the
  // plan itself is never force-finished — unexecuted ops are simply
  // dropped and replanned from fresh counts tomorrow.
  if (!driver.halted()) driver.Drain();

  result.skipped = ineligible_;
  result.deferred =
      static_cast<std::int32_t>(executor_.pending()) + rejected_;
  executor_.Account(driver.block_table(), result);

  threshold_.Update(executor_.size(), executor_.executed(), rejected_);
  plan_open_ = false;
  executor_ = PlanExecutor{};
  return ledger_.Close(driver, result);
}

}  // namespace abr::placement

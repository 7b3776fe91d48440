#ifndef ABR_PLACEMENT_CONTINUOUS_ARRANGER_H_
#define ABR_PLACEMENT_CONTINUOUS_ARRANGER_H_

#include <cstdint>
#include <vector>

#include "analyzer/counter.h"
#include "driver/adaptive_driver.h"
#include "placement/arranger.h"
#include "placement/move_utility.h"
#include "placement/plan_executor.h"
#include "placement/policy.h"
#include "util/status.h"

namespace abr::placement {

/// The always-on counterpart of BlockArranger: instead of one quiesced
/// batch pass between days, it keeps a resumable delta plan open across
/// the whole day and spends disk idle time executing it.
///
/// Life cycle per adaptation period (one measured day):
///   OpenPlan()  — diff the table against the policy's desired layout,
///                 price every action with MoveUtilityModel, and admit the
///                 moves that clear the current threshold into an op list.
///   OnIdle()    — driver callback on every idle window: issue up to
///                 kMaxInflightChains move chains from the op list, but
///                 only as many as the window's horizon has room for (a
///                 chain that would spill past the next known arrival
///                 stalls it, so it waits for a roomier window); an
///                 arriving user request simply ends the window (the plan
///                 suspends where it is, nothing is aborted) and the next
///                 idle window resumes it.
///   CloseDay()  — account what landed (same table-based truth as the
///                 batch pass), fold the outcome into the online threshold
///                 (finished early: lower the bar; could not finish: raise
///                 it), and discard the rest — the next day replans from
///                 fresh reference counts.
///
/// All state advances deterministically with the member's own clock, so a
/// sharded fleet of continuous arrangers folds byte-identically for any
/// worker thread count.
class ContinuousArranger final : public driver::IdleSink {
 public:
  /// The policy must outlive the arranger.
  explicit ContinuousArranger(const PlacementPolicy* policy);

  /// Builds and admits the day's plan from the current table and ranked
  /// counts. Does not quiesce and does not move anything yet. Fails if a
  /// plan is already open.
  Status OpenPlan(driver::AdaptiveDriver& driver,
                  const std::vector<analyzer::HotBlock>& ranked);

  /// Closes the day: retires any in-flight tail, accounts the landed moves
  /// against the table, updates the admission threshold, and returns the
  /// pass outcome. `deferred` counts moves the threshold priced out plus
  /// ops the day's idle time never reached.
  ArrangeResult CloseDay();

  // --- driver::IdleSink -------------------------------------------------
  void OnIdle(Micros horizon) override;
  void OnBusy() override;
  /// Idle windows matter only while a plan is open; between CloseDay and
  /// the next OpenPlan the driver may advance the clock batched.
  bool wants_idle() const override { return plan_open_; }

  // --- Introspection ----------------------------------------------------
  bool plan_open() const { return plan_open_; }
  double threshold() const { return threshold_.value(); }
  /// Idle windows that issued at least one chain this period.
  std::int64_t idle_windows() const { return idle_windows_; }
  /// User arrivals that suspended an in-flight plan this period.
  std::int64_t preemptions() const { return preemptions_; }

 private:
  const PlacementPolicy* policy_;
  UtilityThreshold threshold_;

  driver::AdaptiveDriver* driver_ = nullptr;
  bool plan_open_ = false;
  PlanExecutor executor_;
  std::int32_t rejected_ = 0;    // candidates the threshold priced out
  std::int32_t ineligible_ = 0;  // straddlers / bad addresses in the rank list
  std::int64_t idle_windows_ = 0;
  std::int64_t preemptions_ = 0;
  /// Estimated disk time one admitted chain consumes (from the utility
  /// model at OpenPlan); OnIdle fits chains into its horizon with it.
  Micros chain_cost_ = 0;
  PassLedger ledger_;  // opened by OpenPlan, closed by CloseDay
};

}  // namespace abr::placement

#endif  // ABR_PLACEMENT_CONTINUOUS_ARRANGER_H_

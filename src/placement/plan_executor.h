#ifndef ABR_PLACEMENT_PLAN_EXECUTOR_H_
#define ABR_PLACEMENT_PLAN_EXECUTOR_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "driver/adaptive_driver.h"
#include "placement/delta_plan.h"
#include "placement/reserved_region.h"
#include "util/types.h"

namespace abr::placement {

struct ArrangeResult;

/// Move chains one executor keeps in flight at once. Each chain is ~3
/// I/Os; batching them lets the disk scheduler sort movement I/O the way
/// it sorts user traffic.
inline constexpr std::size_t kMaxInflightChains = 4;

/// Runs one DeltaPlan through the driver's block-movement ioctls
/// (DKIOCBEVICT, DKIOCBMOVE, DKIOCBCOPY), for both the batch pass and the
/// continuous arranger. The plan is flattened into one op list: evicts
/// free slots, shuffles repack survivors, admits fill what remains.
///
/// The driver's own validation is the dependency mechanism: an op whose
/// target slot is still held (by an entry or an in-flight chain) comes
/// back AlreadyExists/Busy/ResourceExhausted and is retried on a later
/// scan. Ops stay in order per block: within one scan, a later op for the
/// same original never jumps an earlier one still waiting. Each scan
/// starts at the first op not yet done, so a plan walks its finished
/// prefix once rather than once per scan.
class PlanExecutor {
 public:
  /// An empty plan.
  PlanExecutor() = default;

  /// Flattens `plan`; each op keeps its target slot's start sector.
  PlanExecutor(const DeltaPlan& plan, const ReservedRegion& region);

  /// One scan: issues pending ops in order while fewer than `max_active`
  /// chains are in flight, and stops early if the driver halts. Returns
  /// whether it started a chain.
  bool Issue(driver::AdaptiveDriver& driver, std::size_t max_active);

  /// True once every op is done (issued, found moot, or skipped).
  bool finished() const { return first_pending_ == ops_.size(); }

  /// Skips every op not yet done (the plan is wedged: nothing is in
  /// flight and nothing could be issued).
  void SkipRest();

  /// Ops in the plan.
  std::int64_t size() const { return static_cast<std::int64_t>(ops_.size()); }

  /// Ops neither issued nor skipped yet.
  std::int64_t pending() const;

  /// Ops issued or found moot, not skipped.
  std::int64_t executed() const { return size() - pending() - skipped_; }

  /// Accounts from the post-execution `table`: only moves whose table
  /// mutation landed count (aborted or halted chains do not). Sets kept,
  /// evicted, shuffled, admitted and their cleaned/copied aliases, and adds
  /// the skipped ops to `skipped`.
  void Account(const driver::BlockTable& table, ArrangeResult& result) const;

 private:
  struct Op {
    enum Kind { kEvict, kShuffle, kAdmit } kind;
    SectorNo original;
    SectorNo target;  // physical slot start (unused for evicts)
    bool done = false;
  };

  std::vector<Op> ops_;
  std::size_t first_pending_ = 0;  // ops_[0..first_pending_) are done
  std::unordered_set<SectorNo> deferred_;  // per-scan retry set (reused)
  std::int32_t skipped_ = 0;  // ops permanently rejected, or wedged
  std::int32_t kept_ = 0;
};

}  // namespace abr::placement

#endif  // ABR_PLACEMENT_PLAN_EXECUTOR_H_

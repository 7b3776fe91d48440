#ifndef ABR_PLACEMENT_ARRANGER_H_
#define ABR_PLACEMENT_ARRANGER_H_

#include <cstdint>
#include <vector>

#include "analyzer/counter.h"
#include "driver/adaptive_driver.h"
#include "placement/delta_plan.h"
#include "placement/policy.h"
#include "placement/reserved_region.h"
#include "util/status.h"

namespace abr::placement {

/// Outcome of one rearrangement pass.
struct ArrangeResult {
  std::int32_t cleaned = 0;       // blocks removed from the reserved area
  std::int32_t copied = 0;        // blocks copied into the reserved area
  std::int32_t skipped = 0;       // hot blocks that were ineligible, plus
                                  // planned moves the pass could not land
  std::int32_t aborted = 0;       // move chains the driver aborted (faults)
  std::int32_t kept = 0;          // blocks already at their target (0 I/O)
  std::int32_t shuffled = 0;      // intra-region slot-to-slot moves
  std::int32_t evicted = 0;       // cooled blocks cleaned out
  std::int32_t admitted = 0;      // newly hot blocks copied in
  std::int32_t deferred = 0;      // moves declined by the continuous
                                  // arranger's utility threshold or left
                                  // unexecuted when its day closed (always
                                  // 0 for batch passes)
  bool halted = false;            // the machine died mid-pass (crash point)
  std::int64_t internal_ios = 0;  // driver I/O operations consumed
  Micros io_time = 0;             // disk time consumed by those I/Os

  /// Adds `other`'s outcome (passes over several members, or several
  /// replicas, fold in a fixed order).
  void MergeFrom(const ArrangeResult& other) {
    cleaned += other.cleaned;
    copied += other.copied;
    skipped += other.skipped;
    aborted += other.aborted;
    kept += other.kept;
    shuffled += other.shuffled;
    evicted += other.evicted;
    admitted += other.admitted;
    deferred += other.deferred;
    halted = halted || other.halted;
    internal_ios += other.internal_ios;
    io_time += other.io_time;
  }
};

/// What one pass cost the driver: Open() notes its internal-I/O, I/O-time
/// and aborted-chain counters, and Close() returns the pass's result with
/// their growth and the halted flag filled in. The counters only grow, so
/// a stats read-and-clear in mid-pass (the day runners clear before a
/// continuous day closes) loses nothing.
struct PassLedger {
  std::int64_t ios = 0;
  Micros time = 0;
  std::int64_t aborted = 0;

  static PassLedger Open(const driver::AdaptiveDriver& driver) {
    return {driver.internal_io_count(), driver.internal_io_time(),
            driver.aborted_chain_count()};
  }
  ArrangeResult Close(const driver::AdaptiveDriver& driver,
                      ArrangeResult result) const {
    result.halted = driver.halted();
    result.internal_ios = driver.internal_io_count() - ios;
    result.io_time = driver.internal_io_time() - time;
    result.aborted =
        static_cast<std::int32_t>(driver.aborted_chain_count() - aborted);
    return result;
  }
};

/// Arranger tuning.
struct ArrangerConfig {
  /// When set (the default) a pass diffs the current block table against
  /// the desired placement and only moves the difference (delta plan +
  /// pipelined move chains). When clear, the pass cleans the whole
  /// reserved area and re-copies every selected block serially — the
  /// original algorithm, kept as the oracle the differential tests and
  /// the array crash harness's twin proof compare against.
  bool incremental = true;
};

/// The ranked blocks a pass may place, in rank order and at most one per
/// reserved slot.
struct EligibleBlocks {
  std::vector<analyzer::HotBlock> blocks;
  std::vector<SectorNo> originals;  // original start sector of blocks[i]
  std::int32_t ineligible = 0;      // straddlers, blocks outside a partition
};

/// The user-level block arranger (Section 4.2): given the analyzer's ranked
/// hot-block list, selects the blocks to rearrange, asks the placement
/// policy where each goes, and drives the block-movement ioctls
/// (DKIOCBCOPY / DKIOCBMOVE / DKIOCBEVICT / DKIOCCLEAN).
///
/// Blocks whose original location straddles the hidden-region boundary map
/// to two discontiguous physical extents and are skipped (they cannot be
/// described by a single old/new address pair in the block table).
class BlockArranger {
 public:
  /// The policy must outlive the arranger.
  explicit BlockArranger(const PlacementPolicy* policy,
                         ArrangerConfig config = {});

  /// Performs one rearrangement pass and runs the driver's clock forward
  /// until all movement I/O completes (the experiments rearrange between
  /// measurement days, as the paper does — roughly once per day). The
  /// incremental and full-rebuild paths land bit-identical block-table
  /// mappings and translated payloads; they differ only in how much
  /// movement I/O they spend getting there.
  StatusOr<ArrangeResult> Rearrange(
      driver::AdaptiveDriver& driver,
      const std::vector<analyzer::HotBlock>& ranked) const;

  /// Translates a logical block to the original physical start sector the
  /// block table is keyed by. Returns NotFound for blocks that straddle
  /// the hidden-region boundary (ineligible) and errors for bad addresses.
  static StatusOr<SectorNo> OriginalSector(
      const driver::AdaptiveDriver& driver, const analyzer::BlockId& id);

  /// Filters `ranked` down to the blocks a pass may place, keeping rank
  /// order and stopping once every slot of `region` has a block. Blocks
  /// OriginalSector reports NotFound or OutOfRange for are counted as
  /// ineligible; any other error is returned.
  static StatusOr<EligibleBlocks> Eligible(
      const driver::AdaptiveDriver& driver,
      const std::vector<analyzer::HotBlock>& ranked,
      const ReservedRegion& region);

  const PlacementPolicy& policy() const { return *policy_; }
  const ArrangerConfig& config() const { return config_; }

 private:
  /// Original algorithm: clean everything, then re-copy serially.
  Status RearrangeFull(driver::AdaptiveDriver& driver,
                       const std::vector<analyzer::HotBlock>& eligible,
                       const ReservedRegion& region,
                       ArrangeResult& result) const;

  /// Delta plan run by a PlanExecutor, up to kMaxInflightChains chains in
  /// flight.
  void RearrangeIncremental(driver::AdaptiveDriver& driver,
                            const std::vector<analyzer::HotBlock>& eligible,
                            const ReservedRegion& region,
                            ArrangeResult& result) const;

  const PlacementPolicy* policy_;
  ArrangerConfig config_;
};

}  // namespace abr::placement

#endif  // ABR_PLACEMENT_ARRANGER_H_

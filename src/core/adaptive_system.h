#ifndef ABR_CORE_ADAPTIVE_SYSTEM_H_
#define ABR_CORE_ADAPTIVE_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "analyzer/analyzer.h"
#include "disk/disk.h"
#include "disk/disk_label.h"
#include "driver/adaptive_driver.h"
#include "placement/arranger.h"
#include "placement/continuous_arranger.h"
#include "placement/policy.h"
#include "util/status.h"

namespace abr::core {

/// Configuration of the complete adaptive block rearrangement system.
struct AdaptiveSystemConfig {
  driver::DriverConfig driver;

  /// Entries kept by the reference stream analyzer. > 0 selects the
  /// bounded-memory Space-Saving counter with that many entries (the
  /// paper's analyzer kept several thousand); <= 0 selects exact counting.
  std::int32_t analyzer_entries = 8192;

  /// Count aging across adaptation periods: 0 reproduces the paper's hard
  /// daily reset; values in (0, 1) retain exponentially decayed history
  /// (see analyzer::DecayingCounter).
  double count_decay = 0.0;

  /// Number of hot blocks to rearrange each period (bounded by the
  /// reserved-area slot count).
  std::int32_t rearrange_blocks = 1000;

  /// Placement policy in the reserved region.
  placement::PolicyKind policy = placement::PolicyKind::kOrganPipe;

  /// Arranger tuning: incremental delta-plan passes (the default) vs the
  /// full clean-everything-then-recopy rebuild.
  placement::ArrangerConfig arranger;

  /// When set, the system runs the continuous arranger instead of the
  /// daily batch pass: a utility-priced delta plan stays open across each
  /// measured day and executes during disk idle time (OpenContinuousPlan /
  /// CloseContinuousDay replace Rearrange in the day protocol). The batch
  /// pass remains available as the oracle.
  bool continuous = false;

  /// Interleaving factor of the file systems (for the interleaved policy).
  std::int32_t interleave_factor = 1;
};

/// Facade wiring the three cooperating components of the paper's system:
/// the modified device driver (kernel), and the reference stream analyzer
/// and block arranger (user level). A host embeds one AdaptiveSystem per
/// rearranged disk:
///
///   AdaptiveSystem sys(&disk, label, config, &store);
///   sys.Start();
///   ... submit requests via sys.driver(), call sys.PeriodicTick(now)
///       every couple of minutes ...
///   sys.Rearrange();   // once per adaptation period (e.g. daily)
class AdaptiveSystem {
 public:
  /// `disk` and `store` must outlive the system.
  AdaptiveSystem(disk::Disk* disk, disk::DiskLabel label,
                 const AdaptiveSystemConfig& config,
                 driver::BlockTableStore* store);

  /// Attaches the driver (loads the block table on rearranged disks).
  Status Start(bool after_crash = false);

  /// The modified device driver; submit requests through it.
  driver::AdaptiveDriver& driver() { return *driver_; }
  const driver::AdaptiveDriver& driver() const { return *driver_; }

  /// The reference stream analyzer.
  analyzer::ReferenceStreamAnalyzer& analyzer() { return *analyzer_; }

  /// Drains the driver's request-monitoring table into the analyzer.
  /// Call every monitoring period (~2 minutes of simulated time).
  void PeriodicTick(Micros now);

  /// Current ranked hot-block list (hottest first).
  std::vector<analyzer::HotBlock> HotList() const;

  /// Adapts to the traffic observed since the last Rearrange()/ResetCounts:
  /// cleans the reserved area, copies the current hot blocks in, and resets
  /// the reference counts for the next period.
  StatusOr<placement::ArrangeResult> Rearrange();

  /// Runs the arranger on a ranked list the caller supplies instead of the
  /// analyzer's (an array that ranks from its own exact counts). The
  /// analyzer is left as it is.
  StatusOr<placement::ArrangeResult> RearrangeFrom(
      const std::vector<analyzer::HotBlock>& ranked);

  /// Empties the reserved area (used for "rearrangement off" periods) and
  /// resets the reference counts.
  Status Clean();

  // --- Continuous mode (config().continuous) ----------------------------

  /// Opens the next day's continuous plan from the traffic observed since
  /// the last plan/pass, then resets the counts. The plan executes during
  /// disk idle time as the day runs.
  Status OpenContinuousPlan();

  /// Closes the open plan at day end and returns what it accomplished.
  placement::ArrangeResult CloseContinuousDay();

  /// True while a continuous plan is open.
  bool continuous_plan_open() const {
    return continuous_ != nullptr && continuous_->plan_open();
  }

  /// The continuous arranger, or null when config().continuous is clear.
  placement::ContinuousArranger* continuous_arranger() {
    return continuous_.get();
  }

  /// Resets reference counts without moving blocks.
  void ResetCounts() { analyzer_->Reset(); }

  const AdaptiveSystemConfig& config() const { return config_; }

  /// Changes how many hot blocks the next Rearrange() moves (the Figure 8
  /// experiment varies this day by day).
  void set_rearrange_blocks(std::int32_t n) { config_.rearrange_blocks = n; }

 private:
  AdaptiveSystemConfig config_;
  std::unique_ptr<driver::AdaptiveDriver> driver_;
  std::unique_ptr<analyzer::ReferenceStreamAnalyzer> analyzer_;
  std::unique_ptr<placement::PlacementPolicy> policy_;
  std::unique_ptr<placement::BlockArranger> arranger_;
  std::unique_ptr<placement::ContinuousArranger> continuous_;
};

}  // namespace abr::core

#endif  // ABR_CORE_ADAPTIVE_SYSTEM_H_

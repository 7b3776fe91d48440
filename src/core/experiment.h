#ifndef ABR_CORE_EXPERIMENT_H_
#define ABR_CORE_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "analyzer/exact_counter.h"
#include "core/adaptive_system.h"
#include "core/day_runner.h"
#include "core/metrics.h"
#include "disk/drive_spec.h"
#include "fs/file_server.h"
#include "util/status.h"
#include "workload/file_server_workload.h"

namespace abr::core {

/// Full configuration of one measurement setup: a drive, its reserved
/// region, the adaptive system, the OS layers, and the workload.
struct ExperimentConfig {
  disk::DriveSpec drive = disk::DriveSpec::ToshibaMK156F();

  /// Hidden cylinders in the middle of the disk (48 on the Toshiba — about
  /// 8 MB, 6% of capacity; 80 on the Fujitsu — about 50 MB, 5%).
  std::int32_t reserved_cylinders = 48;

  /// Hot blocks moved per rearrangement (1018 Toshiba / 3500 Fujitsu in
  /// the on/off experiments).
  std::int32_t rearrange_blocks = 1018;

  AdaptiveSystemConfig system;
  fs::FileServerConfig server;
  fs::FfsConfig ffs;
  workload::WorkloadProfile profile = workload::WorkloadProfile::SystemFs();

  /// Master seed; every stochastic component derives from it.
  std::uint64_t seed = 0xAB12;

  /// Canonical Toshiba + system-file-system setup.
  static ExperimentConfig ToshibaSystem();

  /// Canonical Fujitsu + system-file-system setup.
  static ExperimentConfig FujitsuSystem();

  /// Canonical Toshiba + users-file-system setup.
  static ExperimentConfig ToshibaUsers();

  /// Canonical Fujitsu + users-file-system setup.
  static ExperimentConfig FujitsuUsers();
};

/// Runs the paper's measurement protocol in simulated time: a sequence of
/// days of file-server traffic; at the end of each day the reference
/// counts collected during that day either drive a rearrangement for the
/// next day ("on") or the reserved area is emptied ("off").
class Experiment : public DayRunner {
 public:
  explicit Experiment(ExperimentConfig config);
  ~Experiment() override;

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Builds the whole stack and populates the file system. Must be called
  /// once before the first day.
  Status Setup();

  /// Runs one measured day (traffic + monitoring) and returns its metrics.
  /// Statistics are cleared at day start; reference counts accumulate for
  /// the end-of-day decision. The metrics carry the ArrangeResult of the
  /// pass that prepared the day (see DayMetrics::arrange).
  StatusOr<DayMetrics> RunMeasuredDay() override;

  /// Uses the day's counts to rearrange blocks for the next day, then
  /// resets the counts.
  Status RearrangeForNextDay() override;

  /// Result of the most recent RearrangeForNextDay()/CleanForNextDay()
  /// pass; also attached to the next RunMeasuredDay() metrics.
  const placement::ArrangeResult& last_arrange() const {
    return last_arrange_;
  }

  /// Continuous-mode "on" day: opens a utility-priced plan from the day's
  /// counts instead of running a batch pass; the plan executes during the
  /// next day's idle time and its outcome lands in that day's metrics.
  Status OpenContinuousPlanForNextDay() override;

  /// Empties the reserved area for an "off" day, then resets the counts.
  Status CleanForNextDay() override;

  bool continuous() const override { return config_.system.continuous; }

  /// Applies day-to-day workload drift; call once per day boundary.
  void AdvanceWorkloadDay() override { workload_->EndDay(); }

  /// Changes how many blocks the next rearrangement moves.
  void set_rearrange_blocks(std::int32_t n) override;

  // --- Accessors ----------------------------------------------------------

  AdaptiveSystem& system() { return *system_; }
  driver::AdaptiveDriver& driver() { return system_->driver(); }
  fs::FileServer& server() { return *server_; }
  workload::FileServerWorkload& workload() { return *workload_; }
  const disk::SeekModel& seek_model() const { return config_.drive.seek_model; }
  const ExperimentConfig& config() const { return config_; }
  std::int32_t day() const { return day_; }

  /// Exact per-block reference counts observed during the last measured
  /// day (all requests / reads only) — the data of Figures 5 and 7.
  const analyzer::ExactCounter& day_counts_all() const {
    return day_counts_all_;
  }
  const analyzer::ExactCounter& day_counts_reads() const {
    return day_counts_reads_;
  }

 private:
  /// Monitoring-period tick: drains the driver's request table into the
  /// analyzer and the figure counters.
  void Tick(Micros now);

  ExperimentConfig config_;
  std::unique_ptr<disk::Disk> disk_;
  std::unique_ptr<driver::InMemoryTableStore> store_;
  std::unique_ptr<AdaptiveSystem> system_;
  std::unique_ptr<fs::FileServer> server_;
  std::unique_ptr<workload::FileServerWorkload> workload_;
  analyzer::ExactCounter day_counts_all_;
  analyzer::ExactCounter day_counts_reads_;
  /// Reused across Tick() calls so the per-monitoring-period drain of the
  /// request table allocates nothing once warm.
  std::vector<driver::RequestRecord> tick_records_;
  std::vector<analyzer::BlockId> tick_ids_all_;
  std::vector<analyzer::BlockId> tick_ids_reads_;
  placement::ArrangeResult last_arrange_;
  std::int32_t day_ = 0;
};

}  // namespace abr::core

#endif  // ABR_CORE_EXPERIMENT_H_

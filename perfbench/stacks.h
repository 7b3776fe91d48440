#ifndef PERFBENCH_STACKS_H_
#define PERFBENCH_STACKS_H_

// The benchmark's stacks, composed from the library's public API so each
// layer call can be timed from outside: a serial stack (one drive behind
// an AdaptiveSystem, fed by the file server or by driver-level synthetic
// traffic) and an array stack (ArrayDevice fed by synthetic traffic).
// Both run the paper's day protocol themselves; perfbench.cc checks
// that the composition reproduces core::Experiment and
// core::ArrayDayRunner.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analyzer/exact_counter.h"
#include "array/array_device.h"
#include "core/array_day.h"
#include "core/experiment.h"
#include "core/metrics.h"
#include "fs/file_server.h"
#include "spans.h"
#include "util/status.h"
#include "workload/file_server_workload.h"
#include "workload/synthetic.h"

namespace perfbench {

using abr::Micros;
using abr::Status;
using abr::StatusOr;

/// Deterministic per-layer work counts over a run's measured days.
struct LayerCounts {
  std::int64_t submitted = 0;         // requests handed to the stack
  std::int64_t submitted_reads = 0;   // of which reads
  // Requests for a block straddling the hidden region, which the driver
  // splits in two (each half counts as a completion).
  std::int64_t split_reads = 0;
  std::int64_t split_writes = 0;
  // 1 when the file system holds such a block: its requests are not seen
  // by the benchmark, so completions may exceed submissions.
  std::int64_t split_unseen = 0;
  std::int64_t workload_records = 0;  // SyntheticBlockWorkload::Generate
  std::int64_t fs_ops = 0;            // FileServerWorkload::RunDay
  std::int64_t cache_hits = 0, cache_misses = 0;
  std::int64_t analyzer_records = 0;
  std::int64_t internal_ios = 0;  // driver movement/table/maintenance I/O
  std::int64_t lost = 0;          // ArrayDevice::lost_requests
  std::int64_t resync_granules = 0;
  std::int64_t resyncs_completed = 0;
  std::int64_t crashes = 0;

  void Add(const LayerCounts& o) {
    submitted += o.submitted;
    submitted_reads += o.submitted_reads;
    split_reads += o.split_reads;
    split_writes += o.split_writes;
    split_unseen += o.split_unseen;
    workload_records += o.workload_records;
    fs_ops += o.fs_ops;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    analyzer_records += o.analyzer_records;
    internal_ios += o.internal_ios;
    lost += o.lost;
    resync_granules += o.resync_granules;
    resyncs_completed += o.resyncs_completed;
    crashes += o.crashes;
  }
};

/// One stack driven through the alternating off/on protocol.
class Stack {
 public:
  virtual ~Stack() = default;

  /// Builds the stack (and populates the file system or starts the array).
  virtual Status Setup() = 0;
  /// The pass that prepares a measured day: a clean before an off day, an
  /// arrangement pass or an opened continuous plan before an on day.
  virtual Status PrepareDay(bool on) = 0;
  /// One day of traffic and monitoring; the warm-up day is the first call.
  virtual StatusOr<abr::core::DayMetrics> RunDay() = 0;
  /// Between-day maintenance (the array's member reattach).
  virtual Status AfterDay() { return Status::Ok(); }
  /// Adds the layer counters accumulated since the last call to `counts`.
  virtual void CollectCounts(LayerCounts& counts) = 0;
  /// The last day's exact per-block reference counts (all requests, then
  /// reads), as core::Experiment keeps them; empty for arrays.
  virtual std::vector<double> DayCounts() const { return {}; }
};

/// Result of one protocol run: warm-up day, then `days_per_side` off days
/// alternating with as many on days (off first, as the paper's Table 3).
struct ProtocolRun {
  std::vector<abr::core::DayMetrics> off_days;
  std::vector<abr::core::DayMetrics> on_days;
  double setup_s = 0;     // host seconds in Stack::Setup
  double measured_s = 0;  // host seconds from the first pass to the end
  LayerCounts counts;     // measured days only
};

StatusOr<ProtocolRun> RunProtocol(Stack& stack, std::int32_t days_per_side,
                                  Tracer& tracer);

// --- Serial stack ---------------------------------------------------------

struct SerialConfig {
  abr::core::ExperimentConfig experiment;
  /// Empty: the file server drives the day (core::Experiment's protocol).
  /// Otherwise driver-level synthetic traffic drives 30-minute days,
  /// generated and monitored two simulated minutes at a time. Each day a
  /// tenth of all blocks (picked by hashing with a per-day key) are
  /// re-homed to fresh locations, so the hot set differs from yesterday's;
  /// at mid-day a further fifth moves. As in core::Experiment, one plan is
  /// opened per day.
  std::optional<abr::workload::SyntheticConfig> traffic;
};

std::unique_ptr<Stack> MakeSerialStack(const SerialConfig& config,
                                       Tracer& tracer);

// --- Array stack ----------------------------------------------------------

struct ArrayStackConfig {
  abr::array::ArrayConfig array;
  abr::core::ArrayDayConfig day;
  /// Generated requests timed in [quiet_from, quiet_to) of simulated time
  /// are dropped before submission: a timed member kill inside the window
  /// then fires on an idle member, with no user request queued on it.
  Micros quiet_from = 0;
  Micros quiet_to = 0;
};

std::unique_ptr<Stack> MakeArrayStack(const ArrayStackConfig& config,
                                      Tracer& tracer);

// --- Fingerprints ---------------------------------------------------------

/// Every deterministic field of a measured day, bit-comparable. Host-time
/// fields (barrier stall and merge wall time) stay out.
void AppendFingerprint(const abr::core::DayMetrics& day,
                       std::vector<double>& out);

/// Every block and count of `counter`, hottest first, bit-comparable.
void AppendCounts(const abr::analyzer::ExactCounter& counter,
                  std::vector<double>& out);

}  // namespace perfbench

#endif  // PERFBENCH_STACKS_H_

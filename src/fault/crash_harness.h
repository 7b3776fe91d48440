#ifndef ABR_FAULT_CRASH_HARNESS_H_
#define ABR_FAULT_CRASH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "analyzer/exact_counter.h"
#include "core/adaptive_system.h"
#include "disk/disk_label.h"
#include "driver/perf_monitor.h"
#include "fault/ack_ledger.h"
#include "fault/crash_table_store.h"
#include "fault/faulty_disk.h"
#include "util/types.h"

namespace abr::fault {

/// Crash-harness configuration. Everything is seeded; a (seed, config)
/// pair reproduces the run exactly, including every injected fault and
/// crash point. The drive and the traffic are the ledger's (AckLedger).
struct CrashHarnessConfig {
  std::uint64_t seed = 1;

  std::int32_t phases = 10;              // workload bursts per run
  std::int32_t requests_per_phase = 400;
  std::int32_t arrange_every = 2;        // rearrangement pass cadence

  // Fault schedule.
  std::int32_t crash_points = 2;
  std::int32_t transient_faults = 3;
  std::int32_t persistent_faults = 1;
  std::int32_t torn_writes = 2;

  /// Crash points scheduled by *global simulated time* (accumulated across
  /// reboots) rather than operation index. The harness tracks how much
  /// simulated time every boot consumed and arms the disk with the running
  /// offset, so a timed point can land anywhere on the wall schedule —
  /// attach-time recovery reads, arrangement move chains, steady state.
  std::int32_t timed_crash_points = 0;

  /// Arranger mode for the harness's rearrangement passes: the incremental
  /// delta-plan executor (default) or the full rebuild oracle.
  bool incremental = true;

  /// Continuous mode: instead of quiesced batch passes, each arrangement
  /// point opens a utility-priced plan that executes during disk idle time
  /// under the following phases' traffic — so crashes (index- and
  /// timed-scheduled alike) can land inside a suspended plan's move
  /// chains. The in-memory plan dies with the boot; recovery must still
  /// come up clean from the driver's on-disk state alone.
  bool continuous = false;

  /// Shrinks the run (fewer phases/requests) for smoke tests.
  CrashHarnessConfig Quick() const {
    CrashHarnessConfig q = *this;
    q.phases = 4;
    q.requests_per_phase = 120;
    return q;
  }
};

/// What one harness run observed and verified.
struct CrashHarnessResult {
  std::int32_t crashes = 0;
  // Where each crash landed, classified by the op on the medium.
  std::int32_t crash_in_table_save = 0;
  std::int32_t crash_in_arrangement = 0;  // reserved-data-area move I/O
  std::int32_t crash_in_steady_state = 0;

  std::int64_t writes_acked = 0;
  std::int64_t blocks_verified = 0;     // full-block verify-pass checks
  std::int64_t blocks_indeterminate = 0;  // unacked at a crash, re-stamped later
  std::int64_t mismatches = 0;          // lost or misdirected acked writes
  std::int32_t arrange_passes = 0;

  std::int64_t injected_faults = 0;   // disk-level error outcomes
  driver::FaultCounters faults;       // driver-level view, all generations

  /// Order-independent digest of the final verified state (expected
  /// versions + on-platter payloads). Two runs of the same (seed, config)
  /// must produce identical hashes — the determinism contract `abrsim
  /// crashday` checks across --jobs values.
  std::uint64_t fingerprint_hash = 0;

  std::string first_error;  // empty when ok()
  bool ok() const { return mismatches == 0 && first_error.empty(); }
};

/// Runs seeded on/off-style days against a FaultyDisk, crashing at the
/// plan's scheduled points — including inside the arranger's copy/write-back
/// pipeline and inside block-table saves — then boots a fresh
/// core::AdaptiveSystem (the stack every array member runs) with
/// Start(after_crash=true), resumes the workload, and asserts via
/// per-sector payload fingerprints that no acknowledged write is ever lost
/// or misdirected.
///
/// Acknowledgement semantics: a write counts as acknowledged exactly when
/// its completion reached the driver's client sink before the crash. The
/// harness stamps the block's payload fingerprint at ack time at the
/// completed request's physical sector; a write that fails leaves the
/// previous version expected. At most one write per block is in flight;
/// blocks with an unacknowledged write in flight at a crash are
/// indeterminate (either outcome is legal) and are excluded from
/// verification until the next acknowledged write.
class CrashHarness : public sim::CompletionSink {
 public:
  explicit CrashHarness(CrashHarnessConfig config);
  ~CrashHarness() override;

  CrashHarness(const CrashHarness&) = delete;
  CrashHarness& operator=(const CrashHarness&) = delete;

  /// Runs the whole schedule and returns the verdict.
  CrashHarnessResult Run();

  /// sim::CompletionSink: final outcome of every external request.
  void OnIoComplete(const sim::CompletedIo& done) override;

 private:
  driver::AdaptiveDriver& driver() { return system_->driver(); }

  void BuildMachine(bool after_crash);
  void RunWorkloadPhase();
  void MaybeArrange(std::int32_t phase);
  void HandleCrash();
  void VerifyAll();

  CrashHarnessConfig config_;
  CrashHarnessResult result_;

  disk::DiskLabel label_;
  std::unique_ptr<FaultyDisk> disk_;
  CrashTableStore store_;
  AckLedger ledger_;
  /// Rebuilt on every boot: a crash loses the continuous arranger's open
  /// plan, as it would the user-level arranger process.
  std::unique_ptr<core::AdaptiveSystem> system_;
  analyzer::ExactCounter refs_;  // reference counts for ranking, all boots

  Micros clock_ = 0;       // current boot's clock (restarts at each reboot)
  Micros time_base_ = 0;   // global simulated time when this boot started
  bool verifying_ = false;
  bool arranging_ = false;  // a rearrangement pass is (or was, at a crash) active
};

}  // namespace abr::fault

#endif  // ABR_FAULT_CRASH_HARNESS_H_

#ifndef ABR_ARRAY_ARRAY_HARNESS_H_
#define ABR_ARRAY_ARRAY_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "array/array_device.h"
#include "fault/ack_ledger.h"
#include "util/types.h"

namespace abr::array {

/// Configuration for one seeded RAID1 availability run. A (seed, config)
/// pair reproduces the run exactly; two configs that differ only in the
/// kill schedule see the *same* request schedule, which is what makes the
/// killed run comparable to its uninterrupted twin. The member drive and
/// the traffic are the ledger's (fault::AckLedger).
struct ArrayHarnessConfig {
  std::uint64_t seed = 1;

  std::int32_t members = 2;

  Micros epoch = 50 * kMillisecond;
  /// Lookahead-adaptive barriers (see ArrayConfig::adaptive_epoch).
  bool adaptive_epoch = false;

  // At most one write per block per phase (each phase ends with a drain),
  // so no two writes to one block are ever concurrently in flight and the
  // submission schedule is a pure function of the seed.
  std::int32_t phases = 10;
  std::int32_t requests_per_phase = 300;

  /// Member to kill (-1: none — the uninterrupted twin) at the victim's
  /// kill_at_io'th serviced operation. The crash can land anywhere: under
  /// phase traffic, inside a rearrangement pass's move chains, or during
  /// a block-table save.
  std::int32_t kill_member = -1;
  std::int64_t kill_at_io = -1;

  ArrayHarnessConfig Quick() const {
    ArrayHarnessConfig q = *this;
    q.phases = 6;
    q.requests_per_phase = 120;
    return q;
  }
};

/// What one run observed and verified.
struct ArrayHarnessResult {
  std::int32_t crashes = 0;
  std::int64_t writes_acked = 0;
  std::int64_t reads_checked = 0;
  std::int64_t mismatches = 0;
  std::int32_t arrange_passes = 0;       // passes that actually executed
  std::int64_t passes_skipped = 0;       // skipped while degraded
  std::int64_t resync_granules_copied = 0;
  std::int64_t lost_requests = 0;
  std::int32_t resyncs_completed = 0;

  /// Order-independent digest of (block, expected version, payloads at the
  /// mapped location on every member). A killed-and-resynced run must
  /// produce the same hash as its uninterrupted twin.
  std::uint64_t fingerprint_hash = 0;

  /// Digest of member 0's sorted (original, relocated) mapping set; the
  /// run also asserts every member's set is identical.
  std::uint64_t mapping_hash = 0;

  std::string first_error;
  bool ok() const { return mismatches == 0 && first_error.empty(); }
};

/// Proves the mirror's availability story end to end: runs a seeded
/// workload against a RAID1 ArrayDevice, kills one member at a scheduled
/// crash point (possibly mid-arrangement), keeps serving degraded,
/// reattaches and resyncs, then verifies that no acknowledged write was
/// lost and that the final payload fingerprints and mapping sets are
/// bit-identical to an uninterrupted twin (same seed, no kill).
///
/// Acknowledgement semantics: a write is acked when it has completed on
/// every member it was fanned to that is still in the mirror — a member's
/// death retroactively releases its unfinished copies, exactly like a
/// mirror controller failing over. The harness stamps each member's
/// payload at the completed request's physical sector when the device's
/// merged completion stream delivers it: at the next barrier, in simulated
/// time order, before any barrier work can copy or remap that sector.
/// Failed completions are ignored.
///
/// The arranger runs in full-rebuild (oracle) mode: an executed pass's
/// end table is then a pure function of its ranked list, and ranked lists
/// derive from submission-only reference counts — so once the reattached
/// member has resynced and one final all-online pass runs, both runs'
/// tables provably coincide.
class ArrayCrashHarness : public sim::ShardCompletionSink {
 public:
  explicit ArrayCrashHarness(ArrayHarnessConfig config);
  ~ArrayCrashHarness() override;

  ArrayCrashHarness(const ArrayCrashHarness&) = delete;
  ArrayCrashHarness& operator=(const ArrayCrashHarness&) = delete;

  /// Runs the whole schedule and returns the verified result. Call once.
  ArrayHarnessResult Run();

  /// The device's merged completion stream, delivered at each barrier.
  void OnShardIoComplete(std::int32_t member,
                         const sim::CompletedIo& done) override;

  /// The device under test, or null when it failed to start; abrsim's
  /// crashday table reads per-member fault counters through this.
  const ArrayDevice* device() const { return device_.get(); }

 private:
  void RunSchedule();
  void MaybeKillProgress();
  void Arrange();
  void FinishResync();
  void Finalize();

  ArrayHarnessConfig config_;
  std::unique_ptr<ArrayDevice> device_;
  ArrayHarnessResult result_;
  fault::AckLedger ledger_;
  Micros clock_ = 0;

  bool death_seen_ = false;
  std::int32_t phases_since_death_ = 0;
  bool reattached_ = false;
};

}  // namespace abr::array

#endif  // ABR_ARRAY_ARRAY_HARNESS_H_

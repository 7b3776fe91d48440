#!/usr/bin/env bash
# Repo verification: tier-1 build + full test suite, then an ASan+UBSan
# build of the fault-injection / crash-recovery paths, then a
# ThreadSanitizer build of the concurrency machinery (thread pool,
# parallel runner, and the barrier engine under the ArrayDevice that runs
# both the --shards fleet and the --array arrays).
#
# Usage: tools/check.sh [--no-tsan] [--no-asan] [--no-bench]
set -euo pipefail

cd "$(dirname "$0")/.."
NO_TSAN=0
NO_ASAN=0
NO_BENCH=0
for arg in "$@"; do
  case "$arg" in
    --no-tsan) NO_TSAN=1 ;;
    --no-asan) NO_ASAN=1 ;;
    --no-bench) NO_BENCH=1 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

# A BENCH_*.json baseline is only meaningful while HEAD is near the
# revision that produced it: after enough commits the comparison mixes
# many PRs' worth of drift into one tolerance. Fail fast with the fix
# spelled out rather than letting the diff below rot quietly. A revision
# this clone does not know (a shallow or squashed history) cannot be aged,
# so it only warns: failing there would block every check for a reason
# unrelated to the code.
MAX_BASELINE_AGE=30
check_baseline_age() {
  local f="$1"
  [[ -f "$f" ]] || return 0
  local rev
  rev=$(python3 -c "import json,sys; print(json.load(open(sys.argv[1])).get('git_rev',''))" "$f")
  [[ -n "$rev" && "$rev" != "unknown" ]] || {
    echo "STALE BASELINE: $f has no git_rev stamp." >&2
    echo "  Regenerate it from a Release build with ABR_GIT_REV set" >&2
    echo "  (the bench stage of this script does that) and commit it." >&2
    exit 1
  }
  if ! git cat-file -e "${rev}^{commit}" 2>/dev/null; then
    echo "warning: $f was stamped by revision '$rev', which this clone" >&2
    echo "  does not know; its age cannot be checked." >&2
    return 0
  fi
  local age
  age=$(git rev-list --count "${rev}..HEAD")
  if (( age > MAX_BASELINE_AGE )); then
    echo "STALE BASELINE: $f was produced at $rev, $age commits behind" >&2
    echo "  HEAD (limit $MAX_BASELINE_AGE). Perf drift across that many" >&2
    echo "  PRs makes the regression tolerance meaningless. Re-run the" >&2
    echo "  bench stage and commit the fresh snapshot." >&2
    exit 1
  fi
}
for f in BENCH_*.json; do
  check_baseline_age "$f"
done

echo "== tier-1: configure + build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j >/dev/null
(cd build && ctest --output-on-failure -j)

echo "== determinism: sharded fleet output is --jobs invariant =="
# The barrier engine's core contract: at a fixed shard count, the worker
# thread count must never change a byte of output. The --shards fleet is
# an ArrayDevice at RAID0, chunk 1, ranking from member analyzers. Each command pair runs
# the same fleet serial and parallel and the transcripts must compare
# equal. (Identity across different shard counts is not expected — a
# 4-member fleet measures different physics than one drive.)
DET_TMP=$(mktemp -d)
trap 'rm -rf "$DET_TMP"' EXIT
./build/tools/abrsim onoff --shards=3 --jobs=1 --day-minutes=4 --days=1 \
  > "$DET_TMP/onoff_j1.txt"
./build/tools/abrsim onoff --shards=3 --jobs=8 --day-minutes=4 --days=1 \
  > "$DET_TMP/onoff_j8.txt"
cmp "$DET_TMP/onoff_j1.txt" "$DET_TMP/onoff_j8.txt"
./build/tools/abrsim sweep --shards=2 --jobs=1 --day-minutes=3 \
  --blocks-list=0,200 > "$DET_TMP/sweep_j1.txt"
./build/tools/abrsim sweep --shards=2 --jobs=4 --day-minutes=3 \
  --blocks-list=0,200 > "$DET_TMP/sweep_j4.txt"
cmp "$DET_TMP/sweep_j1.txt" "$DET_TMP/sweep_j4.txt"
./build/tools/abrsim policy --shards=2 --jobs=1 --day-minutes=3 --days=1 \
  > "$DET_TMP/policy_j1.txt"
./build/tools/abrsim policy --shards=2 --jobs=4 --day-minutes=3 --days=1 \
  > "$DET_TMP/policy_j4.txt"
cmp "$DET_TMP/policy_j1.txt" "$DET_TMP/policy_j4.txt"
./build/tools/abrsim crashday --shards=2 --quick --replicas=2 --jobs=1 \
  > "$DET_TMP/crash_j1.txt"
./build/tools/abrsim crashday --shards=2 --quick --replicas=2 --jobs=4 \
  > "$DET_TMP/crash_j4.txt"
cmp "$DET_TMP/crash_j1.txt" "$DET_TMP/crash_j4.txt"
# The continuous arranger's idle-time executor advances with each member's
# own clock, so the same invariant must hold with per-member open plans.
./build/tools/abrsim onoff --continuous --shards=3 --jobs=1 --day-minutes=4 \
  --days=1 > "$DET_TMP/cont_j1.txt"
./build/tools/abrsim onoff --continuous --shards=3 --jobs=8 --day-minutes=4 \
  --days=1 > "$DET_TMP/cont_j8.txt"
cmp "$DET_TMP/cont_j1.txt" "$DET_TMP/cont_j8.txt"
# The array layer makes the same promise: every cross-member decision
# happens at an epoch barrier in member order, so a RAID0 stripe set (and
# the crashday twin-comparison harness fanned over worker threads) must
# print identical bytes at any --jobs.
./build/tools/abrsim onoff --array=raid0:4 --jobs=1 --day-minutes=4 \
  --days=1 > "$DET_TMP/array_j1.txt"
./build/tools/abrsim onoff --array=raid0:4 --jobs=8 --day-minutes=4 \
  --days=1 > "$DET_TMP/array_j8.txt"
cmp "$DET_TMP/array_j1.txt" "$DET_TMP/array_j8.txt"
./build/tools/abrsim crashday --array=raid1:2 --kill-member --pairs=2 \
  --quick --jobs=1 > "$DET_TMP/arraycrash_j1.txt"
./build/tools/abrsim crashday --array=raid1:2 --kill-member --pairs=2 \
  --quick --jobs=4 > "$DET_TMP/arraycrash_j4.txt"
cmp "$DET_TMP/arraycrash_j1.txt" "$DET_TMP/arraycrash_j4.txt"
# Lookahead-adaptive barriers (--epoch=auto): multi-grid windows must keep
# the same --jobs invariance, and stripping the header echo must leave the
# bytes the fixed-epoch oracle prints — the adaptive planner is allowed to
# change scheduling, never results.
./build/tools/abrsim onoff --shards=3 --epoch=auto --jobs=1 --day-minutes=4 \
  --days=1 > "$DET_TMP/adapt_j1.txt"
./build/tools/abrsim onoff --shards=3 --epoch=auto --jobs=8 --day-minutes=4 \
  --days=1 > "$DET_TMP/adapt_j8.txt"
cmp "$DET_TMP/adapt_j1.txt" "$DET_TMP/adapt_j8.txt"
sed 's/  epoch=auto//' "$DET_TMP/adapt_j1.txt" | cmp - "$DET_TMP/onoff_j1.txt"
./build/tools/abrsim onoff --array=raid0:4 --epoch=auto --jobs=8 \
  --day-minutes=4 --days=1 > "$DET_TMP/array_adapt_j8.txt"
sed 's/  epoch=auto//' "$DET_TMP/array_adapt_j8.txt" | \
  cmp - "$DET_TMP/array_j1.txt"
echo "sharded onoff/sweep/policy/crashday/continuous/array byte-identical across --jobs"
echo "adaptive epoch (--epoch=auto) byte-identical across --jobs and vs fixed"

if [[ "$NO_ASAN" == 1 ]]; then
  echo "== asan: skipped (--no-asan) =="
else
  echo "== asan+ubsan: fault/crash/driver/placement/array tests + crashday --quick + bench_paper =="
  # The fault tests exercise truncated table images, torn writes, and
  # mid-chain aborts — exactly where overflow and lifetime bugs would hide.
  cmake -B build-asan -S . -DABR_SANITIZE=address >/dev/null
  cmake --build build-asan -j --target \
    fault_plan_test faulty_disk_test ack_ledger_test crash_harness_test \
    adaptive_driver_test relocation_rollback_test pass_ledger_test \
    block_table_test table_store_test arranger_test arranger_diff_test \
    continuous_arranger_test delta_plan_test array_device_test \
    array_harness_test seek_kernel_diff_test flat_queue_batch_test \
    advance_kernel_diff_test abrsim bench_arrange bench_paper >/dev/null
  ./build-asan/tests/fault_plan_test
  ./build-asan/tests/faulty_disk_test
  ./build-asan/tests/ack_ledger_test
  ./build-asan/tests/crash_harness_test
  ./build-asan/tests/adaptive_driver_test
  ./build-asan/tests/block_table_test
  ./build-asan/tests/table_store_test
  ./build-asan/tests/relocation_rollback_test
  ./build-asan/tests/pass_ledger_test
  # The plan executor's cursor and op list, and the delta planner, are
  # index arithmetic over vectors sized by the plan.
  ./build-asan/tests/arranger_test
  ./build-asan/tests/arranger_diff_test
  ./build-asan/tests/continuous_arranger_test
  ./build-asan/tests/delta_plan_test
  ./build-asan/tests/array_device_test
  ./build-asan/tests/array_harness_test
  # The hot-loop kernel rewrites (seek LUT, rotation anchor, batched
  # stepping, queue bulk-load): index arithmetic and backward merges are
  # exactly where an off-by-one would hide.
  ./build-asan/tests/seek_kernel_diff_test
  ./build-asan/tests/flat_queue_batch_test
  ./build-asan/tests/advance_kernel_diff_test
  ./build-asan/tools/abrsim crashday --quick --replicas=2
  # Mirror member killed mid-arrangement, reattached, resynced: the
  # degraded-mode and resync buffer handling under ASan.
  ./build-asan/tools/abrsim crashday --array=raid1:2 --kill-member \
    --pairs=2 --quick
  # Timed crash points landing inside a suspended continuous plan: the
  # in-memory plan dies with the boot, recovery must come up clean from
  # the on-disk state alone.
  ./build-asan/tools/abrsim crashday --quick --replicas=2 --continuous \
    --timed-crash-points=2
  # Incremental arranger vs full-rebuild oracle in lockstep — the move
  # chains and deferred-retry paths under ASan. Run from the build dir so
  # its BENCH_arrange.json does not clobber the repo-root baseline.
  (cd build-asan && ./bench/bench_arrange --quick)
  # The file-server day and the raw physio path, which no test above runs:
  # a system-fs off/on day on both drives (Table 3), and a dump-style raw
  # scan of the whole partition split by physio and redirected around the
  # reserved region. Each must print its golden's bytes.
  ./build-asan/bench/bench_paper table3 | cmp - tests/golden/paper/table3.txt
  ./build-asan/bench/bench_paper ablation_backup | \
    cmp - tests/golden/paper/ablation_backup.txt
fi

if [[ "$NO_TSAN" == 1 ]]; then
  echo "== tsan: skipped (--no-tsan) =="
else
  echo "== tsan: thread_pool_test + parallel_runner_test + bench_e2e --quick =="
  cmake -B build-tsan -S . -DABR_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target thread_pool_test parallel_runner_test \
    advance_kernel_diff_test bench_e2e abrsim >/dev/null
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/thread_pool_test
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/parallel_runner_test
  # Batched-vs-stepped twins through the fleet and array engines: the
  # batched submit path hands whole request runs across the worker
  # handoff.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/advance_kernel_diff_test
  # Whole-pipeline smoke: miniature days on every queue policy, then the
  # replication fan-out and the sharded and array scaling runs with their
  # jobs=1-vs-N identity checks. Run from the build dir so its
  # BENCH_e2e.json does not clobber the repo-root one.
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" ./bench/bench_e2e --quick)
  # Crash-harness replicas racing across worker threads: the results must
  # stay byte-identical and data-race-free.
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tools/abrsim crashday --quick --replicas=4 --jobs=4
  # Sharded fleet under TSan: four member stacks advancing on four workers
  # through the epoch-barrier merge — the engine's coordinator/worker
  # handoff is exactly where a missed happens-before edge would live.
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tools/abrsim onoff --shards=4 --jobs=4 --day-minutes=4 --days=1
  # Same fleet with per-member continuous arrangers: idle-sink callbacks
  # fire inside each worker's AdvanceTo, a fresh surface for races.
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tools/abrsim onoff --continuous --shards=4 --jobs=4 \
    --day-minutes=4 --days=1
  # Adaptive barriers: fused windows, with the fleet's next-window
  # generation overlapping the in-flight step (a coordinator/worker edge).
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tools/abrsim onoff --shards=4 --jobs=4 --epoch=auto \
    --day-minutes=4 --days=1
  # RAID0 array with members advancing on four workers through the same
  # epoch-barrier machinery, plus crashday twin pairs racing across the
  # pool with a member death and resync inside each killed run.
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tools/abrsim onoff --array=raid0:4 --jobs=4 \
    --day-minutes=4 --days=1
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tools/abrsim crashday --array=raid1:2 --kill-member \
    --pairs=2 --quick --jobs=4
fi

if [[ "$NO_BENCH" == 1 ]]; then
  echo "== bench: skipped (--no-bench) =="
else
  echo "== bench regression: bench_micro + bench_e2e vs committed baselines =="
  # The committed BENCH_*.json snapshots were produced by full (not
  # --quick) runs of a Release build, so the comparison must be too: an
  # unoptimized or miniature run measures a different workload. A
  # dedicated Release tree keeps the default build dir's flags alone.
  cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-bench -j --target bench_micro bench_e2e \
    bench_arrange >/dev/null
  ABR_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
  export ABR_GIT_REV
  # Run from the build dir so the fresh JSONs do not clobber the
  # committed repo-root baselines they are compared against.
  (cd build-bench && ./bench/bench_micro)
  (cd build-bench && ./bench/bench_e2e)
  (cd build-bench && ./bench/bench_arrange)
  python3 tools/bench_diff.py BENCH_micro.json build-bench/BENCH_micro.json \
    --tolerance 0.10
  # e2e also carries multi-thread speedup fields (replication fan-out and
  # sharded scaling); compare them under a looser tolerance of their own —
  # wall-clock ratios jitter more than throughput.
  python3 tools/bench_diff.py BENCH_e2e.json build-bench/BENCH_e2e.json \
    --tolerance 0.10 --speedup-tolerance 0.25
  python3 tools/bench_diff.py BENCH_arrange.json \
    build-bench/BENCH_arrange.json --tolerance 0.10
fi

echo "== all checks passed =="

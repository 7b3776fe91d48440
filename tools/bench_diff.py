#!/usr/bin/env python3
"""Compares a freshly produced BENCH_*.json against a committed baseline.

Each metric's ops_per_sec is compared; the check fails when any metric
present in the baseline regresses by more than --tolerance (relative), or
disappears from the current run. Metrics new in the current run are
reported but never fail the check, so adding benchmarks does not require
touching this tool.

A multi-thread metric (kind "replication" or "scaling") that needs more
threads than this machine has CPUs is not judged at all, neither its
ops_per_sec nor its speedup: oversubscribed workers time the machine, not
the code — a 4-CPU runner cannot reproduce an 8-way fan-out, and failing
on it would just teach people to ignore the check. The row still runs,
and the bench itself still fails when a thread count changes its
results. A metric that disappears is reported MISSING either way.

With --speedup-tolerance the `speedup` field of metrics that carry a
positive one in the baseline is compared as well, under its own
(typically looser) tolerance: a speedup is a ratio of two noisy
wall-clock times, so it jitters more than throughput. When the baseline
document carries the recording machine's hardware-thread count
("hw_threads") and it differs from this machine's, every speedup
comparison is skipped: parallel scaling measured on different hardware
is not comparable at any thread count.

A baseline that does not exist yet is not a regression: the first run of a
new benchmark has nothing to compare against, so a missing BASELINE.json
prints a warning and exits 0 (commit the fresh snapshot to arm the check).
A missing or unreadable CURRENT.json is always an error.

A baseline metric whose `kind` this tool does not recognize (written by a
newer bench schema than the tool understands) is warned about and skipped
rather than compared: the semantics of an unknown kind — what it measures,
whether its numbers are thread-count dependent — are by definition unknown
here, so any pass/fail verdict on it would be noise.

The summary line ends with a per-kind pass/fail tally (e.g.
"[scaling 3/3 ok, single 12/12 ok]") so a CI log grepped down to one
line still says which family of metrics a failure hit.

Usage: tools/bench_diff.py BASELINE.json CURRENT.json [--tolerance 0.10]
Exit status: 0 when within tolerance, 1 on regression, 2 on usage errors.
"""

import argparse
import json
import os
import sys

# Metric kinds this tool knows how to judge. Single-thread metrics carry
# no kind at all; the two multi-thread kinds get the CPU-count skip
# below. Anything else is a newer schema: warn and skip instead of
# rendering a meaningless verdict.
KNOWN_KINDS = (None, "", "replication", "scaling")


def load_metrics(path, missing_ok=False):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError:
        if missing_ok:
            return None, None
        sys.exit(f"bench_diff: cannot read {path}: file not found")
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_diff: cannot read {path}: {e}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, list):
        sys.exit(f"bench_diff: {path}: no 'metrics' array")
    out = {}
    for m in metrics:
        name, ops = m.get("name"), m.get("ops_per_sec")
        if not isinstance(name, str) or not isinstance(ops, (int, float)):
            sys.exit(f"bench_diff: {path}: malformed metric entry: {m!r}")
        out[name] = m
    return doc, out


def main():
    parser = argparse.ArgumentParser(
        description="Fail when benchmark throughput regresses vs a baseline."
    )
    parser.add_argument("baseline", help="committed BENCH_*.json")
    parser.add_argument("current", help="freshly produced BENCH_*.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed relative drop in ops_per_sec (default 0.10)",
    )
    parser.add_argument(
        "--speedup-tolerance",
        type=float,
        default=None,
        help="also compare baseline speedup fields, allowing this relative "
        "drop (off unless given)",
    )
    args = parser.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")
    if args.speedup_tolerance is not None and not 0.0 <= args.speedup_tolerance < 1.0:
        parser.error("--speedup-tolerance must be in [0, 1)")

    base_doc, base = load_metrics(args.baseline, missing_ok=True)
    cur_doc, cur = load_metrics(args.current)
    if base_doc is None:
        print(
            f"bench_diff: WARNING: no baseline at {args.baseline}; "
            f"nothing to compare — commit {args.current} to arm the check"
        )
        return 0

    print(
        f"bench_diff: {base_doc.get('bench', '?')}: "
        f"baseline rev {base_doc.get('git_rev', 'unknown')} "
        f"({base_doc.get('config', 'unknown')}, "
        f"hw_threads {base_doc.get('hw_threads', '?')}) vs "
        f"current rev {cur_doc.get('git_rev', 'unknown')} "
        f"({cur_doc.get('config', 'unknown')}, "
        f"hw_threads {cur_doc.get('hw_threads', '?')}), "
        f"tolerance {args.tolerance:.0%}"
    )

    cpus = os.cpu_count() or 1
    base_hw = base_doc.get("hw_threads")
    hw_mismatch = isinstance(base_hw, int) and base_hw > 0 and base_hw != cpus
    if hw_mismatch and args.speedup_tolerance is not None:
        print(
            f"bench_diff: baseline recorded on a {base_hw}-thread machine, "
            f"this machine has {cpus}; skipping all speedup comparisons"
        )
    failed = []
    skipped_kinds = 0
    skipped_threads = 0
    # Per-kind tallies for the summary line. A metric counts once under
    # its kind ("single" when it carries none); it lands in the fail
    # column when either its throughput or its speedup regressed.
    by_kind = {}

    def tally(kind, ok):
        label = kind if kind else "single"
        passed, failed_n = by_kind.get(label, (0, 0))
        by_kind[label] = (passed + (1 if ok else 0), failed_n + (0 if ok else 1))

    for name in sorted(base):
        kind = base[name].get("kind")
        if kind not in KNOWN_KINDS:
            print(
                f"  {name:28s} WARNING: unrecognized kind '{kind}'; "
                f"skipped (update tools/bench_diff.py to judge it)"
            )
            skipped_kinds += 1
            continue
        if name not in cur:
            print(f"  {name:28s} MISSING from current run")
            failed.append(name)
            tally(kind, False)
            continue
        threads = int(base[name].get("threads", 1))
        if kind in ("replication", "scaling") and threads > cpus:
            print(
                f"  {name:28s} skipped: needs {threads} threads, "
                f"machine has {cpus} CPUs"
            )
            skipped_threads += 1
            continue
        n_failed_before = len(failed)
        base_ops = float(base[name]["ops_per_sec"])
        cur_ops = float(cur[name]["ops_per_sec"])
        ratio = cur_ops / base_ops if base_ops > 0 else float("inf")
        verdict = "ok"
        if ratio < 1.0 - args.tolerance:
            verdict = "REGRESSED"
            failed.append(name)
        print(
            f"  {name:28s} {base_ops:14.0f} -> {cur_ops:14.0f} "
            f"ops/s  ({ratio:6.2f}x)  {verdict}"
        )

        base_speedup = base[name].get("speedup", 0)
        if (
            args.speedup_tolerance is not None
            and not hw_mismatch
            and isinstance(base_speedup, (int, float))
            and base_speedup > 0
        ):
            cur_speedup = float(cur[name].get("speedup", 0))
            s_verdict = "ok"
            if cur_speedup < base_speedup * (1.0 - args.speedup_tolerance):
                s_verdict = "REGRESSED"
                failed.append(name + ".speedup")
            print(
                f"  {name:28s} speedup {base_speedup:6.2f}x -> "
                f"{cur_speedup:6.2f}x  {s_verdict}"
            )
        tally(kind, len(failed) == n_failed_before)
    for name in sorted(set(cur) - set(base)):
        print(
            f"  {name:28s} new metric "
            f"({float(cur[name]['ops_per_sec']):.0f} ops/s), no baseline"
        )

    kind_counts = ", ".join(
        f"{label} {passed}/{passed + failed_n} ok"
        for label, (passed, failed_n) in sorted(by_kind.items())
    )
    if failed:
        print(
            f"bench_diff: FAIL: {len(failed)} metric(s): {', '.join(failed)}"
            + (f" [{kind_counts}]" if kind_counts else "")
        )
        return 1
    skips = []
    if skipped_kinds:
        skips.append(f"{skipped_kinds} skipped on unrecognized kind")
    if skipped_threads:
        skips.append(f"{skipped_threads} skipped needing more threads than CPUs")
    if skips:
        print(
            f"bench_diff: all judged metrics within tolerance "
            f"({'; '.join(skips)})"
            + (f" [{kind_counts}]" if kind_counts else "")
        )
    else:
        print(
            "bench_diff: all metrics within tolerance"
            + (f" [{kind_counts}]" if kind_counts else "")
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Bench regression gate.

Compares freshly written bench JSON files (results/BENCH_*.json) against
the checked-in baselines, and fails if any throughput metric regressed
by more than the allowed ratio (default: fresh must reach >= 70% of
baseline throughput, i.e. a >30% regression fails).

The benches overwrite their own baselines in results/, so CI must copy
the checked-in files aside BEFORE running the benches and point
--baseline-dir at the copy:

    mkdir -p /tmp/bench-baselines
    cp results/BENCH_incremental.json /tmp/bench-baselines/
    cargo bench -p ripki-bench --bench engine_incremental
    python3 scripts/bench_gate.py --baseline-dir /tmp/bench-baselines \
        results/BENCH_incremental.json

A missing baseline file is a configuration error, not a skip: the gate
exits 2 naming the file, unless --allow-missing-baseline is passed for
an explicit bootstrap run.

Each bench declares its metrics below. "higher" metrics are throughput
numbers compared directly; "lower" metrics are per-unit latencies whose
reciprocal is the throughput. Absolute floors (FLOORS) and ceilings
(CEILINGS) encode acceptance criteria that must hold regardless of the
baseline, e.g. the incremental validator's >= 10x speedup over a full
validation pass, or the serve load harness's p99 latency bound.

A bench JSON may carry a "scaling" section (per-thread-count timings
from the parallel execute stage, plus the host's cpu count). Scaling
rows are printed for the record but never gated: the gated metrics stay
the single-threaded top-level numbers, so the gate is comparable across
hosts with different core budgets.
"""

import argparse
import json
import os
import sys

# bench name (the "bench" key in the JSON) -> [(metric, sense)]
METRICS = {
    "engine_incremental": [("incremental_ms_per_epoch", "lower")],
    "engine_validate": [("incremental_ms_per_epoch", "lower")],
    "engine_proxy": [("delta_propagation_ms", "lower")],
    "engine_whatif": [("incremental_counterfactual_ms", "lower")],
    "serve_load": [("req_per_s", "higher")],
    "lint_workspace": [("wall_ms", "lower")],
}

# bench name -> [(metric, minimum value)]
FLOORS = {
    "engine_incremental": [("speedup", 10.0)],
    "engine_validate": [("speedup", 10.0)],
    "engine_proxy": [("speedup", 10.0)],
    # A counterfactual rides one incremental churn epoch instead of a
    # full engine rebuild + re-run; 5x is a deliberately loose floor
    # (observed gaps are far larger at bench scale).
    "engine_whatif": [("speedup", 5.0)],
    # The event-loop acceptance bar (PR 9): at least 10k concurrent
    # keep-alive sessions, every one of them visible to the server
    # (open_connections gauge). Throughput is gated against the plane's
    # own checked-in run (METRICS above): the async plane is its own
    # baseline.
    "serve_load": [
        ("concurrent_sessions", 10_000),
        ("server_open_connections", 10_000),
    ],
    # The linter must actually be scanning the workspace: a refactor
    # that silently drops source directories from collection would
    # otherwise read as a (fast, clean) pass.
    "lint_workspace": [("files_scanned", 100)],
}

# bench name -> [(metric, maximum value)]. Absolute latency ceilings —
# the load harness reports the server-side p99 interpolated from the
# /metrics histogram; an event loop that holds 10k sockets by making
# every request wait would pass the throughput floor and fail here.
CEILINGS = {
    "serve_load": [("p99_seconds", 0.25)],
    # The exact analysis (lex + parse + call graph + reachability) must
    # stay cheap enough to sit in scripts/check.sh on every run: ~60 ms
    # release on the 107-file workspace today, 2 s is the absolute
    # budget before the tool stops being a pre-commit check.
    "lint_workspace": [("wall_ms", 2000.0)],
}


def load(path):
    with open(path) as f:
        data = json.load(f)
    bench = data.get("bench")
    if bench not in METRICS:
        sys.exit(f"{path}: unknown bench {bench!r} (known: {sorted(METRICS)})")
    return bench, data


def throughput(value, sense):
    if sense == "lower":
        return 1.0 / value if value > 0 else float("inf")
    return value


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "fresh",
        nargs="+",
        help="freshly written bench JSON files (results/BENCH_*.json)",
    )
    parser.add_argument(
        "--baseline-dir",
        required=True,
        help="directory holding the pre-bench copies of the baselines",
    )
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.70,
        help="minimum fresh/baseline throughput ratio (default %(default)s)",
    )
    parser.add_argument(
        "--allow-missing-baseline",
        action="store_true",
        help="tolerate a missing baseline file (bootstrap runs only); "
        "without this flag a missing baseline exits 2",
    )
    args = parser.parse_args()

    failures = []
    for fresh_path in args.fresh:
        bench, fresh = load(fresh_path)
        baseline_path = os.path.join(
            args.baseline_dir, os.path.basename(fresh_path)
        )
        if not os.path.exists(baseline_path):
            # A silently skipped ratio check looks exactly like a pass,
            # so a missing baseline is a loud configuration error: CI
            # forgot to copy the checked-in file aside, or the baseline
            # was never committed. Bootstrap runs opt out explicitly.
            if not args.allow_missing_baseline:
                print(
                    f"bench gate: missing baseline {baseline_path} for "
                    f"{fresh_path} (copy the checked-in results/ file into "
                    "the baseline dir, or pass --allow-missing-baseline "
                    "for a bootstrap run)",
                    file=sys.stderr,
                )
                sys.exit(2)
            print(f"{fresh_path}: no baseline at {baseline_path}, skipping "
                  "ratio check (--allow-missing-baseline)")
            baseline = None
        else:
            baseline_bench, baseline = load(baseline_path)
            if baseline_bench != bench:
                sys.exit(
                    f"{baseline_path}: baseline is for bench "
                    f"{baseline_bench!r}, fresh file is {bench!r}"
                )

        for metric, sense in METRICS[bench]:
            if baseline is None or metric not in baseline:
                continue
            if metric not in fresh:
                failures.append(f"{bench}: fresh run is missing {metric!r}")
                continue
            base_tp = throughput(baseline[metric], sense)
            fresh_tp = throughput(fresh[metric], sense)
            ratio = fresh_tp / base_tp if base_tp > 0 else float("inf")
            verdict = "ok" if ratio >= args.min_ratio else "REGRESSED"
            print(
                f"{bench}/{metric}: baseline {baseline[metric]:.4g}, "
                f"fresh {fresh[metric]:.4g}, throughput ratio {ratio:.3f} "
                f"({verdict})"
            )
            if ratio < args.min_ratio:
                failures.append(
                    f"{bench}/{metric}: throughput ratio {ratio:.3f} "
                    f"< {args.min_ratio} (>{100 * (1 - args.min_ratio):.0f}% "
                    "regression)"
                )

        for metric, floor in FLOORS.get(bench, []):
            value = fresh.get(metric)
            if value is None:
                failures.append(f"{bench}: fresh run is missing {metric!r}")
                continue
            verdict = "ok" if value >= floor else "BELOW FLOOR"
            print(f"{bench}/{metric}: {value:.4g} (floor {floor}, {verdict})")
            if value < floor:
                failures.append(f"{bench}/{metric}: {value:.4g} < floor {floor}")

        for metric, ceiling in CEILINGS.get(bench, []):
            value = fresh.get(metric)
            if value is None:
                failures.append(f"{bench}: fresh run is missing {metric!r}")
                continue
            verdict = "ok" if value <= ceiling else "ABOVE CEILING"
            print(
                f"{bench}/{metric}: {value:.4g} (ceiling {ceiling}, {verdict})"
            )
            if value > ceiling:
                failures.append(
                    f"{bench}/{metric}: {value:.4g} > ceiling {ceiling}"
                )

        scaling = fresh.get("scaling")
        if isinstance(scaling, dict):
            print(f"{bench}/scaling (informational, not gated): "
                  f"host cpus {scaling.get('cpus')}")
            for row in scaling.get("threads", []):
                cells = ", ".join(
                    f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}"
                    for k, v in row.items()
                )
                print(f"  {cells}")

    if failures:
        print("\nbench gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        sys.exit(1)
    print("\nbench gate passed")


if __name__ == "__main__":
    main()

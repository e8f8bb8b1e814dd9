#!/usr/bin/env python3
"""Bench gate: acceptance floors over the repository benchmark's rows,
and the regression check of the benches that keep a checked-in run.

WORKLOAD=PATH is the output of one traced (`--trace 1`) run of the
repository benchmark (`benchmark/`); only its last line, the JSON
verdict, is read:

    python3 scripts/bench_gate.py churn_rpki=churn_rpki.txt

The run must be `"correct": true` with `"failed": 0`, and every RATIOS
row that reads a given workload must be present and at or above its
floor. Each floor is a ratio of rows measured on one host at one world
size, so it holds on any runner. Whether a row itself regressed is the
merge pipeline's question: it compares parent and change on every
end-to-end metric under measured noise bounds.

A bare PATH is a freshly written results/BENCH_*.json of a bench that
keeps its own checked-in run (METRICS): it fails if a throughput metric
regressed by more than the allowed ratio (default: fresh must reach
>= 70% of baseline throughput). The bench overwrites its baseline in
results/, so CI must copy the checked-in file aside BEFORE running it
and point --baseline-dir at the copy:

    mkdir -p /tmp/bench-baselines
    cp results/BENCH_lint.json /tmp/bench-baselines/
    cargo run -q --release -p ripki-lint -- bench
    python3 scripts/bench_gate.py --baseline-dir /tmp/bench-baselines \
        results/BENCH_lint.json

A missing baseline file is a configuration error, not a skip: the gate
exits 2 naming the file. "higher" metrics are throughput numbers
compared directly; "lower" metrics are per-unit latencies whose
reciprocal is the throughput. Absolute floors (FLOORS) and ceilings
(CEILINGS) hold regardless of the baseline.
"""

import argparse
import json
import os
import sys

# Floors over benchmark rows, each spelled `metric @ workload` (a row is
# live only on the workloads benchmark/README.md lists for it):
# (numerator terms, which add; denominator; minimum ratio).
RATIOS = [
    # Incremental validation against a full pass over the repository:
    # an epoch that republishes 4 of 255 points costs under 0.25 % of a
    # full pass (16 signatures verified against 200 765, 4 decisions
    # taken against 100 255). Traced runs on an x86-64 host with the
    # SHA extensions read 550-650; with the portable hash and binary
    # exponentiation the same host read 660-750. A validator that
    # re-derives the republished points' 1 600 unchanged decisions reads
    # 140-340, one that also re-verifies their signatures 47.
    (["rpki.full_validate_ms @ churn_rpki"], "rpki.apply_ms_p50 @ churn_rpki", 400.0),
    # A delta through the RTR cache against what it spares: reinstalling
    # the snapshot plus the Reset response that forces on a router. The
    # install alone stopped being a cost to compare against when the
    # cache began adopting a payload's set as a handle (0.1 us); encoding
    # the set for one router is the O(set) work that is left. (The delta
    # row is live on churn_web; a churn_rpki run carries its smoke-size
    # reference, the other two rows are live at 100k VRPs.)
    (
        [
            "rtr.cache_install_snapshot_ms @ churn_rpki",
            "rtr.encode_reset_ms @ churn_rpki",
        ],
        "rtr.cache_apply_delta_us_p50 @ churn_rpki",
        10.0,
    ),
    # Advancing a 100 000-VRP payload, or its excepted copy, by one
    # epoch's delta costs under 2.5 % of encoding that set for one
    # router: every holder shares what the delta did not touch (a
    # holder that copies the set per epoch, ≈ 2.2 and ≈ 2.5 ms, reads
    # under 11 against the ≈ 11–22 ms encode).
    (["rtr.encode_reset_ms @ churn_rpki"], "payload.apply_ms_p50 @ churn_rpki", 40.0),
    (["rtr.encode_reset_ms @ churn_rpki"], "slurm.ingest_us_p50 @ churn_rpki", 40.0),
    # An incremental epoch against an engine rebuild + full run. Also
    # the what-if floor (a counterfactual is one synthetic EpochChurn
    # through apply_events), hence the loose 5x.
    (
        ["ripki.engine_new_ms @ study_full", "ripki.run_ms @ study_full"],
        "ripki.apply_events_ms_p50 @ churn_web",
        5.0,
    ),
    # Building an engine over a generated world shares the world: the
    # zone store's layers are copy-on-write, so the build is the RPKI
    # validation and a few Arcs (an engine that deep-copies the
    # 100 000-name zone map reads 3.6).
    (["ripki.run_ms @ study_full"], "ripki.engine_new_ms @ study_full", 20.0),
    # The report — every figure, Table 1 and the CDN audit — costs under
    # half a run: the HTTPArchive classifier walks CNAME chains only, on
    # the run's worker threads (a full resolve per name on one thread
    # reads 1.4).
    (["ripki.run_ms @ study_full"], "ripki.figures_ms @ study_full", 2.0),
    # Publishing an epoch (results clone, view, swap, retired view's
    # drop) costs less than half of computing it: the hand-off to
    # serving stays a delta, not a copy of the world.
    (
        ["ripki.apply_events_ms_p50 @ churn_web"],
        "stage.view_build_ms @ churn_web",
        2.0,
    ),
]
WORKLOADS = ("study_full", "churn_web", "churn_rpki", "query_mixed")
MS_PER_UNIT = {"s": 1000.0, "ms": 1.0, "us": 0.001}

# bench name (the "bench" key in the JSON) -> [(metric, sense)]
METRICS = {
    "serve_load": [("req_per_s", "higher")],
    "lint_workspace": [("wall_ms", "lower")],
}

# bench name -> [(metric, minimum value)]
FLOORS = {
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


def load_run(workload, path):
    """The verdict of one benchmark run: the last line of its output."""
    if workload not in WORKLOADS:
        sys.exit(f"{workload}={path}: unknown workload (known: {WORKLOADS})")
    try:
        return json.loads(open(path).read().strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit(f"{workload}={path}: last line is not a JSON verdict")


def gate_runs(runs, failures):
    """`"correct"`, `"failed"` and the RATIOS rows of the given runs."""
    for workload, run in runs.items():
        verdict = f"correct {run.get('correct')}, failed {run.get('failed')}"
        print(f"{workload}: {verdict} of {run.get('attempted')}")
        if run.get("correct") is not True or run.get("failed") != 0:
            failures.append(f"{workload}: not a valid run ({verdict})")

    def ms(term):
        metric, workload = term.split(" @ ")
        row = runs.get(workload, {}).get("metrics", {}).get(metric) or {}
        if row.get("value") is None or row.get("unit") not in MS_PER_UNIT:
            failures.append(f"{term}: row is missing")
            return float("nan")
        return row["value"] * MS_PER_UNIT[row["unit"]]

    for numerator, denominator, floor in RATIOS:
        terms = numerator + [denominator]
        if not any(term.split(" @ ")[1] in runs for term in terms):
            continue
        top, bottom = sum(map(ms, numerator)), ms(denominator)
        ratio = top / bottom if bottom else float("inf")
        name = f"({' + '.join(numerator)}) ÷ {denominator}"
        ok = ratio >= floor  # a missing row makes the ratio NaN: not ok
        print(
            f"{name}: {top:.4g} ms ÷ {bottom:.4g} ms = {ratio:.3g} "
            f"(floor {floor:g}, {'ok' if ok else 'BELOW FLOOR'})"
        )
        if not ok:
            failures.append(f"{name}: {ratio:.3g} < floor {floor:g}")


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
        help="WORKLOAD=PATH: output of a traced benchmark run; "
        "PATH: a freshly written results/BENCH_*.json",
    )
    parser.add_argument(
        "--baseline-dir",
        help="directory holding the pre-bench copies of the baselines "
        "(required with BENCH_*.json inputs)",
    )
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.70,
        help="minimum fresh/baseline throughput ratio (default %(default)s)",
    )
    args = parser.parse_args()

    failures = []
    runs = {}
    for fresh_path in args.fresh:
        workload, is_run, path = fresh_path.partition("=")
        if is_run:
            runs[workload] = load_run(workload, path)
            continue
        if args.baseline_dir is None:
            parser.error(f"{fresh_path}: a BENCH file needs --baseline-dir")
        bench, fresh = load(fresh_path)
        baseline_path = os.path.join(
            args.baseline_dir, os.path.basename(fresh_path)
        )
        if not os.path.exists(baseline_path):
            # A silently skipped ratio check looks exactly like a pass,
            # so a missing baseline is a loud configuration error: CI
            # forgot to copy the checked-in file aside, or the baseline
            # was never committed.
            print(
                f"bench gate: missing baseline {baseline_path} for "
                f"{fresh_path} (copy the checked-in results/ file into "
                "the baseline dir)",
                file=sys.stderr,
            )
            sys.exit(2)
        baseline_bench, baseline = load(baseline_path)
        if baseline_bench != bench:
            sys.exit(
                f"{baseline_path}: baseline is for bench "
                f"{baseline_bench!r}, fresh file is {bench!r}"
            )

        for metric, sense in METRICS[bench]:
            if metric not in baseline:
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

    gate_runs(runs, failures)
    if failures:
        print("\nbench gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        sys.exit(1)
    print("\nbench gate passed")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-test of bench_gate.py's benchmark floors, run by scripts/check.sh.

Fabricated verdict lines: a passing set must exit 0, and a ratio under
its floor, `"correct": false`, a failed operation and a missing row must
each exit 1 naming what failed.
"""

import json
import os
import subprocess
import sys
import tempfile

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_gate.py")

# Rows as a traced run reports them; every ratio sits at twice its floor.
ROWS = {
    "rpki.full_validate_ms": (800.0, "ms"),
    "rpki.apply_ms_p50": (1.0, "ms"),
    "payload.apply_ms_p50": (0.075, "ms"),
    "slurm.ingest_us_p50": (75.0, "us"),
    "rtr.cache_install_snapshot_ms": (0.0001, "ms"),
    "rtr.encode_reset_ms": (6.0, "ms"),
    "rtr.cache_apply_delta_us_p50": (300.0, "us"),
    "ripki.engine_new_ms": (5.0, "ms"),
    "ripki.run_ms": (200.0, "ms"),
    "ripki.figures_ms": (33.333, "ms"),
    "ripki.apply_events_ms_p50": (20.5, "ms"),
    "ripki.index_build_ms": (142.857, "ms"),
    "stage.view_build_ms": (1.0, "ms"),
}


def verdict(correct=True, failed=0, **changed):
    rows = {**ROWS, **changed}
    metrics = {
        name: {"value": row[0], "unit": row[1]}
        for name, row in rows.items()
        if row is not None
    }
    line = {"correct": correct, "attempted": 45, "failed": failed, "metrics": metrics}
    return "some report text\n" + json.dumps(line) + "\n"


def gate(runs, expect_exit, expect_named=""):
    with tempfile.TemporaryDirectory() as tmp:
        args = []
        for workload, text in runs.items():
            path = os.path.join(tmp, workload + ".txt")
            with open(path, "w") as f:
                f.write(text)
            args.append(f"{workload}={path}")
        done = subprocess.run(
            [sys.executable, GATE] + args, capture_output=True, text=True
        )
    if done.returncode != expect_exit or expect_named not in done.stderr:
        sys.exit(
            f"bench gate self-test: {sorted(runs)} exited {done.returncode} "
            f"(expected {expect_exit} naming {expect_named!r}):\n"
            f"{done.stdout}{done.stderr}"
        )


ok = verdict()
gate({"study_full": ok, "churn_web": ok, "churn_rpki": ok}, 0)
gate(
    {"churn_rpki": verdict(**{"rpki.apply_ms_p50": (2.86, "ms")})},
    1,
    "÷ rpki.apply_ms_p50 @ churn_rpki: 280 < floor 400",
)
gate(
    {"churn_rpki": verdict(**{"payload.apply_ms_p50": (2.28, "ms")})},
    1,
    "÷ payload.apply_ms_p50 @ churn_rpki: 2.63 < floor 40",
)
gate(
    {"churn_rpki": verdict(**{"slurm.ingest_us_p50": (2536.0, "us")})},
    1,
    "÷ slurm.ingest_us_p50 @ churn_rpki: 2.37 < floor 40",
)
# The publish floor at traced seed-1 readings of a hand-off that bumps
# one count per 32-row chunk: it passes, although apply ÷ publish reads
# 5.2.
gate(
    {
        "study_full": verdict(**{"ripki.run_ms": (358.0, "ms")}),
        "churn_web": verdict(
            **{
                "ripki.apply_events_ms_p50": (10.02, "ms"),
                "stage.view_build_ms": (1.927, "ms"),
            }
        ),
    },
    0,
)
# A hand-off that bumps and drops one count per domain fails it.
gate(
    {
        "study_full": verdict(**{"ripki.run_ms": (489.0, "ms")}),
        "churn_web": verdict(**{"stage.view_build_ms": (8.3, "ms")}),
    },
    1,
    "÷ stage.view_build_ms @ churn_web: 58.9 < floor 100",
)
# So does one that also deep-copies the results table (≈ 76 ms).
gate(
    {
        "study_full": verdict(**{"ripki.run_ms": (489.0, "ms")}),
        "churn_web": verdict(**{"stage.view_build_ms": (84.3, "ms")}),
    },
    1,
    "÷ stage.view_build_ms @ churn_web: 5.8 < floor 100",
)
# The index floor at traced seed-1 readings of a build from the stored
# rows passes; a build that walks every name form again fails it.
gate(
    {
        "study_full": verdict(**{"ripki.run_ms": (521.4, "ms")}),
        "churn_web": verdict(**{"ripki.index_build_ms": (496.3, "ms")}),
    },
    0,
)
gate(
    {
        "study_full": verdict(**{"ripki.run_ms": (527.5, "ms")}),
        "churn_web": verdict(**{"ripki.index_build_ms": (1512.0, "ms")}),
    },
    1,
    "÷ ripki.index_build_ms @ churn_web: 0.349 < floor 0.7",
)
gate(
    {"study_full": verdict(**{"ripki.engine_new_ms": (85.0, "ms")})},
    1,
    "÷ ripki.engine_new_ms @ study_full: 2.35 < floor 20",
)
# The report floor at traced seed-1 readings of figures read off the
# stored chains passes; a Fig 3 that walks every name form through the
# zones again fails it, and so does one that resolves each in full.
gate(
    {
        "study_full": verdict(
            **{"ripki.run_ms": (271.6, "ms"), "ripki.figures_ms": (54.73, "ms")}
        ),
        "churn_web": ok,
    },
    0,
)
gate(
    {
        "study_full": verdict(
            **{"ripki.run_ms": (338.6, "ms"), "ripki.figures_ms": (138.3, "ms")}
        )
    },
    1,
    "÷ ripki.figures_ms @ study_full: 2.45 < floor 3",
)
gate(
    {"study_full": verdict(**{"ripki.figures_ms": (220.0, "ms")})},
    1,
    "÷ ripki.figures_ms @ study_full: 0.909 < floor 3",
)
gate({"churn_rpki": verdict(correct=False)}, 1, "churn_rpki: not a valid run")
gate({"churn_rpki": verdict(failed=2)}, 1, "churn_rpki: not a valid run")
gate(
    {"study_full": verdict(**{"ripki.run_ms": None}), "churn_web": ok},
    1,
    "ripki.run_ms @ study_full: row is missing",
)
gate({"study_full": ok}, 1, "ripki.apply_events_ms_p50 @ churn_web: row is missing")
print("bench gate self-test passed")

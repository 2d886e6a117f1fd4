"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs each workload with a one-op list at tiny size (figure --f-max 3, a
symbolic simulation at (n, mu) = (2, 3), a concrete one at (2, 2), L=64),
plain and traced, and checks that:
  - every metric BENCHMARK.json names is in the result, with its unit, and
    every end-to-end metric the harness reports is printed with its unit;
  - traced self times plus trace.unattributed_s add up to the traced wall_s;
  - a corrupted reference CSV, in a temp copy, makes the figure op fail;
  - an op that raises is counted as failed and the run still completes;
  - without src/ next to it the harness exits non-zero and prints no result.
Exits 0 when every check passes, 1 otherwise.
"""

import json
import math
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run as bench

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
TMP_PARENT = bench.OUT_DIR  # temporary files stay inside the checkout

rng = random.Random("smoke")
TINY = {
    "figure": [{"kind": "figure", "argv": ["figure", "--f-max", "3"]}],
    "simulate_symbolic": [bench._simulate_op(rng, "symbolic", 2, 3, 3, 8)],
    "simulate_concrete": [bench._simulate_op(rng, "concrete", 2, 2, 2, 64)],
}
PRINTED = [*bench.END_TO_END, *bench.PRINTED, "op_tail_s", "failed_frac"]

failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_metrics(workload, trace):
    run = bench.run_workload(workload, TINY[workload], 0, trace)
    lines, result = bench.summarize(run)
    text = "\n".join(lines)
    tag = f"{workload} trace={trace}"
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    check(result["correct"] and result["failed"] == 0, f"{tag}: every op verified")
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    check(
        {m["name"]: m["unit"] for m in wanted}
        == {name: m["unit"] for name, m in got.items()},
        f"{tag}: metrics and units match BENCHMARK.json",
    )
    check(
        all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
            for m in got.values()),
        f"{tag}: every value is a finite number",
    )
    printed = PRINTED + (["rate_efficiency"] if workload != "figure" else [])
    missing = [
        name for name in printed
        if f"{name} = " not in text and f"{name} omitted" not in text
    ]
    check(not missing, f"{tag}: printed with units {printed} (missing {missing})")
    if trace:
        metrics, wall = bench.per_layer(run["passes"])
        total = sum(metrics[m] for m in bench.LAYER_TIMES.values())
        total += metrics["trace.unattributed_s"]
        check(abs(total - wall) < 1e-9, f"{tag}: self times + unattributed = wall_s")


def check_corrupt_reference():
    with tempfile.TemporaryDirectory(dir=TMP_PARENT) as tmp:
        ref = Path(tmp) / "figure_reference.csv"
        lines = bench.FIGURE_REFERENCE.read_text().splitlines(keepends=True)
        lines[2] = lines[2].replace("0.679", "0.678", 1)  # row (n=3, g=2, f=2)
        ref.write_text("".join(lines))
        run = bench.run_workload("figure", TINY["figure"], 0, 0, reference_path=ref)
    _, result = bench.summarize(run)
    rec = run["passes"][0]["records"][0]
    check(result["failed"] == 1 and not result["correct"]
          and "reference" in rec["reason"], "corrupted reference CSV fails the figure op")


def check_raising_op():
    bad = dict(TINY["simulate_symbolic"][0], v=0)  # run_simulation raises UsageError
    run = bench.run_workload("simulate_symbolic", [bad] + TINY["simulate_symbolic"], 0, 0)
    lines, result = bench.summarize(run)
    rec = run["passes"][0]["records"][0]
    check(result["attempted"] == 2 and result["failed"] == 1
          and rec["reason"].startswith("UsageError"),
          "an op that raises is counted as failed, the run completes")


def check_no_program():
    with tempfile.TemporaryDirectory(dir=TMP_PARENT) as tmp:
        shutil.copy(bench.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(bench.BENCH_DIR, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "figure",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120,
        )
    check(done.returncode != 0 and "{" not in done.stdout,
          "without src/ the harness exits non-zero and prints no result")


def main() -> int:
    TMP_PARENT.mkdir(exist_ok=True)
    for workload in bench.WORKLOADS:
        for trace in (0, 1):
            check_metrics(workload, trace)
    check_corrupt_reference()
    check_raising_op()
    check_no_program()
    print(f"{len(failures)} failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

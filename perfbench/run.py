"""privcomp benchmark harness.

    python3 perfbench/run.py --workload figure --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the program under test is the
checkout's own `src/privcomp`, imported by every op.  Workloads:

  figure             `privcomp figure` with default arguments (cli.main)
  simulate_symbolic  run_simulation, symbolic mode, L=8, over a (n, mu) grid
  simulate_concrete  run_simulation, concrete mode, n=2, f=2, mu x L grid

The seed draws one fixed op list for the run.  The harness repeats that list
("a pass") in a closed loop, one op at a time, until --seconds have elapsed;
every op runs in a fresh interpreter (perfbench/child.py) and is verified.

--trace 0 prints the end-to-end metrics, measured untraced.  --trace 1
alternates traced and untraced passes and prints the per-layer split taken
from the traced ones, per pass.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; everything recorded (provenance,
per-op records, spans) goes to perfbench_results/<workload>-seed<n>-trace<t>.json.

Exit codes: 0 result printed; 2 the benchmark cannot run here (bad
arguments, no `src/privcomp`, or an op's interpreter cannot import it).
"""

import argparse
import hashlib
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench_results"
FIGURE_REFERENCE = BENCH_DIR / "figure_reference.csv"

# a run must end within 180 s, whatever --seconds asks for
RUN_BUDGET_S = 170.0

Q = 3
SYMBOLIC_L = 8
SYMBOLIC_GRID = [(2, 8), (4, 3), (3, 6), (5, 6), (2, 13)]
# known defects at this grid's scale: (4,4) reports privacy_ok false, (2,10)
# raises RecursionError in the relabeling search; run once per symbolic run,
# outside the timed passes, so they stay visible without skewing the timings
KNOWN_DEFECT_GRID = [(4, 4), (2, 10)]
CONCRETE_GRID = [(mu, length) for mu in (2, 3) for length in (512, 2048, 4096)]

WORKLOADS = ("figure", "simulate_symbolic", "simulate_concrete")

# gated in BENCHMARK.json; pass wall time is gated in units of the speed probe
# each op's interpreter times around its op (raw seconds are printed too)
END_TO_END = {"setup_s": "s", "wall_probes": "probes", "peak_rss_mb": "MB"}
PRINTED = {"wall_s": "s", "op_p50_s": "s", "op_p50_probes": "probes", "probe_s": "s"}

# span name -> per-layer self-time metric
LAYER_TIMES = {
    "candidates.build_monomial": "candidates.build_monomial.s",
    "candidates.table_entropy": "candidates.table_entropy.s",
    "candidates.order_by_entropy": "candidates.order_by_entropy.self_s",
    "candidates.generate": "candidates.generate.s",
    "candidates.sets": "candidates.sets.self_s",
    "rates": "rates.s",
    "cli": "cli.self_s",
    "protocol.store": "protocol.store.s",
    "protocol.plan": "protocol.plan.s",
    "protocol.privacy": "protocol.privacy.s",
    "protocol.codes": "protocol.codes.s",
    "protocol.answers": "protocol.answers.self_s",
    "protocol.decode": "protocol.decode.self_s",
    "protocol.simulation": "protocol.simulation.self_s",
    "coding.encode": "coding.encode.s",
    "coding.decode": "coding.decode.s",
    "coding.combine": "coding.combine.s",
}
LAYER_COUNTS = [
    "candidates.build_monomial.calls",
    "candidates.build_monomial.cells",
    "candidates.joint.cells",
    "candidates.sets.calls",
    "candidates.sets.distinct",
    "rates.calls",
    "protocol.plan.sums",
    "protocol.privacy.plans",
    "protocol.privacy.relabel_checked",
    "protocol.privacy.relabel_skipped",
    "protocol.privacy.failed",
    "protocol.codes.calls",
    "protocol.answers.sums",
    "coding.encode.calls",
    "coding.encode.atypical",
    "coding.encode.digits",
    "coding.decode.calls",
]
PER_LAYER = {name: "s" for name in LAYER_TIMES.values()}
PER_LAYER.update({name: "count" for name in LAYER_COUNTS})
PER_LAYER.update({"trace.unattributed_s": "s", "trace.overhead_frac": "fraction"})


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------- ops


def _simulate_op(rng, mode, n, mu, f, length):
    vectors = [e for e in itertools.product(range(Q), repeat=f) if any(e)]
    return {
        "kind": "simulate",
        "mode": mode,
        "n": n,
        "q": Q,
        "exponents": [list(e) for e in rng.sample(vectors, mu)],
        "L": length,
        "v": rng.randint(1, mu),
        "seed": rng.randrange(2**31),
    }


def make_ops(workload: str, seed: int) -> list:
    """The run's fixed op list; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "figure":
        return [{"kind": "figure", "argv": ["figure"]}]  # deterministic: seed unused
    if workload == "simulate_symbolic":
        return [_simulate_op(rng, "symbolic", n, mu, 3, SYMBOLIC_L) for n, mu in SYMBOLIC_GRID]
    if workload == "simulate_concrete":
        return [_simulate_op(rng, "concrete", 2, mu, 2, length) for mu, length in CONCRETE_GRID]
    raise HarnessError(f"unknown workload {workload!r}")


def known_defect_ops(workload: str, seed: int) -> list:
    if workload != "simulate_symbolic":
        return []
    rng = random.Random(f"known-defects:{seed}")
    return [_simulate_op(rng, "symbolic", n, mu, 3, SYMBOLIC_L) for n, mu in KNOWN_DEFECT_GRID]


def expected_figure_csv(reference: bytes, argv: list) -> bytes:
    """Reference CSV restricted to --f-max; the other arguments must be default."""
    f_max = 7
    if argv[1:]:
        if len(argv) != 3 or argv[1] != "--f-max":
            raise HarnessError(f"no captured reference for {argv}")
        f_max = int(argv[2])
    header, *rows = reference.decode().splitlines(keepends=True)
    return (header + "".join(r for r in rows if int(r.split(",")[2]) <= f_max)).encode()


# ------------------------------------------------------------------ one op


def run_op(op: dict, traced: bool, deadline: float, reference: bytes) -> dict:
    """Spawn a fresh interpreter for one op; return its verified record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    record = {"params": op, "traced": traced, "ok": False, "reason": None}
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
    )
    try:
        out, err = proc.communicate(
            json.dumps(dict(op, trace=int(traced))),
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        record["reason"] = "timeout: killed at the run's time budget"
        return record
    if proc.returncode == 3:
        raise HarnessError(f"the op's interpreter cannot import privcomp: {err.strip()}")
    try:
        result = json.loads(out)
    except ValueError:
        tail = err.strip().splitlines()[-1:] or [""]
        record["reason"] = f"child exited {proc.returncode} without a result: {tail[0][:300]}"
        return record
    if not Path(result["privcomp_file"]).resolve().is_relative_to(SRC):
        raise HarnessError(f"privcomp imported from {result['privcomp_file']}, not {SRC}")
    record["setup_s"] = result["ready"] - spawned
    record["rss_mb"] = result["rss_kb"] / 1024
    for key in ("op_s", "probe_s", "privacy_ok", "recovery_ok", "rate_efficiency",
                "decode_failure_rate", "spans", "counts"):
        if key in result:
            record[key] = result[key]
    reason = result["reason"]
    if reason is None and op["kind"] == "figure":
        if result["csv"].encode() != expected_figure_csv(reference, op["argv"]):
            reason = "figure CSV differs from the captured reference"
    record["ok"] = reason is None
    record["reason"] = reason
    return record


# ----------------------------------------------------------------- the run


def run_workload(workload, ops, seconds, trace, reference_path=FIGURE_REFERENCE,
                 defect_ops=()):
    """Repeat the op list for about `seconds`; returns the raw run.

    With trace, passes alternate traced / untraced, starting traced, and at
    least one of each is made.
    """
    reference = Path(reference_path).read_bytes()
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    passes = []
    while True:
        traced = bool(trace) and len(passes) % 2 == 0
        t0 = time.monotonic()
        records = []
        for i, op in enumerate(ops):
            rec = run_op(op, traced, deadline, reference)
            rec["id"] = f"p{len(passes)}-o{i}"
            records.append(rec)
        passes.append({"traced": traced, "wall_s": time.monotonic() - t0, "records": records})
        elapsed = time.monotonic() - start
        walls = [p["wall_s"] for p in passes]
        if elapsed + max(walls) > RUN_BUDGET_S:
            break
        # stop once another pass would likely end more than half a pass late
        if elapsed + statistics.median(walls) / 2 >= seconds and (
            not trace or len(passes) >= 2
        ):
            break
    defects = []
    for i, op in enumerate(defect_ops):
        rec = run_op(op, False, deadline, reference)
        rec["id"] = f"defect-o{i}"
        defects.append(rec)
    return {"workload": workload, "trace": bool(trace), "passes": passes,
            "known_defects": defects}


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(passes) -> dict:
    """Untraced metrics; times in probes are divided by their pass's mean probe."""
    records = [r for p in passes for r in p["records"]]
    done = [r for r in records if "op_s" in r]
    in_probes = []
    walls_in_probes = []
    for p in passes:
        probes = [r["probe_s"] for r in p["records"] if "probe_s" in r]
        probe = statistics.fmean(probes) if probes else float("nan")
        walls_in_probes.append(p["wall_s"] / probe)
        in_probes += [r["op_s"] / probe for r in p["records"] if "op_s" in r]
    return {
        "setup_s": _median([r["setup_s"] for r in records if "setup_s" in r]),
        "wall_probes": _median(walls_in_probes),
        "peak_rss_mb": max((r["rss_mb"] for r in records if "rss_mb" in r), default=float("nan")),
        "op_p50_probes": _median(in_probes),
        "wall_s": _median([p["wall_s"] for p in passes]),
        "op_p50_s": _median([r["op_s"] for r in done]),
        "probe_s": _median([r["probe_s"] for r in records if "probe_s" in r]),
    }


def op_tail(passes):
    """(percentile, value, ops) for the highest percentile with 10 ops beyond it."""
    times = sorted(r["op_s"] for p in passes for r in p["records"] if "op_s" in r)
    if len(times) < 20:
        return None
    k = len(times) - 10  # rank of the tail value; 10 ops lie above it
    return 100.0 * k / len(times), times[k - 1], len(times)


def self_times(spans) -> dict:
    """Per span name: span duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    out = defaultdict(float)
    for (name, t0, t1, _), covered in zip(spans, child_time):
        out[name] += (t1 - t0) - covered
    return out


def per_layer(passes) -> tuple:
    """Per-pass layer metrics from the traced passes, and their mean wall time."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    k = len(traced)
    times = defaultdict(float)
    counts = Counter()
    for p in traced:
        for r in p["records"]:
            for name, s in self_times(r.get("spans", [])).items():
                times[name] += s
            counts.update(r.get("counts", {}))
    unknown = set(times) - set(LAYER_TIMES)
    if unknown:
        raise HarnessError(f"spans without a metric: {sorted(unknown)}")
    metrics = {LAYER_TIMES[name]: times[name] / k for name in LAYER_TIMES}
    for name in LAYER_COUNTS:
        total = counts[name]
        metrics[name] = total // k if total % k == 0 else total / k
    wall = sum(p["wall_s"] for p in traced) / k
    metrics["trace.unattributed_s"] = wall - sum(metrics[m] for m in LAYER_TIMES.values())
    metrics["trace.overhead_frac"] = (
        _median([p["wall_s"] for p in traced]) / _median([p["wall_s"] for p in plain]) - 1
    )
    return metrics, wall


# ---------------------------------------------------------- report and I/O


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(workload, seed, seconds, trace, ops):
    return {
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "ops": ops,
        "python": sys.version,
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def summarize(run) -> tuple:
    """Human-readable lines and the final result object of a run."""
    passes = run["passes"]
    records = [r for p in passes for r in p["records"]]
    failed = [r for r in records if not r["ok"]]
    plain = [p for p in passes if not p["traced"]]
    e2e = end_to_end(plain)
    lines = [
        f"workload {run['workload']}: {len(passes)} passes "
        f"({sum(p['traced'] for p in passes)} traced), {len(records)} ops, "
        f"{len(failed)} failed",
    ]
    for name, unit in {**END_TO_END, **PRINTED}.items():
        lines.append(f"  {name} = {e2e[name]!r} {unit}")
    tail = op_tail(plain)
    if tail is None:
        n_ops = sum(len(p["records"]) for p in plain)
        lines.append(f"  op_tail_s omitted: {n_ops} untraced ops, fewer than 20")
    else:
        pct, value, n_ops = tail
        lines.append(f"  op_tail_s = {value!r} s (p{pct:.1f} of {n_ops} ops, 10 beyond it)")
    lines.append(f"  failed_frac = {len(failed) / len(records)!r} fraction "
                 f"({len(failed)} of {len(records)})")
    effs = [r["rate_efficiency"] for r in records if r["ok"] and "rate_efficiency" in r]
    if effs:
        lines.append(f"  rate_efficiency = {statistics.fmean(effs)!r} ratio "
                     f"(mean rate_measured/rate_formula over {len(effs)} ops)")
    for r in failed[:5]:
        lines.append(f"  failed {r['id']}: {r['reason']}")
    for r in run["known_defects"]:
        p = r["params"]
        verdict = "passes now" if r["ok"] else f"fails: {r['reason']}"
        lines.append(f"  known defect (n={p['n']}, mu={len(p['exponents'])}) {verdict}")
    if run["trace"]:
        metrics, wall = per_layer(passes)
        lines.append(f"  traced wall_s per pass = {wall!r} s; per-layer self times "
                     f"+ trace.unattributed_s add up to it")
        for name, unit in PER_LAYER.items():
            lines.append(f"  {name} = {metrics[name]!r} {unit}")
        units = PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return lines, result


def write_results(run, prov, result, path):
    path.parent.mkdir(parents=True, exist_ok=True)
    ops = [
        {k: v for k, v in r.items() if k not in ("spans", "counts")}
        for p in run["passes"] for r in p["records"]
    ]
    spans = [
        [name, t0, t1, parent, r["id"]]
        for p in run["passes"] for r in p["records"]
        for name, t0, t1, parent in r.get("spans", [])
    ]
    doc = {
        "provenance": prov,
        "result": result,
        "pass_walls_s": [[p["traced"], p["wall_s"]] for p in run["passes"]],
        "op_records": ops,
        "known_defects": run["known_defects"],
        "spans": spans,  # name, start, end, parent index within the op, op id
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "privcomp" / "__init__.py").is_file():
            raise HarnessError(f"no program to benchmark: {SRC / 'privcomp'} is missing")
        ops = make_ops(args.workload, args.seed)
        prov = provenance(args.workload, args.seed, args.seconds, args.trace, ops)
        run = run_workload(args.workload, ops, args.seconds, args.trace,
                           defect_ops=known_defect_ops(args.workload, args.seed))
        lines, result = summarize(run)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    write_results(run, prov, result, out)
    print("\n".join(lines))
    print(f"  records: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

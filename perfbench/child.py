"""One benchmark op, run in a fresh interpreter started by run.py.

Protocol with the harness:
  1. import privcomp (from the PYTHONPATH the harness sets) and stamp the
     ready time on the shared monotonic clock;
  2. read one JSON op from stdin: {"kind": "figure", "argv": [...]} or
     {"kind": "simulate", "mode", "n", "q", "exponents", "L", "v", "seed"},
     plus "trace": 0|1;
  3. time the speed probe, run the op (timed), time the probe again, verify
     what only the program's own formulas can check, and write one JSON
     result object to stdout.

Exit codes: 0 result written (the op itself may have failed), 3 privcomp
could not be imported.  An exception raised by the op is caught and
reported as a failed op, never as a crash.

With "trace": 1 the public functions of candidates, rates, protocol and
coding are wrapped at the module attributes their callers look up, and every
call is recorded as a span (name, start, end, parent) in memory.
"""

import functools
import io
import json
import resource
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

try:
    import privcomp
    from privcomp import candidates, cli, protocol, rates
except ImportError as exc:
    print(f"cannot import privcomp: {exc}", file=sys.stderr)
    sys.exit(3)

READY = time.monotonic()

REL_TOL = 1e-12


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


# ------------------------------------------------------------------ tracing


class Tracer:
    """Spans and counters of one op, kept in memory until the op ends."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.stack = []
        self.counts = Counter()
        self.sets = set()  # distinct arguments of the candidate sets built
        self.stopped = False  # set once the op is done, before verification

    def call(self, name, fn, args, kwargs, count):
        # a layer calling itself (rates -> rates) stays one span, one call
        if self.stopped or (self.stack and self.spans[self.stack[-1]][0] == name):
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()
        if count is not None:
            count(self, args, kwargs, result)
        return result


def _wrap(tracer, owner, attr, name, count=None):
    """Replace owner.attr with a traced version; name may depend on the call."""
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def traced(*args, **kwargs):
        span = name(args, kwargs) if callable(name) else name
        return tracer.call(span, orig, args, kwargs, count)

    setattr(owner, attr, traced)


def _count_build(t, args, kwargs, table):
    t.counts["candidates.build_monomial.calls"] += 1
    t.counts["candidates.build_monomial.cells"] += len(table.values)


def _count_order(t, args, kwargs, cs):
    t.counts["candidates.joint.cells"] += cs.mu * cs.q**cs.f


def _count_sets(t, args, kwargs, cs):
    t.counts["candidates.sets.calls"] += 1
    key = repr((args, sorted(kwargs.items())))
    if key not in t.sets:
        t.sets.add(key)
        t.counts["candidates.sets.distinct"] += 1


def _count_rates(t, args, kwargs, result):
    t.counts["rates.calls"] += 1


def _plan_or_privacy(args, kwargs):
    # sibling plans for the privacy check reuse the real plan's permutation
    return "protocol.privacy" if kwargs.get("permutation") is not None else "protocol.plan"


def _count_plan(t, args, kwargs, plan):
    if kwargs.get("permutation") is not None:
        t.counts["protocol.privacy.plans"] += 1
    else:
        t.counts["protocol.plan.sums"] += len(plan.sums)


def _count_verify(t, args, kwargs, report):
    if report.relabeling_ok is None:
        t.counts["protocol.privacy.relabel_skipped"] += 1
    else:
        t.counts["protocol.privacy.relabel_checked"] += 1
    if not report.ok:
        t.counts["protocol.privacy.failed"] += 1


def _count_codes(t, args, kwargs, codes):
    t.counts["protocol.codes.calls"] += 1


def _count_answers(t, args, kwargs, result):
    _, ledger = result
    t.counts["protocol.answers.sums"] += len(ledger)


def _count_encode(t, args, kwargs, cw):
    t.counts["coding.encode.calls"] += 1
    t.counts["coding.encode.atypical"] += int(cw.atypical)
    t.counts["coding.encode.digits"] += cw.code.codeword_len


def _count_decode(t, args, kwargs, seq):
    t.counts["coding.decode.calls"] += 1


def install_tracing(tracer: Tracer):
    c = candidates
    _wrap(tracer, c, "build_monomial", "candidates.build_monomial", _count_build)
    _wrap(tracer, c, "table_entropy", "candidates.table_entropy")
    _wrap(tracer, c, "order_by_entropy", "candidates.order_by_entropy", _count_order)
    _wrap(tracer, c, "generate_nonparallel_monomials", "candidates.generate")
    _wrap(tracer, c, "monomial_candidate_set", "candidates.sets", _count_sets)
    _wrap(tracer, c, "candidate_set_from_exponents", "candidates.sets", _count_sets)
    for attr, fn in vars(rates).copy().items():
        if (
            not attr.startswith("_")
            and callable(fn)
            and not isinstance(fn, type)
            and getattr(fn, "__module__", None) == rates.__name__
        ):
            _wrap(tracer, rates, attr, "rates", _count_rates)
    p = protocol
    generate = p.MessageStore.generate  # bound classmethod
    p.MessageStore.generate = staticmethod(
        lambda *a, **k: tracer.call("protocol.store", generate, a, k, None)
    )
    _wrap(tracer, p, "evaluate_candidates", "protocol.store")
    _wrap(tracer, p, "generate_query_plan", _plan_or_privacy, _count_plan)
    _wrap(tracer, p, "verify_privacy_structure", "protocol.privacy", _count_verify)
    _wrap(tracer, p, "build_concrete_codes", "protocol.codes", _count_codes)
    _wrap(tracer, p, "answer_queries", "protocol.answers", _count_answers)
    _wrap(tracer, p, "decode", "protocol.decode")
    _wrap(tracer, p, "run_simulation", "protocol.simulation")
    _wrap(tracer, p, "encode_fixed", "coding.encode", _count_encode)
    _wrap(tracer, p, "decode_fixed", "coding.decode", _count_decode)
    for attr in ("sum_codewords", "subtract_codewords", "widen_codeword"):
        _wrap(tracer, p, attr, "coding.combine")
    _wrap(tracer, cli, "main", "cli")


# ---------------------------------------------------------------------- ops


# each op runs, records its time and outputs in `out`, and returns the check
# to run once tracing has stopped: a callable giving the failure reason or None


def run_figure(op, out):
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        t0 = time.perf_counter()
        code = cli.main(list(op["argv"]))
        out["op_s"] = time.perf_counter() - t0
    # the CSV is compared byte for byte with the captured one by the harness
    out["exit_code"] = code
    out["csv"] = stdout.getvalue()
    out["stderr"] = stderr.getvalue()[-2000:]
    reason = f"figure exited {code}: {out['stderr'].strip()[-300:]}" if code else None
    return lambda: reason


def run_simulate(op, out):
    t0 = time.perf_counter()
    cs = candidates.candidate_set_from_exponents(op["exponents"], op["q"])
    config = protocol.SimulationConfig(
        n=op["n"],
        candidate_set=cs,
        length=op["L"],
        v=op["v"],
        mode=op["mode"],
        seed=op["seed"],
    )
    report = protocol.run_simulation(config)
    out["op_s"] = time.perf_counter() - t0
    return functools.partial(verify_simulation, config, report, out)


def verify_simulation(config, report, out):
    """Reason the report is wrong, or None; also records the rate ratio."""
    out["privacy_ok"] = report.privacy_ok
    out["recovery_ok"] = report.recovery_ok
    out["decode_failure_rate"] = report.decode_failure_rate
    out["rate_efficiency"] = report.rate_measured / report.rate_formula
    if report.privacy_ok is False:
        return "privacy_ok is false"
    if not report.recovery_ok:
        return "recovery failed"
    if config.mode != "symbolic":
        return None
    n, profile, length = config.n, config.candidate_set.profile, config.length
    expected_total = length * rates.d_one(n, profile)
    if not _close(report.total_download, expected_total):
        return f"ledger total {report.total_download!r} != L*d_one {expected_total!r}"
    for tau, charge in report.per_round:
        expected = length * rates.round_download(tau, n, profile)
        if not _close(charge, expected):
            return f"round {tau} charge {charge!r} != L*round_download {expected!r}"
    if not _close(report.rate_measured, report.rate_formula):
        return f"rate_measured {report.rate_measured!r} != rate_formula {report.rate_formula!r}"
    return None


OPS = {"figure": run_figure, "simulate": run_simulate}


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes now, best of 3.

    The harness divides op and pass times by it, so that the host's changing
    CPU throughput cancels out of the gated metrics.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        table = {}
        for i in range(20000):
            table[i & 1023] = (i * i) % 7
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    op = json.loads(sys.stdin.read())
    out = {"ready": READY, "privcomp_file": privcomp.__file__}
    probe_before = speed_probe()
    tracer = None
    if op.get("trace"):
        tracer = Tracer()
        install_tracing(tracer)
    try:
        check = OPS[op["kind"]](op, out)
        if tracer is not None:
            tracer.stopped = True
        out["reason"] = check()
    except Exception as exc:  # the op failed; the harness counts it
        tb = traceback.extract_tb(exc.__traceback__)
        where = f" at {tb[-1].name}" if tb else ""
        out["reason"] = f"{type(exc).__name__}: {str(exc)[:200]}{where}"
    out["probe_s"] = (probe_before + speed_probe()) / 2
    out["ok"] = out["reason"] is None
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counts"] = dict(tracer.counts)
    sys.stdout.write(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

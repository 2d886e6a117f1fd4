"""Command-line front end: rate tables, figure sweeps, candidate listings,
entropy queries, and protocol simulations.

Output is JSON (or CSV for `figure`) with floats rounded to 12 significant
digits, so repeated runs with the same inputs are byte-identical.  Exit codes:
0 ok, 1 verification failure, 2 usage error, 3 resource guard.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from contextlib import nullcontext
from importlib import resources

from . import candidates as cand
from . import protocol, rates
from ._numpy import np
from .errors import (
    DegenerateInstanceError,
    ProtocolError,
    ResourceLimitError,
    UsageError,
)

FIGURE_TOL = 1e-9

# `entropy` prints one "c/d" string per field value: q ~ 10^5 takes ~0.35 s,
# 67 MB peak RSS and 2 MB of output; q ~ 10^6 took 4.3 s and 393 MB
PMF_CAP = 10**5

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round_floats(obj):
    if isinstance(obj, float):  # JSON has no infinity or NaN: they print null
        return float(_fmt(obj)) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _write(text: str, path=None):
    """Write text to path, or to stdout when path is empty.  An OSError at
    open, write or close is a usage error."""
    try:
        with open(path, "w", newline="") if path else nullcontext(sys.stdout) as out:
            out.write(text)
            out.flush()
    except OSError as exc:
        if not path:  # the flush at exit then writes to the null device
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        where = f"--out {path}" if path else "stdout"
        raise UsageError(f"cannot write {where}: {exc.strerror or exc}") from None


def _emit_json(obj):
    _write(json.dumps(_round_floats(obj), indent=2) + "\n")


def _parse_int_list(text: str, option: str) -> list:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise UsageError(f"{option} must be a comma list of integers")


def _database_count(n: int) -> int:
    try:
        float(n)  # the rate formulas divide by n
    except OverflowError:
        raise UsageError(f"--n has {len(str(abs(n)))} digits, too many for a float") from None
    return n


def parse_candidates(text: str):
    """Parse '1,0;0,1;1,1' into exponent vectors, reporting error positions."""
    vectors = []
    for pos, chunk in enumerate(text.split(";"), start=1):
        chunk = chunk.strip()
        if not chunk:
            raise UsageError(f"candidate {pos} is empty")
        try:
            vec = tuple(int(tok) for tok in chunk.split(","))
        except ValueError:
            raise UsageError(f"candidate {pos} ({chunk!r}) is not a comma list of integers")
        if any(x < 0 for x in vec):
            raise UsageError(f"candidate {pos} has a negative exponent")
        vectors.append(vec)
    return vectors


def _candidate_set_from_args(args) -> cand.CandidateSet:
    if args.candidates is not None:
        return cand.candidate_set_from_exponents(parse_candidates(args.candidates), args.q)
    if args.f is None or args.g is None:
        raise UsageError("provide either --candidates or both --f and --g")
    return cand.monomial_candidate_set(args.f, args.g, args.q)


def cmd_rates(args) -> int:
    cs = _candidate_set_from_args(args)
    report = rates.rate_report(_database_count(args.n), cs)
    out = {"q": args.q}
    out.update(report.as_dict())
    _emit_json(out)
    return EXIT_OK


def load_reference_figure() -> dict:
    """Embedded reference values for the rate sweep, keyed by (n, g, f)."""
    ref = {}
    text = resources.files("privcomp").joinpath("data/fig1_reference.csv").read_text()
    for row in csv.DictReader(io.StringIO(text)):
        key = (int(row["n"]), int(row["g"]), int(row["f"]))
        ref[key] = (float(row["achievable"]), float(row["converse"]))
    return ref


def figure_rows(q: int, ns, gs, f_max: int):
    """One row per (n, g, f): candidate count, entropies, both bounds."""
    rows = []
    profiles = {}  # (f, g) -> profile; each candidate set is built once
    for n in ns:
        for g in gs:
            for f in range(1, f_max + 1):
                if (f, g) not in profiles:
                    profiles[f, g] = cand.monomial_candidate_set(f, g, q).profile
                profile = profiles[f, g]
                rows.append(
                    {
                        "n": n,
                        "g": g,
                        "f": f,
                        "mu": profile.mu,
                        "h_min": profile.h_min,
                        "achievable": rates.achievable_rate(n, profile),
                        "converse": rates.outer_bound(n, profile),
                    }
                )
    return rows


def cmd_figure(args) -> int:
    ns = [_database_count(n) for n in _parse_int_list(args.n, "--n")]
    gs = _parse_int_list(args.g, "--g")
    if args.f_max < 1:
        raise UsageError("--f-max must be >= 1")
    rows = figure_rows(args.q, ns, gs, args.f_max)
    lines = ["n,g,f,mu,h_min,achievable,converse"]
    for r in rows:
        lines.append(
            f"{r['n']},{r['g']},{r['f']},{r['mu']},"
            f"{_fmt(r['h_min'])},{_fmt(r['achievable'])},{_fmt(r['converse'])}"
        )
    _write("\n".join(lines) + "\n", args.out)

    reference = load_reference_figure() if args.q == 3 else {}
    checked = []  # (n, g, f, deviation) of each printed row with a reference
    for r in rows:
        if (key := (r["n"], r["g"], r["f"])) in reference:
            ref_ach, ref_conv = reference[key]
            dev = max(abs(r["achievable"] - ref_ach), abs(r["converse"] - ref_conv))
            checked.append((*key, dev))
    worst = max([0.0] + [dev for *_, dev in checked])
    failures = [f"(n={n}, g={g}, f={f}): deviation {dev:.3e}"
                for n, g, f, dev in checked if dev > FIGURE_TOL]
    if failures:
        print(f"reference mismatch on {len(failures)} rows (tolerance {FIGURE_TOL:g}):",
              *failures, sep="\n  ", file=sys.stderr)
        return EXIT_VERIFICATION
    if reference and not checked:
        print(
            f"0 of {len(rows)} printed rows have a reference value; "
            f"nothing was checked",
            file=sys.stderr,
        )
    elif reference:
        unchecked = len(rows) - len(checked)
        print(
            f"all {len(checked)} reference rows matched (worst deviation {worst:.3e})"
            + (f"; {unchecked} of {len(rows)} printed rows have no reference "
               f"value and were not checked" if unchecked else ""),
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_monomials(args) -> int:
    vectors = cand.generate_nonparallel_monomials(args.f, args.g, args.q)
    entropies = [cand.monomial_entropy(e, args.q) for e in vectors]
    _emit_json(
        {
            "q": args.q,
            "f": args.f,
            "g": args.g,
            "count": len(vectors),
            "h_min": min(entropies),
            "h_max": max(entropies),
            "monomials": [
                {"exponents": list(e), "entropy": h} for e, h in zip(vectors, entropies)
            ],
        }
    )
    return EXIT_OK


def cmd_entropy(args) -> int:
    if (args.monomial is None) == (args.table is None):
        raise UsageError("provide exactly one of --monomial or --table")
    cand.require_prime(args.q)  # the search for f below needs q >= 2
    if args.q > PMF_CAP:
        raise ResourceLimitError(
            f"a pmf of {args.q} field values exceeds the pmf cap of {PMF_CAP}"
        )
    if args.monomial is not None:
        vec = parse_candidates(args.monomial)
        if len(vec) != 1:
            raise UsageError("--monomial takes a single exponent vector")
        table = cand.build_monomial(vec[0], args.q)
    else:
        values = _parse_int_list(args.table, "--table")
        f = 0
        while args.q**f < len(values):
            f += 1
        table = cand.FunctionTable(q=args.q, f=f, values=values)
    from fractions import Fraction  # only here: it costs ~4 ms to import

    pmf = {}
    for v, c in enumerate(np.bincount(table.values, minlength=args.q).tolist()):
        p = Fraction(c, len(table.values))
        pmf[str(v)] = f"{p.numerator}/{p.denominator}"
    _emit_json({"q": args.q, "entropy": cand.table_entropy(table), "pmf": pmf})
    return EXIT_OK


def cmd_simulate(args) -> int:
    cs = cand.candidate_set_from_exponents(parse_candidates(args.candidates), args.q)
    config = protocol.SimulationConfig(
        n=args.n,
        candidate_set=cs,
        length=args.L,
        v=args.v,
        mode=args.mode,
        seed=args.seed,
        epsilon=args.epsilon,
    )
    report = protocol.run_simulation(config)
    _emit_json(report.as_dict())
    if not (report.recovery_ok and report.privacy_ok):
        return EXIT_VERIFICATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privcomp",
        description="Private-computation rate bounds and protocol simulator "
        "for replicated databases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="all rate bounds for one candidate set")
    p.add_argument("--n", type=int, required=True, help="number of databases")
    p.add_argument("--q", type=int, required=True, help="field size (prime)")
    p.add_argument("--f", type=int, help="number of messages (with --g)")
    p.add_argument("--g", type=int, help="max monomial degree (with --f)")
    p.add_argument("--candidates", help="explicit monomials, e.g. '1,0;0,1;1,1'")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("figure", help="rate sweep over (n, g, f), CSV output")
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--n", default="3,5", help="comma list of database counts")
    p.add_argument("--g", default="2,3", help="comma list of max degrees")
    p.add_argument("--f-max", type=int, default=7, dest="f_max")
    p.add_argument("--out", help="CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("monomials", help="list nonparallel monomial candidates")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.set_defaults(func=cmd_monomials)

    p = sub.add_parser("entropy", help="exact pmf and q-ary entropy of a function")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--monomial", help="exponent vector, e.g. '1,1'")
    p.add_argument("--table", help="full value table, comma separated")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("simulate", help="run the retrieval protocol end to end")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--L", type=int, default=16, help="symbols per segment")
    p.add_argument("--v", type=int, required=True, help="desired candidate (1-based, entropy order)")
    p.add_argument("--mode", choices=["symbolic", "concrete"], default="symbolic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=protocol.DEFAULT_EPSILON,
                   help="entropy slack per symbol in concrete mode")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, DegenerateInstanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (RecursionError, MemoryError) as exc:
        print(f"resource guard: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ProtocolError as exc:
        print(f"protocol failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())

"""Property test (hypothesis) of the command line's argument grammar: every
argument vector, over every subcommand and option, ends in a documented exit
code (0 ok, 1 verification failure, 2 usage error, 3 resource guard) within a
few seconds and with no traceback, and a successful run prints JSON or CSV
that parses.  Valid values are kept small, so a slow example is a guard that
computes before it refuses."""

import contextlib
import csv
import io
import json
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from privcomp.cli import main

# the value classes every option is driven over; "valid" draws one of the
# option's own small valid values (None: left out), "omit" leaves it out
LITERALS = {
    "zero": ["0"],
    "one": ["1"],
    "minus_one": ["-1"],
    "past_double": ["1" + "0" * 309],
    "large": ["100000000"],
    "non_prime": ["9", "100"],
    "malformed": ["x", "", "1.5", "3,,x"],
}
CLASSES = ["valid", "omit", *LITERALS]

# subcommand -> option -> small valid values
GRAMMAR = {
    "rates": {
        "--n": ["2", "3"],
        "--q": ["2", "3", "5"],
        "--f": ["1", "2", "3"],
        "--g": ["1", "2", "3"],
        "--candidates": [None, "1,0;0,1;1,1", "1;2"],
    },
    "figure": {
        "--q": ["2", "3"],
        "--n": ["3", "2,5"],
        "--g": ["1", "2,3"],
        "--f-max": ["1", "3"],
        "--out": [None, "out.csv"],
    },
    "monomials": {
        "--q": ["2", "3", "5"],
        "--f": ["1", "2", "3"],
        "--g": ["1", "2", "3"],
    },
    "entropy": {
        "--q": ["2", "3", "5"],
        "--monomial": [None, "1,1", "2"],
        "--table": [None, "0,1,2", "1,0,0,1"],
    },
    "simulate": {
        "--n": ["2", "3", "4"],
        "--q": ["2", "3", "5", "7"],
        "--candidates": ["1", "1,0;0,1", "1,0;0,1;1,1"],
        "--L": ["1", "4", "16"],
        "--v": ["1", "2"],
        "--mode": ["symbolic", "concrete"],
        "--seed": ["0", "7"],
        "--epsilon": ["0.05", "0.3"],
    },
}
# --out is a path in a fresh directory: its other classes are a file in a
# missing directory and the directory itself
OUT_PATHS = {"malformed": "missing/out.csv", "zero": "."}


@st.composite
def argument_vectors(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    argv = [command]
    for option, valid in GRAMMAR[command].items():
        # valid three times in four, so whole valid vectors are common
        kind = draw(st.sampled_from(CLASSES)) if draw(st.integers(0, 3)) == 0 else "valid"
        if kind == "valid":
            value = draw(st.sampled_from(valid))
        elif option == "--out":
            value = OUT_PATHS.get(kind)
        else:
            value = None if kind == "omit" else draw(st.sampled_from(LITERALS[kind]))
        if value is not None:
            argv += [option, value]
    return argv


def run(argv, workdir):
    """Exit code, stdout and stderr of cli.main, paths relative to workdir."""
    # the value after --out, its predecessor, is a path in workdir
    argv = [str(workdir / a) if b == "--out" else a for b, a in zip([""] + argv, argv)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a malformed vector
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(deadline=timedelta(seconds=3), max_examples=400)
@given(argument_vectors())
# 3^(10^8) takes minutes to evaluate: the cap must refuse without it
@example(["monomials", "--q", "3", "--f", "100000000", "--g", "1"])
@example(["rates", "--n", "3", "--q", "3", "--f", "100000000", "--g", "1"])
def test_every_argument_vector_ends_in_a_documented_exit_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        code, out, err = run(argv, workdir)
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "Traceback" not in err
        written = workdir / "out.csv"
        printed = written.read_text() if written.exists() else out
    if code == 0 and argv[0] == "figure":
        rows = list(csv.DictReader(io.StringIO(printed)))
        assert rows and list(rows[0]) == "n g f mu h_min achievable converse".split()
    elif code == 0:
        assert isinstance(json.loads(out), dict)
    elif code == 1:
        # a verification failure says so: on stderr, or as a false flag in
        # the simulation report
        report = json.loads(out) if argv[0] == "simulate" else {}
        assert err.startswith(("protocol failure: ", "reference mismatch ")) or (
            False in (report.get("recovery_ok"), report.get("privacy_ok"))
        ), (argv, out, err)
    else:
        assert out == "" and err.count("\n") >= 1, (argv, out, err)

import csv
import errno
import hashlib
import json
import math
import os
import time

import pytest

from privcomp.cli import _fmt, main, parse_candidates
from privcomp import UsageError, candidate_set_from_exponents, d_one
from test_rates import achievable_messages_oracle, outer_messages_oracle


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------- rates


def test_rates_generated_monomials(capsys):
    code, out, _ = run_cli(capsys, "rates", "--n", "3", "--q", "3", "--f", "2", "--g", "2")
    assert code == 0
    data = json.loads(out)
    assert data["achievable"] == pytest.approx(0.679284448510, abs=1e-9)
    assert data["outer_bound"] == pytest.approx(0.679284448510, abs=1e-9)
    assert data["capacity_met"] is True
    assert data["mu"] == 3


def test_rates_explicit_candidates(capsys):
    code, out, _ = run_cli(
        capsys, "rates", "--n", "2", "--q", "3", "--candidates", "1,0;1,1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["achievable"] == pytest.approx(0.679284449, abs=1e-6)
    assert data["capacity_met"] is True


@pytest.mark.parametrize(
    "n,f,met", [("100000", "3", False), ("10000000", "2", True)]
)
def test_rates_capacity_met_at_large_n(capsys, n, f, met):
    # at f = 3 the achievable rate is below the bound for every n, however
    # close the two print; at f = 2 it meets it
    code, out, _ = run_cli(capsys, "rates", "--n", n, "--q", "3", "--f", f, "--g", "2")
    assert code == 0
    assert json.loads(out)["capacity_met"] is met


def test_rates_degree_one_is_pir_capacity(capsys):
    code, out, _ = run_cli(capsys, "rates", "--n", "2", "--q", "3", "--f", "2", "--g", "1")
    assert code == 0
    data = json.loads(out)
    assert data["achievable"] == pytest.approx(2 / 3, abs=1e-9)
    assert data["outer_bound"] == pytest.approx(2 / 3, abs=1e-9)


def test_rates_byte_stable(capsys):
    _, out1, _ = run_cli(capsys, "rates", "--n", "3", "--q", "3", "--f", "3", "--g", "3")
    _, out2, _ = run_cli(capsys, "rates", "--n", "3", "--q", "3", "--f", "3", "--g", "3")
    assert out1 == out2


def test_rates_missing_parameters(capsys):
    code, _, err = run_cli(capsys, "rates", "--n", "3", "--q", "3")
    assert code == 2
    assert "candidates" in err


# -------------------------------------------------------------------- figure


def test_figure_matches_reference(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, err = run_cli(capsys, "figure", "--out", str(out_path))
    assert code == 0
    assert "matched" in err
    rows = {
        (int(r["n"]), int(r["g"]), int(r["f"])): r
        for r in csv.DictReader(out_path.open())
    }
    assert len(rows) == 28
    assert float(rows[(5, 2, 4)]["achievable"]) == pytest.approx(
        0.724681083948884, abs=1e-9
    )
    assert float(rows[(3, 3, 5)]["converse"]) == pytest.approx(
        0.495431172326667, abs=1e-9
    )
    for n in (3, 5):
        for g in (2, 3):
            row = rows[(n, g, 1)]
            assert float(row["achievable"]) == 1.0
            assert float(row["converse"]) == 1.0
            assert int(row["mu"]) == 1  # degenerate single-candidate instance
    for r in rows.values():
        assert float(r["achievable"]) <= float(r["converse"]) + 1e-12


def test_figure_byte_stable(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "figure", "--out", str(a))
    run_cli(capsys, "figure", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")
    assert b"\r" not in a.read_bytes()


@pytest.mark.parametrize("target", ["missing/sweep.csv", "."])
def test_figure_unwritable_out_is_usage_error(tmp_path, capsys, target):
    code, out, err = run_cli(capsys, "figure", "--out", str(tmp_path / target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write --out {tmp_path / target}: ")
    assert err.count("\n") == 1  # the one line, no traceback


# SHA-256 of stdout for sweeps and listings away from the q = 3 reference
# figure; captured before the candidate tables were built one matrix per set
GOLDEN_STDOUT = {
    "figure --q 5 --n 2,3 --g 2,3,4 --f-max 4":
        "fde4da54529d2616fc548bd2ec2c461d90250b0c44875da7d5c787a7849ad2ff",
    "figure --q 7 --n 2 --g 2,3 --f-max 3":
        "9cdba52b23ee3c5e8fa4920c185dfe29e50e84b541de789f30c119d1c1e2a2fe",
    "rates --n 3 --q 2 --f 6 --g 3":
        "2101781c3e4fe8b22c196bee7fe87b106be10c1a046ceddecaa50422c93b328e",
    "rates --n 2 --q 5 --f 3 --g 4":
        "427f63792bf9f7c1374387d11c6ebf0be379c1401da6201548f6e70c9d828540",
    "rates --n 4 --q 7 --f 3 --g 3":
        "61312e412d11c6e573abb9eaf8261adf0c9ed37dc83b9bf3bf7103cdab67dc32",
    "monomials --q 2 --f 5 --g 3":
        "ec7dec087f1f908bb90b5b8cf7120fbe683166c340bf9d43f3f30290b3a9749c",
    "monomials --q 5 --f 3 --g 4":
        "3ea01ba6e36ca7941cfbdcf8b59c85d8f47bb374412840b1b3df4b6dd9140a4f",
    "monomials --q 7 --f 3 --g 6":
        "6e7af34ba86b34be3bad7226594cc87e30b3a7a7cd61133af30fa16b6bf37eba",
    "simulate --n 3 --q 3 --candidates 1,0;0,1;1,1 --v 2":
        "4813c4d5b329b00e79acdf2b31b9bccf5e4973b08520cadf582ea27aac794fa5",
    # concrete with decode failures (rate 0.0625)
    "simulate --n 2 --q 3 --candidates 2,0;0,2;1,1;2,2 --v 2 --mode concrete"
    " --epsilon 0 --L 64":
        "8fdc8f64ab9cd7cccb948371eb111bbc7058ca5dcaa69e0ef42e5a34e82e8112",
    # a joint code over 81 candidate tuples
    "simulate --n 2 --q 3 --candidates 1,1,1,1;1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1"
    " --v 1 --mode concrete --L 32":
        "e5f9874b9c20f7280fbc635b17995875920bbbcbe3d6163b76f4f661140f7c91",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_stdout_matches_golden_digest(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


# ----------------------------------------------------------------- monomials


def test_monomials_f2_g2(capsys):
    code, out, _ = run_cli(capsys, "monomials", "--q", "3", "--f", "2", "--g", "2")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3
    assert [m["exponents"] for m in data["monomials"]] == [[1, 0], [0, 1], [1, 1]]
    entropies = [m["entropy"] for m in data["monomials"]]
    assert entropies[:2] == [1.0, 1.0]
    assert entropies[2] == pytest.approx(0.905712598, abs=1e-9)


def test_monomials_f3_g3(capsys):
    code, out, _ = run_cli(capsys, "monomials", "--q", "3", "--f", "3", "--g", "3")
    data = json.loads(out)
    assert code == 0
    assert data["count"] == 13
    assert data["h_min"] == pytest.approx(0.740088, abs=1e-6)
    assert data["h_max"] == 1.0


def test_monomials_f1(capsys):
    code, out, _ = run_cli(capsys, "monomials", "--q", "3", "--f", "1", "--g", "3")
    data = json.loads(out)
    assert code == 0
    assert data["count"] == 1


@pytest.mark.parametrize("q,f,g", [(2, 4, 3), (3, 3, 3), (5, 3, 4), (7, 2, 6), (13, 2, 5)])
def test_monomials_entropies_equal_their_tables(capsys, q, f, g):
    # the listing counts from exponents alone; the tables must agree exactly
    from privcomp import build_monomial, table_entropy
    import privcomp.cli as cli

    code, out, _ = run_cli(capsys, "monomials", "--q", str(q), "--f", str(f), "--g", str(g))
    assert code == 0
    listed = json.loads(out)["monomials"]
    for m in listed:
        e = tuple(m["exponents"])
        assert cli.cand.monomial_entropy(e, q) == table_entropy(build_monomial(e, q))
        assert m["entropy"] == cli._round_floats(table_entropy(build_monomial(e, q)))


# ------------------------------------------------------------------- entropy


def test_entropy_monomial(capsys):
    code, out, _ = run_cli(capsys, "entropy", "--q", "3", "--monomial", "1,1")
    data = json.loads(out)
    assert code == 0
    assert data["entropy"] == pytest.approx(0.905712598, abs=1e-9)
    assert data["pmf"] == {"0": "5/9", "1": "2/9", "2": "2/9"}


def test_entropy_projection_and_square(capsys):
    _, out, _ = run_cli(capsys, "entropy", "--q", "3", "--monomial", "1,0")
    assert json.loads(out)["entropy"] == 1.0
    _, out, _ = run_cli(capsys, "entropy", "--q", "3", "--monomial", "2,0")
    assert json.loads(out)["entropy"] == pytest.approx(0.579380164, abs=1e-9)


def test_entropy_table(capsys):
    code, out, _ = run_cli(capsys, "entropy", "--q", "3", "--table", "0,1,2")
    assert code == 0
    assert json.loads(out)["entropy"] == 1.0


def test_entropy_requires_one_input(capsys):
    code, _, err = run_cli(capsys, "entropy", "--q", "3")
    assert code == 2
    assert "monomial" in err


# ------------------------------------------------------------------ simulate


def test_simulate_symbolic_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--n", "2", "--q", "3", "--candidates", "1,0;0,1;1,1",
        "--L", "16", "--v", "3", "--seed", "1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["recovery_ok"] is True
    assert data["privacy_ok"] is True
    assert data["rate_measured"] == pytest.approx(0.603808, abs=1e-6)
    assert data["rate_measured"] == pytest.approx(data["rate_formula"], abs=1e-9)


def test_simulate_large_plans_print_privacy_true(capsys):
    # (5, 6) and (2, 11) are past the 4000-sum reach of the earlier search
    exps = "1,0,0;0,1,0;0,0,1;1,1,0;1,0,1;0,1,1;1,1,1;2,1,0;2,0,1;0,2,1;1,2,0"
    for n, mu in [("5", 6), ("2", 11)]:
        code, out, err = run_cli(
            capsys,
            "simulate", "--n", n, "--q", "3",
            "--candidates", ";".join(exps.split(";")[:mu]),
            "--L", "1", "--v", "1", "--seed", "0",
        )
        assert code == 0
        assert err == ""
        data = json.loads(out)
        assert data["recovery_ok"] is True
        assert data["privacy_ok"] is True
        assert "warnings" not in data


def test_simulate_formerly_non_private_points_exit_0(capsys):
    # (n, mu) = (4, 4), (5, 4), (4, 5), (5, 5) printed false under the
    # earlier copy rule
    exps = "1,0,0;0,1,0;0,0,1;1,1,0;1,0,1"
    for n, mu in [("4", 4), ("5", 4), ("4", 5), ("5", 5)]:
        code, out, _ = run_cli(
            capsys,
            "simulate", "--n", n, "--q", "3",
            "--candidates", ";".join(exps.split(";")[:mu]), "--L", "4", "--v", "1",
        )
        assert code == 0
        assert json.loads(out)["privacy_ok"] is True


def test_simulate_huge_budget_is_usage_error():
    # in a child with a timeout: such a budget once hung forming q**payload_len
    proc = run_module(
        "simulate", "--n", "2", "--q", "3", "--candidates", "1,0;1,1",
        "--L", "1", "--v", "1", "--mode", "concrete", "--epsilon", "1e15",
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: budget") and "log_q" in proc.stderr


def test_simulate_ten_candidates_n2_exits_0(capsys):
    exps = "1,0,0;0,1,0;0,0,1;1,1,0;1,0,1;0,1,1;1,1,1;2,1,0;2,0,1;0,2,1"
    code, out, _ = run_cli(
        capsys,
        "simulate", "--n", "2", "--q", "3", "--candidates", exps,
        "--L", "1", "--v", "2", "--seed", "0",
    )
    assert code == 0
    assert json.loads(out)["privacy_ok"] is True


def test_simulate_concrete(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--n", "2", "--q", "3", "--candidates", "1,0;1,1",
        "--L", "256", "--v", "2", "--mode", "concrete", "--seed", "3",
    )
    assert code == 0
    data = json.loads(out)
    assert "decode_failure_rate" in data
    assert data["D_total_qary"] > 0


def test_simulate_concrete_that_decodes_nothing_exits_1(capsys):
    # epsilon -1 puts every budget below its entropy: every codeword is
    # atypical and no desired segment decodes, so nothing was recovered
    code, out, err = run_cli(
        capsys,
        "simulate", "--n", "2", "--q", "3", "--candidates", "1,0;0,1;1,1",
        "--v", "1", "--mode", "concrete", "--epsilon", "-1",
    )
    assert (code, err) == (1, "")
    data = json.loads(out)
    assert data["decode_failure_rate"] == 1.0
    assert data["recovery_ok"] is False
    assert data["privacy_ok"] is True


def test_simulate_v_out_of_range(capsys):
    code, _, err = run_cli(
        capsys,
        "simulate", "--n", "2", "--q", "3", "--candidates", "1,0;1,1",
        "--v", "9",
    )
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize(
    "option,value,message",
    [
        # an odd mu makes beta = n^mu negative
        ("--n", "-3", "error: replication requires at least 2 databases"),
        ("--seed", "-1", "error: seed -1 must be >= 0"),
    ],
    ids=["negative-n", "negative-seed"],
)
def test_simulate_bad_n_or_seed_is_usage_error(capsys, option, value, message):
    code, out, err = run_cli(
        capsys,
        "simulate", "--n", "3", "--q", "3", "--candidates", "1,0;0,1;1,1",
        "--v", "1", option, value,
    )
    assert (code, out, err) == (2, "", message + "\n")


def test_simulate_resource_guard(capsys):
    many = ";".join(
        ",".join("1" if i == j else "0" for i in range(21)) for j in range(21)
    )
    code, _, err = run_cli(
        capsys, "simulate", "--n", "2", "--q", "3", "--candidates", many, "--v", "1"
    )
    assert code == 3
    assert "resource" in err.lower() or "cap" in err.lower()


@pytest.mark.parametrize("q,code", [(16381, 0), (16411, 2), (32749, 2), (32771, 2)])
def test_simulate_field_size_bound(capsys, q, code):
    # symbols are int16: 2(q-1) must fit, so 16381 is the largest prime
    got, out, err = run_cli(
        capsys,
        "simulate", "--n", "2", "--q", str(q), "--candidates", "1;2",
        "--L", "64", "--v", "2",
    )
    assert got == code
    if code == 0:
        assert json.loads(out)["recovery_ok"] is True
    else:
        assert out == ""
        assert err.startswith("error: q = ") and "int16" in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "mode,L,code",
    [("concrete", 16384, 0), ("concrete", 16385, 3), ("symbolic", 16385, 0)],
)
def test_simulate_concrete_length_cap(capsys, mode, L, code):
    # the coder's time per codeword grows about as L^2; symbolic mode has no
    # coder and only the footprint cap
    got, out, err = run_cli(
        capsys,
        "simulate", "--n", "2", "--q", "3", "--candidates", "1,0;1,1",
        "--L", str(L), "--v", "1", "--mode", mode,
    )
    assert got == code
    if code == 0:
        assert json.loads(out)["recovery_ok"] is True
    else:
        assert out == ""
        assert err == (
            "resource guard: segment length L = 16385 exceeds the concrete-mode "
            "cap of 16384\n"
        )


def test_simulate_joint_alphabet_cap(capsys):
    # x, y, xy at q = 131 take 131^2 = 17161 joint values
    code, out, err = run_cli(
        capsys,
        "simulate", "--n", "2", "--q", "131", "--candidates", "1,0;0,1;1,1",
        "--L", "4", "--v", "1", "--mode", "concrete",
    )
    assert (code, out) == (3, "")
    assert err == (
        "resource guard: joint alphabet of 17161 candidate tuples exceeds the "
        "concrete-mode cap of 16384\n"
    )


@pytest.mark.parametrize(
    "mode,L,capped",
    [("concrete", 6553, False), ("concrete", 6554, True), ("symbolic", 6554, False)],
)
def test_simulate_concrete_footprint_cap(capsys, monkeypatch, mode, L, capped):
    # n = 4, mu = 3, f = 2: beta * L * (f + mu) = 320 L against the concrete
    # cap of 2^21 = 2097152; the store is the first allocation past the guards
    import privcomp.protocol as protocol

    class Started(Exception):
        pass

    def generate(*args, **kwargs):
        raise Started

    monkeypatch.setattr(protocol.MessageStore, "generate", generate)
    argv = [
        "simulate", "--n", "4", "--q", "3", "--candidates", "1,0;0,1;1,1",
        "--L", str(L), "--v", "1", "--mode", mode,
    ]
    if not capped:
        with pytest.raises(Started):
            main(argv)
        return
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == (
        "resource guard: simulation footprint 2097280 symbols (beta = 64) exceeds cap\n"
    )


HUGE_N = str(10**309)  # past the largest double


@pytest.mark.parametrize(
    "argv,code,start",
    [
        (["rates", "--n", HUGE_N, "--q", "3", "--f", "2", "--g", "2"], 2, "error: --n has 310 digits"),
        (["figure", "--n", f"3,{HUGE_N}", "--f-max", "2"], 2, "error: --n has 310 digits"),
        (["simulate", "--n", HUGE_N, "--q", "3", "--candidates", "1", "--L", "1", "--v", "1"],
         3, "resource guard: simulation footprint"),
    ],
)
def test_database_count_past_the_double_range_is_one_line(capsys, argv, code, start):
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith(start) and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("epsilon", ["nan", "inf", "1e308"])
def test_simulate_non_finite_epsilon_exits_2(capsys, epsilon):
    code, out, err = run_cli(
        capsys,
        "simulate", "--n", "2", "--q", "3", "--candidates", "1,0;1,1",
        "--v", "1", "--mode", "concrete", "--epsilon", epsilon,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: payload length") and "not finite" in err


# scipy may be installed; the child interpreter must run without importing it
BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
from privcomp.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("mode", ["symbolic", "concrete"])
def test_simulate_runs_without_scipy(capsys, mode):
    argv = (
        "simulate", "--n", "2", "--q", "3", "--candidates", "1,0;0,1;1,1",
        "--L", "16", "--v", "3", "--seed", "1", "--mode", mode,
    )
    proc = run_python("-c", BLOCK_SCIPY, *argv, timeout=120)
    assert proc.returncode == 0, proc.stderr
    _, out, _ = run_cli(capsys, *argv)
    assert proc.stdout == out


# a fresh interpreter reports, after the imports and after each command run
# in-process, the command's exit code and whether numpy has been imported
NUMPY_PROBE = """
import contextlib, io, json, sys
import privcomp
from privcomp import candidates, cli, protocol, rates

steps = [["import", 0, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    steps.append([argv[0], code, "numpy" in sys.modules])
print(json.dumps(steps))
"""


def test_rate_pipeline_never_imports_numpy(tmp_path):
    commands = [
        ["figure", "--out", str(tmp_path / "sweep.csv")],
        ["rates", "--n", "3", "--q", "3", "--f", "4", "--g", "2"],
        ["monomials", "--q", "3", "--f", "3", "--g", "2"],
        ["entropy", "--q", "3", "--monomial", "1,1"],  # tabulates, so loads numpy
    ]
    proc = run_python("-c", NUMPY_PROBE, json.dumps(commands), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["import", 0, False],
        ["figure", 0, False],
        ["rates", 0, False],
        ["monomials", 0, False],
        ["entropy", 0, True],
    ]


# a fresh interpreter runs the benchmark child's import line, reports which
# of the modules start-up should not need it loaded, then runs `entropy`
COLD_START_PROBE = """
import contextlib, io, json, sys
import privcomp
from privcomp import candidates, cli, protocol, rates

loaded = [m for m in ("dataclasses", "inspect", "fractions", "numpy") if m in sys.modules]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["entropy", "--q", "3", "--monomial", "1,1"])
print(json.dumps([loaded, code, out.getvalue()]))
"""


def test_cold_start_loads_no_dataclasses_inspect_or_fractions(capsys):
    proc = run_python("-c", COLD_START_PROBE, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, code, out = json.loads(proc.stdout)
    assert loaded == []
    assert code == 0
    assert json.loads(out)["pmf"] == {"0": "5/9", "1": "2/9", "2": "2/9"}
    assert out == run_cli(capsys, "entropy", "--q", "3", "--monomial", "1,1")[1]


# ------------------------------------------------------------------- parsing


def test_parse_candidates_reports_position():
    with pytest.raises(UsageError, match="candidate 2"):
        parse_candidates("1,0;x,1")
    with pytest.raises(UsageError, match="candidate 1"):
        parse_candidates("")
    assert parse_candidates("1,0; 0,1") == [(1, 0), (0, 1)]


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_figure_without_fixture_rows(tmp_path, capsys):
    out_path = tmp_path / "q5.csv"
    code, _, err = run_cli(
        capsys, "figure", "--q", "5", "--n", "2", "--g", "2", "--f-max", "2",
        "--out", str(out_path),
    )
    assert code == 0
    assert "matched" not in err  # nothing to compare against
    assert len(out_path.read_text().splitlines()) == 3


def test_figure_says_how_many_rows_it_checked(capsys):
    code, _, err = run_cli(capsys, "figure")
    assert code == 0
    assert err.startswith("all 28 reference rows matched (worst deviation ")
    assert "not checked" not in err
    # f = 8, 9 have no reference value at q = 3
    code, out, err = run_cli(capsys, "figure", "--n", "3", "--g", "2", "--f-max", "9")
    assert code == 0
    assert len(out.splitlines()) == 10
    assert err.startswith("all 7 reference rows matched (worst deviation ")
    assert err.endswith("; 2 of 9 printed rows have no reference value and were not checked\n")
    # g = 1 is not in the reference at all
    code, out, err = run_cli(capsys, "figure", "--n", "2", "--g", "1", "--f-max", "1")
    assert code == 0
    assert out.splitlines()[1].startswith("2,1,1,1,")
    assert err == "0 of 1 printed rows have a reference value; nothing was checked\n"


def test_figure_row_beyond_double_range(capsys):
    # at f = 8, mu = 162 and 100^mu > 1e308: the converse still prints
    code, out, _ = run_cli(
        capsys, "figure", "--q", "2", "--n", "100", "--g", "4", "--f-max", "8"
    )
    assert code == 0
    n, g, f, mu, h_min, _, converse = out.splitlines()[-1].split(",")
    assert (n, g, f, mu) == ("100", "4", "8", "162")
    assert float(converse) == pytest.approx(
        outer_messages_oracle(100, 8, float(h_min)), rel=1e-11
    )


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("n", [7, 13])
def test_rates_past_double_range_print_null(capsys, n):
    # n^mu passes the double range: the costs print null, the rates stay finite
    code, out, _ = run_cli(
        capsys, "rates", "--q", "2", "--n", str(n), "--g", "4", "--f", "10"
    )
    assert code == 0
    data = json.loads(out, parse_constant=_reject_constant)
    assert data["d_opt"] is None and data["d_one"] is None
    for key in ("achievable", "outer_bound", "lower_bound", "baseline_pir"):
        assert math.isfinite(data[key])


def test_candidate_lower_bound_rejected_before_the_sort(capsys, monkeypatch):
    # 501500 in-range vectors, each kept one banning at most q - 2 = 1997
    # others: at least 252 tables of 1999^2 cells, known before any sort
    import privcomp.candidates as cand

    def grlex_key(e):
        raise AssertionError("the in-range vectors were sorted")

    monkeypatch.setattr(cand, "grlex_key", grlex_key)
    code, out, err = run_cli(
        capsys, "rates", "--n", "2", "--q", "1999", "--f", "2", "--g", "1000"
    )
    assert code == 3
    assert out == ""
    assert err == (
        "resource guard: 252 x 1999^2 cells exceed the enumeration cap of 10000000\n"
    )


def test_simulate_total_prints_the_digits_of_l_d_one(capsys):
    # added from the left, these 106,496 charges printed 936883.085764
    candidates = "1,2,0;2,0,0;2,2,2;2,2,0;1,2,2;2,0,1;0,2,1;0,2,0;2,1,1;1,2,1;2,1,0;0,0,2;0,2,2"
    code, out, _ = run_cli(
        capsys, "simulate", "--n", "2", "--q", "3", "--candidates", candidates,
        "--L", "64", "--v", "1",
    )
    report = json.loads(out)
    cs = candidate_set_from_exponents(parse_candidates(candidates), 3)
    closed_form = float(_fmt(64 * d_one(2, cs.profile)))
    assert code == 0
    assert report["D_total_qary"] == closed_form == 936883.085763
    assert report["rate_measured"] == report["rate_formula"]


def test_simulate_byte_stable(capsys):
    args = (
        "simulate", "--n", "2", "--q", "3", "--candidates", "1,0;1,1",
        "--L", "8", "--v", "1", "--seed", "4",
    )
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def run_python(*args, timeout=None, stdout=None):
    """Run a fresh interpreter on the tree this test imported, installed or not;
    stdout is captured unless a file is given."""
    import subprocess
    import sys

    import privcomp

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(privcomp.__file__)))
    path = os.pathsep.join(filter(None, [src_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout or subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )


def run_module(*argv, timeout=None, stdout=None):
    """Run `python -m privcomp.cli` on the tree this test imported, installed or not."""
    return run_python("-m", "privcomp.cli", *argv, timeout=timeout, stdout=stdout)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv,target",
    [
        (["figure", "--out", "/dev/full"], "--out /dev/full"),
        (["figure"], "stdout"),
        (["monomials", "--q", "3", "--f", "2", "--g", "2"], "stdout"),
        (["rates", "--n", "3", "--q", "3", "--f", "2", "--g", "2"], "stdout"),
        (["simulate", "--n", "2", "--q", "3", "--candidates", "1,0;1,1", "--v", "1"],
         "stdout"),
    ],
)
def test_failed_write_is_one_error_line(argv, target):
    # /dev/full takes the open and fails the write; the flush at exit must
    # not report it a second time
    with open("/dev/full", "w") as full:
        proc = run_module(*argv, stdout=full)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write {target}: {os.strerror(errno.ENOSPC)}\n"


def test_console_script_entry_point():
    proc = run_module("entropy", "--q", "3", "--monomial", "1,0")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["entropy"] == 1.0


def test_entropy_table_bad_length(capsys):
    code, _, err = run_cli(capsys, "entropy", "--q", "3", "--table", "0,1,2,0")
    assert code == 2
    assert "entries" in err


def test_figure_exits_nonzero_on_reference_mismatch(tmp_path, capsys, monkeypatch):
    import privcomp.cli as cli

    poisoned = cli.load_reference_figure()
    ach, conv = poisoned[(3, 2, 2)]
    poisoned[(3, 2, 2)] = (ach + 1e-6, conv)
    monkeypatch.setattr(cli, "load_reference_figure", lambda: poisoned)
    code, _, err = run_cli(capsys, "figure", "--out", str(tmp_path / "f.csv"))
    assert code == 1
    assert "mismatch" in err


def test_simulate_exit_one_on_failed_verification(capsys, monkeypatch):
    import privcomp.cli as cli
    import privcomp.protocol as protocol

    real = protocol.run_simulation

    def broken(config):
        return real(config)._replace(recovery_ok=False)

    monkeypatch.setattr(cli.protocol, "run_simulation", broken)
    code, out, _ = run_cli(
        capsys, "simulate", "--n", "2", "--q", "3", "--candidates", "1,0;1,1",
        "--L", "4", "--v", "1",
    )
    assert code == 1
    assert json.loads(out)["recovery_ok"] is False


@pytest.mark.parametrize("option,value", [("--n", "3,x"), ("--g", "two"), ("--n", "")])
def test_figure_bad_comma_list_is_usage_error(capsys, option, value):
    code, out, err = run_cli(capsys, "figure", option, value)
    assert code == 2
    assert out == ""
    assert err == f"error: {option} must be a comma list of integers\n"


@pytest.mark.parametrize("f_max", ["0", "-1"])
def test_figure_f_max_below_one_is_usage_error(capsys, f_max):
    # an empty sweep once printed a header-only CSV and "all 0 rows matched"
    code, out, err = run_cli(capsys, "figure", "--f-max", f_max)
    assert code == 2
    assert out == ""
    assert err == "error: --f-max must be >= 1\n"


@pytest.mark.parametrize("error", [RecursionError, MemoryError])
def test_resource_exhaustion_exits_three(capsys, monkeypatch, error):
    import privcomp.cli as cli

    def exhausted(config):
        raise error("exhausted")

    monkeypatch.setattr(cli.protocol, "run_simulation", exhausted)
    code, out, err = run_cli(
        capsys, "simulate", "--n", "2", "--q", "3", "--candidates", "1,0;1,1",
        "--L", "4", "--v", "1",
    )
    assert code == 3
    assert out == ""
    assert err == f"resource guard: {error.__name__}: exhausted\n"


@pytest.mark.parametrize("q", [1, 0, 4])
def test_entropy_table_rejects_nonprime_modulus(q):
    # in a child with a timeout: q <= 1 once looped forever searching for f
    proc = run_module("entropy", "--q", str(q), "--table", "0,0,0,0", timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: field modulus must be prime, got {q}\n"


@pytest.mark.parametrize(
    "q,argv,guard",
    [
        (
            "9223372036854775783",
            ("rates", "--n", "2", "--f", "1", "--g", "1"),
            "1 x 9223372036854775783^1 cells exceed the enumeration cap of 10000000",
        ),
        (
            "2147483647",
            ("entropy", "--table", "5"),
            "a pmf of 2147483647 field values exceeds the pmf cap of 100000",
        ),
    ],
    ids=["rates-prime-below-2^63", "entropy-pmf-of-2^31-1-values"],
)
def test_huge_field_exits_3_quickly(q, argv, guard):
    # in a child with a timeout: the primality check and the pmf once ran
    # over every field value
    proc = run_module(*argv, "--q", q, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == f"resource guard: {guard}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("monomials", "--q", "3", "--f", "100000000", "--g", "1"),
        ("rates", "--n", "3", "--q", "3", "--f", "100000000", "--g", "1"),
    ],
    ids=["monomials", "rates"],
)
def test_huge_f_exits_3_without_building_q_to_the_f(capsys, argv):
    # 3^(10^8) takes minutes to evaluate: the cap must refuse without it
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == (
        "resource guard: 1 x 3^100000000 cells exceed the enumeration cap of "
        "10000000\n"
    )


def test_entropy_pmf_cap(capsys, monkeypatch):
    # 99991 is the largest prime the pmf cap of 10^5 admits
    code, out, _ = run_cli(capsys, "entropy", "--q", "99991", "--table", "5")
    assert code == 0
    pmf = json.loads(out)["pmf"]
    assert len(pmf) == 99991 and pmf["5"] == "1/1" and pmf["0"] == "0/1"
    # above it the command stops before building any table
    import privcomp.cli as cli

    def build(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli.cand, "build_monomial", build)
    monkeypatch.setattr(cli.cand, "FunctionTable", build)
    for argv in (("--monomial", "1"), ("--table", "5")):
        code, out, err = run_cli(capsys, "entropy", "--q", "100003", *argv)
        assert code == 3
        assert out == ""
        assert err == (
            "resource guard: a pmf of 100003 field values exceeds the pmf cap "
            "of 100000\n"
        )


@pytest.mark.parametrize(
    "q,f,accepted", [(3, 12, True), (3, 13, False), (10000019, 1, False)]
)
def test_candidate_set_cap_counts_every_table(capsys, monkeypatch, q, f, accepted):
    # g=1 holds f tables of q^f cells: 12 * 3^12 fits 10^7, 13 * 3^13 does not,
    # and neither does one table of the first prime above 10^7; the cap counts
    # them although `rates` profiles the set from structure and tabulates none
    import privcomp.cli as cli

    def monomial_tables(vectors, q):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli.cand, "_monomial_tables", monomial_tables)
    argv = ["rates", "--n", "2", "--q", str(q), "--f", str(f), "--g", "1"]
    code, out, err = run_cli(capsys, *argv)
    if accepted:
        assert (code, err) == (0, "")
        assert json.loads(out)["mu"] == f
        return
    assert code == 3
    assert out == ""
    assert err.startswith("resource guard: ")


def test_figure_rows_build_each_candidate_set_once(monkeypatch):
    import privcomp.cli as cli
    from privcomp import rates

    q, ns, gs, f_max = 3, [3, 5], [2, 3], 7
    expected = []
    for n in ns:
        for g in gs:
            for f in range(1, f_max + 1):
                profile = cli.cand.monomial_candidate_set(f, g, q).profile
                expected.append(
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
    calls = []
    real = cli.cand.monomial_candidate_set

    def counting(f, g, q):
        calls.append((f, g, q))
        return real(f, g, q)

    monkeypatch.setattr(cli.cand, "monomial_candidate_set", counting)
    assert cli.figure_rows(q, ns, gs, f_max) == expected
    assert len(calls) == len(gs) * f_max == 14
    assert len(set(calls)) == len(calls)


def test_figure_rows_match_corollary_on_grid():
    # every set in the sweep holds all f messages, so the printed general
    # formulas must equal the corollary's closed forms
    import privcomp.cli as cli
    from privcomp import ResourceLimitError

    ns = [2, 3, 4, 5, 7]
    checked = 0
    for q in (2, 3, 5, 7):
        for g in (1, 2, 3, 4):
            profiles = {}  # f -> profile, up to 7 or the enumeration cap
            for f in range(1, 8):
                try:
                    profiles[f] = cli.cand.monomial_candidate_set(f, g, q).profile
                except ResourceLimitError:
                    break
            for r in cli.figure_rows(q, ns, [g], len(profiles)):
                n, f, profile = r["n"], r["f"], profiles[r["f"]]
                oracle = (
                    achievable_messages_oracle(n, f, profile),
                    outer_messages_oracle(n, f, profile.h_min),
                )
                printed = (cli._fmt(r["achievable"]), cli._fmt(r["converse"]))
                assert printed == tuple(map(cli._fmt, oracle)), (q, g, f, n)
                checked += 1
    # q = 5 and 7 stop below f = 7 at the enumeration cap
    assert checked == 535, f"{checked} rows: the cap moved, so did the grid"

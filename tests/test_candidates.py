import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from privcomp import (
    FunctionTable,
    ResourceLimitError,
    UsageError,
    build_monomial,
    count_all_monomials,
    generate_nonparallel_monomials,
    joint_entropy_prefix,
    monomial_candidate_set,
    order_by_entropy,
    reduce_exponent_vector,
    table_entropy,
)
from privcomp.cli import main

H_PRODUCT = 0.905712598  # entropy of w1*w2 over F_3, q-ary units


def brute_force_pmf(exponents, q):
    """Oracle: evaluate the monomial at every input and count values."""
    f = len(exponents)
    counts = Counter()
    for w in itertools.product(range(q), repeat=f):
        v = 1
        for wj, ej in zip(w, exponents):
            for _ in range(ej):
                v = (v * wj) % q
        counts[v] += 1
    return {val: Fraction(c, q**f) for val, c in counts.items()}


def table_pmf(values):
    """Oracle for an explicit value table: exact value frequencies."""
    counts = Counter(values)
    return {val: Fraction(c, len(values)) for val, c in counts.items()}


def pmf_strings(pmf, q):
    """An exact pmf as `privcomp entropy` prints it: every value, as c/q^f."""
    out = {}
    for v in range(q):
        p = pmf.get(v, Fraction(0))
        out[str(v)] = f"{p.numerator}/{p.denominator}"
    return out


def pmf_entropy(pmf, q):
    """Entropy of an exact pmf, q-ary units."""
    return -sum(float(p) * math.log(p) for p in pmf.values() if p) / math.log(q)


def cli_entropy(capsys, q, option, vector):
    code = main(["entropy", "--q", str(q), option, ",".join(map(str, vector))])
    assert code == 0
    return json.loads(capsys.readouterr().out)


def brute_force_joint_entropy(tables):
    """Oracle: entropy of the value tuple by direct dictionary counting."""
    q, f = tables[0].q, tables[0].f
    counts = Counter()
    for i in range(q**f):
        counts[tuple(t.values[i] for t in tables)] += 1
    total = q**f
    return -sum(
        (c / total) * math.log(c / total) for c in counts.values()
    ) / math.log(q)


# ------------------------------------------------------------------ building


def test_build_monomial_values():
    t = build_monomial((1, 1), 3)
    assert t.value_at((2, 2)) == 1
    t = build_monomial((2, 1), 3)
    assert t.value_at((2, 2)) == 2
    proj = build_monomial((1, 0), 3)
    for w1, w2 in itertools.product(range(3), repeat=2):
        assert proj.value_at((w1, w2)) == w1


def test_build_monomial_rejects_weight_zero():
    with pytest.raises(UsageError):
        build_monomial((0, 0), 3)


def test_table_length_validated():
    with pytest.raises(UsageError):
        FunctionTable(q=3, f=2, values=(0, 1, 2))


def test_enumeration_cap():
    with pytest.raises(ResourceLimitError):
        build_monomial((1,) * 8, 11)  # 11^8 inputs


# ----------------------------------------------------------------- reduction


def test_reduce_examples():
    assert reduce_exponent_vector((3, 0), 3) == (1, 0)
    assert reduce_exponent_vector((4, 1), 3) == (2, 1)
    assert reduce_exponent_vector((1, 2), 3) == (1, 2)


@pytest.mark.parametrize("q", [3, 5])
def test_reduce_preserves_table_exhaustive(q):
    # every raw vector up to f=3 with entries past the wrap point
    for f in (1, 2, 3):
        for e in itertools.product(range(2 * q), repeat=f):
            if sum(e) < 1:
                continue
            red = reduce_exponent_vector(e, q)
            assert reduce_exponent_vector(red, q) == red
            assert build_monomial(e, q).values == build_monomial(red, q).values


# ---------------------------------------------------------------- generation


def test_count_all_monomials():
    assert count_all_monomials(2, 2) == 5
    assert count_all_monomials(1, 1) == 1
    assert count_all_monomials(3, 3) == 19


def test_nonparallel_f2_g2():
    assert generate_nonparallel_monomials(2, 2, 3) == [(1, 0), (0, 1), (1, 1)]


def test_nonparallel_f1():
    # the square of the only variable is excluded
    assert generate_nonparallel_monomials(1, 2, 3) == [(1,)]
    assert generate_nonparallel_monomials(1, 3, 3) == [(1,)]


def test_nonparallel_f3_g3_composition():
    vecs = generate_nonparallel_monomials(3, 3, 3)
    assert len(vecs) == 13
    by_pattern = Counter(tuple(sorted((x for x in e if x), reverse=True)) for e in vecs)
    assert by_pattern[(1,)] == 3
    assert by_pattern[(1, 1)] == 3
    assert by_pattern[(2, 1)] == 6
    assert by_pattern[(1, 1, 1)] == 1


@pytest.mark.parametrize("f", range(1, 8))
def test_nonparallel_counts_closed_form(f):
    assert len(generate_nonparallel_monomials(f, 2, 3)) == f + math.comb(f, 2)
    assert len(generate_nonparallel_monomials(f, 3, 3)) == (
        f + math.comb(f, 2) + math.comb(f, 3) + f * (f - 1)
    )


def test_nonparallel_graded_lex_order():
    vecs = generate_nonparallel_monomials(3, 2, 3)
    weights = [sum(e) for e in vecs]
    assert weights == sorted(weights)
    assert vecs[:3] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_nonparallel_deduplicates_as_functions():
    for f, g, q in [(2, 3, 3), (3, 3, 3), (2, 4, 5)]:
        vecs = generate_nonparallel_monomials(f, g, q)
        tables = [build_monomial(e, q).values for e in vecs]
        assert len(set(tables)) == len(tables)
        # every generated vector is already reduced
        assert all(reduce_exponent_vector(e, q) == e for e in vecs)


# ---------------------------------------------------------------------- pmfs


def test_pmf_product_monomial(capsys):
    pmf = cli_entropy(capsys, 3, "--monomial", (1, 1))["pmf"]
    assert pmf == pmf_strings(brute_force_pmf((1, 1), 3), 3)
    assert pmf == {"0": "5/9", "1": "2/9", "2": "2/9"}


def test_pmf_projection_uniform(capsys):
    pmf = cli_entropy(capsys, 3, "--monomial", (1, 0))["pmf"]
    assert pmf == {"0": "1/3", "1": "1/3", "2": "1/3"}


def test_pmf_square(capsys):
    pmf = cli_entropy(capsys, 3, "--monomial", (2, 0))["pmf"]
    assert pmf == {"0": "1/3", "1": "2/3", "2": "0/1"}


# ----------------------------------------------------------------- entropies


def test_entropy_uniform():
    assert table_entropy(build_monomial((1, 0), 3)) == pytest.approx(1.0, abs=1e-15)


def test_entropy_product():
    h = table_entropy(build_monomial((1, 1), 3))
    # closed form, and the downstream capacity figure it must reproduce
    expected = -(5 / 9 * math.log(5 / 9) + 4 / 9 * math.log(2 / 9)) / math.log(3)
    assert h == pytest.approx(expected, abs=1e-12)
    assert 0.75 * h == pytest.approx(0.679284448510378, abs=1e-9)


def test_entropy_square():
    h = table_entropy(build_monomial((2, 0), 3))
    assert h == pytest.approx(1 - (2 / 3) * math.log(2) / math.log(3), abs=1e-12)
    assert h == pytest.approx(0.579380164, abs=1e-9)


@pytest.mark.parametrize(
    "q,f,option,vectors",
    [
        (3, 1, "--table", list(itertools.product(range(3), repeat=3))),
        (2, 2, "--table", list(itertools.product(range(2), repeat=4))),
        (3, 2, "--monomial", [e for e in itertools.product(range(3), repeat=2) if sum(e)]),
    ],
    ids=["q3-tables-len3", "q2-tables-len4", "q3-f2-monomials"],
)
def test_entropy_and_pmf_match_exact_oracle_exhaustive(capsys, q, f, option, vectors):
    for vec in vectors:
        if option == "--table":
            table = FunctionTable(q=q, f=f, values=vec)
            oracle = table_pmf(vec)
        else:
            table = build_monomial(vec, q)
            oracle = brute_force_pmf(vec, q)
        h = pmf_entropy(oracle, q)
        data = cli_entropy(capsys, q, option, vec)
        assert data["pmf"] == pmf_strings(oracle, q)
        assert abs(data["entropy"] - h) <= 1e-12
        assert abs(table_entropy(table) - h) <= 1e-12


# ------------------------------------------------------------- joint entropy


def test_joint_entropy_chain_rule_example():
    cs = order_by_entropy([build_monomial((1, 0), 3), build_monomial((1, 1), 3)])
    joint = joint_entropy_prefix(cs, 2)
    assert joint == pytest.approx(5 / 3, abs=1e-12)
    assert joint == pytest.approx(brute_force_joint_entropy(cs.functions), abs=1e-12)


def test_joint_entropy_independent_and_duplicate():
    w1 = build_monomial((1, 0), 3)
    w2 = build_monomial((0, 1), 3)
    cs = order_by_entropy([w1, w2])
    assert joint_entropy_prefix(cs, 2) == pytest.approx(2.0, abs=1e-12)
    dup = order_by_entropy([w1, build_monomial((1, 0), 3)])
    assert joint_entropy_prefix(dup, 2) == pytest.approx(1.0, abs=1e-12)
    assert joint_entropy_prefix(cs, 0) == 0.0
    with pytest.raises(UsageError):
        joint_entropy_prefix(cs, 3)


# ------------------------------------------------------------------ ordering


def test_order_by_entropy_tie_break():
    w1w2 = build_monomial((1, 1), 3)
    w1 = build_monomial((1, 0), 3)
    w2 = build_monomial((0, 1), 3)
    cs = order_by_entropy([w1w2, w1, w2])
    assert [t.exponents for t in cs.functions] == [(1, 0), (0, 1), (1, 1)]


def test_order_singleton():
    cs = order_by_entropy([build_monomial((1, 1), 3)])
    assert cs.profile.h_min == cs.profile.h_max


def test_monomial_candidate_set_profile_f2_g3():
    cs = monomial_candidate_set(2, 3, 3)
    assert cs.mu == 5
    assert np.allclose(
        cs.profile.h, [1, 1, H_PRODUCT, H_PRODUCT, H_PRODUCT], atol=1e-9
    )
    # messages first, so every prefix joint is capped by f
    assert cs.profile.prefix_joint[1] == pytest.approx(2.0, abs=1e-12)
    assert cs.profile.joint == pytest.approx(2.0, abs=1e-12)


def test_order_rejects_mixed_setups():
    with pytest.raises(UsageError):
        order_by_entropy([])
    with pytest.raises(UsageError):
        order_by_entropy([build_monomial((1,), 3), build_monomial((1, 0), 3)])


# ------------------------------------------------------- profile invariants


def random_table(rng, q, f):
    return FunctionTable(
        q=q, f=f, values=tuple(int(x) for x in rng.integers(0, q, size=q**f))
    )


def test_profile_invariants_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(120):
        q = int(rng.choice([2, 3, 5]))
        f = int(rng.integers(1, 4))
        mu = int(rng.integers(1, 7))
        tables = [random_table(rng, q, f) for _ in range(mu)]
        if all(len(set(t.values)) == 1 for t in tables):
            continue
        cs = order_by_entropy(tables)
        p = cs.profile
        for a, b in zip(p.h, p.h[1:]):
            assert b <= a + 1e-12
        assert all(-1e-12 <= h <= 1 + 1e-12 for h in p.h)
        prev = 0.0
        for hv, jv in zip(p.h, p.prefix_joint):
            assert prev - 1e-9 <= jv <= prev + hv + 1e-9
            prev = jv
        assert p.joint <= min(f, sum(p.h)) + 1e-9
        # recomputing entropies from the ordered tables matches the profile
        for t, h in zip(cs.functions, p.h):
            assert abs(table_entropy(t) - h) <= 1e-12


def test_nonparallel_q5_multi_power_exclusion():
    # all powers k in {2,3,4} of the single variable collapse onto it
    assert generate_nonparallel_monomials(1, 4, 5) == [(1,)]
    # (2,0)/(0,2) are squares of the projections; (1,1) is nobody's power
    assert generate_nonparallel_monomials(2, 2, 5) == [(1, 0), (0, 1), (1, 1)]


def test_nonparallel_q2_no_exclusions():
    # over GF(2) every positive exponent reduces to 1 and there are no
    # k-th powers to exclude: count = subsets of at most g variables
    assert len(generate_nonparallel_monomials(3, 2, 2)) == 3 + 3
    assert len(generate_nonparallel_monomials(4, 3, 2)) == 4 + 6 + 4

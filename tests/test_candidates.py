import itertools
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from privcomp import (
    FixedCode,
    FunctionTable,
    ResourceLimitError,
    UsageError,
    build_monomial,
    candidate_set_from_exponents,
    generate_nonparallel_monomials,
    monomial_candidate_set,
    order_by_entropy,
    table_entropy,
)
from privcomp.candidates import _reduce, is_prime, monomial_entropy, require_prime
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
    # input (w1, w2) sits at index 3 * w1 + w2, the first variable most significant
    t = build_monomial((1, 1), 3)
    assert t.values[3 * 2 + 2] == 1
    t = build_monomial((2, 1), 3)
    assert t.values[3 * 2 + 2] == 2
    proj = build_monomial((1, 0), 3)
    for w1, w2 in itertools.product(range(3), repeat=2):
        assert proj.values[3 * w1 + w2] == w1


def test_build_monomial_rejects_weight_zero():
    with pytest.raises(UsageError):
        build_monomial((0, 0), 3)


def test_table_length_validated():
    with pytest.raises(UsageError):
        FunctionTable(q=3, f=2, values=(0, 1, 2))


@pytest.mark.parametrize(
    "values", [(0, 1, -1), (0, 3, 1), (-1, 0, 3), (0, 1), (0, 1, 2, 0)],
    ids=["minus-one", "q", "both-ends", "short", "long"],
)
def test_table_values_validated(values):
    with pytest.raises(UsageError):
        FunctionTable(q=3, f=1, values=values)


def test_table_values_at_field_bounds_accepted():
    table = FunctionTable(q=3, f=1, values=(2, 0, 2))
    assert table.values.tolist() == [2, 0, 2]
    assert table.values.dtype == np.int64
    assert FunctionTable(q=5, f=0, values=(4,)).values.tolist() == [4]


def test_table_values_past_int64_rejected():
    for v in (2**63, -(2**63) - 1, 2**70):
        with pytest.raises(UsageError, match="out of field range"):
            FunctionTable(q=3, f=0, values=(v,))


def test_table_values_read_only():
    source = np.array([0, 1, 2], dtype=np.int64)
    table = FunctionTable(q=3, f=1, values=source)
    source[0] = 2  # the table holds its own copy
    assert table.values.tolist() == [0, 1, 2]
    with pytest.raises(ValueError, match="read-only"):
        table.values[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        build_monomial((1, 1), 3).values[:] = 0


def test_table_field_size_below_int64_limit():
    big = 2**63 - 1
    tables = [FunctionTable(q=big, f=0, values=(v,)) for v in (big - 1, 0)]
    assert table_entropy(tables[0]) == 0.0
    assert order_by_entropy(tables).profile.prefix_joint == (0.0, 0.0)
    with pytest.raises(UsageError, match="below 2\\^63"):
        FunctionTable(q=2**63, f=0, values=(1,))


def test_enumeration_cap():
    with pytest.raises(ResourceLimitError):
        build_monomial((1,) * 8, 11)  # 11^8 inputs


def test_nonprime_modulus_outranks_enumeration_cap():
    # 12 tables of 4^12 cells are over the cap, but q = 4 is a usage error first
    vectors = [tuple(int(i == j) for j in range(12)) for i in range(12)]
    with pytest.raises(UsageError, match="must be prime"):
        candidate_set_from_exponents(vectors, 4)
    with pytest.raises(ResourceLimitError):
        candidate_set_from_exponents(vectors, 5)


@pytest.mark.parametrize(
    "vectors,message",
    [
        ([], "must be nonempty"),
        ([(1, 0), (1,)], "same length"),
        ([(1, 0), (0, 1), (1, 0)], "duplicate"),
    ],
    ids=["empty", "ragged", "duplicate"],
)
def test_candidate_list_usage_errors(vectors, message):
    with pytest.raises(UsageError, match=message):
        candidate_set_from_exponents(vectors, 3)


def test_is_prime_matches_sieve():
    limit = 10**5
    sieve = [False, False] + [True] * (limit - 2)
    for d in range(2, math.isqrt(limit) + 1):
        for m in range(d * d, limit, d):
            sieve[m] = False
    assert [n for n in range(-3, limit) if is_prime(n)] == [
        n for n in range(limit) if sieve[n]
    ]


def test_is_prime_large_primes_and_carmichael_numbers():
    # the largest primes below 2^31, 2^61, 2^63 and 10^7
    primes = [2**31 - 1, 2**61 - 1, 9223372036854775783, 9999991]
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265]
    # strong pseudoprimes to the first 8 and to the first 9 prime bases
    pseudoprimes = [341550071728321, 3825123056546413051]
    # all below 3.3 * 10^24, where the test is exact
    composites = [2**64 + 1, (2**31 - 1) * 9999991, 9999991**2]
    assert [p for p in primes if is_prime(p)] == primes
    assert [n for n in carmichael + pseudoprimes + composites if is_prime(n)] == []


# ----------------------------------------------------------------- reduction


def test_reduce_examples():
    require_prime(3)  # _reduce takes a q already checked prime
    assert _reduce((3, 0), 3) == (1, 0)
    assert _reduce((4, 1), 3) == (2, 1)
    assert _reduce((1, 2), 3) == (1, 2)


@pytest.mark.parametrize("q", [3, 5])
def test_reduce_preserves_table_exhaustive(q):
    # every raw vector up to f=3 with entries past the wrap point
    require_prime(q)
    for f in (1, 2, 3):
        for e in itertools.product(range(2 * q), repeat=f):
            if sum(e) < 1:
                continue
            red = _reduce(e, q)
            assert _reduce(red, q) == red
            assert np.array_equal(build_monomial(e, q).values, build_monomial(red, q).values)


# ---------------------------------------------------------------- generation


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
        tables = [tuple(build_monomial(e, q).values.tolist()) for e in vecs]
        assert len(set(tables)) == len(tables)
        # every generated vector is already reduced
        assert all(_reduce(e, q) == e for e in vecs)


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
    joint = cs.profile.prefix_joint[1]
    assert joint == pytest.approx(5 / 3, abs=1e-12)
    assert joint == pytest.approx(brute_force_joint_entropy(cs.functions), abs=1e-12)


def test_joint_entropy_independent_and_duplicate():
    w1 = build_monomial((1, 0), 3)
    w2 = build_monomial((0, 1), 3)
    cs = order_by_entropy([w1, w2])
    assert cs.profile.prefix_joint[1] == pytest.approx(2.0, abs=1e-12)
    dup = order_by_entropy([w1, build_monomial((1, 0), 3)])
    assert dup.profile.prefix_joint[1] == pytest.approx(1.0, abs=1e-12)
    # one prefix per candidate, the first being the first candidate alone
    assert len(cs.profile.prefix_joint) == 2
    assert cs.profile.prefix_joint[0] == cs.profile.h[0]


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


# --------------------------------------------------------- field arithmetic
# Products and powers live in monomial tables; sums and differences live in
# codewords (test_coding).  Every entry point that takes a field size rejects
# a non-prime q.

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17]


def test_modular_mul_examples():
    # input (a, b) sits at index q * a + b, the first variable most significant
    product = build_monomial((1, 1), 3)
    assert product.values[3 * 2 + 2] == 1
    for x in range(3):
        assert product.values[3 * x + 1] == x
    assert build_monomial((1, 1), 7).values[7 * 3 + 5] == 1


def test_pow_examples():
    assert build_monomial((2,), 3).values.tolist() == [0, 1, 1]
    # 0^0 = 1: exponent zero means the variable is absent from a monomial
    assert build_monomial((0, 1), 3).values[3 * 0 + 1] == 1
    assert build_monomial((3,), 3).values.tolist() == [0, 1, 2]


def test_fermat_identity():
    for q in SMALL_PRIMES:
        assert build_monomial((q,), q).values.tolist() == list(range(q))
        require_prime(q)  # _reduce takes a q already checked prime
        assert _reduce((q,), q) == (1,)


@pytest.mark.parametrize("q", SMALL_PRIMES)
def test_field_axioms_exhaustive(q):
    # the product of a and b is pair.values[q * a + b]; the additive axioms
    # are test_coding's test_codeword_sums_form_a_group
    pair = build_monomial((1, 1), q).values
    triple = build_monomial((1, 1, 1), q).values
    for a, b, c in itertools.product(range(q), repeat=3):
        left = pair[q * pair[q * a + b] + c]
        right = pair[q * a + pair[q * b + c]]
        assert triple[q * q * a + q * b + c] == left == right
        assert pair[q * a + b] == pair[q * b + a]
    # every nonzero element has a multiplicative inverse: a^(q-2) * a = 1
    assert build_monomial((q - 1,), q).values.tolist() == [0] + [1] * (q - 1)


def test_mismatched_fields_rejected():
    # codewords of two fields: test_coding's
    # test_codewords_of_mismatched_fields_rejected
    with pytest.raises(UsageError):
        order_by_entropy([build_monomial((1,), 3), build_monomial((1,), 5)])


def test_nonprime_modulus_rejected():
    for q in (0, 1, 4, 6, 9, 100):
        with pytest.raises(UsageError):
            require_prime(q)
    assert is_prime(257)
    assert not is_prime(255)
    with pytest.raises(UsageError, match="must be prime"):
        build_monomial((1, 1), 4)
    with pytest.raises(UsageError, match="must be prime"):
        FixedCode(q=4, alphabet_size=2, length=4, budget=1.0)
    with pytest.raises(UsageError, match="must be prime"):
        generate_nonparallel_monomials(2, 2, 4)
    # exponents reduce mod q - 1 only over a field: q = 4 stops first
    with pytest.raises(UsageError, match="must be prime"):
        build_monomial((1, 2), 4)


def test_negative_exponent_rejected():
    with pytest.raises(UsageError):
        build_monomial((2, -1), 3)


# ------------------------------------------- oracles: the scalar algorithms


def oracle_monomial(exponents, q):
    """prod_j pow(w_j, e_j, q) at every input, first variable most significant."""
    values = []
    for w in itertools.product(range(q), repeat=len(exponents)):
        v = 1
        for wj, ej in zip(w, exponents):
            v = v * pow(wj, ej, q) % q
        values.append(v)
    return tuple(values)


def oracle_entropy_from_counts(counts, total, q):
    s = 0.0
    for c in sorted(counts):
        if c:
            s += c * math.log(c)
    return (math.log(total) - s / total) / math.log(q)


def oracle_table_entropy(values, q):
    """Dictionary counting, summed like the package: must agree bit for bit."""
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return oracle_entropy_from_counts(counts.values(), len(values), q)


def oracle_prefix_joints(tables, q):
    """Per-cell relabeling of the joint value tuple with a dictionary."""
    total = len(tables[0])
    labels = [0] * total
    joints = []
    for values in tables:
        relabel = {}
        for i in range(total):
            labels[i] = relabel.setdefault(labels[i] * q + values[i], len(relabel))
        counts = [0] * len(relabel)
        for lab in labels:
            counts[lab] += 1
        joints.append(oracle_entropy_from_counts(counts, total, q))
    return tuple(joints)


def oracle_nonparallel(f, g, q):
    """Reduced in-range exponent vectors in graded-lex order, each dropped when
    it is a reduced k-th power (k in [2, q-1]) of an earlier kept one."""

    def reduce(e):
        return tuple((x - 1) % (q - 1) + 1 if x else 0 for x in e)

    in_range = {
        reduce(e) for e in itertools.product(range(g + 1), repeat=f) if 1 <= sum(e) <= g
    }
    kept, banned = [], set()
    for e in sorted(in_range, key=lambda e: (sum(e), [-x for x in e])):
        if e not in banned:
            kept.append(e)
            banned.update(reduce([k * x for x in e]) for k in range(2, q))
            banned.discard(e)
    return kept


def oracle_candidate_set(vectors, q):
    """Exponents, h and prefix joints of the entropy-ordered monomial set."""
    tables = [oracle_monomial(e, q) for e in vectors]
    h = [oracle_table_entropy(t, q) for t in tables]
    # ties: lower total degree first, then larger leading exponents first
    order = sorted(
        range(len(vectors)),
        key=lambda i: (-h[i], sum(vectors[i]), [-x for x in vectors[i]]),
    )
    return (
        [vectors[i] for i in order],
        tuple(h[i] for i in order),
        oracle_prefix_joints([tables[i] for i in order], q),
    )


PRIMES_TO_13 = [2, 3, 5, 7, 11, 13]


ORACLE_GRID = [
    (q, f, g)
    for q in (2, 3, 5, 7)
    for f in range(1, 6)
    for g in range(1, 5)
    if q**f <= 20000
]


def test_oracle_grid_has_80_sets():
    assert len(ORACLE_GRID) == 80


# q - 1 = 16, 30, 36, 60, 72, 100: many divisors d = gcd(x, q - 1), so a
# power's first entry is hit by several k at once
PRIMES_WITH_COMPOSITE_ORDER = [17, 31, 37, 61, 73, 101]


@pytest.mark.parametrize("q", PRIMES_TO_13 + PRIMES_WITH_COMPOSITE_ORDER)
def test_nonparallel_monomials_equal_oracle(q):
    f_max, g_max = (4, 5) if q <= 13 else (3, 6)
    for f in range(1, f_max + 1):
        for g in range(1, g_max + 1):
            assert generate_nonparallel_monomials(f, g, q) == oracle_nonparallel(f, g, q)


def test_nonparallel_large_prime():
    # x^2 and x^3 are powers of x; the k with a first entry <= g are solved
    # for, where a Python loop over every k in [2, q - 1] would take seconds
    assert generate_nonparallel_monomials(1, 3, 9999991) == [(1,)]
    # every in-range x^e is a power of x: no walk over the q - 2 others
    assert generate_nonparallel_monomials(1, 10**8, 999983) == [(1,)]


def test_monomial_entropy_large_prime_lists_no_unit_counts():
    # x is a bijection of GF(q): q - 1 nonzero values of count 1, each adding
    # 0.0, which as a list would be about 80 MB at this q
    tracemalloc.start()
    try:
        h = monomial_entropy((1,), 9999991)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h == 1.0
    assert peak < 2**20, peak


def flat_count_entropy(counts, n, q):
    """Oracle: the entropy summed over the flat sorted list of counts."""
    s = 0.0
    for c in sorted(c for c in counts if c > 1):
        s += c * math.log(c)
    return (math.log(n) - s / n) / math.log(q)


@pytest.mark.parametrize(
    "e,q", [((1, 1), 100003), ((2,), 200003), ((4, 6), 100019), ((3, 0, 1), 101)]
)
def test_monomial_entropy_equals_the_flat_count_sum(e, q):
    # the zero count once, then (q-1)/d equal nonzero counts: about 10^5 of
    # them at the first three q, added one by one in both sums
    active = [x for x in e if x]
    f, k, d = len(e), len(active), math.gcd(q - 1, *active)
    zero = q**f - (q - 1) ** k * q ** (f - k)
    counts = [zero] + [d * (q - 1) ** (k - 1) * q ** (f - k)] * ((q - 1) // d)
    assert len(counts) > 10**4 or q == 101
    assert monomial_entropy(e, q) == flat_count_entropy(counts, q**f, q)
    if q**f <= 10**6:
        assert table_entropy(build_monomial(e, q)) == monomial_entropy(e, q)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_monomial_candidate_set_equals_oracle(q):
    for _, f, g in (cell for cell in ORACLE_GRID if cell[0] == q):
        cs = monomial_candidate_set(f, g, q)
        vectors, h, joints = oracle_candidate_set(oracle_nonparallel(f, g, q), q)
        assert [t.exponents for t in cs.functions] == vectors
        assert cs.profile.h == h
        # the joints are exactly 1..f, then f (test below); the oracle's
        # sums of q^v equal counts c * log(c) round them
        assert cs.profile.prefix_joint == pytest.approx(joints, rel=0, abs=1e-12)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_monomial_prefix_joints_are_exact(q):
    # the first v <= f candidates are the messages, uniform on q^v values:
    # their joint is v exactly, where summing q^v equal counts could round
    for f in range(1, 9):
        for g in (1, 2, 3):
            try:
                cs = monomial_candidate_set(f, g, q)
            except ResourceLimitError:
                continue
            joints = cs.profile.prefix_joint
            assert joints[:f] == tuple(float(v) for v in range(1, f + 1))
            assert joints[f:] == (float(f),) * (cs.mu - f)


@pytest.mark.parametrize("f,g,q", [(7, 3, 3), (10, 2, 3)])
def test_candidate_set_peak_memory_near_its_tables(f, g, q):
    # one (mu, q^f) matrix, beside it at most the last product step's 1/q-size
    # operand; separate tables stacked into a copy had peaked at 2.1x.  The
    # profile builds no table, so the tables are read inside the traced region
    monomial_candidate_set(f, g, q).functions  # imports and first-call allocations
    tracemalloc.start()
    try:
        cs = monomial_candidate_set(f, g, q)
        cs.functions
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = sum(t.values.nbytes for t in cs.functions)
    assert peak <= 1.6 * table_bytes, peak / table_bytes

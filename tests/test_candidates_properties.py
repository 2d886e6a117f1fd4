"""Property tests (hypothesis) of the numpy candidate layer against the scalar
oracles in test_candidates: tables, entropies and prefix joints must be equal
bit for bit, not approximately."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from privcomp import (
    FunctionTable,
    ResourceLimitError,
    build_monomial,
    candidate_set_from_exponents,
    generate_nonparallel_monomials,
    monomial_candidate_set,
    order_by_entropy,
    table_entropy,
)
from privcomp import candidates
from privcomp.candidates import _monomial_tables
from test_candidates import (
    PRIMES_TO_13,
    oracle_candidate_set,
    oracle_monomial,
    oracle_nonparallel,
    oracle_prefix_joints,
    oracle_table_entropy,
)


@st.composite
def monomials(draw):
    q = draw(st.sampled_from(PRIMES_TO_13))
    f = draw(st.integers(1, 4))
    e = draw(st.lists(st.integers(0, 2 * q), min_size=f, max_size=f))
    if not any(e):
        e[draw(st.integers(0, f - 1))] = draw(st.integers(1, 2 * q))
    return tuple(e), q


@settings(deadline=None, max_examples=60)
@given(monomials())
def test_build_monomial_matches_pow_oracle(case):
    e, q = case
    table = build_monomial(e, q)
    assert table.values.tolist() == list(oracle_monomial(e, q))
    assert table.values.dtype == np.int64


@st.composite
def table_sets(draw):
    """mu random tables; few distinct values per table makes entropy ties likely."""
    q = draw(st.sampled_from([2, 3, 5, 7]))
    f = draw(st.integers(0, 3))
    mu = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables = []
    for _ in range(mu):
        k = draw(st.integers(1, q))
        tables.append(tuple(int(v) for v in rng.integers(0, k, size=q**f)))
    return q, f, tables


@settings(deadline=None, max_examples=150)
@given(table_sets())
def test_entropies_equal_dictionary_oracle(case):
    q, f, tables = case
    for values in tables:
        assert table_entropy(FunctionTable(q=q, f=f, values=values)) == (
            oracle_table_entropy(values, q)
        )
    cs = order_by_entropy([FunctionTable(q=q, f=f, values=t) for t in tables])
    h = [oracle_table_entropy(t, q) for t in tables]
    order = sorted(range(len(tables)), key=lambda i: -h[i])
    assert [tuple(t.values.tolist()) for t in cs.functions] == [tables[i] for i in order]
    assert cs.profile.h == tuple(h[i] for i in order)
    assert cs.profile.prefix_joint == oracle_prefix_joints([tables[i] for i in order], q)


# ------------------------------- the one-matrix set builder against the oracles


@st.composite
def exponent_lists(draw):
    """1-4 distinct vectors over a prime q <= 13, entries up to 3q unreduced,
    some variables absent from every vector (zero columns)."""
    q = draw(st.sampled_from(PRIMES_TO_13))
    f = draw(st.integers(1, 4))
    absent = draw(st.sets(st.integers(0, f - 1), max_size=f - 1))
    entries = [st.just(0) if j in absent else st.integers(0, 3 * q) for j in range(f)]
    vector = st.tuples(*entries).filter(any)
    return draw(st.lists(vector, min_size=1, max_size=4, unique=True)), q


@settings(deadline=None, max_examples=60, derandomize=True)
@given(exponent_lists())
def test_monomial_tables_equal_pow_oracle(case):
    vectors, q = case
    tables = _monomial_tables(vectors, q)
    assert [t.exponents for t in tables] == vectors
    # one matrix: every table is a read-only view into the same buffer
    matrix = tables[0].values.base
    assert matrix.size == len(vectors) * q ** len(vectors[0])
    assert all(t.values.base is matrix and not t.values.flags.writeable for t in tables)
    assert all(t.values.dtype == np.int64 for t in tables)
    assert [tuple(t.values.tolist()) for t in tables] == [
        oracle_monomial(e, q) for e in vectors
    ]


@st.composite
def monomial_sets(draw, injective):
    """Vectors over q <= 7, f <= 3.  injective: the projections w_j are among
    them, so some prefix determines the input; otherwise every entry is even
    and q odd, so w and -w always collide and no prefix is injective."""
    q = draw(st.sampled_from([2, 3, 5, 7] if injective else [3, 5, 7]))
    f = draw(st.integers(1, 3))
    entry = st.integers(0, 2 * q).map(lambda x: x if injective else 2 * x)
    vector = st.tuples(*[entry] * f).filter(any)
    extra = draw(st.lists(vector, min_size=int(not injective), max_size=5))
    units = [tuple(int(i == j) for i in range(f)) for j in range(f)] if injective else []
    vectors = list(dict.fromkeys(units + extra))
    return draw(st.permutations(vectors)), q


@pytest.mark.parametrize("injective", [True, False])
def test_candidate_set_profile_equals_oracle(injective):
    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(monomial_sets(injective))
    def check(case):
        vectors, q = case
        cs = candidate_set_from_exponents(vectors, q)
        exps, h, joints = oracle_candidate_set(vectors, q)
        assert [t.exponents for t in cs.functions] == exps
        assert cs.profile.h == h
        assert cs.profile.prefix_joint == joints
        f = len(vectors[0])
        assert (joints[-1] == math.log(q**f) / math.log(q)) is injective

    check()


@settings(deadline=None, max_examples=80, derandomize=True)
@given(st.sampled_from(PRIMES_TO_13), st.integers(1, 4), st.integers(1, 8))
def test_nonparallel_enumeration_equals_oracle(q, f, g):
    assert generate_nonparallel_monomials(f, g, q) == oracle_nonparallel(f, g, q)


@settings(deadline=None, max_examples=80, derandomize=True)
@given(st.sampled_from(PRIMES_TO_13), st.integers(1, 4), st.integers(1, 12))
def test_generation_cap_counts_the_in_range_vectors(q, f, g):
    # the cap's lower bound on mu, taken before the walk, is the walk's
    # count of in-range vectors over q - 1
    top = min(g, q - 1)
    size = sum(1 <= sum(e) <= g for e in itertools.product(range(top + 1), repeat=f))
    with mock.patch.object(
        candidates, "_check_enumeration_cap", wraps=candidates._check_enumeration_cap
    ) as check:
        try:
            generate_nonparallel_monomials(f, g, q)
        except ResourceLimitError:
            pass
    assert check.call_args_list[1] == mock.call(q, f, -(-size // (q - 1)))


# --------------------- nonparallel sets profiled from structure, against tables


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.sampled_from(PRIMES_TO_13), st.integers(1, 5), st.integers(1, 5))
def test_structural_profile_equals_enumeration(q, f, g):
    try:
        cs = monomial_candidate_set(f, g, q)
    except ResourceLimitError:
        assume(False)  # over the enumeration cap: no tables to compare with
    vectors = generate_nonparallel_monomials(f, g, q)
    enumerated = order_by_entropy(_monomial_tables(vectors, q))
    assert cs.profile.h == enumerated.profile.h
    # the messages lead: joints exactly 1..f, then f, which enumeration
    # reaches up to the rounding of its sum of q^v equal counts
    assert cs.profile.prefix_joint == tuple(float(min(v, f)) for v in range(1, cs.mu + 1))
    assert enumerated.profile.prefix_joint == pytest.approx(
        cs.profile.prefix_joint, rel=0, abs=1e-12
    )
    # the messages lead, read off the tables: candidate i is input digit i
    inputs = np.arange(q**f)
    for i, table in enumerate(enumerated.functions[:f]):
        assert np.array_equal(table.values, inputs // q ** (f - 1 - i) % q)
    assert [t.exponents for t in cs.functions] == [t.exponents for t in enumerated.functions]

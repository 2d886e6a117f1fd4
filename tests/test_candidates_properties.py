"""Property tests (hypothesis) of the numpy candidate layer against the scalar
oracles in test_candidates: tables, entropies and prefix joints must be equal
bit for bit, not approximately."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from privcomp import FunctionTable, build_monomial, order_by_entropy, table_entropy
from test_candidates import (
    PRIMES_TO_13,
    oracle_monomial,
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

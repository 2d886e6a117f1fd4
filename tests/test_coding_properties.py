"""Property tests (hypothesis) of the blocked enumerative coder against the
per-symbol oracles in test_coding: ranks, unranks, digit strings and whole
codewords must be equal, not merely round-trip."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from privcomp import FixedCode, decode_fixed, encode_fixed
from privcomp.coding import (
    _from_digits,
    _rank_type,
    _to_digits,
    _unrank_type,
    class_size,
    rank_in_type,
    type_of,
)
from test_coding import (
    oracle_class_size,
    oracle_encode,
    oracle_from_digits,
    oracle_rank,
    oracle_to_digits,
    oracle_unrank,
    unrank_both_ways,
)

# lengths around the 64-position block, and a few others
LENGTHS = st.sampled_from([1, 2, 63, 64, 65, 127, 128, 129, 200, 700])


@st.composite
def sequences(draw):
    """A sequence over [0, A): uniform, skewed or a single symbol."""
    A = draw(st.integers(2, 32))
    L = draw(LENGTHS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = draw(st.integers(1, A))
    symbols = rng.choice(A, size=support, replace=False)
    p = rng.dirichlet(np.full(support, draw(st.sampled_from([0.2, 1.0, 10.0]))))
    return A, tuple(rng.choice(symbols, size=L, p=p).tolist())


@settings(deadline=None, max_examples=120, derandomize=True)
@given(sequences())
def test_rank_and_unrank_equal_oracle(case):
    A, seq = case
    tv = type_of(seq, A)
    assert class_size(tv) == oracle_class_size(tv)
    rank = rank_in_type(seq, A)
    assert rank == oracle_rank(seq, A)
    assert unrank_both_ways(rank, tv) == seq == oracle_unrank(rank, tv)


@st.composite
def wide_sequences(draw):
    """A short sequence over an alphabet of up to ~2000 symbols, most absent."""
    A = draw(st.integers(2, 2000))
    L = draw(st.integers(1, 64))
    return A, tuple(draw(st.lists(st.integers(0, A - 1), min_size=L, max_size=L)))


@settings(deadline=None, max_examples=100, derandomize=True)
@given(wide_sequences())
def test_rank_and_unrank_equal_oracle_at_large_alphabets(case):
    A, seq = case
    tv = type_of(seq, A)
    rank = rank_in_type(seq, A)
    assert rank == oracle_rank(seq, A)
    assert unrank_both_ways(rank, tv) == seq == oracle_unrank(rank, tv)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(sequences())
def test_extreme_arrangements(case):
    # the sorted arrangement ranks 0 and the reversed one size - 1: ranks on
    # exact symbol boundaries, where a one-sided guess would go wrong
    A, seq = case
    tv = type_of(seq, A)
    last = class_size(tv) - 1
    low, high = tuple(sorted(seq)), tuple(sorted(seq, reverse=True))
    assert rank_in_type(low, A) == 0
    assert rank_in_type(high, A) == last == oracle_rank(high, A)
    assert unrank_both_ways(0, tv) == low
    assert unrank_both_ways(last, tv) == high == oracle_unrank(last, tv)


@settings(deadline=None, max_examples=80, derandomize=True)
@given(sequences(), st.sampled_from([2, 3, 5]), st.sampled_from([0.0, 0.05, None]))
def test_codewords_equal_oracle(case, q, slack):
    A, seq = case
    counts = np.bincount(seq, minlength=A)
    p = counts[counts > 0] / len(seq)
    h = float(-(p * np.log(p)).sum() / math.log(q))
    budget = math.log(A, q) if slack is None else h + slack
    code = FixedCode(q=q, alphabet_size=A, length=len(seq), budget=budget)
    cw = encode_fixed(seq, code)
    assert cw.symbols == oracle_encode(seq, code)
    if not cw.atypical:
        assert decode_fixed(cw, code) == seq


@settings(deadline=None, max_examples=120, derandomize=True)
@given(st.sampled_from([2, 3, 5, 16381]), st.integers(0, 700), st.data())
def test_digit_round_trip(q, width, data):
    value = data.draw(st.integers(0, q**width - 1))
    digits = _to_digits(value, q, width)
    assert digits == oracle_to_digits(value, q, width)
    assert _from_digits(np.array(digits, dtype=np.int64), q) == value
    assert oracle_from_digits(digits, q) == value



@st.composite
def types(draw):
    """(A, L, counts): a type of L symbols over [0, A), on a few symbols or
    on many."""
    A = draw(st.integers(2, 2000))
    L = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = rng.choice(A, size=draw(st.integers(1, A)), replace=False)
    p = rng.dirichlet(np.full(len(support), draw(st.sampled_from([0.2, 1.0, 10.0]))))
    counts = np.zeros(A, dtype=np.int64)
    counts[support] = rng.multinomial(L, p)
    return A, L, tuple(counts.tolist())


@settings(deadline=None, max_examples=80, derandomize=True)
@given(types())
def test_type_rank_round_trip(case):
    A, L, counts = case
    rank = _rank_type(counts)
    assert 0 <= rank < math.comb(L + A - 1, A - 1)
    assert _unrank_type(rank, A, L) == counts

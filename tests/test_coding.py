import bisect
import contextlib
import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from privcomp import (
    CodecError,
    Codeword,
    FixedCode,
    FunctionTable,
    UsageError,
    build_monomial,
    decode_fixed,
    encode_fixed,
    sum_codewords,
    table_entropy,
    widen_codeword,
)
from privcomp import coding
from privcomp.coding import (
    _from_digits,
    _rank_type,
    _to_digits,
    _unrank_type,
    class_size,
    rank_in_type,
    subtract_codewords,
    type_of,
    unrank_in_type,
)

H_PRODUCT = 0.9057125980138373


# ------------------------------------------------------------------- oracles
# The per-symbol coder the blocked one replaced: every function of the
# package's coder must agree with these exactly.


def oracle_rank(seq, alphabet_size):
    remaining = [0] * alphabet_size
    for s in seq:
        remaining[s] += 1
    total = len(seq)
    size = oracle_class_size(remaining)
    rank = 0
    for s in seq:
        for smaller in range(s):
            if remaining[smaller]:
                rank += size * remaining[smaller] // total
        size = size * remaining[s] // total
        remaining[s] -= 1
        total -= 1
    return rank


def oracle_unrank(rank, counts):
    size = oracle_class_size(counts)
    remaining = list(counts)
    total = sum(counts)
    out = []
    for _ in range(sum(counts)):
        for s in range(len(counts)):
            if remaining[s] == 0:
                continue
            block = size * remaining[s] // total
            if rank < block:
                out.append(s)
                size = block
                remaining[s] -= 1
                total -= 1
                break
            rank -= block
    return tuple(out)


def oracle_class_size(counts):
    size = math.factorial(sum(counts))
    for c in counts:
        size //= math.factorial(c)
    return size


def oracle_to_digits(value, q, width):
    digits = [0] * width
    for i in range(width - 1, -1, -1):
        value, digits[i] = divmod(value, q)
    if value:
        raise CodecError(f"value does not fit in {width} base-{q} digits")
    return digits


def oracle_from_digits(digits, q):
    value = 0
    for d in digits:
        value = value * q + d
    return value


def oracle_type_rank(counts):
    """Rank of counts among the compositions of their sum, in lexicographic
    order: at each part, the compositions that agree before it and put any
    x below counts[i] there, C(r-x+k-1, k-1) for each x."""
    rank, r = 0, sum(counts)
    for i, c in enumerate(counts[:-1]):
        k = len(counts) - 1 - i  # parts after this one
        rank += sum(math.comb(r - x + k - 1, k - 1) for x in range(c))
        r -= c
    return rank


def oracle_header_len(q, alphabet_size, length):
    """Digits of the smallest power of q that counts every type."""
    types = math.comb(length + alphabet_size - 1, alphabet_size - 1)
    width = 0
    while q**width < types:
        width += 1
    return width


def oracle_encode(seq, code):
    q, A, L = code.q, code.alphabet_size, code.length
    counts = [list(seq).count(s) for s in range(A)]
    if oracle_class_size(counts) > q**code.payload_len:
        return None
    header = oracle_to_digits(oracle_type_rank(counts), q, oracle_header_len(q, A, L))
    rank = oracle_rank(seq, A)
    return tuple(header + oracle_to_digits(rank, q, code.payload_len))


@contextlib.contextmanager
def guessing_always():
    """Unrank by guessed blocks at every class size, not only wide ones."""
    saved = coding.GUESS_WORK
    coding.GUESS_WORK = 0
    try:
        yield
    finally:
        coding.GUESS_WORK = saved


def unrank_both_ways(rank, tv):
    """unrank_in_type as it runs, and with every step a guessed block."""
    plain = unrank_in_type(rank, tv)
    with guessing_always():
        assert unrank_in_type(rank, tv) == plain
    return plain


# --------------------------------------------------------------------- types


def test_type_of_examples():
    assert type_of((0, 0, 1, 2), 3) == (2, 1, 1)
    assert type_of((1,) * 5, 3) == (0, 5, 0)
    assert type_of((), 3) == (0, 0, 0)


def test_class_size_is_multinomial():
    tv = type_of((0, 0, 1, 2), 3)
    assert class_size(tv) == math.factorial(4) // (2 * 1 * 1)


# ------------------------------------------------------------- rank / unrank


def test_rank_lexicographic_first():
    assert rank_in_type((0, 1, 2), 3) == 0


def test_rank_all_permutations_bijective():
    ranks = sorted(rank_in_type(p, 3) for p in itertools.permutations((0, 1, 2)))
    assert ranks == list(range(6))


def test_rank_unrank_roundtrip_exhaustive_small():
    for L in (1, 2, 3, 4, 5):
        for seq in itertools.product(range(3), repeat=L):
            tv = type_of(seq, 3)
            r = rank_in_type(seq, 3)
            assert 0 <= r < class_size(tv)
            assert unrank_in_type(r, tv) == seq


def test_rank_unrank_match_oracle_at_block_boundaries():
    # lengths around the 64-position block, uniform and skewed sources
    rng = np.random.default_rng(13)
    for A in (2, 3, 9, 32):
        for L in (1, 63, 64, 65, 129, 300, 1000):
            for p in (np.full(A, 1 / A), rng.dirichlet(np.full(A, 0.3))):
                seq = tuple(rng.choice(A, size=L, p=p).tolist())
                tv = type_of(seq, A)
                assert class_size(tv) == oracle_class_size(tv)
                r = rank_in_type(seq, A)
                assert r == oracle_rank(seq, A)
                assert unrank_both_ways(r, tv) == seq == oracle_unrank(r, tv)


@pytest.mark.parametrize("A", [1, 2, 3, 4])
def test_type_rank_is_lexicographic_among_compositions(A):
    for L in range(7):
        compositions = sorted(
            c for c in itertools.product(range(L + 1), repeat=A) if sum(c) == L
        )
        assert len(compositions) == math.comb(L + A - 1, A - 1)
        for rank, counts in enumerate(compositions):
            assert _rank_type(counts) == rank == oracle_type_rank(counts)
            assert _unrank_type(rank, A, L) == counts


def test_type_unrank_rejects_out_of_range():
    for A, L in [(1, 5), (3, 8), (9, 64)]:
        types = math.comb(L + A - 1, A - 1)
        assert _unrank_type(0, A, L) == (0,) * (A - 1) + (L,)
        assert _unrank_type(types - 1, A, L) == (L,) + (0,) * (A - 1)
        for rank in (types, types + 1, -1):
            with pytest.raises(CodecError, match="corrupt header"):
                _unrank_type(rank, A, L)


def test_type_of_rejects_symbols_outside_alphabet():
    for bad in (3, -1, 2**70):
        message = f"symbol {bad} outside alphabet of size 3"
        with pytest.raises(UsageError, match=message):
            type_of((0, 1, bad, 2), 3)


@pytest.mark.parametrize("A", [2, 3, 9])
@pytest.mark.parametrize("L", [2**14, 2**15 + 1])
def test_rank_exact_at_long_lengths(A, L):
    # no oracle is fast enough here; the extreme arrangements rank 0 and
    # size - 1, and ranking's chain ends at the class size, which an int64
    # overflow in the block sums would break
    counts = np.random.default_rng(L + A).multinomial(L, np.full(A, 1 / A))
    low = np.repeat(np.arange(A), counts)
    tv = type_of(low, A)
    assert coding._rank(low) == (0, class_size(tv))
    high = low[::-1]
    assert coding._rank(high) == (class_size(tv) - 1, class_size(tv))


def test_encode_accepts_lists_tuples_and_integer_rows():
    code = FixedCode(q=3, alphabet_size=9, length=300, budget=2.0)
    seq = np.random.default_rng(13).integers(0, 9, size=300).tolist()
    want = encode_fixed(seq, code)
    assert not want.atypical and want.symbols == oracle_encode(seq, code)
    for form in (tuple(seq), *(np.array(seq, dtype=d) for d in (np.int8, np.int16, np.int64))):
        assert encode_fixed(form, code) == want


def test_unrank_rejects_out_of_range():
    tv = type_of((0, 1, 2), 3)
    with pytest.raises(CodecError):
        unrank_in_type(6, tv)


# ------------------------------------------------------------ digit strings


@pytest.mark.parametrize("q", [2, 3, 5, 16381, 2**61 - 1])
def test_digits_match_oracle(q):
    rng = np.random.default_rng(q % 1000)
    for width in (0, 1, 2, 30, 31, 32, 62, 63, 200, 1001):
        cap = q**width
        for value in {0, 1 % cap, cap - 1, int(rng.integers(0, 2**62)) % cap, cap // 3}:
            digits = _to_digits(value, q, width)
            assert digits == oracle_to_digits(value, q, width)
            assert _from_digits(np.array(digits, dtype=np.int64), q) == value
        with pytest.raises(CodecError):
            _to_digits(cap, q, width)


# ----------------------------------------------------------------- the code


@pytest.mark.parametrize(
    "q,A,L,header_len",
    [
        (3, 9, 2048, 46),
        (7, 49, 512, 83),
        (7, 343, 512, 294),
        (11, 1331, 512, 453),
        (101, 10201, 4096, 1855),
        (2, 1, 5, 0),  # one type: no header
        (3, 3, 1, 1),  # 3 types in one digit
        (3, 4, 1, 2),  # 4 types in two
    ],
)
def test_header_len_is_log_of_type_count(q, A, L, header_len):
    code = FixedCode(q=q, alphabet_size=A, length=L, budget=0.0)
    assert code.header_len == header_len == oracle_header_len(q, A, L)


def test_code_lengths():
    code = FixedCode(q=3, alphabet_size=3, length=1024, budget=H_PRODUCT + 0.05)
    # C(1026, 2) = 525825 types, and 3^11 < 525825 <= 3^12
    assert code.header_len == 12
    assert code.payload_len == int(1024 * (H_PRODUCT + 0.05))
    assert code.codeword_len == code.header_len + code.payload_len
    # header overhead per symbol stays small
    assert code.header_len / 1024 < 0.03


def test_field_size_fits_int64_digits():
    # digits are converted through int64 leaves: q must be below 2^62
    code = FixedCode(q=2**61 - 1, alphabet_size=2, length=16, budget=1.0)
    seq = (0, 1) * 8
    cw = encode_fixed(seq, code)
    assert cw.symbols == oracle_encode(seq, code)
    assert decode_fixed(cw, code) == seq
    with pytest.raises(UsageError, match="too large"):
        FixedCode(q=2**63 - 25, alphabet_size=2, length=16, budget=1.0)


# q, alphabet, length, skew of the source (1: mild, 8: a few symbols dominate)
# and slack over its entropy (None: budget log_q A); lengths straddle the
# 64-position block.  Sequences come from the stdlib generator, whose seeded
# stream is stable across versions.
GOLDEN_GRID = [
    (q, A, L, skew, slack)
    for q in (2, 3, 5)
    for A in (2, 3, 9, 32)
    for L in (1, 63, 64, 65, 129, 700)
    for skew in (1, 8)
    for slack in (0.05, None)
]
# SHA-256 of the codewords of GOLDEN_GRID as the per-symbol coder wrote them,
# with a ranked type header (oracle_encode gives the same digest)
GOLDEN_DIGEST = "6ba1f0f0678d57ba884b0b758881e3396773205af7c8cc841d073530afe9b8c5"


def test_codewords_match_golden_digest():
    digest = hashlib.sha256()
    typical = 0
    for q, A, L, skew, slack in GOLDEN_GRID:
        rng = random.Random(f"{q}-{A}-{L}-{skew}")
        weights = list(itertools.accumulate(rng.random() ** skew for _ in range(A)))
        seq = [bisect.bisect(weights, rng.random() * weights[-1]) for _ in range(L)]
        p = [(b - a) / weights[-1] for a, b in zip([0.0] + weights, weights)]
        h = -sum(x * math.log(x, q) for x in p if x > 0)
        budget = math.log(A, q) if slack is None else h + slack
        cw = encode_fixed(seq, FixedCode(q=q, alphabet_size=A, length=L, budget=budget))
        typical += not cw.atypical
        digest.update(repr(cw.symbols).encode())
    assert typical == 286
    assert digest.hexdigest() == GOLDEN_DIGEST


@pytest.mark.parametrize(
    "q,A", [(3, 9), (127, 127), (16381, 16381), (2**61 - 1, 2), (2**61 - 1, 5)]
)
@pytest.mark.parametrize("L", [4096, 16384])
def test_one_rank_gives_header_then_payload_digits(q, A, L):
    # past GOLDEN_GRID's lengths and fields: the digits of type rank *
    # q^payload_len + class rank are the header digits, then the payload
    # digits; a budget above log_q(A) keeps every sequence typical
    code = FixedCode(q=q, alphabet_size=A, length=L, budget=math.log(A, q) + 0.05)
    seq = tuple(np.random.default_rng(L + A).integers(0, A, size=L).tolist())
    cw = encode_fixed(seq, code)
    assert not cw.atypical
    header = _to_digits(_rank_type(type_of(seq, A)), q, code.header_len)
    payload = _to_digits(rank_in_type(seq, A), q, code.payload_len)
    assert cw.symbols == tuple(header) + tuple(payload)
    assert decode_fixed(cw, code) == seq


def test_budget_above_log_alphabet_plus_one_rejected():
    # log_3 9 + 1 = 3: the boundary is accepted, anything above is a usage
    # error raised before q**payload_len is ever formed
    assert FixedCode(q=3, alphabet_size=9, length=4, budget=3.0).payload_len == 12
    for budget in (3.01, 1e15):
        with pytest.raises(UsageError, match="log_q"):
            FixedCode(q=3, alphabet_size=9, length=4, budget=budget)


def test_encode_constant_sequence_any_budget():
    for budget in (0.0, 0.3, 1.0):
        code = FixedCode(q=3, alphabet_size=3, length=16, budget=budget)
        cw = encode_fixed((2,) * 16, code)
        assert not cw.atypical
        # class of size one: the rank payload is all zeros
        assert all(s == 0 for s in cw.symbols[code.header_len :])
        assert decode_fixed(cw, code) == (2,) * 16


def test_budget_one_never_atypical():
    code = FixedCode(q=3, alphabet_size=3, length=10, budget=1.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        seq = tuple(int(x) for x in rng.integers(0, 3, size=10))
        assert not encode_fixed(seq, code).atypical


@pytest.mark.parametrize("L", [1, 4, 8])
def test_roundtrip_exhaustive(L):
    code = FixedCode(q=3, alphabet_size=3, length=L, budget=1.0)
    for seq in itertools.product(range(3), repeat=L):
        cw = encode_fixed(seq, code)
        assert len(cw.symbols) == code.codeword_len
        assert decode_fixed(cw, code) == seq


def test_roundtrip_joint_alphabet():
    # alphabet 9 = tuples over GF(3)^2, as used by round-1 joint coding
    code = FixedCode(q=3, alphabet_size=9, length=64, budget=math.log(9, 3))
    rng = np.random.default_rng(11)
    for _ in range(200):
        seq = tuple(int(x) for x in rng.integers(0, 9, size=64))
        cw = encode_fixed(seq, code)
        assert not cw.atypical
        assert decode_fixed(cw, code) == seq


def test_low_budget_goes_atypical():
    code = FixedCode(q=3, alphabet_size=3, length=30, budget=0.2)
    rng = np.random.default_rng(5)
    seq = tuple(int(x) for x in rng.integers(0, 3, size=30))
    assert encode_fixed(seq, code).atypical


def test_encode_deterministic():
    code = FixedCode(q=3, alphabet_size=3, length=64, budget=1.0)
    rng = np.random.default_rng(3)
    seq = tuple(int(x) for x in rng.integers(0, 3, size=64))
    assert encode_fixed(seq, code) == encode_fixed(seq, code)


# ----------------------------------------------------------------- summation


def test_sum_with_zero_codeword():
    code = FixedCode(q=3, alphabet_size=3, length=32, budget=1.0)
    cw = encode_fixed(tuple([1, 2] * 16), code)
    zero = Codeword(code=code, symbols=(0,) * code.codeword_len)
    assert sum_codewords(cw, zero).symbols == cw.symbols


def test_two_way_cancellation():
    code = FixedCode(q=3, alphabet_size=3, length=128, budget=1.0)
    rng = np.random.default_rng(9)
    s1 = tuple(int(x) for x in rng.integers(0, 3, size=128))
    s2 = tuple(int(x) for x in rng.integers(0, 3, size=128))
    c1, c2 = encode_fixed(s1, code), encode_fixed(s2, code)
    recovered = subtract_codewords(sum_codewords(c1, c2), c2)
    assert decode_fixed(recovered, code) == s1


def test_three_way_cancellation():
    code = FixedCode(q=3, alphabet_size=3, length=96, budget=1.0)
    rng = np.random.default_rng(10)
    seqs = [tuple(int(x) for x in rng.integers(0, 3, size=96)) for _ in range(3)]
    cws = [encode_fixed(s, code) for s in seqs]
    total = sum_codewords(*cws)
    third = subtract_codewords(subtract_codewords(total, cws[0]), cws[1])
    assert decode_fixed(third, code) == seqs[2]


def test_atypical_propagates_through_sums():
    code = FixedCode(q=3, alphabet_size=3, length=30, budget=0.2)
    rng = np.random.default_rng(6)
    bad = encode_fixed(tuple(int(x) for x in rng.integers(0, 3, size=30)), code)
    good = encode_fixed((0,) * 30, code)
    assert bad.atypical
    assert sum_codewords(bad, good).atypical
    assert subtract_codewords(good, bad).atypical
    assert subtract_codewords(bad, good).atypical


def test_sum_rejects_mixed_codes():
    a = FixedCode(q=3, alphabet_size=3, length=8, budget=1.0)
    b = FixedCode(q=3, alphabet_size=3, length=9, budget=1.0)
    with pytest.raises(UsageError):
        sum_codewords(encode_fixed((0,) * 8, a), encode_fixed((0,) * 9, b))


def word(code, *symbols):
    return Codeword(code=code, symbols=tuple(symbols))


def symbol_code(q, size):
    """A code whose codewords are `size` payload symbols: one symbol, so one
    type and no header, and a full budget of one digit per position."""
    code = FixedCode(q=q, alphabet_size=1, length=size, budget=1.0)
    assert (code.header_len, code.codeword_len) == (0, size)
    return code


def test_modular_add_examples():
    f3 = symbol_code(3, 3)
    assert sum_codewords(word(f3, 2, 0, 1), word(f3, 2, 0, 1)).symbols == (1, 0, 2)
    assert sum_codewords(word(f3, 0, 1, 2), word(f3, 0, 0, 0)).symbols == (0, 1, 2)
    f5 = symbol_code(5, 1)
    assert sum_codewords(word(f5, 4), word(f5, 3)).symbols == (2,)


def test_modular_add_near_the_int64_limit():
    # FixedCode accepts q < 2^62: five digits of q - 1 summed before one
    # reduction would wrap past 2^63
    q = 2**61 - 1
    code = FixedCode(q=q, alphabet_size=2, length=4, budget=1.0)
    top = word(code, *[q - 1] * code.codeword_len)
    assert sum_codewords(*[top] * 5).symbols == (5 * (q - 1) % q,) * code.codeword_len


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 17])
def test_codeword_sums_form_a_group(q):
    # the additive half of the field axioms; test_candidates checks products
    code = symbol_code(q, q)
    elems = word(code, *range(q))
    zero = word(code, *([0] * q))
    assert sum_codewords(elems, zero) == elems
    for a in range(q):
        shift = word(code, *([a] * q))
        total = sum_codewords(elems, shift)
        assert total.symbols == tuple((x + a) % q for x in range(q))
        assert total == sum_codewords(shift, elems)
        assert subtract_codewords(total, shift) == elems
        assert sum_codewords(subtract_codewords(zero, shift), shift) == zero


def test_codewords_of_mismatched_fields_rejected():
    a = word(symbol_code(3, 1), 1)
    b = word(symbol_code(5, 1), 1)
    with pytest.raises(UsageError):
        sum_codewords(a, b)
    with pytest.raises(UsageError):
        subtract_codewords(a, b)


# ------------------------------------------------------------------ widening


def test_widen_matches_direct_encoding():
    small = FixedCode(q=3, alphabet_size=3, length=64, budget=0.7)
    big = FixedCode(q=3, alphabet_size=3, length=64, budget=1.0)
    rng = np.random.default_rng(12)
    for _ in range(50):
        seq = tuple(int(x) for x in rng.integers(0, 2, size=64))  # biased source
        cw = encode_fixed(seq, small)
        if cw.atypical:
            continue
        assert widen_codeword(cw, big) == encode_fixed(seq, big)


def test_widen_rejects_narrowing():
    small = FixedCode(q=3, alphabet_size=3, length=16, budget=0.5)
    big = FixedCode(q=3, alphabet_size=3, length=16, budget=1.0)
    with pytest.raises(UsageError):
        widen_codeword(encode_fixed((0,) * 16, big), small)


# ------------------------------------------------------------------ decoding


def test_decode_corrupt_header():
    code = FixedCode(q=3, alphabet_size=3, length=8, budget=1.0)
    cw = encode_fixed((0, 1, 2, 0, 1, 2, 0, 1), code)
    # C(10, 2) = 45 types in 4 digits: a header of 45 to 80 names no type
    assert code.header_len == 4
    for rank in (45, 46, 80):
        header = oracle_to_digits(rank, 3, 4)
        symbols = tuple(header) + cw.symbols[4:]
        with pytest.raises(CodecError, match="corrupt header"):
            decode_fixed(Codeword(code=code, symbols=symbols), code)


def test_decode_rejects_atypical():
    code = FixedCode(q=3, alphabet_size=3, length=30, budget=0.1)
    rng = np.random.default_rng(2)
    cw = encode_fixed(tuple(int(x) for x in rng.integers(0, 3, size=30)), code)
    with pytest.raises(CodecError):
        decode_fixed(cw, code)


# --------------------------------------------------------- empirical entropy
# a table of 3^11 samples has the plug-in entropy of the samples


def test_empirical_entropy_constant_and_uniform():
    assert table_entropy(FunctionTable(q=3, f=4, values=[2] * 81)) == 0.0
    rng = np.random.default_rng(4)
    samples = rng.integers(0, 3, size=3**11)
    uniform = FunctionTable(q=3, f=11, values=samples)
    assert table_entropy(uniform) == pytest.approx(1.0, abs=0.01)


def test_empirical_entropy_matches_exact_product_pmf():
    rng = np.random.default_rng(8)
    w = rng.integers(0, 3, size=(2, 3**11))
    table = build_monomial((1, 1), 3)
    samples = FunctionTable(q=3, f=11, values=w[0] * w[1] % 3)
    assert table_entropy(samples) == pytest.approx(H_PRODUCT, abs=0.01)
    assert table.values[3 * 2 + 2] == 1  # input (2, 2)

"""Arithmetic over GF(q) as the package performs it.

Products and powers live in monomial tables (build_monomial); sums and
differences live in codewords (sum_codewords, subtract_codewords).  Every
entry point that takes a field size rejects a non-prime q.
"""

import itertools

import pytest

from privcomp import (
    Codeword,
    FixedCode,
    UsageError,
    build_monomial,
    generate_nonparallel_monomials,
    order_by_entropy,
    sum_codewords,
)
from privcomp.candidates import _reduce, is_prime, require_prime
from privcomp.coding import subtract_codewords

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17]


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
    # the product of a and b is pair.values[q * a + b]
    pair = build_monomial((1, 1), q).values
    triple = build_monomial((1, 1, 1), q).values
    for a, b, c in itertools.product(range(q), repeat=3):
        left = pair[q * pair[q * a + b] + c]
        right = pair[q * a + pair[q * b + c]]
        assert triple[q * q * a + q * b + c] == left == right
        assert pair[q * a + b] == pair[q * b + a]
    # every nonzero element has a multiplicative inverse: a^(q-2) * a = 1
    assert build_monomial((q - 1,), q).values.tolist() == [0] + [1] * (q - 1)
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


def test_mismatched_fields_rejected():
    with pytest.raises(UsageError):
        order_by_entropy([build_monomial((1,), 3), build_monomial((1,), 5)])
    a = word(symbol_code(3, 1), 1)
    b = word(symbol_code(5, 1), 1)
    with pytest.raises(UsageError):
        sum_codewords(a, b)
    with pytest.raises(UsageError):
        subtract_codewords(a, b)


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

"""Fixed-length near-lossless coding of i.i.d. segments by type-class ranking.

A codeword is a two-part description over F_q: a fixed-width header holding
the symbol counts of the sequence, followed by the sequence's lexicographic
rank within its type class, zero-padded to a payload length derived from the
target entropy budget.  Sequences whose type class does not fit the payload
are Atypical: the encoder reports failure instead of producing a codeword.

Because all codewords of one code share a length, they can be summed
componentwise over F_q and later cancelled: a receiver that knows all but one
constituent re-encodes the known ones (encoding is deterministic) and
subtracts.  Codes with the same alphabet and length but a larger budget are
compatible after widening, since the payload is left-padded rank digits.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .candidates import require_prime
from .errors import CodecError, UsageError


@lru_cache(maxsize=None)
def _fact(n: int) -> int:
    return math.factorial(n)


@dataclass(frozen=True)
class TypeVector:
    """Occurrence counts of each symbol of [0, A) over a length-L sequence."""

    counts: tuple

    @property
    def alphabet_size(self) -> int:
        return len(self.counts)

    @property
    def length(self) -> int:
        return sum(self.counts)

    def class_size(self) -> int:
        """Number of sequences sharing these counts (exact multinomial)."""
        size = _fact(self.length)
        for c in self.counts:
            size //= _fact(c)
        return size


def type_of(seq, alphabet_size: int) -> TypeVector:
    counts = [0] * alphabet_size
    for s in seq:
        if not 0 <= s < alphabet_size:
            raise UsageError(f"symbol {s} outside alphabet of size {alphabet_size}")
        counts[s] += 1
    return TypeVector(counts=tuple(counts))


def rank_in_type(seq, alphabet_size: int) -> int:
    """Lexicographic rank of seq among all sequences of its type."""
    tv = type_of(seq, alphabet_size)
    remaining = list(tv.counts)
    total = tv.length
    size = tv.class_size()
    rank = 0
    for s in seq:
        for smaller in range(s):
            if remaining[smaller]:
                # count of same-type sequences starting with the smaller symbol
                rank += size * remaining[smaller] // total
        size = size * remaining[s] // total
        remaining[s] -= 1
        total -= 1
    return rank


def unrank_in_type(rank: int, tv: TypeVector) -> tuple:
    """Inverse of rank_in_type for the given type."""
    size = tv.class_size()
    if not 0 <= rank < size:
        raise CodecError(f"rank {rank} out of range for class of size {size}")
    remaining = list(tv.counts)
    total = tv.length
    out = []
    for _ in range(tv.length):
        for s in range(tv.alphabet_size):
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


def _digit_width(q: int, values: int) -> int:
    """Smallest d with q^d >= values."""
    d = 0
    cap = 1
    while cap < values:
        cap *= q
        d += 1
    return d


def _to_digits(value: int, q: int, width: int) -> list:
    digits = [0] * width
    for i in range(width - 1, -1, -1):
        value, digits[i] = divmod(value, q)
    if value:
        raise CodecError(f"value does not fit in {width} base-{q} digits")
    return digits


def _from_digits(digits, q: int) -> int:
    value = 0
    for d in digits:
        value = value * q + d
    return value


@dataclass(frozen=True)
class FixedCode:
    """Parameters of one fixed-length code: alphabet, length, entropy budget.

    budget is in q-ary units per source symbol (target entropy plus slack);
    the payload holds floor(L * budget) q-ary digits, the header A fixed-width
    counts.  The header is the explicit sublinear overhead of the code.
    """

    q: int
    alphabet_size: int
    length: int
    budget: float

    def __post_init__(self):
        require_prime(self.q)
        if self.alphabet_size < 1 or self.length < 1:
            raise UsageError("alphabet size and length must be >= 1")
        if self.budget < 0:
            raise UsageError("budget must be nonnegative")

    @cached_property
    def count_width(self) -> int:
        return _digit_width(self.q, self.length + 1)

    @cached_property
    def header_len(self) -> int:
        return self.alphabet_size * self.count_width

    @cached_property
    def payload_len(self) -> int:
        return int(math.floor(self.length * self.budget))

    @cached_property
    def codeword_len(self) -> int:
        return self.header_len + self.payload_len

    @cached_property
    def payload_capacity(self) -> int:
        return self.q**self.payload_len


@dataclass(frozen=True)
class Codeword:
    """codeword_len symbols over F_q, or the Atypical marker (symbols=None)."""

    code: FixedCode
    symbols: tuple | None

    @property
    def atypical(self) -> bool:
        return self.symbols is None


def atypical(code: FixedCode) -> Codeword:
    return Codeword(code=code, symbols=None)


def encode_fixed(seq, code: FixedCode) -> Codeword:
    """Encode one sequence; returns the Atypical marker when it cannot fit."""
    if len(seq) != code.length:
        raise UsageError(f"sequence length {len(seq)} != code length {code.length}")
    tv = type_of(seq, code.alphabet_size)
    if tv.class_size() > code.payload_capacity:
        return atypical(code)
    header = []
    for c in tv.counts:
        header.extend(_to_digits(c, code.q, code.count_width))
    payload = _to_digits(rank_in_type(seq, code.alphabet_size), code.q, code.payload_len)
    return Codeword(code=code, symbols=tuple(header + payload))


def decode_fixed(codeword: Codeword, code: FixedCode) -> tuple:
    """Exact inverse of encode_fixed for typical sequences."""
    if codeword.atypical:
        raise CodecError("cannot decode the Atypical marker")
    if codeword.code != code or len(codeword.symbols) != code.codeword_len:
        raise UsageError("codeword does not belong to this code")
    counts = []
    w = code.count_width
    for i in range(code.alphabet_size):
        counts.append(_from_digits(codeword.symbols[i * w : (i + 1) * w], code.q))
    tv = TypeVector(counts=tuple(counts))
    if tv.length != code.length:
        raise CodecError(
            f"corrupt header: counts sum to {tv.length}, expected {code.length}"
        )
    rank = _from_digits(codeword.symbols[code.header_len :], code.q)
    return unrank_in_type(rank, tv)


def sum_codewords(*codewords: Codeword) -> Codeword:
    """Componentwise F_q sum; Atypical propagates."""
    if not codewords:
        raise UsageError("need at least one codeword")
    code = codewords[0].code
    if any(cw.code != code for cw in codewords):
        raise UsageError("codewords come from different codes")
    if any(cw.atypical for cw in codewords):
        return atypical(code)
    q = code.q
    total = [0] * code.codeword_len
    for cw in codewords:
        for i, s in enumerate(cw.symbols):
            total[i] = (total[i] + s) % q
    return Codeword(code=code, symbols=tuple(total))


def subtract_codewords(a: Codeword, b: Codeword) -> Codeword:
    """a - b over F_q; Atypical propagates."""
    if a.code != b.code:
        raise UsageError("codewords come from different codes")
    if a.atypical or b.atypical:
        return atypical(a.code)
    q = a.code.q
    return Codeword(
        code=a.code,
        symbols=tuple((x - y) % q for x, y in zip(a.symbols, b.symbols)),
    )


def widen_codeword(codeword: Codeword, target: FixedCode) -> Codeword:
    """Re-express a codeword under a same-shape code with a larger budget.

    The rank payload is left-padded, so widening inserts zeros between header
    and payload; the result equals encoding the original sequence under the
    target code directly.
    """
    src = codeword.code
    if (src.q, src.alphabet_size, src.length) != (
        target.q,
        target.alphabet_size,
        target.length,
    ):
        raise UsageError("codes differ in alphabet, length, or field")
    if target.payload_len < src.payload_len:
        raise UsageError("target code has a smaller payload; cannot widen")
    if codeword.atypical:
        return atypical(target)
    pad = (0,) * (target.payload_len - src.payload_len)
    symbols = codeword.symbols[: src.header_len] + pad + codeword.symbols[src.header_len :]
    return Codeword(code=target, symbols=symbols)


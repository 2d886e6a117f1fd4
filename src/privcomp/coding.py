"""Fixed-length near-lossless coding of i.i.d. segments by type-class ranking.

A codeword is a two-part description over F_q: a header holding the rank of
the sequence's type (its symbol counts) among all compositions of L into A
parts, followed by the sequence's lexicographic rank within its type class,
zero-padded to a payload length derived from the target entropy budget.  Both
are enumerative ranks (T. Cover, "Enumerative source encoding", 1973).
Sequences whose type class does not fit the payload are Atypical: the encoder
reports failure instead of producing a codeword.

Because all codewords of one code share a length, they can be summed
componentwise over F_q and later cancelled: a receiver that knows all but one
constituent re-encodes the known ones (encoding is deterministic) and
subtracts.  Codes with the same alphabet and length but a larger budget are
compatible after widening, since the payload is left-padded rank digits.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from functools import cached_property

from ._numpy import np
from .candidates import require_prime
from .errors import CodecError, UsageError

# Ranking and unranking handle BLOCK positions per update of the big
# integers (class size and rank, about L log2 A bits): within a block the
# products of per-position counts stay a few hundred bits wide.
BLOCK = 64
# unranking guesses blocks while the class size's bits times the number of
# symbols to scan exceed this; below it the big integers are short and an
# exact scan per symbol is cheaper (about 2000 bits at A = 3, 800 at A = 9)
GUESS_WORK = 8000


class TypeVector(namedtuple("TypeVector", "counts")):
    """Occurrence counts of each symbol of [0, A) over a length-L sequence."""

    __slots__ = ()

    def class_size(self) -> int:
        """Number of sequences sharing these counts (exact multinomial)."""
        size, total = 1, 0
        for c in filter(None, self.counts):  # an absent symbol adds a factor 1
            total += c
            size *= math.comb(total, c)
        return size


def type_of(seq, alphabet_size: int) -> TypeVector:
    tally = Counter(seq)
    counts = tuple(tally[s] for s in range(alphabet_size))
    if sum(counts) != len(seq):
        bad = next(s for s in seq if s not in range(alphabet_size))
        raise UsageError(f"symbol {bad} outside alphabet of size {alphabet_size}")
    return TypeVector(counts=counts)


def _shrink(size: int, s_acc: int, p_acc: int, q_acc: int) -> tuple:
    """size * s_acc / q_acc and size * p_acc / q_acc, both known to be exact.

    With size = whole * q_acc + part, part * s_acc / q_acc is exact too, so
    one long division of size serves both.
    """
    whole, part = divmod(size, q_acc)
    return (
        whole * s_acc + part * s_acc // q_acc,
        whole * p_acc + part * p_acc // q_acc,
    )


def _rank(seq, tv: TypeVector, size: int) -> int:
    """Lexicographic rank of seq, of type tv, within its class of given size.

    With t symbols left, c of them below the symbol taken and r equal to it,
    the class members that start with a smaller symbol number size * c / t,
    an integer, and the class shrinks to size * r / t.  Over a block these
    fold into size * S / Q and size * P / Q, with P and Q the products of r
    and t and S accumulated by Horner's rule.
    """
    x = np.array(seq, dtype=np.min_scalar_type(len(tv.counts)))
    count = np.min_scalar_type(len(x))
    c = np.empty(len(x), dtype=count)
    r = np.empty(len(x), dtype=count)
    # below[k]: occurrences at positions k and after of the symbols below s
    below = np.zeros(len(x), dtype=count)
    for s in [s for s, n in enumerate(tv.counts) if n]:
        hit = x == s
        (at,) = np.nonzero(hit)
        c[at] = below[at]
        r[at] = np.arange(len(at), 0, -1, dtype=count)
        below += np.cumsum(hit[::-1], dtype=count)[::-1]
    rank = 0
    for start in range(0, len(x), BLOCK):
        t = top = len(x) - start
        s_acc, p_acc = 0, 1
        block = slice(start, start + BLOCK)
        for ck, rk in zip(c[block].tolist(), r[block].tolist()):
            s_acc = s_acc * t + ck * p_acc
            p_acc *= rk
            t -= 1
        offset, size = _shrink(size, s_acc, p_acc, math.perm(top, top - t))
        rank += offset
    return rank


def rank_in_type(seq, alphabet_size: int) -> int:
    """Lexicographic rank of seq among all sequences of its type."""
    tv = type_of(seq, alphabet_size)
    return _rank(seq, tv, tv.class_size())


def unrank_in_type(rank: int, tv: TypeVector) -> tuple:
    """Inverse of rank_in_type for the given type.

    While the class size is wide (GUESS_WORK), symbols are guessed a block
    at a time from rank / size, held as the interval [lo, hi) / 2^bits, which
    each guessed symbol maps through and widens; the guess stops where the
    interval straddles a symbol boundary.  A block whose exact offset, as in
    _rank, brackets the rank is applied to the big integers, and the symbol
    at the straddle is decoded exactly.  The tail is decoded exactly.
    """
    size = tv.class_size()
    if not 0 <= rank < size:
        raise CodecError(f"rank {rank} out of range for class of size {size}")
    # symbols are numbered by their index in present; cum[i] counts the
    # symbols left below present[i], so cum[-1] = t, the symbols left
    present = [s for s, n in enumerate(tv.counts) if n]
    cum = [0, *itertools.accumulate(tv.counts[s] for s in present)]
    t = cum[-1]
    out = []
    while t and size.bit_length() * len(cum) > GUESS_WORK:
        # room for about BLOCK symbols at the class's mean rate, and a margin
        bits = BLOCK * size.bit_length() // t + 64
        lo = (rank << bits) // size
        hi = lo + 1
        trial = cum[:]
        guess = []
        s_acc, p_acc = 0, 1
        for left in range(t, max(t - BLOCK, 0), -1):
            a, b = lo * left, hi * left
            s = bisect_right(trial, a >> bits) - 1
            c, e = trial[s], trial[s + 1]
            if b > e << bits:
                break
            r = e - c
            s_acc = s_acc * left + c * p_acc
            p_acc *= r
            c <<= bits
            lo = (a - c) // r
            hi = (b - c - 1) // r + 1
            for i in range(s + 1, len(trial)):
                trial[i] -= 1
            guess.append(s)
        offset, rest = _shrink(size, s_acc, p_acc, math.perm(t, len(guess)))
        if offset <= rank < offset + rest:
            rank -= offset
            size = rest
            cum = trial
            t -= len(guess)
            out += guess
            if len(guess) == BLOCK or not t:
                continue
        # at the straddle, the symbol whose range holds rank * t // size
        s = bisect_right(cum, rank * t // size) - 1
        offset, size = _shrink(size, cum[s], cum[s + 1] - cum[s], t)
        rank -= offset
        for i in range(s + 1, len(cum)):
            cum[i] -= 1
        out.append(s)
        t -= 1
    # the tail, on short big integers: scan the symbols' ranges for the rank
    remaining = [e - c for c, e in zip(cum, cum[1:])]
    for t in range(t, 0, -1):
        for s, n in enumerate(remaining):
            block = size * n // t
            if rank < block:
                break
            rank -= block
        size = block
        remaining[s] -= 1
        out.append(s)
    if len(present) < len(tv.counts):
        return tuple(present[i] for i in out)
    return tuple(out)


def _rank_type(counts) -> int:
    """Lexicographic rank of counts among the compositions of their sum.

    With r left, cur = C(r+k, k) compositions fill this part and the k after
    it, C(r-c+k, k) of them with c or more here (hockey stick): a part c adds
    the difference, c steps C(m+k, k) m / (m+k) away, or one math.comb of k
    factors if c > k.  The next part starts from C(r-c+k, k) k / (r-c+k).
    """
    r, k = sum(counts), len(counts) - 1
    cur = math.comb(r + k, k)
    rank = 0
    for c in counts[:-1]:
        top = cur
        if c > k:
            cur = math.comb(r - c + k, k)
        else:
            for m in range(r, r - c, -1):
                cur = cur * m // (m + k)
        rank += top - cur
        r -= c
        cur = cur * k // (r + k)
        k -= 1
    return rank


def _unrank_type(rank: int, alphabet_size: int, length: int) -> tuple:
    """Inverse of _rank_type: each part is left - r for the smallest r with
    C(r+k, k) >= cur - rank, found in steps while they number k or fewer and
    then by bisection."""
    r = length
    cur = math.comb(r + alphabet_size - 1, alphabet_size - 1)
    if not 0 <= rank < cur:
        raise CodecError(f"corrupt header: type rank {rank} is not below {cur}")
    counts = []
    for k in range(alphabet_size - 1, 0, -1):
        top, left, need = cur, r, cur - rank
        while r > max(left - k, 0) and (down := cur * r // (r + k)) >= need:
            cur, r = down, r - 1
        if r == left - k > 0:
            r = bisect_left(range(r), need, key=lambda m: math.comb(m + k, k))
            cur = math.comb(r + k, k)
        rank -= top - cur
        counts.append(left - r)
        cur = cur * k // (r + k)
    counts.append(r)
    return tuple(counts)


def _leaf_width(q: int) -> int:
    """Digits per leaf of the payload conversions: q^w < 2^62 fits int64,
    and np.unravel_index takes at most 32 dimensions."""
    return max(1, min(32, 62 // q.bit_length()))


def _to_digits(value: int, q: int, width: int) -> list:
    """width base-q digits of value, most significant first.

    A long value is split at powers of q, level by level, into leaves of
    _leaf_width digits (the leading leaf may be shorter), and numpy expands
    all leaves at once.  The levels mirror the merges of _from_digits.
    """
    w = _leaf_width(q)
    if width <= w:
        digits = [0] * width
        for i in range(width - 1, -1, -1):
            value, digits[i] = divmod(value, q)
        if value:
            raise CodecError(f"value does not fit in {width} base-{q} digits")
        return digits
    counts = [-(-width // w)]  # leaves per level, bottom up
    while counts[-1] > 1:
        counts.append((counts[-1] + 1) // 2)
    powers = [q**w]
    while len(powers) < len(counts) - 1:
        powers.append(powers[-1] ** 2)
    leaves = [value]
    for count, power in zip(counts[-2::-1], powers[::-1]):
        # with an odd count the leading part was not merged at this level
        odd = count % 2
        leaves[odd:] = [d for x in leaves[odd:] for d in divmod(x, power)]
    if leaves[0] >= q ** (width - (counts[0] - 1) * w):
        raise CodecError(f"value does not fit in {width} base-{q} digits")
    digits = np.stack(np.unravel_index(leaves, (q,) * w), axis=1).ravel()
    return digits[digits.size - width :].tolist()


def _from_digits(digits: np.ndarray, q: int) -> int:
    """Inverse of _to_digits on an integer array: leaves of _leaf_width
    digits, merged in pairs."""
    w = _leaf_width(q)
    head = len(digits) % w
    rows = digits[head:].reshape(-1, w)
    powers = q ** np.arange(w - 1, -1, -1, dtype=np.int64)
    leaves = []
    for i in range(0, len(rows), 64):  # 64 rows: a small int64 copy at a time
        leaves += (rows[i : i + 64] @ powers).tolist()
    if head:
        leaves.insert(0, int(digits[:head] @ powers[w - head :]))
    power = q**w
    while len(leaves) > 1:
        # pair from the right, so every part but the leading one is full
        odd = len(leaves) % 2
        pairs = zip(leaves[odd::2], leaves[odd + 1 :: 2])
        leaves[odd:] = [a * power + b for a, b in pairs]
        if len(leaves) > 1:
            power *= power
    return leaves[0] if leaves else 0


class FixedCode(namedtuple("FixedCode", "q alphabet_size length budget")):
    """Parameters of one fixed-length code: alphabet, length, entropy budget.

    budget is in q-ary units per source symbol (target entropy plus slack);
    the payload holds floor(L * budget) q-ary digits, the header the type's
    rank among the C(L+A-1, A-1) types in ceil(log_q C(L+A-1, A-1)) digits.
    The header is the explicit sublinear overhead of the code.
    """

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        require_prime(self.q)
        if self.q >= 2**62:
            raise UsageError(f"q = {self.q} is too large: digits are held in int64")
        if self.alphabet_size < 1 or self.length < 1:
            raise UsageError("alphabet size and length must be >= 1")
        if self.budget < 0:
            raise UsageError("budget must be nonnegative")
        if not math.isfinite(self.length * self.budget):
            raise UsageError(
                f"payload length L * budget = {self.length * self.budget} "
                "is not finite"
            )
        # only A^L = q^(L log_q A) sequences exist: more budget buys nothing,
        # and q**payload_len would grow without bound
        cap = math.log(self.alphabet_size, self.q) + 1
        if self.budget > cap:
            raise UsageError(f"budget {self.budget} exceeds log_q(A) + 1 = {cap}")
        return self

    @cached_property
    def header_len(self) -> int:  # smallest d with q^d >= the number of types
        types = math.comb(self.length + self.alphabet_size - 1, self.alphabet_size - 1)
        d = max(0, math.ceil(math.log(types, self.q)) - 1)
        while self.q**d < types:
            d += 1
        return d

    @cached_property
    def payload_len(self) -> int:
        return int(math.floor(self.length * self.budget))

    @cached_property
    def codeword_len(self) -> int:
        return self.header_len + self.payload_len

    @cached_property
    def payload_capacity(self) -> int:
        return self.q**self.payload_len


class Codeword(namedtuple("Codeword", "code symbols")):
    """codeword_len symbols over F_q, or the Atypical marker (symbols=None)."""

    __slots__ = ()

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
    size = tv.class_size()
    if size > code.payload_capacity:
        return atypical(code)
    header = _to_digits(_rank_type(tv.counts), code.q, code.header_len)
    payload = _to_digits(_rank(seq, tv, size), code.q, code.payload_len)
    return Codeword(code=code, symbols=tuple(itertools.chain(header, payload)))


def decode_fixed(codeword: Codeword, code: FixedCode) -> tuple:
    """Exact inverse of encode_fixed for typical sequences."""
    if codeword.atypical:
        raise CodecError("cannot decode the Atypical marker")
    if codeword.code != code or len(codeword.symbols) != code.codeword_len:
        raise UsageError("codeword does not belong to this code")
    # the smallest signed dtype that holds the digits keeps this copy small
    # (signed, so that adding them to int64 leaves stays int64)
    digits = np.fromiter(
        codeword.symbols, np.min_scalar_type(-code.q), code.codeword_len
    )
    head = code.header_len
    rank = _from_digits(digits[:head], code.q)
    tv = TypeVector(counts=_unrank_type(rank, code.alphabet_size, code.length))
    return unrank_in_type(_from_digits(digits[head:], code.q), tv)


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


"""Fixed-length near-lossless coding of i.i.d. segments by type-class ranking.

A codeword is a two-part description over F_q: a header holding the rank of
the sequence's type (its symbol counts) among all compositions of L into A
parts, then the sequence's lexicographic rank within its type class,
zero-padded to a payload length set by the entropy budget; both are
enumerative ranks (T. Cover, "Enumerative source encoding", 1973).  Ranking
sums blocks of positions with numpy and updates its big integers once per
block; unranking reads blocks off a fixed-point interval and finds each
symbol in a tree of the counts left.  Sequences whose type class does not
fit the payload are Atypical: the encoder reports failure instead.

Because all codewords of one code share a length, they can be summed
componentwise over F_q and later cancelled: a receiver that knows all but one
constituent re-encodes the known ones (encoding is deterministic) and
subtracts.  Codes with the same alphabet and length but a larger budget are
compatible after widening, since the payload is left-padded rank digits.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from functools import cached_property

from ._numpy import np
from .candidates import require_prime
from .errors import CodecError, UsageError

# Ranking folds BLOCK positions into one update of its big integers (about
# L log2 A bits), unranking guesses up to BLOCK symbols per update.  A power
# of two of at least 32, the widest int64 leaf, so leaves merge into blocks.
BLOCK = 64
# unranking guesses blocks while the class size is wider than this many bits;
# below it the big integers are short and an exact step per symbol is cheaper
GUESS_WORK = 1000


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


def _symbols(seq, alphabet_size: int):
    """seq as an unsigned integer array, each symbol checked to be in [0, A)."""
    x = np.asarray(seq)
    outside = (x < 0) | (x >= alphabet_size) | (x % 1 != 0)
    if outside.any():
        bad = seq[int(outside.argmax())]
        raise UsageError(f"symbol {bad} outside alphabet of size {alphabet_size}")
    return x.astype(np.min_scalar_type(alphabet_size), copy=False)


def type_of(seq, alphabet_size: int) -> TypeVector:
    counts = np.bincount(_symbols(seq, alphabet_size), minlength=alphabet_size)
    return TypeVector(counts=tuple(counts.tolist()))


def _shrink(size: int, s_acc: int, p_acc: int, q_acc: int) -> tuple:
    """size * s_acc / q_acc and size * p_acc / q_acc, both known to be exact:
    with size = whole * q_acc + part, so is part * s_acc / q_acc, and one long
    division of size serves both."""
    whole, part = divmod(size, q_acc)
    return (
        whole * s_acc + part * s_acc // q_acc,
        whole * p_acc + part * p_acc // q_acc,
    )


def _rank(x) -> tuple:
    """Lexicographic rank of the symbol array x in its type class, and the
    class size.  With t symbols left, c of them below the one taken and r
    equal to it, size * c / t members start lower and size * r / t remain; a
    block folds this into size * S / Q and size * P / Q.  Run backward from a
    class of one, a block's offset is size * S / P and the class grows to
    size * Q / P, both exact.
    """
    # c and r at every k: a pair j > k with x[j] < x[k] first differs in a bit
    # b, so with positions stably sorted by x >> (b + 1), k gains the zeros of
    # bit b after it in its group if it has a one there; bit 0 also gives r
    c = np.zeros(len(x), dtype=np.int64)
    for b in range(max(1, int(x.max(initial=0)).bit_length())):
        high = x >> (b + 1)
        order = np.argsort(high, kind="stable")
        group = np.bincount(high)
        end = np.repeat(np.cumsum(group), group)  # end of each one's group
        one = (x[order] >> b) & 1
        zeros = np.cumsum(1 - one, dtype=np.int64)
        later = zeros[end - 1] - zeros  # zeros after each in its group
        c[order] += one * later
        if not b:
            r = np.empty_like(c)
            zeros = later + 1 - one  # zeros from each on
            r[order] = np.where(one, end - np.arange(len(x)) - zeros, zeros)
    # per block, P and Q multiply the r and t, S sums each c times the r before
    # and the t after it: leaves of w positions in int64 (t^w < 2^62 bounds Q,
    # S < Q), merged in pairs as S = S_l Q_r + P_l S_r; padding changes none
    w = 1 << (62 // max(1, len(x)).bit_length()).bit_length() - 1
    cols = np.ones((3, len(x) + -len(x) % BLOCK), dtype=np.int64)
    cols[0] = 0
    cols[:, : len(x)] = c, r, np.arange(len(x), 0, -1)
    c, r, t = cols.reshape(3, -1, w)
    s, p, q = c[:, 0], r[:, 0], t[:, 0]
    for j in range(1, w):
        s = s * t[:, j] + c[:, j] * p
        p, q = p * r[:, j], q * t[:, j]
    s, p, q = s.astype(object), p.astype(object), q.astype(object)
    for _ in range(BLOCK.bit_length() - w.bit_length()):
        s, p, q = s[::2] * q[1::2] + p[::2] * s[1::2], p[::2] * p[1::2], q[::2] * q[1::2]
    rank, size = 0, 1
    for s_acc, p_acc, q_acc in zip(s[::-1].tolist(), p[::-1].tolist(), q[::-1].tolist()):
        offset, size = _shrink(size, s_acc, q_acc, p_acc)
        rank += offset
    return rank, size


def rank_in_type(seq, alphabet_size: int) -> int:
    """Lexicographic rank of seq among all sequences of its type."""
    return _rank(_symbols(seq, alphabet_size))[0]


def unrank_in_type(rank: int, tv: TypeVector) -> tuple:
    """Inverse of rank_in_type for the given type.

    While the class size is wide (GUESS_WORK), a block of symbols is read
    from rank / size, held as the interval [lo, hi) / 2^bits: the symbol
    whose range holds all of it is next, and the interval, rounded outward,
    maps through it.  At a straddled boundary the read stops; the block's
    exact offset, as in _rank, is applied, and that symbol, like every one
    once the class is narrow, is decoded exactly.
    """
    size = tv.class_size()
    if not 0 <= rank < size:
        raise CodecError(f"rank {rank} out of range for class of size {size}")
    # the symbols left, by index in present, in a binary tree: leaf span + s
    # counts s, inner node i those under its left child; O(log A) per symbol
    present = [s for s, n in enumerate(tv.counts) if n]
    span = 1 << max(len(present) - 1, 0).bit_length()
    tree = [0] * span + [tv.counts[s] for s in present] + [0] * (span - len(present))
    for i in range(span - 1, 0, -1):
        tree[i] = tree[2 * i] + tree[2 * i + 1]
    for i in range(1, span):
        tree[i] = tree[2 * i]
    t, out = sum(tv.counts), []
    while t:
        if size.bit_length() > GUESS_WORK:
            # room for about BLOCK symbols at the class's mean rate, and a margin
            bits = BLOCK * size.bit_length() // t + 64
            lo = (rank << bits) // size
            hi = lo + 1
            s_acc, p_acc, start, stop = 0, 1, t, max(t - BLOCK, 0)
            while t > stop:
                a, b = lo * t, hi * t
                v, c, node = a >> bits, 0, 1
                while node < span:
                    n = tree[node]
                    if v < n:
                        tree[node], node = n - 1, 2 * node
                    else:
                        v, c, node = v - n, c + n, 2 * node + 1
                r = tree[node]
                if b > (c + r) << bits:  # the interval straddles: undo the descent
                    while node > 1:
                        tree[node // 2] += 1 - node % 2
                        node //= 2
                    break
                tree[node] = r - 1
                s_acc = s_acc * t + c * p_acc
                p_acc *= r
                c <<= bits
                lo = (a - c) // r
                hi = (b - c - 1) // r + 1
                out.append(node - span)
                t -= 1
            offset, size = _shrink(size, s_acc, p_acc, math.perm(start, start - t))
            rank -= offset
            if start - t == BLOCK or not t:
                continue
        # one symbol exactly: a left subtree with n of the t left spans size * n / t
        node, block = 1, size
        while node < span:
            n = tree[node]
            left = size * n // t
            if rank < left:
                tree[node], block, node = n - 1, left, 2 * node
            else:
                rank, block, node = rank - left, block - left, 2 * node + 1
        tree[node] -= 1
        out.append(node - span)
        size = block
        t -= 1
    return tuple(out) if len(present) == len(tv.counts) else tuple(present[i] for i in out)


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
    counts = [max(1, -(-width // w))]  # leaves per level, bottom up
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
            payload = self.length * self.budget
            raise UsageError(f"payload length L * budget = {payload} is not finite")
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
    x = _symbols(seq, code.alphabet_size)
    rank, size = _rank(x)
    if size > code.payload_capacity:
        return atypical(code)
    counts = np.bincount(x, minlength=code.alphabet_size).tolist()
    digits = _to_digits(_rank_type(counts), code.q, code.header_len)
    digits += _to_digits(rank, code.q, code.payload_len)
    return Codeword(code=code, symbols=tuple(digits))


def decode_fixed(codeword: Codeword, code: FixedCode) -> tuple:
    """Exact inverse of encode_fixed for typical sequences."""
    if codeword.atypical:
        raise CodecError("cannot decode the Atypical marker")
    if codeword.code != code or len(codeword.symbols) != code.codeword_len:
        raise UsageError("codeword does not belong to this code")
    # the smallest signed dtype that holds the digits keeps this copy small
    # (signed, so that adding them to int64 leaves stays int64)
    digits = np.array(codeword.symbols, dtype=np.min_scalar_type(-code.q))
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
    total = np.zeros(code.codeword_len, dtype=np.int64)
    for cw in codewords:  # reduced after each add, so below 2q < 2^63
        total = (total + np.fromiter(cw.symbols, np.int64, code.codeword_len)) % code.q
    return Codeword(code=code, symbols=tuple(total.tolist()))


def subtract_codewords(a: Codeword, b: Codeword) -> Codeword:
    """a - b over F_q; Atypical propagates."""
    if a.code != b.code:
        raise UsageError("codewords come from different codes")
    if a.atypical or b.atypical:
        return atypical(a.code)
    x, y = (np.fromiter(cw.symbols, np.int64, a.code.codeword_len) for cw in (a, b))
    return Codeword(code=a.code, symbols=tuple(((x - y) % a.code.q).tolist()))


def widen_codeword(codeword: Codeword, target: FixedCode) -> Codeword:
    """Re-express a codeword under a same-shape code with a larger budget.

    The rank payload is left-padded, so widening inserts zeros between header
    and payload; the result equals encoding the original sequence under the
    target code directly.
    """
    src = codeword.code
    if src[:3] != target[:3]:  # q, alphabet_size, length
        raise UsageError("codes differ in alphabet, length, or field")
    if target.payload_len < src.payload_len:
        raise UsageError("target code has a smaller payload; cannot widen")
    if codeword.atypical:
        return atypical(target)
    pad = (0,) * (target.payload_len - src.payload_len)
    symbols = codeword.symbols[: src.header_len] + pad + codeword.symbols[src.header_len :]
    return Codeword(code=target, symbols=symbols)


"""Candidate functions over GF(q)^f and their exact entropy profiles.

A candidate is any function GF(q)^f -> GF(q), stored as its full value table
over all q^f input tuples (inputs enumerated in base-q lexicographic order,
first variable most significant).  Under uniform i.i.d. inputs a value's
probability is its exact preimage count over q^f.  Tables are read-only
int64 arrays, counted by np.bincount (one table) or np.unique (a joint of
several); entropies are summed from the counts in Python floats, in q-ary
units, so ties stay exact.

The monomial generator produces the deduplicated "nonparallel" candidate sets
used by the rate sweeps: exponent vectors are first reduced with x^q = x, and
a monomial is dropped when it is a componentwise k-th power (k >= 2, reduced)
of another monomial in range, since retrieving the base monomial already
determines it.  Such a set is profiled from its exponent vectors alone, in
Python integers and floats, and tabulated only on demand.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property, partial

from ._numpy import np
from .errors import DegenerateInstanceError, ResourceLimitError, UsageError

# cells (tables x q^f entries) per candidate set and exponent-grid points per
# generation; at 10^7 cells the costliest shape (f = 1, q ~ 10^7) nears 0.9 GB
ENUMERATION_CAP = 10**7

FLOAT_TOL = 1e-9


# Miller-Rabin on these bases is exact below 3.3 * 10^24 (above it, a strong
# pseudoprime to all 13 would pass)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # n = d * 2^s + 1 is a strong probable prime to base a when a^d = 1 or
    # a^(d * 2^r) = -1 mod n for some r < s
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x != 1 and n - 1 not in [pow(x, 2**r, n) for r in range(s)]:
            return False
    return True


def require_prime(q: int):
    """Reject a field size that is not prime: GF(q) arithmetic is mod q."""
    if not is_prime(q):
        raise UsageError(f"field modulus must be prime, got {q}")


def _check_enumeration_cap(base: int, f: int, mu: int = 1):
    """Reject enumerating mu tables of base^f cells each; as base >= 2 and
    2^24 > the cap, f past 24 is refused without building base^f."""
    if mu * base ** min(f, ENUMERATION_CAP.bit_length()) > ENUMERATION_CAP:
        raise ResourceLimitError(
            f"{mu} x {base}^{f} cells exceed the enumeration cap of {ENUMERATION_CAP}"
        )


def _reduce(e: tuple, q: int) -> tuple:
    """Map each positive exponent into [1, q-1], q checked prime, keeping the
    table: x^q = x, so for x != 0 only the exponent mod q-1 matters; 0 stays 0."""
    return tuple(((x - 1) % (q - 1)) + 1 if x >= 1 else 0 for x in e)


def grlex_key(e: tuple) -> tuple:
    """Graded-lex sort key: by total degree, then first-variable-major order."""
    return (sum(e), tuple(-x for x in e))


class FunctionTable(namedtuple("FunctionTable", "q f values exponents", defaults=(None,))):
    """A candidate function as its value at every input of GF(q)^f, held as a
    read-only int64 array: a read-only int64 one is kept as is, others copied.
    exponents is set when the table was built from a monomial."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates
    # compared by identity: comparing the values arrays would be ambiguous
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, q, f, values, exponents=None):
        if q >= 2**63:
            raise UsageError("field size must be below 2^63 (tables are int64)")
        if len(values) != q**f:
            raise UsageError(f"table has {len(values)} entries, expected {q}^{f}")
        try:
            array = np.asarray(values, dtype=np.int64)
        except OverflowError:  # past int64, so past the field too
            raise UsageError("table value out of field range") from None
        if array is values and array.flags.writeable:
            array = array.copy()
        if array.min() < 0 or array.max() >= q:
            raise UsageError("table value out of field range")
        array.flags.writeable = False
        return super().__new__(cls, q, f, array, exponents)


def _monomial_tables(vectors: list, q: int) -> list:
    """Tabulate the monomials prod_j w_j^{e_j} of vectors, all of length f, as
    one read-only (mu, q^f) int64 matrix; each table is a view of its row."""
    for e in vectors:
        if not e or any(x < 0 for x in e):
            raise UsageError("exponent vector must be nonempty and nonnegative")
        if sum(e) < 1:
            raise UsageError("monomial must involve at least one variable (wt >= 1)")
    require_prime(q)
    _check_enumeration_cap(q, len(vectors[0]), len(vectors))
    # w^d for each distinct reduced exponent d, by square-and-multiply; the cap
    # keeps q <= 10^7, so a product of two residues stays below 2^63
    reduced = [_reduce(e, q) for e in vectors]
    exps = np.array(sorted(set().union(*reduced)), dtype=np.int64)
    cols = np.searchsorted(exps, reduced)  # (mu, f) power-table rows
    powers, base = np.ones((len(exps), q), dtype=np.int64), np.arange(q, dtype=np.int64)
    while exps.any():
        powers[exps & 1 == 1] *= base
        powers %= q
        base = base * base % q
        exps >>= 1
    # outer products, one variable at a time, the last varying fastest
    values = np.ones((len(vectors), 1), dtype=np.int64)
    for col in cols.T:
        values = (values[:, :, None] * powers[col, None, :]).reshape(len(vectors), -1)
        values %= q
    values.flags.writeable = False
    return [FunctionTable(q, len(e), row, e) for row, e in zip(values, vectors)]


def build_monomial(exponents: tuple, q: int) -> FunctionTable:
    """Tabulate the monomial prod_j w_j^{e_j} over all of GF(q)^f."""
    return _monomial_tables([tuple(exponents)], q)[0]


def generate_nonparallel_monomials(f: int, g: int, q: int) -> list:
    """All nonparallel monomial exponent vectors with 1 <= wt <= g, graded-lex.

    Reduction dedupes parallel powers of the same function; the power-exclusion
    rule then walks the range in graded-lex order, dropping any vector that is
    the reduced k-th power (k in [2, q-1]) of an already-kept one.  Keeping
    one representative per power orbit matters when powers are mutual (k
    invertible mod q-1); for q = 3 powers have every entry even, orbits are
    acyclic, and the rule degenerates to plain exclusion.  The returned count
    defines the candidate number used by the rate sweeps.
    """
    if f < 1 or g < 1:
        raise UsageError("f and g must be >= 1")
    require_prime(q)
    _check_enumeration_cap(q, f)  # one table; it also keeps f below 24
    # reduction maps e_j into [1, min(e_j, q - 1)] and keeps zeros: reduced
    # in-range vectors have weight 1..g and entries up to top, size of them by
    # inclusion-exclusion, each banning at most q - 2 others, so mu >= size / (q - 1)
    top = min(g, q - 1)
    size = sum((-1) ** i * math.comb(f, i) * math.comb(f + g - i * (top + 1), f)
               for i in range(min(f, g // (top + 1)) + 1)) - 1
    _check_enumeration_cap(q, f, -(-size // (q - 1)))  # before the walk
    if f == 1:  # every in-range x^e is a power of x
        return [(1,)]
    vectors = [()]
    for _ in range(f):
        vectors = [e + (x,) for e in vectors for x in range(min(top, g - sum(e)) + 1)]
    in_range = set(vectors[1:])  # vectors[0] is the zero vector
    m = q - 1
    kept = []
    banned = set()
    for e in sorted(in_range, key=grlex_key):
        if e in banned:
            continue
        kept.append(e)
        # a reduced k-th power depends on k mod m alone (k = 1 gives e, which
        # is skipped), and is in range only if its first nonzero entry,
        # (k*x - 1) mod m + 1 for e's first nonzero x, is some y <= top:
        # k*x = y (mod m) has d = gcd(x, m) solutions if d divides y, else none
        x = next(v for v in e if v)
        d = math.gcd(x, m)
        step = m // d
        inverse = pow(x // d, -1, step)
        for y in range(d, top + 1, d):
            for k in range(y // d * inverse % step, m, step):
                p = tuple((k * v - 1) % m + 1 if v else 0 for v in e)
                if p != e and p in in_range:
                    banned.add(p)
    return kept


def _count_entropy(runs, n: int, q: int) -> float:
    """Entropy (base q) of n samples from (count, multiplicity) runs in count
    order: each c log c is added m times, as a flat sorted list adds it, so
    equal count multisets give bit-identical floats (ties compare equal)."""
    s = 0.0
    # a count of 1 adds 1*log(1) = 0.0 exactly, and a run of q - 1 would cost O(q)
    for c, m in runs:
        if c > 1:
            term = c * math.log(c)
            for _ in range(m):
                s += term
    return (math.log(n) - s / n) / math.log(q)


def _runs(counts) -> list:
    """(count, multiplicity) runs of a numpy array's counts above 1."""
    distinct, multiplicity = np.unique(counts[counts > 1], return_counts=True)
    return list(zip(distinct.tolist(), multiplicity.tolist()))


def table_entropy(table: FunctionTable) -> float:
    """Exact entropy of a candidate under uniform inputs, q-ary units."""
    if table.f == 0:  # one cell: entropy 0; else bincount's q slots fit in q^f
        return 0.0
    return _count_entropy(_runs(np.bincount(table.values)), len(table.values), table.q)


class EntropyProfile(namedtuple("EntropyProfile", "h prefix_joint")):
    """Sorted candidate entropies plus prefix joint entropies, q-ary units:
    h[v-1] is the entropy of the v-th candidate (descending order) and
    prefix_joint[v-1] the joint entropy of candidates 1..v."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.h) != len(self.prefix_joint) or not self.h:
            raise UsageError("profile vectors must be nonempty and equal length")
        for a, b in zip(self.h, self.h[1:]):
            if b > a + FLOAT_TOL:
                raise UsageError("entropies must be nonincreasing")
        prev = 0.0
        for hv, jv in zip(self.h, self.prefix_joint):
            if jv < prev - FLOAT_TOL or jv - prev > hv + FLOAT_TOL:
                raise UsageError("prefix joints must grow by at most h[v]")
            prev = jv
        return self

    @property
    def mu(self) -> int:
        return len(self.h)

    @property
    def h_max(self) -> float:
        return self.h[0]

    @property
    def h_min(self) -> float:
        return self.h[-1]

    @property
    def joint(self) -> float:
        return self.prefix_joint[-1]


class CandidateSet(namedtuple("CandidateSet", "q f profile tabulate")):
    """Candidates ordered descendingly by entropy, with their profile; the
    ordered tables, functions, are built by tabulate on their first read."""

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @cached_property
    def functions(self) -> tuple:
        return tuple(self.tabulate())

    @property
    def mu(self) -> int:
        return self.profile.mu


def _prefix_joint_entropies(rows, order, q: int, first: float) -> tuple:
    """Joint entropy of each prefix of rows[order] by exact enumeration.

    first is the entropy of rows[order[0]], the first prefix.  Each input's
    joint value tuple is a compact label: the first row's values, which are
    below q, then re-canonicalized after every further row, so keys
    labels*q + value stay below (distinct tuples so far)*q.  Once a prefix is
    injective on the inputs, so is every longer one: same counts, same entropy.
    """
    cells = len(rows[0])
    labels = rows[order[0]]
    joints = [first]
    for i in order[1:]:
        keys = labels * q + rows[i]
        distinct, counts = np.unique(keys, return_counts=True)
        joints.append(_count_entropy(_runs(counts), cells, q))
        if len(distinct) == cells:
            break
        # searchsorted ranks keys in less memory than unique's return_inverse
        labels = np.searchsorted(distinct, keys)
    return tuple(joints + joints[-1:] * (len(order) - len(joints)))


def order_by_entropy(functions) -> CandidateSet:
    """Sort candidates by descending entropy and build their profile.

    Ties break by graded-lex order of the defining exponent vectors when every
    candidate carries one, otherwise by input position (stable sort).
    """
    functions = list(functions)
    if not functions:
        raise UsageError("candidate set must be nonempty")
    q, f = functions[0].q, functions[0].f
    if any(t.q != q or t.f != f for t in functions):
        raise UsageError("all candidates must share the same q and f")
    entropies = [table_entropy(t) for t in functions]
    grlex = all(t.exponents is not None for t in functions)
    order = sorted(
        range(len(functions)),
        key=lambda i: (-entropies[i],) + (grlex_key(functions[i].exponents) if grlex else ()),
    )
    tables = tuple(functions[i] for i in order)
    h = tuple(entropies[i] for i in order)
    joints = _prefix_joint_entropies([t.values for t in functions], order, q, h[0])
    profile = EntropyProfile(h=h, prefix_joint=joints)
    return CandidateSet(q, f, profile, lambda: tables)


def monomial_entropy(e: tuple, q: int) -> float:
    """table_entropy of the monomial prod_j w_j^{e_j}, bit for bit, from e.

    With k active variables and d = gcd(q-1, e_1..e_k) its table is 0 at
    q^f - (q-1)^k q^(f-k) inputs and each of the (q-1)/d values of the
    index-d subgroup of GF(q)* at d (q-1)^(k-1) q^(f-k): bincount's counts.
    """
    active = [x for x in e if x]
    f, k, d = len(e), len(active), math.gcd(q - 1, *active)
    zero, nonzero = q**f - (q - 1) ** k * q ** (f - k), d * (q - 1) ** (k - 1) * q ** (f - k)
    return _count_entropy(sorted([(zero, 1), (nonzero, (q - 1) // d)]), q**f, q)


def monomial_candidate_set(f: int, g: int, q: int) -> CandidateSet:
    """Entropy-ordered set of all nonparallel monomials (f, g, q), profiled
    from its exponent vectors (ties by graded lex).  The messages w_1..w_f must
    lead, as every other univariate bijection is a power of one: the first
    v <= f are jointly uniform on q^v values, so their joint is exactly v, and
    the first f fix the input."""
    vectors = generate_nonparallel_monomials(f, g, q)
    _check_enumeration_cap(q, f, len(vectors))
    h = {e: monomial_entropy(e, q) for e in vectors}
    order = sorted(vectors, key=lambda e: (-h[e],) + grlex_key(e))
    if order[:f] != [tuple(int(i == j) for j in range(f)) for i in range(f)]:
        raise AssertionError(f"the messages do not lead the set ({f}, {g}, {q})")
    joints = tuple(float(min(v, f)) for v in range(1, len(order) + 1))
    profile = EntropyProfile(tuple(h[e] for e in order), joints)
    return CandidateSet(q, f, profile, partial(_monomial_tables, order, q))


def candidate_set_from_exponents(vectors, q: int) -> CandidateSet:
    """Entropy-ordered candidate set from explicit exponent vectors."""
    vectors = [tuple(e) for e in vectors]
    if not vectors:
        raise UsageError("candidate list must be nonempty")
    if len({len(e) for e in vectors}) != 1:
        raise UsageError("all exponent vectors must have the same length")
    if len(set(vectors)) != len(vectors):
        raise UsageError("duplicate exponent vectors in candidate list")
    return order_by_entropy(_monomial_tables(vectors, q))


def require_nondegenerate(candidate_set: CandidateSet):
    if candidate_set.profile.h_max <= 0.0:
        raise DegenerateInstanceError("every candidate is constant")

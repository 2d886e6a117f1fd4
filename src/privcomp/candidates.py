"""Candidate functions over GF(q)^f and their exact entropy profiles.

A candidate is any function GF(q)^f -> GF(q), stored as its full value table
over all q^f input tuples (inputs enumerated in base-q lexicographic order,
first variable most significant).  Under uniform i.i.d. inputs a value's
probability is its exact preimage count over q^f.  Tables are built and
counted on numpy arrays but stored as tuples of Python ints; entropies are
summed from the counts in Python floats, in q-ary units, so ties stay exact.

The monomial generator produces the deduplicated "nonparallel" candidate sets
used by the rate sweeps: exponent vectors are first reduced with x^q = x, and
a monomial is dropped when it is a componentwise k-th power (k >= 2, reduced)
of another monomial in range, since retrieving the base monomial already
determines it.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInstanceError, ResourceLimitError, UsageError

# cells (tables x q^f entries) per candidate set and exponent-grid points per
# generation; at 10^7 cells the costliest shape (f = 1, q ~ 10^7) nears 0.9 GB
ENUMERATION_CAP = 10**7

FLOAT_TOL = 1e-9


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def require_prime(q: int):
    """Reject a field size that is not prime: GF(q) arithmetic is mod q."""
    if not is_prime(q):
        raise UsageError(f"field modulus must be prime, got {q}")


def _check_enumeration_cap(base: int, f: int, mu: int = 1):
    """Reject enumerating mu tables of base^f cells each."""
    if mu * base**f > ENUMERATION_CAP:
        raise ResourceLimitError(
            f"{mu} x {base}^{f} cells exceed the enumeration cap of {ENUMERATION_CAP}"
        )


def count_all_monomials(m: int, g: int) -> int:
    """Number of monomials in m variables with degree between 1 and g."""
    if m < 1 or g < 1:
        raise UsageError("m and g must be >= 1")
    return math.comb(g + m, g) - 1


def reduce_exponent_vector(e: tuple, q: int) -> tuple:
    """Map each positive exponent into [1, q-1] without changing the function.

    Uses x^q = x: for x != 0 the exponent only matters mod q-1, and exponent 0
    must stay 0 (absent variable).  The reduced table equals the input table.
    """
    require_prime(q)
    return _reduce(e, q)


def _reduce(e: tuple, q: int) -> tuple:
    # reduce_exponent_vector for a q already checked prime
    return tuple(((x - 1) % (q - 1)) + 1 if x >= 1 else 0 for x in e)


def grlex_key(e: tuple) -> tuple:
    """Graded-lex sort key: by total degree, then first-variable-major order."""
    return (sum(e), tuple(-x for x in e))


@dataclass(frozen=True)
class FunctionTable:
    """A candidate function as its value at every input of GF(q)^f."""

    q: int
    f: int
    values: tuple
    exponents: tuple | None = None  # set when built from a monomial

    def __post_init__(self):
        if self.q >= 2**63:
            raise UsageError("field size must be below 2^63 (tables are int64)")
        if len(self.values) != self.q**self.f:
            raise UsageError(
                f"table has {len(self.values)} entries, expected {self.q}^{self.f}"
            )
        if self.values and not (0 <= min(self.values) and max(self.values) < self.q):
            raise UsageError("table value out of field range")

    def value_at(self, inputs: tuple) -> int:
        idx = 0
        for w in inputs:
            idx = idx * self.q + w
        return self.values[idx]


def build_monomial(exponents: tuple, q: int) -> FunctionTable:
    """Tabulate the monomial prod_j w_j^{e_j} over all of GF(q)^f."""
    exponents = tuple(exponents)
    f = len(exponents)
    if f < 1 or any(x < 0 for x in exponents):
        raise UsageError("exponent vector must be nonempty and nonnegative")
    if sum(exponents) < 1:
        raise UsageError("monomial must involve at least one variable (wt >= 1)")
    require_prime(q)
    _check_enumeration_cap(q, f)
    # outer product of per-variable power tables; the last variable varies fastest
    values = np.ones(1, dtype=np.int64)
    for e in exponents:
        powers = np.array([pow(w, e, q) for w in range(q)], dtype=np.int64)
        values = np.multiply.outer(values, powers).ravel() % q
    return FunctionTable(q=q, f=f, values=tuple(values.tolist()), exponents=exponents)


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
    _check_enumeration_cap(max(g + 1, q), f)  # the exponent grid, and one table
    # reduction never raises an entry, so reduced in-range vectors stay in range
    in_range = set()
    for e in itertools.product(range(g + 1), repeat=f):
        if 1 <= sum(e) <= g:
            in_range.add(_reduce(e, q))
    kept = []
    banned = set()
    ks = np.arange(2, q, dtype=np.int64)[:, None]
    for e in sorted(in_range, key=grlex_key):
        if e in banned:
            continue
        kept.append(e)
        # reduced k-th powers of e; only in-range ones (entries <= g) are looked up
        powers = np.where(np.array(e) > 0, (ks * e - 1) % (q - 1) + 1, 0)
        for p in map(tuple, powers[powers.max(axis=1) <= g].tolist()):
            if p != e and p in in_range:
                banned.add(p)
    return kept


def _entropy_from_counts(counts, total: int, q: int) -> float:
    """Plug-in entropy (base q) from integer counts; 0*log 0 = 0.

    Counts are consumed in sorted order so that equal count multisets produce
    bit-identical floats (entropy ties must compare exactly equal).
    """
    s = 0.0
    for c in sorted(counts):
        if c:
            s += c * math.log(c)
    return (math.log(total) - s / total) / math.log(q)


def empirical_entropy(samples, q: int) -> float:
    """Plug-in entropy (base q) of the empirical distribution of samples."""
    if len(samples) == 0:
        raise UsageError("need at least one sample")
    counts = {}
    for s in samples:
        counts[s] = counts.get(s, 0) + 1
    return _entropy_from_counts(counts.values(), len(samples), q)


def _entropy_and_labels(keys, q: int):
    """Entropy of integer keys and each key's rank among the distinct keys."""
    if len(keys) == 0:
        raise UsageError("need at least one sample")
    distinct, counts = np.unique(keys, return_counts=True)
    # a count of 1 adds 1*log(1) = 0.0 exactly, so only counts > 1 are summed
    h = _entropy_from_counts(counts[counts > 1].tolist(), len(keys), q)
    # searchsorted ranks keys in less memory than unique's return_inverse
    return h, np.searchsorted(distinct, keys)


def table_entropy(table: FunctionTable) -> float:
    """Exact entropy of a candidate under uniform inputs, q-ary units."""
    return _entropy_and_labels(np.asarray(table.values, dtype=np.int64), table.q)[0]


@dataclass(frozen=True)
class EntropyProfile:
    """Sorted candidate entropies plus prefix joint entropies, q-ary units.

    h[v-1] is the entropy of the v-th candidate (descending order);
    prefix_joint[v-1] is the joint entropy of candidates 1..v, with the empty
    prefix having entropy 0.
    """

    h: tuple
    prefix_joint: tuple

    def __post_init__(self):
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


@dataclass(frozen=True)
class CandidateSet:
    """Candidates ordered descendingly by entropy, with their profile."""

    q: int
    f: int
    functions: tuple  # tuple of FunctionTable
    profile: EntropyProfile

    @property
    def mu(self) -> int:
        return len(self.functions)


def _prefix_joint_entropies(rows, order, q: int) -> tuple:
    """Joint entropy of each prefix of rows[order] by exact enumeration.

    Each input's joint value tuple is a compact label, re-canonicalized after
    every row, so keys labels*q + value stay below (distinct tuples so far)*q.
    """
    labels = np.zeros(rows.shape[1], dtype=np.int64)
    joints = []
    for i in order:
        h, labels = _entropy_and_labels(labels * q + rows[i], q)
        joints.append(h)
    return tuple(joints)


def joint_entropy_prefix(candidate_set: CandidateSet, v: int) -> float:
    """Joint entropy of the first v candidates; v = 0 gives 0."""
    if v == 0:
        return 0.0
    if not 1 <= v <= candidate_set.mu:
        raise UsageError(f"prefix length {v} out of range [0, {candidate_set.mu}]")
    return candidate_set.profile.prefix_joint[v - 1]


def order_by_entropy(functions) -> CandidateSet:
    """Sort candidates by descending entropy and build their profile.

    Ties break by graded-lex order of the defining exponent vectors when every
    candidate carries one, otherwise by input position (stable sort).
    """
    functions = list(functions)
    if not functions:
        raise UsageError("candidate set must be nonempty")
    q = functions[0].q
    f = functions[0].f
    if any(t.q != q or t.f != f for t in functions):
        raise UsageError("all candidates must share the same q and f")
    # the one tuple -> array conversion of every table
    rows = np.array([t.values for t in functions], dtype=np.int64)
    entropies = [_entropy_and_labels(row, q)[0] for row in rows]
    all_monomial = all(t.exponents is not None for t in functions)
    if all_monomial:
        order = sorted(
            range(len(functions)),
            key=lambda i: (-entropies[i],) + grlex_key(functions[i].exponents),
        )
    else:
        order = sorted(range(len(functions)), key=lambda i: -entropies[i])
    tables = tuple(functions[i] for i in order)
    h = tuple(entropies[i] for i in order)
    profile = EntropyProfile(h=h, prefix_joint=_prefix_joint_entropies(rows, order, q))
    return CandidateSet(q=q, f=f, functions=tables, profile=profile)


def monomial_candidate_set(f: int, g: int, q: int) -> CandidateSet:
    """Entropy-ordered candidate set of all nonparallel monomials (f, g, q)."""
    vectors = generate_nonparallel_monomials(f, g, q)
    _check_enumeration_cap(q, f, len(vectors))
    return order_by_entropy([build_monomial(e, q) for e in vectors])


def candidate_set_from_exponents(vectors, q: int) -> CandidateSet:
    """Entropy-ordered candidate set from explicit exponent vectors."""
    vectors = [tuple(e) for e in vectors]
    if not vectors:
        raise UsageError("candidate list must be nonempty")
    if len({len(e) for e in vectors}) != 1:
        raise UsageError("all exponent vectors must have the same length")
    if len(set(vectors)) != len(vectors):
        raise UsageError("duplicate exponent vectors in candidate list")
    require_prime(q)  # a usage error outranks the cap below
    _check_enumeration_cap(q, len(vectors[0]), len(vectors))
    return order_by_entropy([build_monomial(e, q) for e in vectors])


def require_nondegenerate(candidate_set: CandidateSet):
    if candidate_set.profile.h_max <= 0.0:
        raise DegenerateInstanceError("every candidate is constant")

"""Candidate functions over GF(q)^f and their exact entropy profiles.

A candidate is any function GF(q)^f -> GF(q), stored as its full value table
over all q^f input tuples (inputs enumerated in base-q lexicographic order,
first variable most significant).  Under uniform i.i.d. inputs a value's
probability is its exact preimage count over q^f; entropies are computed from
those counts in double precision, in q-ary units.

The monomial generator produces the deduplicated "nonparallel" candidate sets
used by the rate sweeps: exponent vectors are first reduced with x^q = x, and
a monomial is dropped when it is a componentwise k-th power (k >= 2, reduced)
of another monomial in range, since retrieving the base monomial already
determines it.
"""

import itertools
import math
from dataclasses import dataclass

from .errors import DegenerateInstanceError, ResourceLimitError, UsageError

# q^f value-table scans get slow and memory hungry past this point
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


def _check_enumeration_cap(q: int, f: int):
    if q**f > ENUMERATION_CAP:
        raise ResourceLimitError(
            f"q^f = {q}^{f} exceeds the enumeration cap of {ENUMERATION_CAP}"
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
        if len(self.values) != self.q**self.f:
            raise UsageError(
                f"table has {len(self.values)} entries, expected {self.q}^{self.f}"
            )
        if any(not 0 <= v < self.q for v in self.values):
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
    values = []
    for w in itertools.product(range(q), repeat=f):
        v = 1
        for wj, ej in zip(w, exponents):
            if ej:
                v = (v * pow(wj, ej, q)) % q
        values.append(v)
    return FunctionTable(q=q, f=f, values=tuple(values), exponents=exponents)


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
    if (g + 1) ** f > ENUMERATION_CAP:
        raise ResourceLimitError(
            f"(g+1)^f = {g + 1}^{f} exceeds the enumeration cap"
        )
    # reduction never raises an entry, so reduced in-range vectors stay in range
    in_range = set()
    for e in itertools.product(range(g + 1), repeat=f):
        if 1 <= sum(e) <= g:
            in_range.add(reduce_exponent_vector(e, q))
    kept = []
    banned = set()
    for e in sorted(in_range, key=grlex_key):
        if e in banned:
            continue
        kept.append(e)
        for k in range(2, q):
            p = reduce_exponent_vector(tuple(k * x for x in e), q)
            if p != e:
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


def table_entropy(table: FunctionTable) -> float:
    """Exact entropy of a candidate under uniform inputs, q-ary units."""
    return empirical_entropy(table.values, table.q)


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


def _prefix_joint_entropies(tables) -> tuple:
    """Joint entropy of each prefix of candidates by exact enumeration.

    Inputs are scanned once per prefix; the joint value tuple is tracked as a
    compact integer label that is re-canonicalized each step, so labels never
    exceed the number of distinct tuples seen so far times q.
    """
    q = tables[0].q
    f = tables[0].f
    _check_enumeration_cap(q, f)
    total = q**f
    labels = [0] * total
    joints = []
    for t in tables:
        relabel = {}
        values = t.values
        for i in range(total):
            key = labels[i] * q + values[i]
            lab = relabel.get(key)
            if lab is None:
                lab = len(relabel)
                relabel[key] = lab
            labels[i] = lab
        counts = [0] * len(relabel)
        for lab in labels:
            counts[lab] += 1
        joints.append(_entropy_from_counts(counts, total, q))
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
    entropies = [table_entropy(t) for t in functions]
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
    profile = EntropyProfile(h=h, prefix_joint=_prefix_joint_entropies(tables))
    return CandidateSet(q=q, f=f, functions=tables, profile=profile)


def monomial_candidate_set(f: int, g: int, q: int) -> CandidateSet:
    """Entropy-ordered candidate set of all nonparallel monomials (f, g, q)."""
    vectors = generate_nonparallel_monomials(f, g, q)
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
    return order_by_entropy([build_monomial(e, q) for e in vectors])


def require_nondegenerate(candidate_set: CandidateSet):
    if candidate_set.profile.h_max <= 0.0:
        raise DegenerateInstanceError("every candidate is constant")

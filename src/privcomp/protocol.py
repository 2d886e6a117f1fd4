"""End-to-end private-computation protocol on simulated replicated databases.

The user wants the v-th of mu candidate functions of f replicated messages.
Each candidate image is split into beta = n^mu segments of L symbols; a
private uniform permutation of the segment indices acts as a one-time pad
shared by all candidates.  Queries are built round-wise: round tau asks each
database for sums of tau distinct candidate segments (tau-sums).  Round 1
fetches every candidate at one fresh subindex per database; in later rounds
each desired tau-sum extends an undesired (tau-1)-sum answered by another
database with a fresh desired subindex, which is what makes it decodable by
subtraction.

Subindex bookkeeping: the desired candidate consumes fresh subindices from a
single global counter (exactly beta of them).  Undesired tau-sums reuse the
desired subindices allocated in the same round at the same database - member
w of an undesired sum of type T takes the subindex of a desired sum whose
side-information type is T minus {w}, the copies matched by cycling the
fastest-varying allocation digit.  This aliasing makes the per-database query
view of every desired index a relabeling of every other (verified exactly by
the privacy checker at small scale), while keeping each (candidate, subindex)
pair fresh where freshness matters.

Costs are tracked in a ledger.  Symbolic mode charges the information-
theoretic costs (round 1: joint entropy of the candidate tuple; a tau-sum:
the largest constituent entropy) while transmitting raw sums so recovery can
be checked exactly.  Concrete mode transmits fixed-length codewords from the
coding module and charges their actual lengths.
"""

import itertools
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .candidates import CandidateSet, require_nondegenerate
from .coding import (
    FixedCode,
    decode_fixed,
    encode_fixed,
    subtract_codewords,
    sum_codewords,
    widen_codeword,
)
from .errors import CodecError, ProtocolError, ResourceLimitError, UsageError
from . import rates

# beta = n^mu: plans hold O(beta) sums, simulations O(beta * L * mu) symbols
PLAN_SEGMENT_CAP = 2**20
SIMULATION_SYMBOL_CAP = 5 * 10**7

CONCRETE_ALPHABET_CAP = 32
DEFAULT_EPSILON = 0.05


# ---------------------------------------------------------------- query plans


@dataclass(frozen=True)
class TauSum:
    """One queried sum: |members| segments from distinct candidates."""

    sum_id: int
    db: int  # 1-based database index
    round: int  # tau = number of constituents
    members: tuple  # sorted tuple of (candidate, subindex), 1-based
    desired: bool
    side_ref: int | None  # sum_id of the undesired (tau-1)-sum it extends

    @property
    def type(self) -> tuple:
        return tuple(w for w, _ in self.members)

    def subindex(self, candidate: int) -> int:
        for w, t in self.members:
            if w == candidate:
                return t
        raise ProtocolError(f"candidate {candidate} not in sum {self.sum_id}")


@dataclass(frozen=True)
class QueryPlan:
    """All tau-sums for one retrieval, plus the private permutation."""

    n: int
    mu: int
    v: int
    seed: int | None
    permutation: tuple  # permutation[t-1] = actual segment index, 1-based
    sums: tuple

    @property
    def beta(self) -> int:
        return self.n**self.mu

    def per_db(self, j: int):
        return [s for s in self.sums if s.db == j]

    def by_id(self) -> dict:
        return {s.sum_id: s for s in self.sums}

    def round1_subindex(self, j: int) -> int:
        for s in self.sums:
            if s.db == j and s.round == 1:
                return s.members[0][1]
        raise ProtocolError(f"database {j} has no round-1 sums")


def _sample_permutation(beta: int, seed):
    rng = np.random.default_rng(seed)
    return tuple(int(x) + 1 for x in rng.permutation(beta))


def generate_query_plan(
    n: int,
    mu: int,
    v: int,
    seed=None,
    permutation=None,
) -> QueryPlan:
    """Build the round-wise query plan for desired candidate v.

    The structure is generated for desired slot 1 and then candidate labels 1
    and v are swapped, so all plans for one (n, mu) are label-isomorphic by
    construction.
    """
    if n < 2:
        raise UsageError("replication requires at least 2 databases")
    if mu < 1:
        raise UsageError("mu must be >= 1")
    if not 1 <= v <= mu:
        raise UsageError(f"desired index {v} out of range [1, {mu}]")
    beta = n**mu
    if beta > PLAN_SEGMENT_CAP:
        raise ResourceLimitError(
            f"beta = {n}^{mu} = {beta} exceeds the plan cap of {PLAN_SEGMENT_CAP}"
        )
    if permutation is not None:
        permutation = tuple(permutation)
        if sorted(permutation) != list(range(1, beta + 1)):
            raise UsageError("permutation must be a bijection on [beta]")
    else:
        permutation = _sample_permutation(beta, seed)

    sums = []
    counter = 0  # global fresh-subindex counter for the desired candidate
    undesired_prev = [[] for _ in range(n + 1)]  # per db, previous round
    for tau in range(1, mu + 1):
        new_undesired = [[] for _ in range(n + 1)]
        for j in range(1, n + 1):
            desired_here = []
            if tau == 1:
                counter += 1
                s = TauSum(len(sums), j, 1, ((1, counter),), True, None)
                sums.append(s)
                desired_here.append(s)
            else:
                for jp in range(1, n + 1):
                    if jp == j:
                        continue
                    for sp in undesired_prev[jp]:
                        counter += 1
                        members = tuple(sorted(((1, counter),) + sp.members))
                        s = TauSum(len(sums), j, tau, members, True, sp.sum_id)
                        sums.append(s)
                        desired_here.append(s)
            by_side = {}
            for ds in desired_here:
                side = tuple(w for w, _ in ds.members if w != 1)
                by_side.setdefault(side, []).append(ds)
            copies = (n - 1) ** (tau - 1)
            for T in itertools.combinations(range(2, mu + 1), tau):
                for k in range(copies):
                    members = []
                    for i, w in enumerate(T):
                        side = tuple(x for x in T if x != w)
                        donors = by_side[side]
                        # cycle the fastest-varying digit of the copy index
                        idx = (k // (n - 1)) * (n - 1) + (k + i) % (n - 1) if tau > 1 else 0
                        members.append((w, donors[idx].subindex(1)))
                    s = TauSum(len(sums), j, tau, tuple(sorted(members)), False, None)
                    sums.append(s)
                    new_undesired[j].append(s)
        undesired_prev = new_undesired
    if counter != beta:
        raise ProtocolError(
            f"desired coverage is {counter} segments, expected beta = {beta}"
        )
    if v != 1:
        relabel = {1: v, v: 1}
        sums = [
            replace(
                s,
                members=tuple(
                    sorted((relabel.get(w, w), t) for w, t in s.members)
                ),
            )
            for s in sums
        ]
    return QueryPlan(
        n=n, mu=mu, v=v, seed=seed, permutation=permutation, sums=tuple(sums)
    )


# ------------------------------------------------------------- message store


@dataclass
class MessageStore:
    """f uniform messages of beta*L symbols each, replicated at every database."""

    q: int
    f: int
    beta: int
    length: int
    seed: int | None
    messages: np.ndarray  # shape (f, beta, L), values in [0, q)

    @classmethod
    def generate(cls, q: int, f: int, beta: int, length: int, seed=None):
        rng = np.random.default_rng(seed)
        msgs = rng.integers(0, q, size=(f, beta, length), dtype=np.int16)
        return cls(q=q, f=f, beta=beta, length=length, seed=seed, messages=msgs)

    def input_codes(self) -> np.ndarray:
        """Message tuples packed as base-q integers, shape (beta, L)."""
        codes = np.zeros((self.beta, self.length), dtype=np.int64)
        for m in range(self.f):
            codes = codes * self.q + self.messages[m]
        return codes

    def candidate_values(self, table, codes=None) -> np.ndarray:
        """Evaluate one candidate function pointwise, shape (beta, L)."""
        if codes is None:
            codes = self.input_codes()
        lut = np.asarray(table.values, dtype=np.int16)
        return lut[codes]


def evaluate_candidates(store: MessageStore, candidate_set: CandidateSet):
    """Images of all candidates on the stored messages, list of (beta, L)."""
    codes = store.input_codes()
    return [store.candidate_values(t, codes) for t in candidate_set.functions]


# ------------------------------------------------------------------- answers


@dataclass(frozen=True)
class LedgerEntry:
    db: int
    round: int
    type: tuple
    charge: float  # q-ary units


@dataclass
class Round1Answer:
    db: int
    subindex: int
    payload: object  # symbolic: ndarray (mu, L); concrete: Codeword


@dataclass
class SumAnswer:
    sum_id: int
    payload: object  # symbolic: ndarray (L,); concrete: Codeword


@dataclass
class AnswerSet:
    db: int
    round1: Round1Answer
    sums: dict  # sum_id -> SumAnswer


def _type_budget(profile, type_: tuple) -> float:
    return max(profile.h[w - 1] for w in type_)


@dataclass(frozen=True)
class ConcreteCodes:
    """Shared deterministic code parameters for concrete answers/decoding."""

    joint_code: FixedCode | None  # None when the joint alphabet is capped out
    image_tuples: tuple
    image_of_code: np.ndarray  # input code -> image index
    type_codes: dict

    @property
    def joint_fallback(self) -> bool:
        return self.joint_code is None


def build_concrete_codes(
    candidate_set: CandidateSet, length: int, epsilon: float = DEFAULT_EPSILON
) -> ConcreteCodes:
    q = candidate_set.q
    profile = candidate_set.profile
    n_inputs = q**candidate_set.f
    tuples = [
        tuple(t.values[i] for t in candidate_set.functions) for i in range(n_inputs)
    ]
    image = sorted(set(tuples))
    index = {tup: i for i, tup in enumerate(image)}
    image_of_code = np.array([index[tup] for tup in tuples], dtype=np.int64)
    joint_code = None
    if len(image) <= CONCRETE_ALPHABET_CAP:
        joint_code = FixedCode(
            q=q,
            alphabet_size=len(image),
            length=length,
            budget=profile.joint + epsilon,
        )
    type_codes = {}
    for tau in range(2, profile.mu + 1):
        for T in itertools.combinations(range(1, profile.mu + 1), tau):
            type_codes[T] = FixedCode(
                q=q,
                alphabet_size=q,
                length=length,
                budget=_type_budget(profile, T) + epsilon,
            )
    return ConcreteCodes(
        joint_code=joint_code,
        image_tuples=tuple(image),
        image_of_code=image_of_code,
        type_codes=type_codes,
    )


def answer_queries(
    j: int,
    plan: QueryPlan,
    store: MessageStore,
    candidate_set: CandidateSet,
    mode: str = "symbolic",
    epsilon: float = DEFAULT_EPSILON,
    values=None,
    codes: ConcreteCodes | None = None,
):
    """Database j's answers and ledger entries for its part of the plan.

    Only the queried sums, the replica, and the public candidate tables are
    consulted; nothing here depends on which candidate is desired.
    """
    if mode not in ("symbolic", "concrete"):
        raise UsageError(f"unknown mode {mode!r}")
    q = store.q
    profile = candidate_set.profile
    length = store.length
    perm = plan.permutation
    if values is None:
        values = evaluate_candidates(store, candidate_set)
    input_codes = None
    if mode == "concrete":
        if codes is None:
            codes = build_concrete_codes(candidate_set, length, epsilon)
        if not codes.joint_fallback:
            input_codes = store.input_codes()

    def segment(w: int, t: int) -> np.ndarray:
        if not 1 <= t <= plan.beta:
            raise ProtocolError(f"subindex {t} outside [1, {plan.beta}]")
        return values[w - 1][perm[t - 1] - 1]

    ledger = []
    sums = {}
    round1 = None
    full_type = tuple(range(1, plan.mu + 1))
    round1_ts = {s.members[0][1] for s in plan.per_db(j) if s.round == 1}
    if len(round1_ts) > 1:
        # joint compression requires one shared segment per database
        raise ProtocolError(
            f"database {j} has round-1 singletons at several subindices"
        )
    for s in plan.per_db(j):
        if s.round == 1:
            if round1 is not None:
                continue  # the round-1 bundle covers all singletons at once
            t = s.members[0][1]
            if mode == "symbolic":
                payload = np.stack([segment(w, t) for w in full_type])
                charge = length * profile.joint
            else:
                if codes.joint_fallback:
                    payload = np.stack([segment(w, t) for w in full_type])
                    charge = length * profile.joint
                else:
                    row = input_codes[perm[t - 1] - 1]
                    seq = tuple(int(x) for x in codes.image_of_code[row])
                    payload = encode_fixed(seq, codes.joint_code)
                    charge = float(codes.joint_code.codeword_len)
            round1 = Round1Answer(db=j, subindex=t, payload=payload)
            ledger.append(LedgerEntry(db=j, round=1, type=full_type, charge=charge))
        else:
            if mode == "symbolic":
                total = np.zeros(length, dtype=np.int16)
                for w, t in s.members:
                    total = (total + segment(w, t)) % q
                payload = total
                charge = length * _type_budget(profile, s.type)
            else:
                code = codes.type_codes[s.type]
                parts = [
                    encode_fixed(tuple(int(x) for x in segment(w, t)), code)
                    for w, t in s.members
                ]
                payload = sum_codewords(*parts)
                charge = float(code.codeword_len)
            sums[s.sum_id] = SumAnswer(sum_id=s.sum_id, payload=payload)
            ledger.append(
                LedgerEntry(db=j, round=s.round, type=s.type, charge=charge)
            )
    if round1 is None:
        raise ProtocolError(f"database {j} has no round-1 sums")
    return AnswerSet(db=j, round1=round1, sums=sums), ledger


# -------------------------------------------------------------------- decode


@dataclass
class DecodeResult:
    segments: np.ndarray  # recovered desired image, shape (beta, L), real order
    failed: list  # real segment indices (1-based) that could not be decoded

    @property
    def failure_rate(self) -> float:
        return len(self.failed) / self.segments.shape[0]


def decode(
    plan: QueryPlan,
    answers,
    candidate_set: CandidateSet,
    mode: str = "symbolic",
    epsilon: float = DEFAULT_EPSILON,
):
    """Recover all beta desired segments by round-ordered elimination.

    Round-1 segments decode directly; a desired tau-sum is resolved by
    subtracting its side information, which round-by-round is either a raw
    undesired sum (symbolic), a re-encoded known segment (concrete, tau = 2),
    or a widened undesired codeword sum (concrete, tau >= 3).
    """
    if mode not in ("symbolic", "concrete"):
        raise UsageError(f"unknown mode {mode!r}")
    v = plan.v
    q = candidate_set.q
    by_id = plan.by_id()
    answer_by_db = {a.db: a for a in answers}
    if sorted(answer_by_db) != list(range(1, plan.n + 1)):
        raise ProtocolError("need answers from every database")
    length = answers[0].round1.payload.shape[1] if mode == "symbolic" else None
    codes = None
    if mode == "concrete":
        first = answer_by_db[1].round1.payload
        length = (
            first.shape[1] if isinstance(first, np.ndarray) else first.code.length
        )
        codes = build_concrete_codes(candidate_set, length, epsilon)

    segments = np.zeros((plan.beta, length), dtype=np.int16)
    placed = np.zeros(plan.beta, dtype=bool)
    failed_real = []
    # round-1 bundles decode to every candidate's segment at that subindex
    round1_values = {}  # (candidate, subindex) -> ndarray (L,), or None if lost
    for j in range(1, plan.n + 1):
        a = answer_by_db[j].round1
        if isinstance(a.payload, np.ndarray):
            for w in range(1, plan.mu + 1):
                round1_values[(w, a.subindex)] = a.payload[w - 1]
        else:
            if a.payload.atypical:
                for w in range(1, plan.mu + 1):
                    round1_values[(w, a.subindex)] = None
            else:
                seq = decode_fixed(a.payload, codes.joint_code)
                arr = np.array(
                    [codes.image_tuples[s] for s in seq], dtype=np.int16
                ).T
                for w in range(1, plan.mu + 1):
                    round1_values[(w, a.subindex)] = arr[w - 1]

    def place(t: int, value) -> None:
        real = plan.permutation[t - 1]
        if placed[real - 1]:
            raise ProtocolError(f"segment {real} decoded twice")
        placed[real - 1] = True
        if value is None:
            failed_real.append(real)
        else:
            segments[real - 1] = value

    def check_side(s: TauSum) -> TauSum:
        if s.side_ref is None or s.side_ref not in by_id:
            raise ProtocolError(f"sum {s.sum_id} is missing its side information")
        ref = by_id[s.side_ref]
        expected = tuple(m for m in s.members if m[0] != v)
        if ref.desired or ref.db == s.db or ref.members != expected:
            raise ProtocolError(
                f"sum {s.sum_id}: side reference {ref.sum_id} does not match"
            )
        return ref

    for s in plan.sums:
        if not s.desired:
            continue
        t = s.subindex(v)
        if s.round == 1:
            place(t, round1_values[(v, t)])
            continue
        ref = check_side(s)
        answer = answer_by_db[s.db].sums[s.sum_id].payload
        if mode == "symbolic":
            if ref.round == 1:
                side = round1_values[ref.members[0]]
            else:
                side = answer_by_db[ref.db].sums[ref.sum_id].payload
            place(t, (answer - side) % q)
            continue
        # concrete: cancel the side information inside codeword space
        code = codes.type_codes[s.type]
        if answer.atypical:
            place(t, None)
            continue
        if ref.round == 1:
            known = round1_values[ref.members[0]]
            if known is None:
                place(t, None)
                continue
            side_cw = encode_fixed(tuple(int(x) for x in known), code)
        else:
            side_answer = answer_by_db[ref.db].sums[ref.sum_id].payload
            side_cw = widen_codeword(side_answer, code)
        if side_cw.atypical:
            place(t, None)
            continue
        residual = subtract_codewords(answer, side_cw)
        try:
            value = np.array(decode_fixed(residual, code), dtype=np.int16)
        except CodecError:
            value = None
        place(t, value)
    if not placed.all():
        raise ProtocolError("decode did not cover every segment")
    return DecodeResult(segments=segments, failed=sorted(failed_real))


# ----------------------------------------------------------- privacy checks


def _find_relabeling(sums_a, sums_b) -> bool:
    """Is one per-database view a subindex relabeling of the other?

    Exact criterion for the query distributions (over the uniform permutation)
    to coincide: backtracking search for a bijection on subindex labels that
    maps one sum multiset onto the other with candidates fixed.
    """
    a = [dict(s.members) for s in sums_a]
    b = [dict(s.members) for s in sums_b]
    if sorted(map(len, a)) != sorted(map(len, b)):
        return False
    used = [False] * len(b)
    rho = {}
    rho_inv = {}

    def match(i: int) -> bool:
        if i == len(a):
            return True
        sa = a[i]
        for k, sb in enumerate(b):
            if used[k] or set(sa) != set(sb):
                continue
            bound = []
            ok = True
            for w, t in sa.items():
                t2 = sb[w]
                if t in rho:
                    if rho[t] != t2:
                        ok = False
                        break
                elif t2 in rho_inv:
                    ok = False
                    break
                else:
                    bound.append((t, t2))
            if ok:
                for t, t2 in bound:
                    rho[t] = t2
                    rho_inv[t2] = t
                used[k] = True
                if match(i + 1):
                    return True
                used[k] = False
                for t, t2 in bound:
                    del rho[t]
                    del rho_inv[t2]
        return False

    return match(0)


@dataclass
class PrivacyReport:
    type_multisets_ok: bool
    violations: list
    relabeling_ok: bool | None  # None when skipped (scale cap)
    uniformity_ok: bool | None  # None when no seeds were requested
    chi_square: list  # (db, label, statistic, threshold)

    @property
    def ok(self) -> bool:
        return (
            self.type_multisets_ok
            and self.relabeling_ok is not False
            and self.uniformity_ok is not False
        )


# relabeling search is exponential in the worst case; verified envelope
RELABEL_CHECK_CAP = 4000


def verify_privacy_structure(
    plans,
    uniformity_seeds: int = 0,
    significance: float = 0.01,
    check_relabeling: bool | None = None,
) -> PrivacyReport:
    """Check the structural symmetries privacy rests on, across all plans.

    plans must hold one QueryPlan per desired index 1..mu for one (n, mu).
    Exact check: per database, the multiset of (round, type) must not depend
    on the desired index.  Distribution check (small scale): per database,
    each plan's subindex structure must be a relabeling of every other's,
    which makes the wire views identically distributed under the uniform
    permutation.  Uniformity check: over seeded permutations, wire subindices
    of fixed slots are chi-square tested against uniform.
    """
    plans = list(plans)
    if not plans:
        raise UsageError("need at least one plan")
    n, mu = plans[0].n, plans[0].mu
    if sorted(p.v for p in plans) != list(range(1, mu + 1)):
        raise UsageError("need exactly one plan per desired index")
    if any((p.n, p.mu) != (n, mu) for p in plans):
        raise UsageError("plans disagree on (n, mu)")
    plans = sorted(plans, key=lambda p: p.v)

    violations = []
    base = [Counter((s.round, s.type) for s in plans[0].per_db(j)) for j in range(1, n + 1)]
    for p in plans[1:]:
        for j in range(1, n + 1):
            got = Counter((s.round, s.type) for s in p.per_db(j))
            if got != base[j - 1]:
                diff = (got - base[j - 1]) + (base[j - 1] - got)
                example = next(iter(diff))
                violations.append(
                    f"db {j}: (round, type) multiset differs between v=1 and "
                    f"v={p.v}, e.g. {example}"
                )
    multisets_ok = not violations

    relabeling_ok = None
    total_sums = len(plans[0].sums)
    if check_relabeling is None:
        check_relabeling = multisets_ok and total_sums <= RELABEL_CHECK_CAP
    if check_relabeling:
        relabeling_ok = True
        for p in plans[1:]:
            for j in range(1, n + 1):
                if not _find_relabeling(plans[0].per_db(j), p.per_db(j)):
                    relabeling_ok = False
                    violations.append(
                        f"db {j}: view for v={p.v} is not a relabeling of v=1"
                    )

    uniformity_ok = None
    chi_stats = []
    if uniformity_seeds:
        from scipy.stats import chi2

        beta = plans[0].beta
        threshold = float(chi2.ppf(1 - significance, beta - 1))
        uniformity_ok = True
        for p in plans:
            slots = {}
            for j in range(1, n + 1):
                slots[(j, "round1")] = p.round1_subindex(j)
                last_desired = [s for s in p.per_db(j) if s.desired][-1]
                slots[(j, "last-desired")] = last_desired.subindex(p.v)
            counts = {key: np.zeros(beta, dtype=np.int64) for key in slots}
            for seed in range(uniformity_seeds):
                perm = _sample_permutation(beta, seed)
                for key, t in slots.items():
                    counts[key][perm[t - 1] - 1] += 1
            expected = uniformity_seeds / beta
            for (j, label), c in counts.items():
                stat = float(((c - expected) ** 2 / expected).sum())
                chi_stats.append((j, f"v={p.v} {label}", stat, threshold))
                if stat > threshold:
                    uniformity_ok = False
                    violations.append(
                        f"db {j}: subindex of {label} (v={p.v}) fails "
                        f"uniformity: chi2 {stat:.2f} > {threshold:.2f}"
                    )
    return PrivacyReport(
        type_multisets_ok=multisets_ok,
        violations=violations,
        relabeling_ok=relabeling_ok,
        uniformity_ok=uniformity_ok,
        chi_square=chi_stats,
    )


# --------------------------------------------------------------- simulation


@dataclass
class SimulationConfig:
    n: int
    candidate_set: CandidateSet
    length: int  # L, symbols per segment
    v: int
    mode: str = "symbolic"
    seed: int = 0
    epsilon: float = DEFAULT_EPSILON
    check_privacy: bool = True


@dataclass
class SimulationReport:
    config: SimulationConfig
    total_download: float  # q-ary units
    rate_measured: float
    rate_formula: float
    recovery_ok: bool
    privacy_ok: bool | None
    per_round: list  # (tau, total charge in q-ary units)
    decode_failure_rate: float
    warnings: list

    def as_dict(self) -> dict:
        cs = self.config.candidate_set
        out = {
            "n": self.config.n,
            "q": cs.q,
            "mu": cs.mu,
            "f": cs.f,
            "L": self.config.length,
            "v": self.config.v,
            "mode": self.config.mode,
            "seed": self.config.seed,
            "D_total_qary": self.total_download,
            "rate_measured": self.rate_measured,
            "rate_formula": self.rate_formula,
            "recovery_ok": self.recovery_ok,
            "privacy_ok": self.privacy_ok,
            "per_round": [
                {"tau": tau, "charge": charge} for tau, charge in self.per_round
            ],
        }
        if self.config.mode == "concrete":
            out["decode_failure_rate"] = self.decode_failure_rate
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return out


def run_simulation(config: SimulationConfig) -> SimulationReport:
    """Execute the protocol end to end and reconcile costs with the formulas."""
    cs = config.candidate_set
    n, mu, q = config.n, cs.mu, cs.q
    require_nondegenerate(cs)
    if not 1 <= config.v <= mu:
        raise UsageError(f"desired index {config.v} out of range [1, {mu}]")
    if config.length < 1:
        raise UsageError("segment length must be >= 1")
    beta = n**mu
    footprint = beta * config.length * (cs.f + mu)
    if beta > PLAN_SEGMENT_CAP or footprint > SIMULATION_SYMBOL_CAP:
        raise ResourceLimitError(
            f"simulation footprint {footprint} symbols (beta = {beta}) exceeds cap"
        )

    rng = np.random.default_rng(config.seed)
    message_seed, perm_seed = (int(x) for x in rng.integers(0, 2**31, size=2))
    store = MessageStore.generate(q, cs.f, beta, config.length, seed=message_seed)
    plan = generate_query_plan(n, mu, config.v, seed=perm_seed)
    values = evaluate_candidates(store, cs)
    codes = None
    warnings = []
    if config.mode == "concrete":
        codes = build_concrete_codes(cs, config.length, config.epsilon)
        if codes.joint_fallback:
            warnings.append(
                "joint alphabet exceeds the concrete cap; round 1 charged "
                "symbolically"
            )

    answers = []
    ledger = []
    for j in range(1, n + 1):
        a, entries = answer_queries(
            j, plan, store, cs, mode=config.mode,
            epsilon=config.epsilon, values=values, codes=codes,
        )
        answers.append(a)
        ledger.extend(entries)

    result = decode(plan, answers, cs, mode=config.mode, epsilon=config.epsilon)
    direct = values[config.v - 1]
    if config.mode == "symbolic":
        recovery_ok = bool(np.array_equal(result.segments, direct)) and not result.failed
    else:
        ok_rows = np.ones(beta, dtype=bool)
        for r in result.failed:
            ok_rows[r - 1] = False
        recovery_ok = bool(np.array_equal(result.segments[ok_rows], direct[ok_rows]))

    privacy_ok = None
    if config.check_privacy:
        siblings = [
            plan if w == config.v else
            generate_query_plan(n, mu, w, permutation=plan.permutation)
            for w in range(1, mu + 1)
        ]
        privacy_ok = verify_privacy_structure(siblings).ok

    total = sum(e.charge for e in ledger)
    per_round = []
    for tau in range(1, mu + 1):
        per_round.append((tau, sum(e.charge for e in ledger if e.round == tau)))
    h_min = cs.profile.h_min
    rate_measured = beta * config.length * h_min / total if total else 0.0
    rate_formula = rates.achievable_rate(n, cs.profile)
    return SimulationReport(
        config=config,
        total_download=total,
        rate_measured=rate_measured,
        rate_formula=rate_formula,
        recovery_ok=recovery_ok,
        privacy_ok=privacy_ok,
        per_round=per_round,
        decode_failure_rate=result.failure_rate,
        warnings=warnings,
    )

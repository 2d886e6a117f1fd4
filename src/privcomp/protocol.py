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
desired subindices allocated in the same round at the same database - copy z
of the undesired sum of type T gives member w the subindex of copy z of the
desired sum whose side-information type is T minus {w}.  Every database view
then has one shape, symmetric in the candidates, and the privacy certificate
checks that symmetry on the plan itself, while each (candidate, subindex) pair
stays fresh where freshness matters.

Costs are charged per answered row, in one array per database.  Symbolic
mode charges the information-theoretic costs (round 1: joint entropy of the
candidate tuple; a tau-sum: the entropy of its lead member, the one in the
lowest column, which is the largest since candidates are sorted) while
transmitting raw sums so recovery can be checked exactly.  Concrete mode,
used exactly when concrete codes are given, transmits fixed-length codewords
from the coding module and charges their actual lengths.
"""

import itertools
from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class QueryPlan:
    """All tau-sums for one retrieval, plus the private permutation.

    Row i of every array is sum i, in generation order.  sums[i, w-1] is the
    subindex of candidate w in sum i, 0 when w is not a member; side_ref[i] is
    the undesired (tau-1)-sum a desired sum extends, -1 for none.
    """

    n: int
    mu: int
    v: int
    seed: int | None
    permutation: np.ndarray  # permutation[t-1] = actual segment index, 1-based
    sums: np.ndarray  # (S, mu) subindex matrix
    db: np.ndarray  # 1-based database index
    round: np.ndarray  # tau = number of constituents
    desired: np.ndarray  # bool
    side_ref: np.ndarray

    @property
    def beta(self) -> int:
        return self.n**self.mu


def _masks(sums: np.ndarray) -> np.ndarray:
    """Candidate set of each row as a bitmask, bit w-1 for candidate w."""
    return (sums != 0) @ (1 << np.arange(sums.shape[1], dtype=np.int64))


def _type_of(mask: int) -> tuple:
    return tuple(w + 1 for w in range(mask.bit_length()) if mask >> w & 1)


def _plan_blocks(n: int, mu: int) -> list:
    """Blocks (sums, db, round, desired, side_ref) of the plan for v = 1."""
    bit = 1 << np.arange(mu, dtype=np.int64)
    blocks = []
    rows = 0  # sum id of the next row
    counter = 0  # global fresh-subindex counter for the desired candidate
    undesired_prev = {}  # db -> (first sum id, sums) of the previous round
    for tau in range(1, mu + 1):
        combos = np.array(
            list(itertools.combinations(range(1, mu), tau)), dtype=np.int64
        ).reshape(-1, tau)  # undesired types, as 0-based columns
        copies = (n - 1) ** (tau - 1)
        new_undesired = {}
        for j in range(1, n + 1):
            if tau == 1:
                desired = np.zeros((1, mu), dtype=np.int32)
                side_ref = np.array([-1])
            else:
                prev = [undesired_prev[jp] for jp in range(1, n + 1) if jp != j]
                desired = np.concatenate([s for _, s in prev])
                side_ref = np.concatenate([i + np.arange(len(s)) for i, s in prev])
            desired[:, 0] = counter + 1 + np.arange(len(desired))
            counter += len(desired)
            # member w of copy z of an undesired sum of type T takes the
            # subindex of copy z of the desired sum with side type T minus {w},
            # copies counted in generation order
            side = (desired[:, 1:] != 0) @ bit[1:]
            order = np.argsort(side, kind="stable")
            side_types = side[order][::copies]
            donors = desired[order, 0].reshape(-1, copies)
            undesired = np.zeros((len(combos) * copies, mu), dtype=np.int32)
            at = np.arange(len(combos))[:, None] * copies + np.arange(copies)
            full = bit[combos].sum(axis=1)
            for w in combos.T:
                undesired[at, w[:, None]] = donors[
                    np.searchsorted(side_types, full - bit[w])
                ]
            for s, want, ref in ((desired, True, side_ref), (undesired, False, -1)):
                m = len(s)
                ref = np.broadcast_to(ref, m)
                blocks.append(
                    (s, np.full(m, j), np.full(m, tau), np.full(m, want), ref)
                )
            new_undesired[j] = (rows + len(desired), undesired)
            rows += len(desired) + len(undesired)
        undesired_prev = new_undesired
    if counter != n**mu:
        raise ProtocolError(
            f"desired coverage is {counter} segments, expected beta = {n**mu}"
        )
    return blocks


def generate_query_plan(
    n: int,
    mu: int,
    v: int,
    seed=None,
    permutation=None,
) -> QueryPlan:
    """Build the round-wise query plan for desired candidate v.

    The structure is generated for desired slot 1 and then the columns of
    candidates 1 and v are swapped, so all plans for one (n, mu) are
    label-isomorphic by construction.
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
        permutation = np.asarray(permutation, dtype=np.int64)
        if permutation.shape != (beta,) or (
            np.bincount(permutation.clip(0, beta + 1), minlength=beta + 2)[1:-1] != 1
        ).any():
            raise UsageError("permutation must be a bijection on [beta]")
    else:
        permutation = np.random.default_rng(seed).permutation(beta) + 1
    sums, db, rnd, desired, side_ref = (
        np.concatenate(col) for col in zip(*_plan_blocks(n, mu))
    )
    sums[:, [0, v - 1]] = sums[:, [v - 1, 0]]
    return QueryPlan(
        n=n, mu=mu, v=v, seed=seed, permutation=permutation, sums=sums,
        db=db, round=rnd, desired=desired, side_ref=side_ref,
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
        # symbols are int16, and the answers add two of them before reducing
        if 2 * (q - 1) > np.iinfo(np.int16).max:
            raise UsageError(
                f"q = {q} is too large for the simulator's int16 symbols "
                f"(need 2(q-1) <= 32767, so q <= 16384)"
            )
        rng = np.random.default_rng(seed)
        msgs = rng.integers(0, q, size=(f, beta, length), dtype=np.int16)
        return cls(q=q, f=f, beta=beta, length=length, seed=seed, messages=msgs)

    def input_codes(self) -> np.ndarray:
        """Message tuples packed as base-q integers, shape (beta, L)."""
        codes = np.zeros((self.beta, self.length), dtype=np.int64)
        for m in range(self.f):
            codes = codes * self.q + self.messages[m]
        return codes


def evaluate_candidates(store: MessageStore, candidate_set: CandidateSet):
    """Images of all candidates on the stored messages, list of (beta, L)."""
    codes = store.input_codes()
    return [
        np.asarray(t.values, dtype=np.int16)[codes] for t in candidate_set.functions
    ]


# ------------------------------------------------------------------- answers


@dataclass(frozen=True)
class ConcreteCodes:
    """Shared deterministic code parameters for concrete answers/decoding."""

    joint_code: FixedCode | None  # None when the joint alphabet is capped out
    image_tuples: tuple
    image_of_code: np.ndarray  # input code -> image index
    sum_codes: tuple  # lead member (0-based column) of a tau-sum, tau >= 2 -> code

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
    # the last candidate never leads a sum of two or more
    sum_codes = tuple(
        FixedCode(q=q, alphabet_size=q, length=length, budget=h + epsilon)
        for h in profile.h[:-1]
    )
    return ConcreteCodes(
        joint_code=joint_code,
        image_tuples=tuple(image),
        image_of_code=image_of_code,
        sum_codes=sum_codes,
    )


def _sum_segments(sums: np.ndarray, perm: np.ndarray, values, q: int) -> np.ndarray:
    """Raw answer of each row of sums: its members' segments added mod q."""
    total = np.zeros((len(sums), values[0].shape[1]), dtype=np.int16)
    for w, col in enumerate(sums.T):
        (rows,) = np.nonzero(col)
        total[rows] = (total[rows] + values[w][perm[col[rows] - 1]]) % q
    return total


def answer_queries(
    j: int,
    plan: QueryPlan,
    store: MessageStore,
    candidate_set: CandidateSet,
    values=None,
    codes: ConcreteCodes | None = None,
):
    """Database j's answers and charges for its part of the plan.

    answers[i] answers database j's i-th sum in plan order, and charges[i]
    is its cost in q-ary units; the joint round-1 charge sits on the first
    round-1 row, the other round-1 rows cost 0.0.  Without codes (symbolic
    mode) the answers are raw sums mod q, one (S_j, L) array whose round-1
    rows are the joint bundle, and a later sum costs L times the entropy of
    its lead member, the largest among its members.  With codes (concrete
    mode) they are a list: each later sum as a codeword, charged its length,
    and every round-1 row as the one joint-bundle codeword, or as its raw
    segment when the joint alphabet is capped out.  Only the queried sums,
    the replica, and the public candidate tables are consulted; nothing here
    depends on which candidate is desired.
    """
    profile = candidate_set.profile
    length = store.length
    sums = plan.sums[plan.db == j]
    if sums.min(initial=0) < 0 or sums.max(initial=0) > plan.beta:
        raise ProtocolError(f"database {j}: subindex outside [1, {plan.beta}]")
    first = plan.round[plan.db == j] == 1
    round1_ts = sums[first].max(axis=1)
    if len(round1_ts) == 0:
        raise ProtocolError(f"database {j} has no round-1 sums")
    if (round1_ts != round1_ts[0]).any():
        # joint compression requires one shared segment per database
        raise ProtocolError(
            f"database {j} has round-1 singletons at several subindices"
        )
    if values is None:
        values = evaluate_candidates(store, candidate_set)
    perm = plan.permutation - 1
    joint = length * profile.joint
    lead = (sums != 0).argmax(axis=1)
    if codes is None:
        answers = _sum_segments(sums, perm, values, store.q)
        charges = length * np.asarray(profile.h)[lead]
    else:
        # raw round-1 segments, kept only when the joint alphabet is capped out
        answers = list(_sum_segments(sums * first[:, None], perm, values, store.q))
        if not codes.joint_fallback:
            row = store.input_codes()[perm[round1_ts[0] - 1]]
            seq = tuple(int(x) for x in codes.image_of_code[row])
            bundle = encode_fixed(seq, codes.joint_code)
            answers = [bundle if f else a for f, a in zip(first, answers)]
            joint = float(codes.joint_code.codeword_len)
        charges = np.zeros(len(sums))
        leads = lead.tolist()
        for i in np.flatnonzero(~first).tolist():
            code = codes.sum_codes[leads[i]]
            segments = (values[w][perm[t - 1]] for w, t in enumerate(sums[i]) if t)
            parts = [encode_fixed(tuple(int(x) for x in seg), code) for seg in segments]
            answers[i] = sum_codewords(*parts)
            charges[i] = code.codeword_len
    charges[first] = 0.0
    charges[np.argmax(first)] = joint
    return answers, charges


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
    codes: ConcreteCodes | None = None,
):
    """Recover all beta desired segments from the answers of databases 1..n.

    The answers are concrete exactly when the codes they were encoded with
    are given.  A desired sum is resolved by subtracting its side
    information, the undesired sum it extends: nothing for round 1, a raw
    answer (symbolic), a re-encoded known segment (concrete, tau = 2), or a
    widened undesired codeword sum (concrete, tau >= 3).
    """
    v, q, beta = plan.v, candidate_set.q, plan.beta
    rows = [np.flatnonzero(plan.db == j) for j in range(1, plan.n + 1)]
    if list(map(len, answers)) != list(map(len, rows)):
        raise ProtocolError("need answers from every database")
    # answer_queries sends one array per database in symbolic mode, a list
    # in concrete mode
    if any(isinstance(a, np.ndarray) != (codes is None) for a in answers):
        raise ProtocolError(
            "concrete answers need the codes they were encoded with"
            if codes is None
            else "symbolic answers cannot be decoded with concrete codes"
        )
    desired = np.flatnonzero(plan.desired)
    t = plan.sums[desired, v - 1]
    if t.min(initial=1) < 1 or t.max(initial=1) > beta:
        raise ProtocolError(f"a desired sum has no subindex in [1, {beta}]")
    later = plan.round[desired] > 1
    side = np.where(later, plan.side_ref[desired], -1)
    ref = side[later]
    if ref.min(initial=0) < 0 or ref.max(initial=0) >= len(plan.sums):
        raise ProtocolError("a desired sum is missing its side information")
    expected = plan.sums[desired[later]]
    expected[:, v - 1] = 0
    if (
        plan.desired[ref] | (plan.db[ref] == plan.db[desired[later]])
        | (plan.sums[ref] != expected).any(axis=1)
    ).any():
        raise ProtocolError("a side reference does not match its desired sum")
    real = plan.permutation[t - 1]
    hits = np.bincount(real, minlength=beta + 1)[1:]
    if hits.max(initial=0) > 1:
        raise ProtocolError(f"segment {int(np.argmax(hits)) + 1} decoded twice")
    if (hits == 0).any():
        raise ProtocolError("decode did not cover every segment")

    probe = answers[0][0]
    length = probe.shape[-1] if isinstance(probe, np.ndarray) else probe.code.length
    # raw row values; the extra last row is the zero side information of round 1
    raw = np.zeros((len(plan.sums) + 1, length), dtype=np.int16)
    lost = np.zeros(len(plan.sums) + 1, dtype=bool)
    order = np.concatenate(rows)  # sum ids in the order the answers arrive
    if codes is None:
        raw[order] = np.concatenate(answers)
    else:
        coded = dict(zip(order.tolist(), itertools.chain(*answers)))
        for r in rows:
            first = r[plan.round[r] == 1]
            bundle = coded[first[0]]
            if codes.joint_fallback:
                raw[first] = [coded[i] for i in first]
            elif bundle.atypical:
                lost[first] = True
            else:
                seq = decode_fixed(bundle, codes.joint_code)
                image = np.array([codes.image_tuples[s] for s in seq], dtype=np.int16)
                raw[first] = image[:, plan.sums[first].argmax(axis=1)].T
    value = (raw[desired] - raw[side]) % q
    failed = lost[desired]
    if codes is not None:
        leads = (plan.sums[desired] != 0).argmax(axis=1).tolist()
        for k in np.flatnonzero(later).tolist():
            i, s = int(desired[k]), int(side[k])
            code = codes.sum_codes[leads[k]]
            failed[k] = True
            if coded[i].atypical or lost[s]:
                continue
            if plan.round[s] == 1:
                side_cw = encode_fixed(tuple(int(x) for x in raw[s]), code)
            else:
                side_cw = widen_codeword(coded[s], code)
            if side_cw.atypical:
                continue
            try:
                value[k] = decode_fixed(subtract_codewords(coded[i], side_cw), code)
            except CodecError:
                continue
            failed[k] = False
        value[failed] = 0
    segments = np.zeros((beta, length), dtype=np.int16)
    segments[real - 1] = value
    return DecodeResult(segments=segments, failed=sorted(real[failed].tolist()))


# ----------------------------------------------------------- privacy checks


@dataclass
class PrivacyReport:
    violations: list  # empty when the certificate holds

    @property
    def ok(self) -> bool:
        return not self.violations

    relabeling_ok = ok  # the certificate is the relabeling check


def _permute_masks(masks: np.ndarray, pi) -> np.ndarray:
    """Bitmasks with member w moved to pi[w], 0-based."""
    out = np.zeros_like(masks)
    for w, to in enumerate(pi):
        out |= (masks >> w & 1) << to
    return out


def verify_privacy_structure(plan: QueryPlan) -> PrivacyReport:
    """Certify that no database's view of the plan depends on the desired index.

    Database j sees its sums: rounds, members and subindices, not the desired
    flags.  The plan for another desired index is this one with its candidate
    columns permuted, so privacy holds when, for every column permutation pi,
    each view permuted by pi is a relabeling of itself: some bijection rho on
    subindices maps its rows onto the view's rows.  Such pi form a group, so
    its generators, the cycle (1 2 ... mu) and the transposition (1 2),
    cover every desired index.

    For each generator, sigma maps row (db, round, mask, copy) to row (db,
    round, pi(mask), copy), where copy is the row's rank in plan order within
    its (db, round, mask) class, and rho is read off the entries:
    sums[r, w] -> sums[sigma(r), pi(w)].  The certificate holds when sigma
    exists and rho is well defined on every database; rho then maps the
    view's subindices onto themselves, so it is a bijection.  It is sound for
    any sigma; the copy rule of the generator is what makes this sigma work.
    """
    mu, sums = plan.mu, plan.sums
    if sums.min(initial=0) < 0 or sums.max(initial=0) > plan.beta:
        raise ProtocolError(f"a subindex is outside [1, {plan.beta}]")
    # rows sorted by (db, round, mask), plan order kept within each class
    head = (plan.db.astype(np.int64) * (mu + 1) + plan.round) << mu
    masks = _masks(sums)
    order = np.argsort(head + masks, kind="stable")
    view, head, masks = sums[order], head[order], masks[order]
    key = head + masks
    copy = np.arange(len(key)) - np.searchsorted(key, key)
    bounds = np.searchsorted(plan.db[order], np.arange(1, plan.n + 2))
    # shared by all databases: every entry read below was just written
    rho = np.zeros(plan.beta + 1, dtype=sums.dtype)
    cycle = np.roll(np.arange(mu), -1)  # w -> w + 1; for mu = 2 this is (1 2)
    swap = np.r_[1, 0, 2:mu]
    violations = []
    for pi in [cycle, swap][: min(mu - 1, 2)]:
        target = head + _permute_masks(masks, pi.tolist())
        sigma = np.searchsorted(key, target) + copy
        found = key[np.minimum(sigma, len(key) - 1)] == target
        for j in range(1, plan.n + 1):
            rows = slice(bounds[j - 1], bounds[j])
            if not found[rows].all():
                i = rows.start + int(np.argmin(found[rows]))
                violations.append(
                    f"db {j}: (round, type) multiset is not symmetric: round "
                    f"{plan.round[order[i]]} has more sums of type "
                    f"{_type_of(int(masks[i]))} than of type "
                    f"{_type_of(int(target[i] - head[i]))}"
                )
                continue
            a = view[rows]
            b = view[sigma[rows]][:, pi]
            rho[a] = b
            if not (rho[a] == b).all():
                violations.append(
                    f"db {j}: view is not a relabeling of itself with "
                    f"candidates 1..{mu} moved to {tuple((pi + 1).tolist())}"
                )
    return PrivacyReport(violations=violations)


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


@dataclass
class SimulationReport:
    config: SimulationConfig
    total_download: float  # q-ary units
    rate_measured: float
    rate_formula: float
    recovery_ok: bool
    privacy_ok: bool
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
    if config.mode not in ("symbolic", "concrete"):
        raise UsageError(f"unknown mode {config.mode!r}")
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
    charges = []
    for j in range(1, n + 1):
        a, c = answer_queries(j, plan, store, cs, values=values, codes=codes)
        answers.append(a)
        charges.append(c)

    result = decode(plan, answers, cs, codes=codes)
    # only concrete decoding can fail on a segment
    direct = values[config.v - 1]
    ok_rows = np.ones(beta, dtype=bool)
    ok_rows[np.array(result.failed, dtype=np.int64) - 1] = False
    recovery_ok = bool(np.array_equal(result.segments[ok_rows], direct[ok_rows]))

    privacy_ok = verify_privacy_structure(plan).ok

    # Python sums in database-major, then plan order: np.sum adds pairwise,
    # which can change the printed digits
    charges = np.concatenate(charges)
    rounds = np.concatenate([plan.round[plan.db == j] for j in range(1, n + 1)])
    total = sum(charges.tolist())
    per_round = [
        (tau, sum(charges[rounds == tau].tolist())) for tau in range(1, mu + 1)
    ]
    if codes is None:
        # the symbolic ledger must equal the closed form, up to the rounding
        # of a sequential sum over len(charges) terms
        expected = config.length * rates.d_one(n, cs.profile)
        if abs(total - expected) > max(1e-12, len(charges) * 2**-52) * expected:
            raise ProtocolError(
                f"symbolic download {total} differs from L * d_one = {expected}"
            )
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

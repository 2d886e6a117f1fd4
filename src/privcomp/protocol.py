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
import math
from dataclasses import dataclass
from functools import cached_property

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
# the coder's time per codeword grows about as L^2: at L = 16384 one joint
# (A = 9) encode plus decode takes ~0.12 s and an n = 2, mu = 3 run ~1.4 s;
# at L = 32768 they take ~0.4 s and ~4.3 s
CONCRETE_LENGTH_CAP = 2**14
# concrete footprints, beta * L * (f + mu): at 2^21 an n = 2, mu = 5, f = 1
# run takes ~6 s at q = 11 and ~10 s at q = 101 (L = 10922), n = 4, mu = 3 at
# q = 3 ~3 s; n = 2, mu = 8, f = 2 at L = 16384 (42M symbols) took 84 s
CONCRETE_SYMBOL_CAP = 2**21
DEFAULT_EPSILON = 0.05
# rows of sums gathered, compared or counted at once: no stage of a run
# holds a copy of all of sums
BLOCK = 2**13


# ---------------------------------------------------------------- query plans


@dataclass(frozen=True, eq=False)
class QueryPlan:
    """All tau-sums for one retrieval, plus the private permutation.

    Row i of every array is sum i, in generation order.  sums[i, w-1] is the
    subindex of candidate w in sum i, 0 when w is not a member; side_ref[i] is
    the undesired (tau-1)-sum a desired sum extends, -1 for none.
    """

    n: int
    v: int
    permutation: np.ndarray  # permutation[t-1] = actual segment index, 1-based
    sums: np.ndarray  # (S, mu) subindex matrix
    db: np.ndarray  # 1-based database index
    side_ref: np.ndarray

    @property
    def mu(self) -> int:
        return self.sums.shape[1]

    @property
    def beta(self) -> int:
        return self.n**self.mu

    @cached_property
    def round(self) -> np.ndarray:  # tau = number of members
        # int8: the plan cap bounds mu by 20
        tau = np.empty(len(self.sums), dtype=np.int8)
        for blk in _blocks(len(tau)):
            tau[blk] = np.count_nonzero(self.sums[blk], axis=1)
        return tau

    @cached_property
    def desired(self) -> np.ndarray:  # bool: candidate v is a member
        return self.sums[:, self.v - 1] != 0


def _blocks(size: int):
    """Slices of BLOCK rows covering range(size): a gather or comparison of
    whole sums rows is done one block at a time, never over all of sums."""
    return (slice(i, i + BLOCK) for i in range(0, size, BLOCK))


def _masks(sums: np.ndarray) -> np.ndarray:
    """Candidate set of each row as a bitmask, bit w-1 for candidate w."""
    bit = 1 << np.arange(sums.shape[1], dtype=np.int64)
    masks = np.empty(len(sums), dtype=np.int64)
    for blk in _blocks(len(sums)):
        masks[blk] = (sums[blk] != 0) @ bit
    return masks


def _type_of(mask: int) -> tuple:
    return tuple(w + 1 for w in range(mask.bit_length()) if mask >> w & 1)


def _build_plan(n: int, mu: int):
    """The plan's (sums, db, side_ref) for v = 1, each block written in place.

    Rows come round by round, then database by database: the desired block,
    then the undesired block.  A desired tau-sum extends an undesired
    (tau-1)-sum of one of the n - 1 other databases, so a database's round
    tau holds (n-1)^(tau-1) copies of each type: C(mu-1, tau-1) desired
    types and C(mu-1, tau) undesired ones, n (n^mu - 1) / (n - 1) rows in all.
    """
    total = n * (n**mu - 1) // (n - 1)
    sums = np.zeros((total, mu), dtype=np.int32)
    db = np.empty(total, dtype=np.int32)
    side_ref = np.full(total, -1, dtype=np.int32)
    bit = 1 << np.arange(mu, dtype=np.int64)
    rows = 0  # sum id of the next row
    counter = 0  # global fresh-subindex counter for the desired candidate
    undesired_prev = {}  # db -> first sum id of its undesired block, last round
    for tau in range(1, mu + 1):
        combos = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(1, mu), tau)),
            dtype=np.int64,
            count=math.comb(mu - 1, tau) * tau,
        ).reshape(-1, tau)  # undesired types, as 0-based columns
        copies = (n - 1) ** (tau - 1)
        n_desired = copies * math.comb(mu - 1, tau - 1)
        n_undesired = copies * len(combos)
        new_undesired = {}
        for j in range(1, n + 1):
            start, split, end = rows, rows + n_desired, rows + n_desired + n_undesired
            desired, undesired = sums[start:split], sums[split:end]
            if tau > 1:
                # each desired sum extends an undesired sum of another database
                size = n_desired // (n - 1)
                for k, jp in enumerate(jp for jp in range(1, n + 1) if jp != j):
                    ref, at = undesired_prev[jp], start + k * size
                    sums[at : at + size] = sums[ref : ref + size]
                    side_ref[at : at + size] = np.arange(ref, ref + size)
            desired[:, 0] = counter + 1 + np.arange(n_desired)
            counter += n_desired
            # member w of copy z of an undesired sum of type T takes the
            # subindex of copy z of the desired sum with side type T minus {w},
            # copies counted in generation order
            side = _masks(desired) - 1  # every desired row has member 1
            order = np.argsort(side, kind="stable")
            side_types = side[order][::copies]
            donors = desired[order, 0].reshape(-1, copies)
            at = np.arange(len(combos))[:, None] * copies + np.arange(copies)
            full = np.bitwise_or.reduce(bit[combos.T], axis=0)
            for w in combos.T:
                undesired[at, w[:, None]] = donors[
                    np.searchsorted(side_types, full - bit[w])
                ]
            db[start:end] = j
            new_undesired[j] = split
            rows = end
        undesired_prev = new_undesired
    if counter != n**mu:
        raise ProtocolError(
            f"desired coverage is {counter} segments, expected beta = {n**mu}"
        )
    return sums, db, side_ref


def generate_query_plan(n: int, mu: int, v: int, seed=None) -> QueryPlan:
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
    permutation = np.random.default_rng(seed).permutation(beta)
    permutation += 1
    sums, db, side_ref = _build_plan(n, mu)
    for blk in _blocks(len(sums)):
        sums[blk, [0, v - 1]] = sums[blk, [v - 1, 0]]
    return QueryPlan(
        n=n, v=v, permutation=permutation, sums=sums, db=db, side_ref=side_ref
    )


# ------------------------------------------------------------- message store


def symbol_dtype(q: int) -> np.dtype:
    """The narrowest of int8 and int16 in which two symbols of F_q add
    without overflow before they are reduced: int8 up to q = 61."""
    for dtype in (np.int8, np.int16):
        if 2 * (q - 1) <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise UsageError(
        f"q = {q} is too large for the simulator's int16 symbols "
        f"(need 2(q-1) <= 32767, so q <= 16384)"
    )


@dataclass
class MessageStore:
    """f uniform messages of beta*L symbols each, replicated at every database."""

    q: int
    messages: np.ndarray  # shape (f, beta, L), values in [0, q)

    @property
    def length(self) -> int:
        return self.messages.shape[2]

    @classmethod
    def generate(cls, q: int, f: int, beta: int, length: int, seed=None):
        dtype = symbol_dtype(q)
        # drawn as int16 whatever the dtype: numpy's bounded draws depend on
        # the dtype, and int8 draws would give other messages for the seed
        rng = np.random.default_rng(seed)
        msgs = rng.integers(0, q, size=(f, beta, length), dtype=np.int16)
        return cls(q=q, messages=msgs.astype(dtype, copy=False))

    def input_codes(self) -> np.ndarray:
        """Message tuples packed as base-q integers, shape (beta, L), built in
        place: int64, which numpy gathers with no index cast."""
        codes = np.zeros(self.messages.shape[1:], dtype=np.int64)
        for message in self.messages:
            codes *= self.q
            codes += message
        return codes


def evaluate_candidates(store: MessageStore, candidate_set: CandidateSet):
    """Images of all candidates on the stored messages, list of (beta, L)."""
    codes = store.input_codes()
    dtype = symbol_dtype(store.q)
    return [t.values.astype(dtype)[codes] for t in candidate_set.functions]


# ------------------------------------------------------------------- answers


@dataclass(frozen=True)
class ConcreteCodes:
    """Shared deterministic code parameters for concrete answers/decoding."""

    joint_code: FixedCode | None  # None when the joint alphabet is capped out
    image_tuples: np.ndarray  # (A, mu) distinct candidate tuples, lexicographic
    image_of_code: np.ndarray  # input code -> image index
    sum_codes: tuple  # lead member (0-based column) of a tau-sum, tau >= 2 -> code


def build_concrete_codes(
    candidate_set: CandidateSet, length: int, epsilon: float = DEFAULT_EPSILON
) -> ConcreteCodes:
    q = candidate_set.q
    profile = candidate_set.profile
    image, image_of_code = np.unique(
        np.stack([t.values for t in candidate_set.functions], axis=1),
        axis=0,
        return_inverse=True,
    )
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
        image_tuples=image,
        image_of_code=image_of_code,
        sum_codes=sum_codes,
    )


def _sum_segments(sums: np.ndarray, perm: np.ndarray, values, q: int) -> np.ndarray:
    """Raw answer of each row of sums: its members' segments added mod q."""
    total = np.zeros((len(sums), values[0].shape[1]), dtype=symbol_dtype(q))
    for w, col in enumerate(sums.T):
        (rows,) = np.nonzero(col)
        total[rows] = (total[rows] + values[w][perm[col[rows] - 1]]) % q
    return total


def answer_queries(
    j: int,
    plan: QueryPlan,
    store: MessageStore,
    candidate_set: CandidateSet,
    values,
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
    segment when the joint alphabet is capped out.  values holds the
    candidates' images on the replica, as evaluate_candidates returns them.
    Only the queried sums, the replica, and the public candidate tables are
    consulted; nothing here depends on which candidate is desired.
    """
    profile = candidate_set.profile
    length = store.length
    rows = np.flatnonzero(plan.db == j)
    first = plan.round[rows] == 1
    round1_ts = plan.sums[rows[first]].max(axis=1)
    if len(round1_ts) == 0:
        raise ProtocolError(f"database {j} has no round-1 sums")
    if (round1_ts != round1_ts[0]).any():
        # joint compression requires one shared segment per database
        raise ProtocolError(
            f"database {j} has round-1 singletons at several subindices"
        )
    perm = plan.permutation - 1
    joint = length * profile.joint
    # the rows' sums, one block at a time: range check, lead member, and the
    # raw answers in symbolic mode
    lead = np.empty(len(rows), dtype=np.intp)
    if codes is None:
        answers = np.empty((len(rows), length), dtype=symbol_dtype(store.q))
    for blk in _blocks(len(rows)):
        sums = plan.sums[rows[blk]]
        if sums.min(initial=0) < 0 or sums.max(initial=0) > plan.beta:
            raise ProtocolError(f"database {j}: subindex outside [1, {plan.beta}]")
        lead[blk] = (sums != 0).argmax(axis=1)
        if codes is None:
            answers[blk] = _sum_segments(sums, perm, values, store.q)
    if codes is None:
        charges = length * np.asarray(profile.h)[lead]
    else:
        sums = plan.sums[rows]
        # raw round-1 segments, kept only when the joint alphabet is capped out
        answers = list(_sum_segments(sums * first[:, None], perm, values, store.q))
        if codes.joint_code is not None:
            row = store.input_codes()[perm[round1_ts[0] - 1]]
            bundle = encode_fixed(codes.image_of_code[row].tolist(), codes.joint_code)
            answers = [bundle if f else a for f, a in zip(first, answers)]
            joint = float(codes.joint_code.codeword_len)
        charges = np.zeros(len(sums))
        leads = lead.tolist()
        for i in np.flatnonzero(~first).tolist():
            code = codes.sum_codes[leads[i]]
            segments = (values[w][perm[t - 1]] for w, t in enumerate(sums[i]) if t)
            parts = [encode_fixed(seg.tolist(), code) for seg in segments]
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
    ref, extended = side[later], desired[later]
    if ref.min(initial=0) < 0 or ref.max(initial=0) >= len(plan.sums):
        raise ProtocolError("a desired sum is missing its side information")
    for blk in _blocks(len(ref)):
        expected = plan.sums[extended[blk]]
        expected[:, v - 1] = 0
        if (plan.db[ref[blk]] == plan.db[extended[blk]]).any() or (
            plan.sums[ref[blk]] != expected
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
    raw = np.zeros((len(plan.sums) + 1, length), dtype=symbol_dtype(q))
    lost = np.zeros(len(plan.sums) + 1, dtype=bool)
    if codes is None:
        for r, a in zip(rows, answers):
            raw[r] = a
    else:
        # sum id -> codeword, in the order the answers arrive
        coded = dict(zip(np.concatenate(rows).tolist(), itertools.chain(*answers)))
        for r in rows:
            first = r[plan.round[r] == 1]
            bundle = coded[first[0]]
            if codes.joint_code is None:
                raw[first] = [coded[i] for i in first]
            elif bundle.atypical:
                lost[first] = True
            else:
                image = codes.image_tuples[list(decode_fixed(bundle, codes.joint_code))]
                raw[first] = image[:, plan.sums[first].argmax(axis=1)].T
    value = raw[desired]
    value -= raw[side]
    value %= q
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
                side_cw = encode_fixed(raw[s].tolist(), code)
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
    segments = np.zeros((beta, length), dtype=raw.dtype)
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
    Rows are gathered one block at a time, so the check holds no copy of sums.
    """
    mu, sums = plan.mu, plan.sums
    if sums.min(initial=0) < 0 or sums.max(initial=0) > plan.beta:
        raise ProtocolError(f"a subindex is outside [1, {plan.beta}]")
    # key = (db, round, mask) of each row; rows sorted by key, plan order kept
    # within each class
    key = np.empty(len(sums), dtype=np.int64)
    for blk in _blocks(len(sums)):
        tau = np.count_nonzero(sums[blk], axis=1)
        head = plan.db[blk].astype(np.int64) * (mu + 1) + tau
        key[blk] = (head << mu) + _masks(sums[blk])
    order = np.argsort(key, kind="stable")
    key.sort()  # the sorted keys, key[order], without a second array
    bounds = np.searchsorted(key, np.arange(1, plan.n + 2) * (mu + 1) << mu)
    low = (1 << mu) - 1  # the mask bits of a key
    cycle = np.roll(np.arange(mu), -1)  # w -> w + 1; for mu = 2 this is (1 2)
    swap = np.r_[1, 0, 2:mu]
    pis = [cycle, swap][: min(mu - 1, 2)]
    # rho[g][t] for generator g on the database being checked: a member's
    # subindex maps to a member's, and a non-member's 0 to 0.  owner[t] is the
    # database whose rows last set entry t; any other database reads it as
    # unset, so rho is never cleared
    rho = [np.zeros(plan.beta + 1, dtype=sums.dtype) for _ in pis]
    owner = np.zeros(plan.beta + 1, dtype=np.int32)
    violations = []
    for j in range(1, plan.n + 1):
        live = list(range(len(pis)))  # generators with no violation on db j
        for start in range(bounds[j - 1], bounds[j], BLOCK):
            rows = slice(start, min(start + BLOCK, bounds[j]))
            k = key[rows]
            copy = np.arange(rows.start, rows.stop) - np.searchsorted(key, k)
            a = sums[order[rows]]
            known = owner[a] == j
            for g in list(live):
                pi = pis[g]
                target = (k & ~low) + _permute_masks(k & low, pi.tolist())
                sigma = np.searchsorted(key, target) + copy
                # a copy past the last row of its target class has no image
                inside = np.minimum(sigma, len(key) - 1)
                found = (sigma < len(key)) & (key[inside] == target)
                if not found.all():
                    p = int(np.argmin(found))
                    violations.append(
                        f"db {j}: (round, type) multiset is not symmetric: round "
                        f"{np.count_nonzero(a[p])} has more sums of type "
                        f"{_type_of(int(k[p] & low))} than of type "
                        f"{_type_of(int(target[p] & low))}"
                    )
                    live.remove(g)
                    continue
                b = sums[order[inside][:, None], pi]
                clash = (known & (rho[g][a] != b)).any()  # with an earlier block
                rho[g][a] = b
                if clash or (rho[g][a] != b).any():
                    violations.append(
                        f"db {j}: view is not a relabeling of itself with "
                        f"candidates 1..{mu} moved to {tuple((pi + 1).tolist())}"
                    )
                    live.remove(g)
            owner[a] = j
            if not live:
                break
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


def _running_sum(values: np.ndarray) -> float:
    """values added one by one from the left, a block at a time.  np.sum adds
    pairwise and Python 3.12's sum compensates; either can change the
    printed digits."""
    total = np.zeros(1)
    for blk in _blocks(len(values)):
        total = np.add.accumulate(np.concatenate((total, values[blk])))[-1:]
    return float(total[0])


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
    if n < 2:
        raise UsageError("replication requires at least 2 databases")
    if config.seed < 0:
        raise UsageError(f"seed {config.seed} must be >= 0")
    beta = n**mu
    footprint = beta * config.length * (cs.f + mu)
    cap = CONCRETE_SYMBOL_CAP if config.mode == "concrete" else SIMULATION_SYMBOL_CAP
    if beta > PLAN_SEGMENT_CAP or footprint > cap:
        raise ResourceLimitError(
            f"simulation footprint {footprint} symbols (beta = {beta}) exceeds cap"
        )
    if config.mode == "concrete" and config.length > CONCRETE_LENGTH_CAP:
        raise ResourceLimitError(
            f"segment length L = {config.length} exceeds the concrete-mode cap "
            f"of {CONCRETE_LENGTH_CAP}"
        )

    rng = np.random.default_rng(config.seed)
    message_seed, perm_seed = (int(x) for x in rng.integers(0, 2**31, size=2))
    plan = generate_query_plan(n, mu, config.v, seed=perm_seed)
    # the certificate reads only the plan, so it runs before any data exists
    privacy_ok = verify_privacy_structure(plan).ok
    store = MessageStore.generate(q, cs.f, beta, config.length, seed=message_seed)
    values = evaluate_candidates(store, cs)
    codes = None
    warnings = []
    if config.mode == "concrete":
        codes = build_concrete_codes(cs, config.length, config.epsilon)
        if codes.joint_code is None:
            warnings.append(
                "joint alphabet exceeds the concrete cap; round 1 charged "
                "symbolically"
            )

    answers, charges = zip(
        *(answer_queries(j, plan, store, cs, values=values, codes=codes)
          for j in range(1, n + 1))
    )

    # recovery is checked against the desired image alone
    direct = values[config.v - 1]
    del store, values
    result = decode(plan, answers, cs, codes=codes)
    # the ledger needs only the round of each charge, in answer order
    rounds = np.concatenate([plan.round[plan.db == j] for j in range(1, n + 1)])
    del plan, answers
    # only concrete decoding can fail on a segment, and a run that decodes
    # none has recovered nothing
    ok_rows = np.ones(beta, dtype=bool)
    ok_rows[np.array(result.failed, dtype=np.int64) - 1] = False
    recovery_ok = bool(ok_rows.any()) and np.array_equal(
        result.segments[ok_rows], direct[ok_rows]
    )

    # sums in database-major, then plan order
    charges = np.concatenate(charges)
    total = _running_sum(charges)
    per_round = [(tau, _running_sum(charges[rounds == tau])) for tau in range(1, mu + 1)]
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
        decode_failure_rate=len(result.failed) / beta,
        warnings=warnings,
    )

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

Every row is charged from one cost list per run (download_costs): the
round-1 cost per database, and the cost of a tau-sum by its lead member (the
lowest column, so the largest entropy).  Symbolic mode charges L times the
joint and the lead's entropy while sending raw sums, so recovery can be
checked exactly; concrete mode, used exactly when concrete codes are given,
sends fixed-length codewords from the coding module and charges their lengths.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import cache, cached_property

from ._numpy import np
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
from . import coding, rates

# beta = n^mu: plans hold O(beta) sums, simulations O(beta * L * mu) symbols
PLAN_SEGMENT_CAP = 2**20
SIMULATION_SYMBOL_CAP = 5 * 10**7

# the coder's time per codeword grows about as L^2: at L = 16384 one joint
# (A = 9) encode plus decode takes ~0.12 s and an n = 2, mu = 3 run ~1.4 s;
# at L = 32768 they take ~0.4 s and ~4.3 s
CONCRETE_LENGTH_CAP = 2**14
# concrete footprints, beta * max(L, 64) * (f + mu) as the coder works on
# whole 64-position blocks: at 2^21 an n = 2, mu = 5, f = 1 run takes ~6 s at
# q = 11 and ~10 s at q = 101 (L = 10922), n = 4, mu = 3 at q = 3 ~3 s;
# n = 2, mu = 8, f = 2 at L = 16384 (42M symbols) took 84 s
CONCRETE_SYMBOL_CAP = 2**21
# the joint header's rank and unrank take up to L + A steps on integers of
# log2 C(L+A-1, A-1) bits: at L = 16384 ~0.3 s at A = 2^14, ~18 s at A = 10^6
# (x, y, xy at q = 1009: a 105 s run); a sum code's A = q is at most 16381
JOINT_ALPHABET_CAP = 2**14
DEFAULT_EPSILON = 0.05
# rows of sums gathered, compared or counted at once, within one round where
# rows are taken round by round: no stage of a run holds a copy of all of sums
BLOCK = 2**13


# ---------------------------------------------------------------- query plans


class QueryPlan(namedtuple("QueryPlan", "v permutation sums side_ref bounds")):
    """All tau-sums for one retrieval, plus the private permutation.

    permutation[t-1] is the actual segment index of subindex t, 1-based.
    Database j's sums are rows bounds[j-1]:bounds[j] of the (S, mu) matrix
    sums, round by round, in the order it answers them; bounds holds n + 1
    row offsets.  sums[i, w-1] is the subindex of candidate w in sum i, 0
    when w is not a member; side_ref[i] is the undesired (tau-1)-sum a
    desired sum extends, -1 for none.
    """

    # compared by identity: comparing the arrays would be ambiguous
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def n(self) -> int:
        return len(self.bounds) - 1

    def rows(self, j: int) -> slice:  # database j's rows, 1-based j
        return slice(int(self.bounds[j - 1]), int(self.bounds[j]))

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


def _blocks(stop: int, start: int = 0):
    """Slices of BLOCK rows covering range(start, stop): a gather or comparison
    of whole sums rows is done one block at a time, never over all of sums."""
    return (slice(i, min(i + BLOCK, stop)) for i in range(start, stop, BLOCK))


def _masks(sums: np.ndarray) -> np.ndarray:
    """Candidate set of each row as a bitmask, bit w-1 for candidate w."""
    bit = 1 << np.arange(sums.shape[1], dtype=np.int64)
    masks = np.empty(len(sums), dtype=np.int64)
    for blk in _blocks(len(sums)):
        masks[blk] = (sums[blk] != 0) @ bit
    return masks


def _type_of(mask: int) -> tuple:
    return tuple(w + 1 for w in range(mask.bit_length()) if mask >> w & 1)


def _build_plan(n: int, mu: int, v: int):
    """The plan's (sums, side_ref, bounds) for desired candidate v, each round
    built for all databases at once in an (n, per_db, mu) view of sums.

    A database's rows go round by round: the desired block, then the
    undesired block.  A desired tau-sum extends an undesired (tau-1)-sum of
    one of the n - 1 other databases, so round tau holds (n-1)^(tau-1) copies
    of each type: C(mu-1, tau-1) desired types and C(mu-1, tau) undesired ones.
    Types are built over slots and slot s is written to column col[s], so
    every plan for one (n, mu) is the v = 1 plan with columns 1 and v swapped.
    """
    per_db = (n**mu - 1) // (n - 1)
    sums = np.zeros((n * per_db, mu), dtype=np.int32)
    side_ref = np.full(n * per_db, -1, dtype=np.int32)
    view, refs = sums.reshape(n, per_db, mu), side_ref.reshape(n, per_db)
    col = np.arange(mu)  # slot -> column: slots 1 and v swapped
    col[[0, v - 1]] = v - 1, 0
    bit = 1 << np.arange(mu, dtype=np.int64)
    # rank[mask]: rank of slot set mask in last round's undesired types, {} -> 0
    rank = np.zeros(1 << mu, dtype=np.int32)
    start = prev = 0  # offsets of this round and of last round's undesired block
    counter = 0  # global fresh-subindex counter for the desired candidate
    for tau in range(1, mu + 1):
        combos = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(1, mu), tau)),
            dtype=np.int64,
            count=math.comb(mu - 1, tau) * tau,
        ).reshape(-1, tau)  # undesired types, as 0-based slots
        copies = (n - 1) ** (tau - 1)
        m = (n - 1) ** max(tau - 2, 0)  # copies of a side type per other database
        size = math.comb(mu - 1, tau - 1) * m  # desired rows from each other database
        n_desired = copies * math.comb(mu - 1, tau - 1)
        split, end = start + n_desired, start + n_desired + copies * len(combos)
        desired, undesired = view[:, start:split, col[0]], view[:, split:end]
        if tau > 1:
            # block k of database j extends the undesired sums of its k-th other
            for k in range(n - 1):
                other = np.where(np.arange(n) > k, k, k + 1)
                at = slice(start + k * size, start + (k + 1) * size)
                view[:, at] = view[other, prev : prev + size]
                refs[:, at] = other[:, None] * per_db + np.arange(prev, prev + size)
        # fresh subindices round by round, then database by database
        desired[:] = counter + 1 + np.arange(n * n_desired).reshape(n, -1)
        counter += n * n_desired
        # member w of copy z of an undesired sum of type T takes the subindex
        # of copy z of the desired sum with side type T' = T minus {w}, copies
        # counted in row order: desired row (z // m) size + rank(T') m + z % m
        copy_row = (np.arange(copies // m)[:, None] * size + np.arange(m)).ravel()
        at = np.arange(len(combos) * copies).reshape(-1, copies)
        full = np.bitwise_or.reduce(bit[combos.T], axis=0)
        for w in combos.T:
            rows = rank[full - bit[w]][:, None] * m + copy_row
            undesired[:, at, col[w][:, None]] = desired[:, rows]
        rank[full] = np.arange(len(combos))
        start, prev = end, split
    return sums, side_ref, np.arange(n + 1) * per_db


def generate_query_plan(n: int, mu: int, v: int, seed=None) -> QueryPlan:
    """Build the round-wise query plan for desired candidate v: the v = 1
    plan with columns 1 and v swapped, so all plans for one (n, mu) are
    label-isomorphic by construction."""
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
    return QueryPlan(v, permutation, *_build_plan(n, mu, v))


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


class MessageStore(namedtuple("MessageStore", "q messages")):
    """f uniform messages of beta*L symbols each, replicated at every
    database: messages has shape (f, beta, L), values in [0, q)."""

    __slots__ = ()

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

    def input_codes(self, at=slice(None)) -> np.ndarray:
        """Message tuples packed as base-q integers in int64, which numpy gathers
        with no index cast: shape (beta, L), or (L,) at one segment index."""
        messages = self.messages[:, at]
        codes = np.zeros(messages.shape[1:], dtype=np.int64)
        for message in messages:
            codes *= self.q
            codes += message
        return codes


def evaluate_candidates(store: MessageStore, candidate_set: CandidateSet):
    """Images of all candidates on the stored messages, one (mu, beta, L)
    array: images[w-1, s-1] is candidate w on segment s."""
    tables = np.stack([t.values for t in candidate_set.functions])
    return tables.astype(symbol_dtype(store.q)).take(store.input_codes(), axis=1)


# ------------------------------------------------------------------- answers


class ConcreteCodes(
    namedtuple("ConcreteCodes", "joint_code image_tuples image_of_code sum_codes")
):
    """Shared deterministic code parameters for concrete answers/decoding:
    image_tuples, the (A, mu) distinct candidate tuples in lexicographic
    order; image_of_code, input code -> image index; sum_codes, lead member
    (0-based column) of a tau-sum, tau >= 2 -> code."""

    __slots__ = ()
    # compared by identity: comparing the arrays would be ambiguous
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


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
    if len(image) > JOINT_ALPHABET_CAP:
        raise ResourceLimitError(
            f"joint alphabet of {len(image)} candidate tuples exceeds the "
            f"concrete-mode cap of {JOINT_ALPHABET_CAP}"
        )
    joint_code = FixedCode(
        q=q, alphabet_size=len(image), length=length, budget=profile.joint + epsilon
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


def download_costs(profile, length: int, codes: ConcreteCodes | None = None):
    """A run's costs in q-ary units: (round 1 per database, [a tau-sum led by
    column v, v < mu]); L times the joint and h[v], or the code lengths."""
    if codes is None:
        return length * profile.joint, [length * h for h in profile.h[:-1]]
    return codes.joint_code.codeword_len, [c.codeword_len for c in codes.sum_codes]


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
    is its cost in q-ary units, read off download_costs in both modes: the
    round-1 cost sits on the first round-1 row, the other round-1 rows cost
    0.0, and a later sum costs what a sum led by its lead member does.
    Without codes (symbolic mode) the answers are raw sums mod q, one (S_j,
    L) array whose round-1 rows are the joint bundle.  With codes (concrete
    mode) they are a list: each later sum as its members' codewords summed,
    every round-1 row as the one joint-bundle codeword.  values holds the
    candidates' images on the replica, as evaluate_candidates returns them.
    Only the queried sums, the replica, and the public candidate tables are
    consulted; nothing here depends on which candidate is desired.
    """
    length, at = store.length, plan.rows(j)
    part, rounds = plan.sums[at], plan.round[at]
    first = rounds == 1
    round1_ts = part[first].max(axis=1)
    if len(round1_ts) == 0:
        raise ProtocolError(f"database {j} has no round-1 sums")
    if (round1_ts != round1_ts[0]).any():
        # joint compression requires one shared segment per database
        raise ProtocolError(f"database {j} has round-1 singletons at several subindices")
    perm = plan.permutation  # 1-based: a shifted copy costs O(beta) per database
    mu, beta = plan.mu, plan.beta
    images = values.reshape(-1, length)  # row (w-1) beta + s-1: image w at s
    lead = np.zeros(len(part), dtype=np.int8)  # as plan.round: mu <= 20
    if codes is None:
        answers = np.zeros((len(part), length), dtype=images.dtype)
    else:
        row = store.input_codes(perm[round1_ts[0] - 1] - 1)
        bundle = encode_fixed(codes.image_of_code[row], codes.joint_code)
        answers = [bundle] * len(part)  # later sums are replaced below
    # the rows of one round at a time, BLOCK at a time: range check, lead
    # member, and the tau member segments of each row read with one take
    for tau in range(1, mu + 1):
        of_round = (rounds == tau).nonzero()[0]
        for blk in _blocks(len(of_round)):
            rows = of_round[blk]
            sums = part.take(rows, axis=0).ravel()
            w = sums.nonzero()[0]  # tau members per row, in column order
            t = sums.take(w)
            w %= mu
            if t.min() < 0 or t.max() > beta:
                raise ProtocolError(f"database {j}: subindex outside [1, {beta}]")
            lead[rows] = w[::tau]
            w = w * beta + perm.take(t - 1) - 1  # the members' rows of images
            segments = images.take(w.reshape(-1, tau).T, axis=0)  # (tau, rows, L)
            if codes is None and tau == 1:  # a one-member sum is the segment
                answers[rows] = segments[0]
            elif codes is None:
                answers[rows] = segments.sum(axis=0, dtype=np.int32) % store.q
            elif tau > 1:  # the members' codewords under the lead's code, summed
                for i, row_segments in zip(rows.tolist(), segments.swapaxes(0, 1)):
                    code = codes.sum_codes[lead[i]]
                    answers[i] = sum_codewords(*(encode_fixed(x, code) for x in row_segments))
    joint, lead_costs = download_costs(candidate_set.profile, length, codes)
    charges = np.zeros(len(part))
    charges[~first] = np.array(lead_costs, dtype=float)[lead[~first]]
    charges[np.argmax(first)] = joint
    return answers, charges


# -------------------------------------------------------------------- decode


# segments: the recovered desired image, shape (beta, L), in real order;
# failed: the real segment indices (1-based) that could not be decoded
DecodeResult = namedtuple("DecodeResult", "segments failed")


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
    answer (symbolic), a known segment encoded once for every sum extending
    it (concrete, tau = 2), or a widened undesired codeword sum (tau >= 3).
    A concrete desired sum fails exactly when decode_fixed raises CodecError
    on it, as on an Atypical (widened and subtracted as such) or corrupt
    codeword, or when its side is a row of a round-1 bundle that failed so.
    """
    v, q, beta, bounds = plan.v, candidate_set.q, plan.beta, plan.bounds
    if list(map(len, answers)) != np.diff(bounds).tolist():
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
        at = np.searchsorted(bounds, ref[blk], side="right")  # 1-based database
        if (at == np.searchsorted(bounds, extended[blk], side="right")).any() or (
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
        np.concatenate(answers, out=raw[:-1])
    else:
        # the answers arrive in row order, so a sum id indexes its codeword
        coded = list(itertools.chain(*answers))
        for j in range(1, plan.n + 1):
            first = np.flatnonzero(plan.round[plan.rows(j)] == 1) + bounds[j - 1]
            try:
                image = codes.image_tuples[list(decode_fixed(coded[first[0]], codes.joint_code))]
            except CodecError:
                lost[first] = True
                continue
            raw[first] = image[:, plan.sums[first].argmax(axis=1)].T
    value = raw[desired]
    value -= raw[side]
    value %= q
    failed = lost[desired] | lost[side]  # side -1 is the zero row, never lost
    if codes is not None:
        leads = (plan.sums[desired] != 0).argmax(axis=1).tolist()
        # encode each round-1 side {w} once: all sums {w, v} extending it share a code
        encoded = cache(lambda s, code: encode_fixed(raw[s], code))
        for k in np.flatnonzero(~failed & later).tolist():
            i, s = int(desired[k]), int(side[k])
            code = codes.sum_codes[leads[k]]
            side_cw = encoded(s, code) if plan.round[s] == 1 else widen_codeword(coded[s], code)
            try:
                value[k] = decode_fixed(subtract_codewords(coded[i], side_cw), code)
            except CodecError:
                failed[k] = True
        value[failed] = 0
    segments = np.zeros((beta, length), dtype=raw.dtype)
    segments[real - 1] = value
    return DecodeResult(segments=segments, failed=sorted(real[failed].tolist()))


# ----------------------------------------------------------- privacy checks


class PrivacyReport(namedtuple("PrivacyReport", "violations")):
    """violations is empty when the certificate holds."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    relabeling_ok = ok  # the certificate is the relabeling check


def verify_privacy_structure(plan: QueryPlan) -> PrivacyReport:
    """Certify that no database's view of the plan depends on the desired index.

    Database j sees its sums: rounds, members and subindices, not the desired
    flags.  The plan for another desired index is this one with its candidate
    columns permuted, so privacy holds when, for every column permutation pi,
    each view permuted by pi is a relabeling of itself: some bijection rho on
    subindices maps its rows onto the view's rows.  Such pi form a group, so
    its generators, the cycle (1 2 ... mu) and the transposition (1 2),
    cover every desired index.

    For each generator, sigma maps database j's row (round, mask, copy) to
    its row (round, pi(mask), copy), copy being the row's rank in plan order
    within its class: the k-th row of a stable sort by the moved key (round,
    pi(mask)) goes to the k-th row of a stable sort by the key (round, mask).
    The sorted keys are equal exactly when the class sizes are symmetric, so
    sigma then exists.  rho, sums[r, w] -> sums[sigma(r), pi(w)], is read off
    the members alone, one round of the sorted rows and BLOCK rows at a time,
    so no copy of sums is made.  The certificate holds when sigma exists and
    rho is well defined on every database; rho then maps the view's
    subindices onto themselves, so it is a bijection.  It is sound for any
    sigma; the copy rule of the generator is what makes this sigma work.
    """
    mu, sums, rounds = plan.mu, plan.sums, plan.round
    if sums.min(initial=0) < 0 or sums.max(initial=0) > plan.beta:
        raise ProtocolError(f"a subindex is outside [1, {plan.beta}]")
    if mu == 1:  # one candidate: no column permutation to check
        return PrivacyReport(violations=[])
    low = (1 << mu) - 1  # the mask bits of a key
    # the cycle w -> w + 1, which is (1 2) for mu = 2, and the transposition
    pis = [np.roll(np.arange(mu), -1), np.r_[1, 0, 2:mu]][: min(mu - 1, 2)]
    backs = [np.roll(np.arange(mu), 1), np.r_[1, 0, 2:mu]]  # their inverses
    # rho[g][t] for generator g maps a member's subindex to a member's.
    # Database j stores j (beta + 1) + image, so an entry below its stamp is
    # unset for it and rho is never cleared; int32 holds them up to the cap
    wide = (plan.n + 1) * (plan.beta + 1) > np.iinfo(np.int32).max
    rho = [np.zeros(plan.beta + 1, dtype=np.int64 if wide else np.int32) for _ in pis]
    firsts = np.arange(1, mu + 2, dtype=np.int64) << mu  # first keys of rounds
    violations = []
    for j in range(1, plan.n + 1):
        at = plan.rows(j)
        part, stamp = sums[at], j * (plan.beta + 1)
        # key = (round << mu) + mask of each row, sorted: plan order is kept
        # within a class, and the rounds follow one another
        key = _masks(part)
        key += np.left_shift(rounds[at], mu, dtype=np.int64)
        order = key.argsort(kind="stable").astype(np.int32)  # half the size
        key.sort()  # in place: key[order]
        found, sources = [None] * len(pis), []  # violations; (g, source) of the rest
        for g, pi in enumerate(pis):
            # the keys, in key order, with pi applied to their masks
            if g == 0:  # the cycle: mask bit w moves to bit w + 1 mod mu
                moved = key + (key & low) - ((key >> (mu - 1)) & 1) * low
            else:  # the transposition: mask bits 0 and 1 trade places
                moved = key ^ ((key ^ (key >> 1)) & 1) * 3
            # ties keep key order, plan order within a class
            source = order[moved.argsort(kind="stable")]  # sigma(source[k]) = order[k]
            moved.sort()
            if (key == moved).all():
                del moved
                sources.append((g, source))
                continue
            # the first class count that differs names a class c with more
            # rows than pi^-1(c) (key lower) or fewer (moved lower)
            p = int(np.argmax(key != moved))
            c = int(min(key[p], moved[p]))
            back = sum(1 << w for w, to in enumerate(pi.tolist()) if c >> to & 1)
            more, fewer = (c, back) if key[p] < moved[p] else (back, c)
            found[g] = (
                f"db {j}: (round, type) multiset is not symmetric: round "
                f"{c >> mu} has more sums of type {_type_of(more & low)} "
                f"than of type {_type_of(fewer & low)}"
            )
        edges = key.searchsorted(firsts).tolist()
        del key
        # one round at a time, where each row has tau members: image row k's
        # members, at columns c, are the images of source row k's at pi^-1(c)
        for rows in (r for lo, hi in zip(edges, edges[1:]) for r in _blocks(hi, lo)):
            image = part.take(order[rows], axis=0)
            members = image.ravel().nonzero()[0]  # in column order
            b = np.add(image.take(members), stamp, dtype=rho[0].dtype)
            for g, source in sources:
                a = part.take(source[rows], axis=0)[:, backs[g]].take(members)
                held = rho[g][a]
                clash = ((held >= stamp) & (held != b)).any()  # an earlier block
                rho[g][a] = b
                if clash or (rho[g][a] != b).any():
                    found[g] = (
                        f"db {j}: view is not a relabeling of itself with "
                        f"candidates 1..{mu} moved to {tuple((pis[g] + 1).tolist())}"
                    )
            sources = [(g, source) for g, source in sources if found[g] is None]
        del order, source, sources  # before the next database's arrays exist
        violations += filter(None, found)
    return PrivacyReport(violations=violations)


# --------------------------------------------------------------- simulation


# length is L, the symbols per segment
SimulationConfig = namedtuple(
    "SimulationConfig",
    "n candidate_set length v mode seed epsilon",
    defaults=("symbolic", 0, DEFAULT_EPSILON),
)


class SimulationReport(
    namedtuple(
        "SimulationReport",
        "config total_download rate_measured rate_formula recovery_ok privacy_ok "
        "per_round decode_failure_rate",
    )
):
    """Downloads in q-ary units; per_round lists (tau, total charge)."""

    __slots__ = ()

    def as_dict(self) -> dict:
        c, cs = self.config, self.config.candidate_set
        out = dict(
            n=c.n, q=cs.q, mu=cs.mu, f=cs.f, L=c.length, v=c.v, mode=c.mode, seed=c.seed,
            D_total_qary=self.total_download, rate_measured=self.rate_measured,
            rate_formula=self.rate_formula, recovery_ok=self.recovery_ok,
            privacy_ok=self.privacy_ok,
            per_round=[{"tau": tau, "charge": charge} for tau, charge in self.per_round],
        )
        if c.mode == "concrete":
            out["decode_failure_rate"] = self.decode_failure_rate
        return out


def run_simulation(config: SimulationConfig) -> SimulationReport:
    """Execute the protocol end to end and check the ledger once: its total
    against rates.scheme_download of the cost list every charge was read
    from, exactly for code lengths and to 1e-12 relative for entropies."""
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
    concrete = config.mode == "concrete"
    width = max(config.length, coding.BLOCK) if concrete else config.length
    footprint = beta * width * (cs.f + mu)
    cap = CONCRETE_SYMBOL_CAP if concrete else SIMULATION_SYMBOL_CAP
    if beta > PLAN_SEGMENT_CAP or footprint > cap:
        raise ResourceLimitError(
            f"simulation footprint {footprint} symbols (beta = {beta}) exceeds cap"
        )
    if concrete and config.length > CONCRETE_LENGTH_CAP:
        raise ResourceLimitError(
            f"segment length L = {config.length} exceeds the concrete-mode cap "
            f"of {CONCRETE_LENGTH_CAP}"
        )

    codes = build_concrete_codes(cs, config.length, config.epsilon) if concrete else None

    rng = np.random.default_rng(config.seed)
    message_seed, perm_seed = (int(x) for x in rng.integers(0, 2**31, size=2))
    plan = generate_query_plan(n, mu, config.v, seed=perm_seed)
    # the certificate reads only the plan, so it runs before any data exists
    privacy_ok = verify_privacy_structure(plan).ok
    store = MessageStore.generate(q, cs.f, beta, config.length, seed=message_seed)
    values = evaluate_candidates(store, cs)

    answers, charges = zip(*(answer_queries(j, plan, store, cs, values, codes)
                             for j in range(1, n + 1)))

    # recovery is checked against the desired image alone
    direct = values[config.v - 1].copy()  # a view would keep every image alive
    del store, values
    result = decode(plan, answers, cs, codes=codes)
    rounds = plan.round  # the ledger's rounds, row for row with the charges
    del plan, answers
    # only concrete decoding can fail on a segment, and a run that decodes
    # none has recovered nothing
    ok_rows = np.ones(beta, dtype=bool)
    ok_rows[np.array(result.failed, dtype=np.int64) - 1] = False
    recovery_ok = bool(ok_rows.any()) and np.array_equal(
        result.segments[ok_rows], direct[ok_rows]
    )

    # exactly rounded sums, so no total depends on the order of the rows
    charges = np.concatenate(charges)
    total = math.fsum(charges.tolist())
    per_round = [(t, math.fsum(charges[rounds == t].tolist())) for t in range(1, mu + 1)]
    costs = download_costs(cs.profile, config.length, codes)
    expected = rates.scheme_download(n, *costs)
    slack = 0 if isinstance(expected, int) else 1e-12 * expected
    if abs(total - expected) > slack:
        raise ProtocolError(f"download {total} != closed form {expected}")
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
    )

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

run_simulation prices the sums of each (round, lead) pair once, from one cost
list (download_costs): the round-1 cost per database, and the cost of a
tau-sum by its lead (the lowest column, so the largest entropy).  Symbolic
mode prices L times the joint and the lead's entropy while sending raw sums,
so recovery can be checked exactly; concrete mode, used exactly when concrete
codes are given, sends fixed-length codewords and prices their lengths.
"""

from __future__ import annotations

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
# rows whose members are gathered or compared at once, all of one round:
# no stage of a run holds a second copy of the plan's members
BLOCK = 2**13


# ---------------------------------------------------------------- query plans


class QueryPlan(namedtuple("QueryPlan", "v mu permutation sums members side_ref bounds")):
    """All tau-sums for one retrieval, plus the private permutation.

    permutation[t-1] is the actual segment index of subindex t, 1-based.
    Database j's sums are rows bounds[j-1]:bounds[j], in the order it
    receives and answers them: by round, then by mask, in a built plan;
    bounds holds n + 1 row offsets.  sums[i] is the candidate set of sum i
    as a bitmask, bit w-1 for candidate w; members holds every row's
    subindices, row after row, each row's in candidate order, mu * beta of
    them in a built plan.  side_ref[i] is the undesired
    (tau-1)-sum a desired sum extends, -1 for none.
    """

    # compared by identity: comparing the arrays would be ambiguous
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def n(self) -> int:
        return len(self.bounds) - 1

    def rows(self, j: int) -> slice:  # database j's rows, 1-based j
        return slice(int(self.bounds[j - 1]), int(self.bounds[j]))

    @property
    def beta(self) -> int:
        return self.n**self.mu

    @cached_property
    def round(self) -> np.ndarray:  # tau = number of members, uint8
        return np.bitwise_count(self.sums)

    @cached_property
    def starts(self) -> np.ndarray:  # row i's members: members[starts[i]:starts[i+1]]
        if self.sums.min(initial=0) < 0 or int(self.sums.max(initial=0)) >> self.mu:
            raise ProtocolError(f"a sum has a candidate outside 1..{self.mu}")
        # int32 unless 32 members a row could overflow it
        starts = np.zeros(len(self.sums) + 1, np.int32 if len(self.sums) < 2**26 else np.int64)
        np.cumsum(self.round, dtype=starts.dtype, out=starts[1:])
        if starts[-1] != len(self.members):
            raise ProtocolError(f"the sums have {starts[-1]} members, the plan {len(self.members)}")
        return starts


def _blocks(rounds: np.ndarray, mu: int):
    """(tau, rows) pairs: the positions of round tau among each BLOCK
    positions of rounds, for tau = 1..mu; no array spans all rows."""
    for tau in range(1, mu + 1):
        for i in range(0, len(rounds), BLOCK):
            rows = np.flatnonzero(rounds[i : i + BLOCK] == tau)
            if len(rows):
                yield tau, rows + i


def _spans(edges: list):
    """(tau, slice) pairs covering each edges[tau-1]:edges[tau], BLOCK at a time."""
    for tau in range(1, len(edges)):
        for i in range(edges[tau - 1], edges[tau], BLOCK):
            yield tau, slice(i, min(i + BLOCK, edges[tau]))


def _members(members: np.ndarray, starts: np.ndarray, rows: np.ndarray, at) -> np.ndarray:
    """The members of rows at positions at within each row, rows by columns."""
    return members.take(starts.take(rows)[:, None] + at)


def _bits(masks: np.ndarray, tau: int) -> np.ndarray:
    """The (len(masks), tau) set bits of masks of tau bits, lowest first."""
    rest, bits = masks.astype(np.int64), np.empty((len(masks), tau), dtype=np.int64)
    for i in range(tau):
        bits[:, i] = rest & -rest
        rest ^= bits[:, i]
    return bits


def _type_of(mask: int) -> tuple:
    return tuple(w + 1 for w in range(mask.bit_length()) if mask >> w & 1)


def _build_plan(n: int, mu: int, v: int):
    """The plan's (sums, members, side_ref, bounds) for desired candidate v,
    each round built for all databases at once.

    Each round is built as a desired block, then an undesired block, and is
    then reordered: a database receives its rows by round and mask, build
    order kept within a type.  A desired tau-sum extends an undesired
    (tau-1)-sum of one of the n - 1 other databases, so round tau holds
    (n-1)^(tau-1) copies of each type: C(mu-1, tau-1) desired types and
    C(mu-1, tau) undesired ones.
    Types are built over slots and slot s is candidate col[s] + 1, so every
    plan for one (n, mu) is the v = 1 plan with candidates 1 and v swapped.
    """
    per_db = (n**mu - 1) // (n - 1)
    sums = np.empty(n * per_db, dtype=np.int32)
    members = np.empty(mu * n**mu, dtype=np.int32)
    side_ref = np.full(n * per_db, -1, dtype=np.int32)
    masks, refs = sums.reshape(n, per_db), side_ref.reshape(n, per_db)
    slabs = members.reshape(n, -1)  # database j's members, round by round
    col = np.arange(mu)  # slot -> column: slots 1 and v swapped
    col[[0, v - 1]] = v - 1, 0
    bit, vbit = 1 << col, 1 << (v - 1)
    # types: the round's tau-sets of slots 1..mu-1 as masks, in lexicographic
    # order, so types[first[s]:] are those of slots s..mu-1; round 0 has {}
    types, first = np.zeros(1, dtype=np.int64), np.zeros(mu + 1, dtype=np.int64)
    # rank[mask]: rank of a mask among last round's undesired types, {} -> 0
    rank = np.zeros(1 << mu, dtype=np.int32)
    start = offset = counter = 0  # this round's first row and member, subindices used

    def wire_order(start, end, offset, tau):
        """Sort round tau's rows, start:end of every database, stably by
        mask, and return where each row went, relative to start."""
        order = masks[0, start:end].argsort(kind="stable")  # one layout for all
        masks[:, start:end] = masks[:, start:end][:, order]
        refs[:, start:end] = refs[:, start:end][:, order]
        rows = slabs[:, offset : offset + (end - start) * tau].reshape(n, -1, tau)
        step = max(1, BLOCK // len(order))  # databases at a time, not the whole round
        for j in range(0, n, step):
            rows[j : j + step] = rows[j : j + step].take(order, axis=1)
        moved_to = np.empty_like(order)
        moved_to[order] = np.arange(len(order))
        return moved_to

    for tau in range(1, mu + 1):
        sides, parts = types, [bit[s] | types[first[s + 1] :] for s in range(1, mu)]
        types = np.concatenate([types[:0], *parts])
        first[1:] = np.cumsum([0] + [len(p) for p in parts])
        copies = (n - 1) ** (tau - 1)
        m = (n - 1) ** max(tau - 2, 0)  # copies of a side type per other database
        size = len(sides) * m  # desired rows from each other database
        n_desired = copies * len(sides)
        split, end = start + n_desired, start + n_desired + copies * len(types)
        slab = slabs[:, offset : offset + (end - start) * tau].reshape(n, -1, tau)
        desired, undesired = slab[:, :n_desired], slab[:, n_desired:]
        # fresh subindices round by round, then database by database
        fresh = np.arange(counter + 1, counter + 1 + n * n_desired, dtype=np.int32)
        fresh, counter = fresh.reshape(n, -1), counter + n * n_desired
        masks[:, start:split] = np.tile(np.repeat(sides, m), copies // m) | vbit
        if tau == 1:
            desired[:, :, 0] = fresh
        else:
            # block k of database j extends the undesired sums of its k-th
            # other database, with the fresh subindex in its candidate's place
            # (n^2 <= beta entries here: mu >= 2)
            other = np.arange(n - 1) + (np.arange(n - 1) >= np.arange(n)[:, None])
            side = last[other].reshape(n, n_desired, tau - 1)
            place = np.tile(np.repeat(np.bitwise_count(sides & (vbit - 1)), m), n - 1)
            for i in range(tau):
                np.copyto(desired[:, :, i], side[:, :, min(i, tau - 2)], where=i < place)
                np.copyto(desired[:, :, i], fresh, where=i == place)
                np.copyto(desired[:, :, i], side[:, :, i - 1], where=i > place)
            del side  # before the undesired rows' temporaries exist
            # the last round is read no more: put it in wire order, and point
            # at its undesired rows where they went
            moved_to = wire_order(*span)[prev - span[0] :][:size] + span[0]
            sides_at = other[:, :, None] * per_db + moved_to
            refs[:, start:split] = sides_at.reshape(n, -1)
        # member w of copy z of an undesired sum of type T takes the subindex
        # of copy z of the desired sum with side type T' = T minus {w}, copies
        # counted in row order: desired row (z // m) size + rank(T') m + z % m
        copy_row = (np.arange(copies // m)[:, None] * size + np.arange(m)).ravel()
        at = rank[types[:, None] - _bits(types, tau)][:, None] * m
        at = (at + copy_row[:, None]).reshape(-1, tau)  # (rows, members) in candidate order
        np.take(fresh, at, axis=1, out=undesired, mode="clip")
        del at
        masks[:, split:end] = np.repeat(types, copies)
        rank[types] = np.arange(len(types))
        span = start, end, offset, tau
        start, prev, offset, last = end, split, offset + (end - start) * tau, undesired
    # the wire order: every database receives its rows by (round, mask), the
    # order in which the privacy certificate pairs them, so the sequence it
    # receives is the view it certifies
    wire_order(*span)
    return sums, members, side_ref, np.arange(n + 1) * per_db


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
    return QueryPlan(v, mu, permutation, *_build_plan(n, mu, v))


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
    plan: QueryPlan,
    store: MessageStore,
    values,
    codes: ConcreteCodes | None = None,
):
    """Every database's answers to its part of the plan, and each sum's lead.

    answers[i] answers sum i of the plan, and lead[i], an int8, is the
    0-based candidate that leads it: its lowest member, for a round-1 sum its
    only one.  A sum's round and lead fix its price, which run_simulation
    reads off download_costs.  Without codes (symbolic mode) the answers are
    raw sums mod q, one (S, L) array whose round-1 rows are each database's
    joint bundle.  With codes (concrete mode) they are a list: each later sum
    as its members' codewords summed, every round-1 row as its database's
    joint-bundle codeword, encoded once per database.  values holds the
    candidates' images on the replica, as evaluate_candidates returns them.
    A sum's answer reads only that sum, the replica and the public candidate
    tables, so each database's answers depend on its own sums alone, and
    nothing here depends on which candidate is desired.
    """
    length, mu, beta, perm = store.length, plan.mu, plan.beta, plan.permutation
    rounds, masks, members, starts = plan.round, plan.sums, plan.members, plan.starts
    n, bounds = plan.n, plan.bounds
    # each round-1 row's database, 0-based, and subindex; each database's first
    first = np.flatnonzero(rounds == 1)
    db, t1 = bounds.searchsorted(first, "right") - 1, members.take(starts.take(first))
    head = db.searchsorted(np.arange(n))
    checks = np.zeros((3, n), dtype=bool)  # the databases each check fails on
    checks[0] = np.bincount(db, minlength=n) == 0
    # joint compression requires one shared segment per database
    checks[1, db[t1 != t1[head[db]]]] = True
    if members.min(initial=1) < 1 or members.max(initial=1) > beta:
        at = np.flatnonzero((members < 1) | (members > beta))
        checks[2, starts.take(bounds[:-1]).searchsorted(at, "right") - 1] = True
    if checks.any():  # the first offending database, its first failed check
        j = int(checks.any(axis=0).argmax()) + 1
        raise ProtocolError(
            [
                f"database {j} has no round-1 sums",
                f"database {j} has round-1 singletons at several subindices",
                f"database {j}: subindex outside [1, {beta}]",
            ][int(checks[:, j - 1].argmax())]
        )
    images = values.reshape(-1, length)  # row (w-1) beta + s-1: image w at s
    lead = np.zeros(len(masks), dtype=np.int8)  # mu <= 20
    if codes is None:
        answers = np.zeros((len(lead), length), dtype=images.dtype)
    else:
        # each database's round-1 segment, its joint bundle encoded once
        inputs = codes.image_of_code[store.input_codes(perm.take(t1[head] - 1) - 1)]
        bundles = [encode_fixed(x, codes.joint_code) for x in inputs]
        sizes = np.diff(bounds).tolist()
        answers = [b for b, size in zip(bundles, sizes) for _ in range(size)]
    # the rows of one round at a time, BLOCK at a time: the members' columns
    # are the set bits of the mask, so one take reads every member's segment
    for tau, rows in _blocks(rounds, mu):
        w = np.bitwise_count(_bits(masks.take(rows), tau) - 1)  # candidates, 0-based
        t = _members(members, starts, rows, np.arange(tau))
        lead[rows] = w[:, 0]
        w = w * np.int64(beta) + perm.take(t - 1) - 1  # the members' rows of images
        segments = images.take(w.T, axis=0)  # (tau, rows, L)
        if codes is None and tau == 1:  # a one-member sum is the segment
            answers[rows] = segments[0]
        elif codes is None:
            answers[rows] = segments.sum(axis=0, dtype=np.int32) % store.q
        elif tau > 1:  # the members' codewords under the lead's code, summed
            for i, row_segments in zip(rows.tolist(), segments.swapaxes(0, 1)):
                code = codes.sum_codes[lead[i]]
                answers[i] = sum_codewords(*(encode_fixed(x, code) for x in row_segments))
    return answers, lead


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
    """Recover all beta desired segments from every database's answers.

    answers is what answer_queries returns: one answer per sum of the plan,
    concrete exactly when the codes they were encoded with are given.  A
    desired sum is resolved by subtracting its side information, the
    undesired sum it extends: nothing for round 1, a raw answer (symbolic),
    a known segment encoded once for every sum extending it (concrete, tau =
    2), or a widened undesired codeword sum (tau >= 3).  A concrete desired
    sum fails exactly when decode_fixed raises CodecError on it, as on an
    Atypical (widened and subtracted as such) or corrupt codeword, or when
    its side is a row of a round-1 bundle that failed so.
    """
    v, q, beta, bounds = plan.v, candidate_set.q, plan.beta, plan.bounds
    if len(answers) != len(plan.sums):
        raise ProtocolError("need answers from every database")
    # answer_queries sends one array in symbolic mode, a list in concrete mode
    if isinstance(answers, np.ndarray) != (codes is None):
        raise ProtocolError(
            "concrete answers need the codes they were encoded with"
            if codes is None
            else "symbolic answers cannot be decoded with concrete codes"
        )
    masks, members, starts, bit = plan.sums, plan.members, plan.starts, 1 << (v - 1)
    desired = np.flatnonzero(masks & bit)
    # candidate v's place among a desired row's members
    place = np.bitwise_count(masks.take(desired) & (bit - 1))
    t = members.take(starts.take(desired) + place)
    if t.min(initial=1) < 1 or t.max(initial=1) > beta:
        raise ProtocolError(f"a desired sum has no subindex in [1, {beta}]")
    later = plan.round.take(desired) > 1
    side = np.where(later, plan.side_ref[desired], -1)
    ref, extended, place = side[later], desired[later], place[later]
    if ref.min(initial=0) < 0 or ref.max(initial=0) >= len(masks):
        raise ProtocolError("a desired sum is missing its side information")
    # the side row holds the desired row's members but candidate v's
    for tau, blk in _blocks(plan.round.take(extended), plan.mu):
        e, r, i = extended.take(blk), ref.take(blk), np.arange(tau - 1)
        skip = i + (i >= place.take(blk)[:, None])  # e's members but v's
        if (
            (masks.take(r) != masks.take(e) ^ bit).any()
            or (bounds.searchsorted(r, "right") == bounds.searchsorted(e, "right")).any()
            or (_members(members, starts, r, i) != _members(members, starts, e, skip)).any()
        ):
            raise ProtocolError("a side reference does not match its desired sum")
    del ref, extended, place
    real = plan.permutation[t - 1]
    hits = np.bincount(real, minlength=beta + 1)[1:]
    if hits.max(initial=0) > 1:
        raise ProtocolError(f"segment {int(np.argmax(hits)) + 1} decoded twice")
    if (hits == 0).any():
        raise ProtocolError("decode did not cover every segment")
    del hits, t

    probe = answers[0]
    length = probe.shape[-1] if codes is None else probe.code.length
    # raw row values; the extra last row is the zero side information of round 1
    raw = np.zeros((len(plan.sums) + 1, length), dtype=symbol_dtype(q))
    lost = np.zeros(len(plan.sums) + 1, dtype=bool)
    if codes is None:
        raw[:-1] = answers
    else:
        # each database's round-1 rows share its bundle, decoded once
        first = np.flatnonzero(plan.round == 1)
        dbs, which = np.unique(bounds.searchsorted(first, "right"), return_inverse=True)
        tables = np.zeros((len(dbs), plan.mu, length), dtype=raw.dtype)
        bad = np.zeros(len(dbs), dtype=bool)
        for k, i in enumerate(first[which.searchsorted(np.arange(len(dbs)))].tolist()):
            try:
                tables[k] = codes.image_tuples[list(decode_fixed(answers[i], codes.joint_code))].T
            except CodecError:
                bad[k] = True
        raw[first] = tables[which, np.bitwise_count(masks.take(first) - 1)]
        lost[first] = bad[which]
    value = raw[desired]
    value -= raw[side]
    value %= q
    failed = lost[desired] | lost[side]  # side -1 is the zero row, never lost
    if codes is not None:
        leads = np.bitwise_count(_bits(masks.take(desired), 1)[:, 0] - 1).tolist()
        # encode each round-1 side {w} once: all sums {w, v} extending it share a code
        encoded = cache(lambda s, code: encode_fixed(raw[s], code))
        for k in np.flatnonzero(~failed & later).tolist():
            i, s = int(desired[k]), int(side[k])
            code = codes.sum_codes[leads[k]]
            side_cw = encoded(s, code) if plan.round[s] == 1 else widen_codeword(answers[s], code)
            try:
                value[k] = decode_fixed(subtract_codewords(answers[i], side_cw), code)
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
    flags.  The plan for another desired index is this one with candidates
    permuted, so privacy holds when, for every permutation pi of them, each
    view permuted by pi is a relabeling of itself: some bijection rho on
    subindices maps its rows onto the view's rows.  The cycle (1 2 ... mu)
    and the transposition (1 2) generate every pi.  For each, sigma maps
    database j's k-th row in a stable sort by the moved key (round << mu) +
    pi(mask) to its k-th row in a stable sort by the key (round << mu) +
    mask, both read off sums; the sorted keys are equal exactly when sigma
    exists.  rho maps each member of a row to the member of the same
    candidate's image in sigma's row, read one round and BLOCK rows at a
    time.  The certificate holds when sigma exists and rho is well defined
    on every database; rho is then a bijection.  It is sound for any sigma;
    the copy rule of the plan is what makes this sigma work.  A built plan
    stores each database's rows in this key order, the order the database
    receives them, so sigma pairs the k-th sum of one received sequence with
    the k-th of the other: the certificate covers the order of the wire,
    not only its multiset.
    """
    mu, rounds, members, starts = plan.mu, plan.round, plan.members, plan.starts
    if members.min(initial=1) < 1 or members.max(initial=1) > plan.beta:
        raise ProtocolError(f"a subindex is outside [1, {plan.beta}]")
    if mu == 1:  # one candidate: no column permutation to check
        return PrivacyReport(violations=[])
    low = (1 << mu) - 1  # the mask bits of a key
    # the cycle w -> w + 1, which is (1 2) for mu = 2, and the transposition
    pis = [np.roll(np.arange(mu), -1), np.r_[1, 0, 2:mu]][: min(mu - 1, 2)]
    # rho[g][t] for generator g maps a member's subindex to a member's.
    # Database j stores j (beta + 1) + image, so an entry below its stamp is
    # unset for it and rho is never cleared; int32 holds them up to the cap
    wide = (plan.n + 1) * (plan.beta + 1) > np.iinfo(np.int32).max
    rho = [np.zeros(plan.beta + 1, dtype=np.int64 if wide else np.int32) for _ in pis]
    firsts = np.arange(1, mu + 2, dtype=np.int64) << mu  # first keys of rounds
    violations = []
    for j in range(1, plan.n + 1):
        at, stamp = plan.rows(j), j * (plan.beta + 1)
        # key = (round << mu) + mask of each row, sorted: plan order is kept
        # within a class, and the rounds follow one another
        key = np.left_shift(rounds[at], mu, dtype=np.int64)
        key += plan.sums[at]
        order = key.argsort(kind="stable").astype(np.int32)  # half the size
        key.sort()  # in place: key[order]
        order += at.start  # plan rows
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
        # image row k's member of candidate c is the image of source row k's
        # of candidate pi^-1(c): in candidate order, the source's members
        # rotated by one if the cycle moved candidate mu to 1, or the first
        # two swapped if the transposition moved both 1 and 2
        for tau, blk in _spans(edges):
            i = np.arange(tau)
            b = np.add(_members(members, starts, order[blk], i), stamp, dtype=rho[0].dtype)
            k = plan.sums.take(order[blk])[:, None]  # the image rows' masks
            for g, source in sources:
                at = (i - (k & 1)) % tau if g == 0 else i ^ ((k & 3) == 3) * (i < 2)
                a = _members(members, starts, source[blk], at)
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
    """Downloads in q-ary units, each rounded once from its exact sum;
    per_round lists (tau, total charge)."""

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
    """Execute the protocol end to end, price it by (round, lead) counts and
    check the total once against rates.scheme_download of the cost list,
    exactly for code lengths and to 1e-12 relative for entropies."""
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

    answers, leads = answer_queries(plan, store, values, codes)

    # recovery is checked against the desired image alone
    direct = values[config.v - 1].copy()  # a view would keep every image alive
    del store, values
    # a sum's price is fixed by its round and lead: count the sums of each
    # pair, keyed in int64 as uint8 rounds times mu would wrap
    keys = plan.round * np.int64(mu) + leads
    counts = np.bincount(keys, minlength=(mu + 1) * mu).reshape(mu + 1, mu)
    del leads, keys
    result = decode(plan, answers, cs, codes=codes)
    del plan, answers
    # only concrete decoding can fail on a segment, and a run that decodes
    # none has recovered nothing
    ok_rows = np.ones(beta, dtype=bool)
    ok_rows[np.array(result.failed, dtype=np.int64) - 1] = False
    recovery_ok = bool(ok_rows.any()) and np.array_equal(
        result.segments[ok_rows], direct[ok_rows]
    )

    costs = download_costs(cs.profile, config.length, codes)
    # the costs as integers over one power-of-two scale: each total is exact
    # until its one rounding, the float math.fsum gives on a charge per row
    ratios = [float(c).as_integer_ratio() for c in (costs[0], *costs[1])]
    scale = max(d for _, d in ratios)
    joint, *lead_costs = (a * (scale // d) for a, d in ratios)
    # round 1: the joint per database; later: each lead's count times its cost
    # (zip leaves out the last candidate, which leads no later sum)
    sums = [n * joint]
    sums += [sum(c * x for c, x in zip(row, lead_costs)) for row in counts[2:].tolist()]
    per_round = [(tau, s / scale) for tau, s in enumerate(sums, 1)]
    total = sum(sums) / scale
    expected = rates.scheme_download(n, *costs)
    slack = 0 if isinstance(expected, int) else 1e-12 * expected
    if abs(total - expected) > slack:
        raise ProtocolError(f"download {total} != closed form {expected}")
    rate_measured = beta * config.length * cs.profile.h_min / total if total else 0.0
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

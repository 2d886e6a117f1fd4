import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from dense_plans import dense, with_dense

from privcomp import (
    CodecError,
    Codeword,
    FixedCode,
    FunctionTable,
    MessageStore,
    ProtocolError,
    ResourceLimitError,
    SimulationConfig,
    UsageError,
    answer_queries,
    build_monomial,
    candidate_set_from_exponents,
    d_one,
    decode,
    decode_fixed,
    encode_fixed,
    generate_query_plan,
    monomial_candidate_set,
    order_by_entropy,
    round_download,
    run_simulation,
    sum_codewords,
)
from privcomp import protocol
from privcomp.protocol import (
    JOINT_ALPHABET_CAP,
    build_concrete_codes,
    evaluate_candidates,
)


# the earlier generator, built from one object per tau-sum: the array
# generator must reproduce it row for row
def oracle_plan(n, mu, v):
    """Rows (db, round, members, desired, side_ref) of the plan for v."""
    sums = []  # [db, round, members, desired, side_ref]
    counter = 0
    undesired_prev = [[] for _ in range(n + 1)]  # per db: sum ids
    for tau in range(1, mu + 1):
        new_undesired = [[] for _ in range(n + 1)]
        for j in range(1, n + 1):
            desired_here = []
            if tau == 1:
                counter += 1
                desired_here.append(len(sums))
                sums.append([j, 1, ((1, counter),), True, -1])
            else:
                for jp in range(1, n + 1):
                    if jp == j:
                        continue
                    for sp in undesired_prev[jp]:
                        counter += 1
                        members = tuple(sorted(((1, counter),) + sums[sp][2]))
                        desired_here.append(len(sums))
                        sums.append([j, tau, members, True, sp])
            by_side = {}
            for ds in desired_here:
                side = tuple(w for w, _ in sums[ds][2] if w != 1)
                by_side.setdefault(side, []).append(ds)
            copies = (n - 1) ** (tau - 1)
            for T in itertools.combinations(range(2, mu + 1), tau):
                for k in range(copies):
                    members = []
                    for w in T:
                        side = tuple(x for x in T if x != w)
                        donors = by_side[side]
                        # copy k takes the subindex of the donors' copy k
                        members.append((w, dict(sums[donors[k]][2])[1]))
                    new_undesired[j].append(len(sums))
                    sums.append([j, tau, tuple(sorted(members)), False, -1])
        undesired_prev = new_undesired
    assert counter == n**mu
    relabel = {1: v, v: 1}
    return [
        (j, tau, tuple(sorted((relabel.get(w, w), t) for w, t in members)), d, ref)
        for j, tau, members, d, ref in sums
    ]


def row_db(plan):
    """1-based database of every row, read off the plan's row offsets."""
    return np.repeat(np.arange(1, plan.n + 1), np.diff(plan.bounds))


def plan_rows(plan):
    """Rows (db, round, members, desired, side_ref) of an array plan.

    members is the sorted tuple of (candidate, subindex) pairs of the sum.
    """
    sums = dense(plan)
    return [
        (
            int(j),
            int(tau),
            tuple((w + 1, int(t)) for w, t in enumerate(row) if t),
            bool(d),
            int(ref),
        )
        for row, j, tau, d, ref in zip(
            sums, row_db(plan), plan.round, sums[:, plan.v - 1] != 0, plan.side_ref
        )
    ]


def plan_cases():
    for n in (2, 3, 4):
        for mu in range(1, 6):
            if n**mu <= 1024:
                yield n, mu


# ------------------------------------------------------------ plan structure


@pytest.mark.parametrize("n,mu", list(plan_cases()))
def test_plan_invariants(n, mu):
    for v in {1, mu}:
        plan = generate_query_plan(n, mu, v, seed=0)
        rows = plan_rows(plan)
        beta = n**mu
        # per database and round: (n-1)^(tau-1) sums of every type
        for j in range(1, n + 1):
            at_j = [r for r in rows if r[0] == j]
            counts = Counter((tau, types(m)) for _, tau, m, _, _ in at_j)
            for tau in range(1, mu + 1):
                for T in itertools.combinations(range(1, mu + 1), tau):
                    assert counts[(tau, T)] == (n - 1) ** (tau - 1)
            assert len(at_j) == sum(
                math.comb(mu, tau) * (n - 1) ** (tau - 1) for tau in range(1, mu + 1)
            )
        # every desired subindex used exactly once, covering [beta]
        desired_ts = sorted(dict(m)[v] for _, _, m, d, _ in rows if d)
        assert desired_ts == list(range(1, beta + 1))
        # side information: the undesired part of each desired sum is queried
        # verbatim at some other database
        undesired = {}
        for j, _, m, d, _ in rows:
            if not d:
                undesired.setdefault(m, set()).add(j)
        for j, tau, m, d, _ in rows:
            if d and tau >= 2:
                rest = tuple(x for x in m if x[0] != v)
                assert any(jj != j for jj in undesired.get(rest, ()))


def types(members):
    return tuple(w for w, _ in members)


def oracle_cases():
    for n in range(2, 6):
        for mu in range(1, 7):
            if n**mu <= 4096:
                yield n, mu


def database_major(rows):
    """Oracle rows reordered database by database, each database's by round
    and mask (the sum of 2^(w-1) over its candidates w), plan order kept
    within a type, with side_ref mapped to the new row ids."""
    order = sorted(
        range(len(rows)),
        key=lambda i: (rows[i][0], rows[i][1], sum(1 << (w - 1) for w, _ in rows[i][2])),
    )
    new_id = {old: new for new, old in enumerate(order)}
    return [
        (*rows[i][:4], new_id[rows[i][4]] if rows[i][4] >= 0 else -1) for i in order
    ]


@pytest.mark.parametrize("n,mu", list(oracle_cases()))
def test_plan_matches_oracle(n, mu):
    # row for row: db, round, members, desired and side_ref, for every v
    for v in range(1, mu + 1):
        plan = generate_query_plan(n, mu, v, seed=0)
        assert plan_rows(plan) == database_major(oracle_plan(n, mu, v))
        assert len(plan.sums) == plan.sums.shape[0] == len(plan.side_ref)


@pytest.mark.parametrize("n,mu", list(oracle_cases()))
def test_every_database_has_one_row_layout(n, mu):
    # the per-round build writes every database's rounds and types at once
    plan = generate_query_plan(n, mu, mu, seed=0)
    per_db = (n**mu - 1) // (n - 1)
    assert np.array_equal(plan.bounds, np.arange(n + 1) * per_db)
    layout = [(tau, types(m)) for _, tau, m, _, _ in plan_rows(plan)]
    assert all(
        layout[plan.rows(j)] == layout[plan.rows(1)] for j in range(2, n + 1)
    )


def test_plan_is_built_in_place():
    # (2, 16): 131,070 sums; a list of blocks joined by np.concatenate holds
    # the plan twice
    generate_query_plan(2, 3, 1, seed=0)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        plan = generate_query_plan(2, 16, 2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(
        a.nbytes
        for a in (plan.permutation, plan.sums, plan.members, plan.side_ref, plan.bounds)
    )
    assert peak <= 1.3 * size, peak / size
    assert plan.members.size == plan.mu * plan.beta


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_desired_coverage_binomial_identity(n):
    for mu in range(1, 9):
        total = sum(
            n * (n - 1) ** (tau - 1) * math.comb(mu - 1, tau - 1)
            for tau in range(1, mu + 1)
        )
        assert total == n**mu


def test_plan_example_n2_mu2():
    plan = generate_query_plan(2, 2, 1, seed=0)
    for j in (1, 2):
        rounds = Counter(
            (tau, types(m)) for jj, tau, m, _, _ in plan_rows(plan) if jj == j
        )
        assert rounds == Counter({(1, (1,)): 1, (1, (2,)): 1, (2, (1, 2)): 1})
    assert sum(1 for r in plan_rows(plan) if r[3]) == 4  # beta segments


def test_plan_example_n2_mu3_type_multiset():
    plan = generate_query_plan(2, 3, 2, seed=0)
    for j in (1, 2):
        got = Counter(types(m) for jj, _, m, _, _ in plan_rows(plan) if jj == j)
        assert got == Counter(
            {(1,): 1, (2,): 1, (3,): 1, (1, 2): 1, (1, 3): 1, (2, 3): 1, (1, 2, 3): 1}
        )


def test_round1_shares_one_subindex_per_db():
    plan = generate_query_plan(3, 3, 2, seed=1)
    for j in (1, 2, 3):
        ts = {m[0][1] for jj, tau, m, _, _ in plan_rows(plan) if jj == j and tau == 1}
        assert len(ts) == 1


def test_plan_guards():
    with pytest.raises(UsageError):
        generate_query_plan(1, 2, 1)
    with pytest.raises(UsageError):
        generate_query_plan(2, 2, 3)
    with pytest.raises(ResourceLimitError):
        generate_query_plan(2, 21, 1)


def test_permutation_reproducible():
    a = generate_query_plan(2, 3, 1, seed=42)
    b = generate_query_plan(2, 3, 1, seed=42)
    assert np.array_equal(a.permutation, b.permutation)
    assert plan_rows(a) == plan_rows(b)


# ------------------------------------------------------------------ decoding


# symbols are int8 up to q = 61, the largest prime with 2(q-1) <= 127, and
# int16 from q = 67 on
SYMBOL_FIELDS = [(3, np.int8), (61, np.int8), (67, np.int16)]


def test_recovery_exact_n2_mu2():
    for q, dtype in SYMBOL_FIELDS:
        cs = candidate_set_from_exponents([(1, 0), (1, 1)], q)
        store = MessageStore.generate(q, 2, beta=4, length=16, seed=7)
        # the stored messages are the int16 draw for the seed, whatever the dtype
        drawn = np.random.default_rng(7).integers(0, q, size=(2, 4, 16), dtype=np.int16)
        assert store.messages.dtype == dtype
        assert np.array_equal(store.messages, drawn)
        values = evaluate_candidates(store, cs)
        assert [x.dtype for x in values] == [dtype, dtype]
        wide = [x.astype(np.int64) for x in values]
        for v in (1, 2):
            plan = generate_query_plan(2, 2, v, seed=7)
            answers, _ = answer_queries(plan, store, values=values)
            for j in (1, 2):
                a = answers[plan.rows(j)]
                # each answer is its members' images added in int64, mod q
                oracle = sum(
                    np.where(t[:, None] > 0, x[plan.permutation[t - 1] - 1], 0)
                    for x, t in zip(wide, dense(plan)[plan.rows(j)].T)
                ) % q
                assert a.dtype == dtype
                assert np.array_equal(a, oracle)
            result = decode(plan, answers, cs)
            assert not result.failed
            assert result.segments.dtype == dtype
            assert np.array_equal(result.segments, values[v - 1])


def test_recovery_identity_candidate_is_message():
    for q, _ in SYMBOL_FIELDS:
        cs = candidate_set_from_exponents([(1, 0), (0, 1), (1, 1)], q)
        rep = run_simulation(
            SimulationConfig(n=2, candidate_set=cs, length=8, v=1, seed=3)
        )
        assert rep.recovery_ok


def test_recovery_constant_candidate():
    const = FunctionTable(q=3, f=1, values=(2, 2, 2))
    w1 = build_monomial((1,), 3)
    cs = order_by_entropy([w1, const])
    rep = run_simulation(
        SimulationConfig(n=2, candidate_set=cs, length=8, v=2, seed=5)
    )
    assert rep.recovery_ok  # decodes to the constant segments


@pytest.mark.parametrize("n,v,seed", [(2, 1, 0), (2, 3, 1), (3, 2, 2), (3, 3, 3)])
def test_recovery_randomized(n, v, seed):
    cs = candidate_set_from_exponents([(1, 0), (0, 1), (1, 1)], 3)
    rep = run_simulation(
        SimulationConfig(n=n, candidate_set=cs, length=8, v=v, seed=seed)
    )
    assert rep.recovery_ok
    assert rep.privacy_ok


# -------------------------------------------------------------------- ledger


# the earlier per-sum ledger rule, built one entry per sum: the ledger's
# (round, lead) counts must reproduce its totals bit for bit
def oracle_ledger(j, plan, cs, length, epsilon=None):
    """(round, charge) of database j: the joint charge, then its later sums
    in plan order.  epsilon None is symbolic mode, a number concrete mode."""
    q, profile = cs.q, cs.profile
    charge = length * profile.joint
    if epsilon is not None:
        image = {tuple(t.values[i] for t in cs.functions) for i in range(q**cs.f)}
        code = FixedCode(q, len(image), length, profile.joint + epsilon)
        charge = float(code.codeword_len)
    ledger = [(1, charge)]
    at = plan.rows(j)
    for row, tau in zip(dense(plan)[at].tolist(), plan.round[at].tolist()):
        if tau == 1:
            continue
        type_ = tuple(w + 1 for w, t in enumerate(row) if t)
        budget = max(profile.h[w - 1] for w in type_)
        if epsilon is None:
            charge = length * budget
        else:
            charge = float(FixedCode(q, q, length, budget + epsilon).codeword_len)
        ledger.append((len(type_), charge))
    return ledger


def oracle_totals(plan, cs, length, epsilon=None):
    """(total, per_round) of every database's oracle ledger, each total the
    exactly rounded sum of its charges."""
    ledger = [e for j in range(1, plan.n + 1) for e in oracle_ledger(j, plan, cs, length, epsilon)]
    per_round = [
        (tau, math.fsum(c for r, c in ledger if r == tau)) for tau in range(1, plan.mu + 1)
    ]
    return math.fsum(c for _, c in ledger), per_round


def assert_leads(plan, j, lead):
    """lead holds each of database j's sums' lowest member column, 0-based:
    a round-1 sum's own candidate, a later sum's lowest set mask bit."""
    rows = dense(plan)[plan.rows(j)]
    assert lead.dtype == np.int8
    assert lead.tolist() == [int(np.flatnonzero(row)[0]) for row in rows]
    masks = plan.sums[plan.rows(j)].tolist()
    assert lead.tolist() == [(m & -m).bit_length() - 1 for m in masks]


@pytest.mark.parametrize("n", [2, 3])
def test_ledger_equals_formula(n):
    for f, g, mu in [(2, 2, 3), (2, 3, 5), (3, 2, 4)]:
        full = monomial_candidate_set(f, g, 3)
        exps = [t.exponents for t in full.functions[:mu]]
        cs = candidate_set_from_exponents(exps, 3)
        L = 4
        rep = run_simulation(
            SimulationConfig(n=n, candidate_set=cs, length=L, v=mu, seed=1)
        )
        expected = L * d_one(n, cs.profile)
        assert rep.total_download == pytest.approx(expected, rel=1e-12)
        assert rep.rate_measured == pytest.approx(rep.rate_formula, rel=1e-12)
        for tau, charge in rep.per_round:
            assert charge == pytest.approx(
                L * round_download(tau, n, cs.profile), rel=1e-12
            )


@pytest.mark.parametrize(
    "n,exponents", [(256, [(1, 0), (1, 1)]), (4096, [(1,)])], ids=["256-2", "4096-1"]
)
def test_simulation_at_many_databases(n, exponents):
    # each database's answers, decode and ledger read its slice of the plan
    cs = candidate_set_from_exponents(exponents, 3)
    L = 2
    rep = run_simulation(
        SimulationConfig(n=n, candidate_set=cs, length=L, v=cs.mu, seed=5)
    )
    assert rep.privacy_ok and rep.recovery_ok
    assert rep.total_download == pytest.approx(L * d_one(n, cs.profile), rel=1e-12)


@pytest.mark.parametrize("mode", ["symbolic", "concrete"])
@pytest.mark.parametrize(
    "n,exponents,length",
    [
        (2, [(1, 0), (0, 1), (1, 1)], 8),
        (3, [(1, 0), (1, 1), (2, 1), (1, 2)], 7),
        (2, [(1, 0, 0), (1, 1, 0), (2, 1, 1), (1, 2, 0), (0, 1, 2), (2, 2, 2)], 5),
    ],
)
def test_ledger_adds_charges_exactly(monkeypatch, mode, n, exponents, length):
    plans = []

    def recorded(plan, *args, **kwargs):
        plans.append(plan)
        return answer_queries(plan, *args, **kwargs)

    monkeypatch.setattr(protocol, "answer_queries", recorded)
    cs = candidate_set_from_exponents(exponents, 3)
    rep = run_simulation(
        SimulationConfig(n=n, candidate_set=cs, length=length, v=2, mode=mode, seed=4)
    )
    epsilon = None if mode == "symbolic" else protocol.DEFAULT_EPSILON
    total, per_round = oracle_totals(plans[0], cs, length, epsilon)
    assert rep.total_download == total
    assert rep.per_round == per_round


@pytest.mark.parametrize("mode", ["symbolic", "concrete"])
def test_answers_of_a_database_read_its_own_sums_alone(mode):
    # database 2's subindices all move by one and its first later sum loses
    # a member: databases 1 and 3 still send the same answers and leads
    cs = candidate_set_from_exponents([(1, 0), (0, 1), (1, 1)], 3)
    plan = generate_query_plan(3, 3, 2, seed=1)
    store = MessageStore.generate(3, 2, beta=plan.beta, length=8, seed=1)
    codes = build_concrete_codes(cs, 8) if mode == "concrete" else None
    values = evaluate_candidates(store, cs)
    sums, at = dense(plan), plan.rows(2)
    sums[at] = np.where(sums[at], sums[at] % plan.beta + 1, 0)
    later = at.start + int(np.flatnonzero(plan.round[at] == 3)[0])
    sums[later, np.flatnonzero(sums[later])[0]] = 0
    altered = with_dense(plan, sums)
    answers, lead = answer_queries(plan, store, values, codes)
    changed, changed_lead = answer_queries(altered, store, values, codes)
    assert lead[at].tolist() != changed_lead[at].tolist()
    for j in (1, 3):
        rows = plan.rows(j)
        assert lead[rows].tolist() == changed_lead[rows].tolist()
        if codes is None:
            assert np.array_equal(answers[rows], changed[rows])
        else:
            assert answers[rows] == changed[rows]


def test_symbolic_sum_is_componentwise_field_add():
    cs = candidate_set_from_exponents([(1, 0), (0, 1)], 3)
    store = MessageStore.generate(3, 2, beta=4, length=3, seed=0)
    plan = generate_query_plan(2, 2, 1, seed=0)
    values = evaluate_candidates(store, cs)
    at_db1 = [r for r in plan_rows(plan) if r[0] == 1]
    i, two_sum = next((i, r) for i, r in enumerate(at_db1) if r[1] == 2)
    (w1, t1), (w2, t2) = two_sum[2]
    a = values[w1 - 1][plan.permutation[t1 - 1] - 1]
    b = values[w2 - 1][plan.permutation[t2 - 1] - 1]
    answers, _ = answer_queries(plan, store, values=values)
    assert np.array_equal(answers[i], (a + b) % 3)  # database 1 starts at row 0
    # the componentwise rule itself: (1,2,0) + (2,2,1) = (0,1,1) over F_3
    assert (np.array([1, 2, 0]) + np.array([2, 2, 1])) % 3 == pytest.approx([0, 1, 1])


def test_symbolic_two_sum_charge_is_max_entropy():
    cs = candidate_set_from_exponents([(1, 0), (1, 1)], 3)
    store = MessageStore.generate(3, 2, beta=4, length=16, seed=0)
    plan = generate_query_plan(2, 2, 1, seed=0)
    _, lead = answer_queries(plan, store, evaluate_candidates(store, cs))
    lead = lead[plan.rows(1)]
    assert_leads(plan, 1, lead)
    _, lead_costs = protocol.download_costs(cs.profile, 16)
    two_sum = [lead_costs[w] for w in lead[plan.round[plan.rows(1)] == 2]]
    assert len(two_sum) == 1
    assert two_sum[0] == pytest.approx(16 * 1.0, abs=1e-12)  # max(1, 0.9057)
    rep = run_simulation(SimulationConfig(n=2, candidate_set=cs, length=16, v=1, seed=0))
    assert rep.per_round == oracle_totals(plan, cs, 16)[1]
    assert rep.per_round[1] == (2, 2 * two_sum[0])


@pytest.mark.parametrize("epsilon", [None, 0.05])
def test_charges_equal_oracle_ledger_n3_mu3(epsilon):
    cs = candidate_set_from_exponents([(1, 0), (0, 1), (1, 1)], 3)
    store = MessageStore.generate(3, 2, beta=27, length=12, seed=2)
    codes = None if epsilon is None else build_concrete_codes(cs, 12, epsilon)
    plan = generate_query_plan(3, 3, 2, seed=2)
    values = evaluate_candidates(store, cs)
    _, lead = answer_queries(plan, store, values, codes=codes)
    for j in (1, 2, 3):
        assert_leads(plan, j, lead[plan.rows(j)])
    mode = "symbolic" if epsilon is None else "concrete"
    rep = run_simulation(SimulationConfig(
        n=3, candidate_set=cs, length=12, v=2, mode=mode, seed=2, epsilon=epsilon or 0.05
    ))
    joint = oracle_ledger(1, plan, cs, 12, epsilon)[0][1]
    assert rep.per_round[0] == (1, 3 * joint)
    assert (rep.total_download, rep.per_round) == oracle_totals(plan, cs, 12, epsilon)


def closed_form(n, codes):
    """n (joint + sum_{v<mu} len_v (n^(mu-v) - 1)) from the code lengths,
    len_v that of the sum code led by candidate v."""
    mu = len(codes.sum_codes) + 1
    later = sum(
        code.codeword_len * (n ** (mu - v) - 1)
        for v, code in enumerate(codes.sum_codes, 1)
    )
    return n * (codes.joint_code.codeword_len + later)


# (n, exponents, q, L, epsilon, decode failures expected) over joint
# alphabets A from 5 to 343, with one run whose atypical segments fail
CONCRETE_LEDGER_GRID = [
    (2, [(1, 0), (1, 1)], 3, 16, 0.05, False),  # A = 7
    (3, [(1, 0), (0, 1), (1, 1)], 3, 8, 0.3, False),  # A = 9, mu = 3
    (4, [(1,), (2,)], 5, 12, 0.0, False),  # A = 5
    (2, [(1, 0), (0, 1), (1, 1)], 7, 24, 0.05, False),  # A = 49
    (2, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 7, 8, 0.05, False),  # A = 343
    (2, [(1, 1, 1, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
     3, 32, 0.05, False),  # A = 81, mu = 5
    (2, [(2, 0), (0, 2), (1, 1), (2, 2)], 3, 64, 0.0, True),  # A = 5, mu = 4
]


@pytest.mark.parametrize("n,exponents,q,length,epsilon,fails", CONCRETE_LEDGER_GRID)
def test_concrete_ledger_equals_closed_form(
    monkeypatch, n, exponents, q, length, epsilon, fails
):
    answered = []

    def recorded(plan, *args, **kwargs):
        answers, lead = answer_queries(plan, *args, **kwargs)
        answered.append((plan, lead))
        return answers, lead

    monkeypatch.setattr(protocol, "answer_queries", recorded)
    cs = candidate_set_from_exponents(exponents, q)
    config = SimulationConfig(
        n=n, candidate_set=cs, length=length, v=2, mode="concrete", seed=0, epsilon=epsilon
    )
    rep = run_simulation(config)
    ledger = []
    [(plan, lead)] = answered
    for j in range(1, n + 1):
        assert_leads(plan, j, lead[plan.rows(j)])
        ledger += oracle_ledger(j, plan, cs, length, epsilon)
    codes = build_concrete_codes(cs, length, epsilon)
    assert rep.total_download == closed_form(n, codes) == sum(c for _, c in ledger)
    assert rep.per_round == oracle_totals(plan, cs, length, epsilon)[1]
    assert rep.per_round[0] == (1, n * codes.joint_code.codeword_len)
    assert rep.recovery_ok
    assert (rep.decode_failure_rate > 0) == fails


def test_simulation_checks_concrete_ledger_exactly(monkeypatch):
    cs = candidate_set_from_exponents([(1, 0), (0, 1), (1, 1)], 3)
    config = SimulationConfig(n=2, candidate_set=cs, length=16, v=1, mode="concrete")
    run_simulation(config)
    real = protocol.rates.scheme_download
    # a closed form one symbol away is a broken ledger
    monkeypatch.setattr(
        "privcomp.rates.scheme_download", lambda n, joint, leads: real(n, joint, leads) + 1
    )
    with pytest.raises(ProtocolError, match="closed form"):
        run_simulation(config)


def test_simulation_examples():
    triple = candidate_set_from_exponents([(1, 0), (0, 1), (1, 1)], 3)
    rep = run_simulation(SimulationConfig(n=2, candidate_set=triple, length=16, v=3, seed=1))
    assert rep.rate_measured == pytest.approx(0.603808, abs=1e-6)
    uniform = candidate_set_from_exponents([(1, 0), (0, 1)], 3)
    rep = run_simulation(SimulationConfig(n=2, candidate_set=uniform, length=8, v=1, seed=2))
    assert rep.rate_measured == pytest.approx(2 / 3, abs=1e-12)
    pair = candidate_set_from_exponents([(1, 0), (1, 1)], 3)
    rep = run_simulation(SimulationConfig(n=2, candidate_set=pair, length=8, v=2, seed=3))
    assert rep.rate_measured == pytest.approx(0.679284449, abs=1e-6)


# ----------------------------------------------------------- error handling


def test_answer_unknown_subindex():
    cs = candidate_set_from_exponents([(1, 0), (1, 1)], 3)
    store = MessageStore.generate(3, 2, beta=4, length=4, seed=0)
    plan = generate_query_plan(2, 2, 1, seed=0)
    bad_sums = dense(plan)
    rows = plan.rows(1)
    bad_sums[rows][plan.round[rows] == 2, 0] = 99
    bad = with_dense(plan, bad_sums)
    with pytest.raises(ProtocolError, match=r"database 1: subindex outside \[1, 4\]"):
        answer_queries(bad, store, evaluate_candidates(store, cs))


def test_answer_needs_one_round1_subindex():
    cs = candidate_set_from_exponents([(1, 0), (1, 1)], 3)
    store = MessageStore.generate(3, 2, beta=4, length=4, seed=0)
    plan = generate_query_plan(2, 2, 1, seed=0)
    values = evaluate_candidates(store, cs)
    first = np.flatnonzero(plan.round[plan.rows(1)] == 1)
    # database 1's singletons become pairs: no round-1 sum is left
    paired = dense(plan)
    paired[first] = paired[first].max(axis=1, keepdims=True)
    # one singleton moves to another subindex
    split = dense(plan)
    split[first[0]] = np.where(split[first[0]], split[first[0]] % plan.beta + 1, 0)
    for sums, message in [
        (paired, "database 1 has no round-1 sums"),
        (split, "database 1 has round-1 singletons at several subindices"),
    ]:
        with pytest.raises(ProtocolError, match=message):
            answer_queries(with_dense(plan, sums), store, values)
        # the same change at database 2 alone is named there
        moved = dense(plan)
        moved[plan.rows(2)] = sums[plan.rows(1)]
        with pytest.raises(ProtocolError, match=message.replace("1", "2", 1)):
            answer_queries(with_dense(plan, moved), store, values)
    # database 1 split and database 2 paired: the first database is named,
    # with its own failure
    both = dense(plan)
    both[plan.rows(1)], both[plan.rows(2)] = split[plan.rows(1)], paired[plan.rows(1)]
    with pytest.raises(ProtocolError, match="database 1 has round-1 singletons"):
        answer_queries(with_dense(plan, both), store, values)


def test_decode_missing_side_information():
    cs = candidate_set_from_exponents([(1, 0), (1, 1)], 3)
    store = MessageStore.generate(3, 2, beta=4, length=4, seed=0)
    plan = generate_query_plan(2, 2, 1, seed=0)
    values = evaluate_candidates(store, cs)
    answers = answer_queries(plan, store, values)[0]
    desired = dense(plan)[:, plan.v - 1] != 0
    broken_refs = np.where(desired & (plan.round == 2), -1, plan.side_ref)
    broken = plan._replace(side_ref=broken_refs)
    with pytest.raises(ProtocolError):
        decode(broken, answers, cs)


def test_decode_rejects_inconsistent_plans_and_answers():
    cs = candidate_set_from_exponents([(1, 0), (1, 1)], 3)
    store = MessageStore.generate(3, 2, beta=4, length=4, seed=0)
    plan = generate_query_plan(2, 2, 1, seed=0)
    values = evaluate_candidates(store, cs)
    answers = answer_queries(plan, store, values)[0]
    desired = np.flatnonzero(dense(plan)[:, plan.v - 1])
    later = desired[plan.round[desired] == 2]
    # side reference pointing at the desired sum itself
    refs = plan.side_ref.copy()
    refs[later[0]] = later[0]
    # one segment decoded twice: two desired sums share a subindex
    twice = dense(plan)
    twice[desired[1], 0] = twice[desired[0], 0]
    # one desired sum dropped: a segment is never decoded
    dropped = dense(plan)
    dropped[desired[0], plan.v - 1] = 0
    for bad, message in [
        (plan._replace(side_ref=refs), "does not match"),
        (with_dense(plan, twice), "decoded twice"),
        (with_dense(plan, dropped), "did not cover"),
    ]:
        with pytest.raises(ProtocolError, match=message):
            decode(bad, answers, cs)
    with pytest.raises(ProtocolError, match="every database"):
        decode(plan, answers[plan.rows(1)], cs)


@pytest.mark.parametrize("malformed", ["fewer", "more", "bit mu", "bit 31"])
def test_malformed_plans_fail_one_way(malformed):
    # members that do not fit the masks: one too few or too many, a candidate
    # bit at mu (moved there from candidate 1, so the count still fits), and
    # bit 31, which makes a mask negative
    cs = candidate_set_from_exponents([(1, 0), (1, 1)], 3)
    store = MessageStore.generate(3, 2, beta=4, length=4, seed=0)
    plan = generate_query_plan(2, 2, 1, seed=0)
    values = evaluate_candidates(store, cs)
    answers = answer_queries(plan, store, values)[0]
    sums = plan.sums.copy()
    assert sums[0] == 1  # candidate 1 alone
    if malformed == "bit mu":
        sums[0] ^= 1 | 1 << plan.mu
    if malformed == "bit 31":
        sums[-1] |= np.int32(-(2**31))
    members = {"fewer": plan.members[:-1], "more": np.append(plan.members, 1)}
    bad = plan._replace(sums=sums, members=members.get(malformed, plan.members))
    checks = [
        lambda: protocol.verify_privacy_structure(bad),
        lambda: answer_queries(bad, store, values),
        lambda: decode(bad, answers, cs),
    ]
    for check in checks:
        with pytest.raises(ProtocolError, match="members|candidate outside"):
            check()


def test_decode_rejects_answers_of_the_other_mode():
    cs = candidate_set_from_exponents([(1, 0), (1, 1)], 3)
    store = MessageStore.generate(3, 2, beta=4, length=16, seed=0)
    plan = generate_query_plan(2, 2, 1, seed=0)
    codes = build_concrete_codes(cs, 16)
    values = evaluate_candidates(store, cs)
    symbolic = answer_queries(plan, store, values)[0]
    concrete = answer_queries(plan, store, values, codes)[0]
    assert not decode(plan, concrete, cs, codes=codes).failed
    with pytest.raises(ProtocolError, match="need the codes"):
        decode(plan, concrete, cs)
    with pytest.raises(ProtocolError, match="cannot be decoded with concrete codes"):
        decode(plan, symbolic, cs, codes=codes)


def test_simulation_rejects_unknown_mode():
    cs = candidate_set_from_exponents([(1, 0), (1, 1)], 3)
    with pytest.raises(UsageError, match="unknown mode 'bogus'"):
        run_simulation(
            SimulationConfig(n=2, candidate_set=cs, length=4, v=1, mode="bogus")
        )


def test_simulation_checks_symbolic_ledger(monkeypatch):
    cs = candidate_set_from_exponents([(1, 0), (0, 1), (1, 1)], 3)
    config = SimulationConfig(n=2, candidate_set=cs, length=4, v=1)
    expected = 4 * d_one(2, cs.profile)
    assert run_simulation(config).total_download == pytest.approx(expected, abs=1e-12)
    real = protocol.rates.scheme_download
    # a closed form one part in 10^9 away is a broken ledger, in either mode:
    # both check their total against the closed form of their cost list
    monkeypatch.setattr(
        "privcomp.rates.scheme_download",
        lambda n, joint, leads: real(n, joint, leads) * (1 + 1e-9),
    )
    with pytest.raises(ProtocolError, match="closed form"):
        run_simulation(config)
    with pytest.raises(ProtocolError, match="closed form"):
        run_simulation(config._replace(mode="concrete"))


def test_simulation_field_size_fits_int16_sums():
    # a sum of two symbols must fit in int16 before it is reduced mod q
    cs = candidate_set_from_exponents([(1,), (2,)], 16381)  # largest such prime
    rep = run_simulation(SimulationConfig(n=2, candidate_set=cs, length=64, v=2))
    assert rep.recovery_ok
    for q in (16411, 32749, 32771):
        with pytest.raises(UsageError, match="int16"):
            MessageStore.generate(q, 1, beta=4, length=64)
        cs = candidate_set_from_exponents([(1,), (2,)], q)
        with pytest.raises(UsageError, match="int16"):
            run_simulation(SimulationConfig(n=2, candidate_set=cs, length=64, v=2))


def test_privacy_ok_is_certified_at_scale():
    # (5, 6): 19530 sums and (2, 11): 4094 sums, both beyond the 4000-sum
    # reach of the earlier relabeling search; the certificate covers them
    exps = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1),
            (1, 1, 1), (2, 1, 0), (2, 0, 1), (0, 2, 1), (1, 2, 0)]
    for n, mu in [(5, 6), (2, 11)]:
        cs = candidate_set_from_exponents(exps[:mu], 3)
        rep = run_simulation(
            SimulationConfig(n=n, candidate_set=cs, length=1, v=2, seed=1)
        )
        assert rep.recovery_ok
        assert rep.privacy_ok is True
        assert rep.as_dict()["privacy_ok"] is True
        assert "warnings" not in rep.as_dict()


def test_simulation_certifies_the_plan_before_any_data_exists(monkeypatch):
    stages = []

    def recorded(name, fn):
        def call(*args, **kwargs):
            stages.append(name)
            return fn(*args, **kwargs)

        return call

    for name in ("generate_query_plan", "verify_privacy_structure", "evaluate_candidates"):
        monkeypatch.setattr(protocol, name, recorded(name, getattr(protocol, name)))
    generate = recorded("store", protocol.MessageStore.generate)
    monkeypatch.setattr(protocol.MessageStore, "generate", staticmethod(generate))
    cs = candidate_set_from_exponents([(1, 0), (0, 1), (1, 1)], 3)
    rep = run_simulation(SimulationConfig(n=2, candidate_set=cs, length=4, v=2))
    assert rep.privacy_ok and rep.recovery_ok
    assert stages == [
        "generate_query_plan", "verify_privacy_structure", "store", "evaluate_candidates"
    ]


def test_simulation_resource_guard():
    cs = monomial_candidate_set(6, 2, 3)  # mu = 21
    with pytest.raises(ResourceLimitError):
        run_simulation(SimulationConfig(n=2, candidate_set=cs, length=4, v=1))


def test_simulation_v_out_of_range():
    cs = candidate_set_from_exponents([(1, 0), (1, 1)], 3)
    with pytest.raises(UsageError):
        run_simulation(SimulationConfig(n=2, candidate_set=cs, length=4, v=5))


# ------------------------------------------------------------- concrete mode


def test_concrete_roundtrip_small():
    for q, exponents in [
        (3, [(1, 0), (1, 1)]),
        (61, [(1, 0), (1, 1)]),  # a joint code over 3661 images
        (61, [(30,), (60,)]),  # a joint code over 3 images
        (67, [(1, 0), (1, 1)]),
    ]:
        cs = candidate_set_from_exponents(exponents, q)
        rep = run_simulation(
            SimulationConfig(n=2, candidate_set=cs, length=128, v=2, mode="concrete", seed=3)
        )
        assert rep.recovery_ok
        assert rep.decode_failure_rate <= 0.5
        assert rep.total_download > 0
        d = rep.as_dict()
        assert d["mode"] == "concrete"
        assert "decode_failure_rate" in d


@pytest.mark.parametrize("f,g,q", [(1, 2, 3), (2, 2, 3), (2, 1, 5), (3, 2, 2), (2, 3, 5)])
def test_concrete_codes_match_sorted_set_oracle(f, g, q):
    # the joint image in lexicographic order, and each input's index in it
    cs = monomial_candidate_set(f, g, q)
    tuples = [tuple(t.values[i] for t in cs.functions) for i in range(q**f)]
    image = sorted(set(tuples))
    codes = build_concrete_codes(cs, 8)
    assert codes.image_tuples.tolist() == [list(t) for t in image]
    assert codes.image_of_code.tolist() == [image.index(t) for t in tuples]


def test_concrete_three_rounds_widening():
    cs = candidate_set_from_exponents([(1, 0), (0, 1), (1, 1)], 3)
    rep = run_simulation(
        SimulationConfig(n=2, candidate_set=cs, length=128, v=1, mode="concrete", seed=4)
    )
    assert rep.recovery_ok


@pytest.mark.parametrize(
    "n,exponents", [(4, [(1, 0), (1, 1)]), (3, [(1, 0), (0, 1), (1, 1)])]
)
def test_decode_encodes_each_round1_side_once(monkeypatch, n, exponents):
    # each of the n (mu - 1) undesired singletons is extended at the n - 1
    # other databases, always under the code led by it and candidate v
    cs = candidate_set_from_exponents(exponents, 3)
    plan = generate_query_plan(n, cs.mu, 1, seed=0)
    store = MessageStore.generate(3, 2, beta=plan.beta, length=64, seed=0)
    codes = build_concrete_codes(cs, 64)
    values = evaluate_candidates(store, cs)
    answers = answer_queries(plan, store, values, codes)[0]
    encoded = []
    real = protocol.encode_fixed

    def recorded(seq, code):
        encoded.append(code)
        return real(seq, code)

    monkeypatch.setattr(protocol, "encode_fixed", recorded)
    result = decode(plan, answers, cs, codes=codes)
    assert result.failed == []
    assert len(encoded) == n * (cs.mu - 1)


def test_decode_counts_corrupt_later_codewords_as_failed():
    cs = candidate_set_from_exponents([(1, 0), (1, 1)], 3)
    plan = generate_query_plan(2, 2, 1, seed=0)
    # every segment is zero, so the decoder subtracts the zero sequence's
    # codeword from a corrupted one and decodes what was added to it
    store = MessageStore(q=3, messages=np.zeros((2, plan.beta, 16), dtype=np.int8))
    codes = build_concrete_codes(cs, 16)
    values = evaluate_candidates(store, cs)
    answers = answer_queries(plan, store, values, codes)[0]
    assert decode(plan, answers, cs, codes=codes).failed == []
    sums = dense(plan)
    i = int(np.flatnonzero((sums[:, plan.v - 1] != 0) & (plan.round == 2))[0])
    code = answers[i].code
    zero = encode_fixed((0,) * code.length, code)
    head, body = code.header_len, code.payload_len
    assert 3**head > math.comb(code.length + 2, 2)  # so a header can be out of range
    segment = int(plan.permutation[sums[i, 0] - 1])
    # a type rank of 3^head - 1, or a rank of 1 in the class of one constant sequence
    bad_header = (2,) * head + (0,) * body
    bad_rank = zero.symbols[:head] + (0,) * (body - 1) + (1,)
    for added in [bad_header, bad_rank]:
        with pytest.raises(CodecError):
            decode_fixed(Codeword(code=code, symbols=added), code)
        broken = list(answers)
        broken[i] = sum_codewords(Codeword(code, added), zero)
        assert decode(plan, broken, cs, codes=codes).failed == [segment]


def test_decode_counts_a_corrupt_round1_bundle_as_failed():
    cs = candidate_set_from_exponents([(1, 0), (1, 1)], 3)
    plan = generate_query_plan(2, 2, 1, seed=0)
    store = MessageStore(q=3, messages=np.zeros((2, plan.beta, 16), dtype=np.int8))
    codes = build_concrete_codes(cs, 16)
    values = evaluate_candidates(store, cs)
    answers = answer_queries(plan, store, values, codes)[0]
    code = codes.joint_code
    # 7 joint tuples, C(22, 6) = 74613 types in 11 header digits: digits of 2
    # are type rank 3^11 - 1 = 177146, past the last type
    assert code.alphabet_size == 7 and code.header_len == 11
    first = np.flatnonzero(plan.round[plan.rows(1)] == 1)  # database 1 starts at row 0
    bad = (2,) * code.header_len + (0,) * code.payload_len
    with pytest.raises(CodecError, match="corrupt header"):
        decode_fixed(Codeword(code=code, symbols=bad), code)
    answers[first[0]] = Codeword(code=code, symbols=bad)
    # the desired round-1 segment of database 1, and every 2-sum extending one
    # of its round-1 rows
    sums = dense(plan)
    desired = np.flatnonzero(sums[:, plan.v - 1])
    hit = np.isin(desired, first) | np.isin(plan.side_ref[desired], first)
    want = sorted(plan.permutation[sums[desired[hit], 0] - 1].tolist())
    assert want == [3, 4]
    assert decode(plan, answers, cs, codes=codes).failed == want


def test_concrete_joint_code_past_the_former_alphabet_cap(monkeypatch):
    # 81 joint tuples: round 1 was once sent raw, charged symbolically, and
    # the report carried a warning
    cs = candidate_set_from_exponents(
        [(1, 1, 1, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 3
    )
    codes = build_concrete_codes(cs, 32)
    assert codes.joint_code.alphabet_size == 81
    decoded = []
    real = protocol.decode_fixed

    def recorded(codeword, code):
        decoded.append(code)
        return real(codeword, code)

    monkeypatch.setattr(protocol, "decode_fixed", recorded)
    rep = run_simulation(
        SimulationConfig(n=2, candidate_set=cs, length=32, v=1, mode="concrete")
    )
    assert rep.recovery_ok and rep.decode_failure_rate == 0.0
    assert decoded.count(codes.joint_code) == 2  # one bundle per database
    assert "warnings" not in rep.as_dict()
    assert rep.per_round[0] == (1, 2 * codes.joint_code.codeword_len)
    assert rep.total_download == closed_form(2, codes)


def test_joint_alphabet_cap():
    # x, y, xy take q^2 joint values: 16129 at q = 127, under the cap, and
    # 17161 at q = 131, past it
    assert 127**2 <= JOINT_ALPHABET_CAP < 131**2
    under = candidate_set_from_exponents([(1, 0), (0, 1), (1, 1)], 127)
    assert build_concrete_codes(under, 4).joint_code.alphabet_size == 127**2
    over = candidate_set_from_exponents([(1, 0), (0, 1), (1, 1)], 131)
    with pytest.raises(ResourceLimitError, match="joint alphabet"):
        run_simulation(
            SimulationConfig(n=2, candidate_set=over, length=4, v=1, mode="concrete")
        )


def test_report_keys():
    cs = candidate_set_from_exponents([(1, 0), (1, 1)], 3)
    rep = run_simulation(SimulationConfig(n=2, candidate_set=cs, length=8, v=1, seed=0))
    d = rep.as_dict()
    assert list(d) == [
        "n", "q", "mu", "f", "L", "v", "mode", "seed", "D_total_qary",
        "rate_measured", "rate_formula", "recovery_ok", "privacy_ok", "per_round",
    ]
    assert d["per_round"][0] == {"tau": 1, "charge": pytest.approx(2 * 8 * cs.profile.joint)}


def test_download_cost_independent_of_desired_index():
    cs = candidate_set_from_exponents([(1, 0), (0, 1), (1, 1), (2, 1)], 3)
    totals = set()
    for v in range(1, cs.mu + 1):
        rep = run_simulation(
            SimulationConfig(n=3, candidate_set=cs, length=4, v=v, seed=9)
        )
        totals.add(round(rep.total_download, 9))
        assert rep.total_download == pytest.approx(
            sum(charge for _, charge in rep.per_round), rel=1e-12
        )
    assert len(totals) == 1  # cost must not leak the desired index


def test_concrete_atypical_segments_are_counted():
    # budget deliberately below the joint entropy: round-1 blobs go atypical,
    # the dependent segments must be counted as failures, never mis-decoded
    cs = candidate_set_from_exponents([(1, 0), (1, 1)], 3)
    rep = run_simulation(
        SimulationConfig(
            n=2, candidate_set=cs, length=200, v=2, mode="concrete",
            seed=0, epsilon=-0.06,
        )
    )
    assert 0.0 < rep.decode_failure_rate < 1.0
    assert rep.recovery_ok  # all non-failed segments decode exactly


def test_concrete_mode_binary_field():
    cs = candidate_set_from_exponents([(1, 0), (1, 1)], 2)
    rep = run_simulation(
        SimulationConfig(n=2, candidate_set=cs, length=256, v=2,
                         mode="concrete", seed=13)
    )
    assert rep.recovery_ok
    assert rep.decode_failure_rate < 0.5
    assert rep.rate_measured > 0

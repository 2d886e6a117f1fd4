"""Property tests (hypothesis) of the protocol's ledger against the per-sum
ledger oracle in test_protocol: each sum's lead, and totals and per-round
sums equal bit for bit, not approximately.  The symbolic answers are held
equal to sums of member segments added in int64, and the one-pass answers of
every database to each database's answers computed on its own."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from dense_plans import dense
from hypothesis import given, settings
from hypothesis import strategies as st
from privcomp import (
    MessageStore,
    SimulationConfig,
    answer_queries,
    candidate_set_from_exponents,
    d_one,
    generate_query_plan,
    protocol,
    run_simulation,
)
from privcomp.protocol import build_concrete_codes, download_costs
from privcomp.rates import scheme_download
from per_database import answer_database
from test_protocol import assert_leads, closed_form, oracle_ledger, oracle_totals


@st.composite
def simulations(draw):
    """(n, exponent vectors, q, v, L, seed, epsilon); epsilon None = symbolic."""
    concrete = draw(st.booleans())
    n = draw(st.integers(2, 4))
    beta_cap = 32 if concrete else 256
    mu = draw(st.integers(1, max(m for m in range(1, 6) if n**m <= beta_cap)))
    f = draw(st.integers(1, 3).filter(lambda f: 4**f - 1 >= mu))
    # nonzero exponents: every candidate is a nonconstant monomial
    nonzero = [e for e in itertools.product(range(4), repeat=f) if any(e)]
    exps = draw(st.lists(st.sampled_from(nonzero), min_size=mu, max_size=mu, unique=True))
    q = draw(st.sampled_from([2, 3, 5, 7]))
    v = draw(st.integers(1, mu))
    length = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**16))
    epsilon = draw(st.sampled_from([0.0, 0.05, 0.3])) if concrete else None
    return n, exps, q, v, length, seed, epsilon


def config_of(case):
    n, exps, q, v, length, seed, epsilon = case
    return SimulationConfig(
        n=n,
        candidate_set=candidate_set_from_exponents(exps, q),
        length=length,
        v=v,
        mode="symbolic" if epsilon is None else "concrete",
        seed=seed,
        epsilon=0.05 if epsilon is None else epsilon,
    )


@settings(deadline=None, max_examples=60)
@given(simulations())
def test_charges_equal_oracle_ledger(case):
    config = config_of(case)
    n, cs, length, epsilon = config.n, config.candidate_set, config.length, case[-1]
    recorded = []
    real = protocol.answer_queries

    def spy(plan, *args, **kwargs):
        answers, lead = real(plan, *args, **kwargs)
        recorded.append((plan, lead))
        return answers, lead

    with mock.patch.object(protocol, "answer_queries", spy):
        rep = run_simulation(config)
    # one call answers every database
    [(plan, lead)] = recorded
    assert plan.n == n and len(lead) == len(plan.sums)
    ledger = []  # every database's oracle entries, added up exactly
    for j in range(1, n + 1):
        assert_leads(plan, j, lead[plan.rows(j)])
        ledger += oracle_ledger(j, plan, cs, length, epsilon)
    assert rep.total_download == math.fsum(c for _, c in ledger)
    assert rep.per_round == [
        (tau, math.fsum(c for r, c in ledger if r == tau)) for tau in range(1, cs.mu + 1)
    ]
    if epsilon is None:
        expected = length * d_one(n, cs.profile)
        assert rep.total_download == pytest.approx(expected, rel=1e-12)
    else:
        codes = build_concrete_codes(cs, length, epsilon)
        assert rep.total_download == closed_form(n, codes)


@settings(deadline=None, max_examples=30)
@given(simulations())
def test_sorted_charges_do_not_depend_on_v(case):
    config = config_of(case)
    n, cs, length, epsilon = config.n, config.candidate_set, config.length, case[-1]
    store = MessageStore.generate(cs.q, cs.f, n**cs.mu, length, seed=config.seed)
    codes = None if epsilon is None else build_concrete_codes(cs, length, epsilon)
    values = protocol.evaluate_candidates(store, cs)
    views = set()
    for v in range(1, cs.mu + 1):
        plan = generate_query_plan(n, cs.mu, v, seed=config.seed)
        lead = answer_queries(plan, store, values, codes)[1]
        # a sum's (round, lead) fixes its charge
        views.add(tuple(
            tuple(sorted(zip(
                plan.round[plan.rows(j)].tolist(),
                lead[plan.rows(j)].tolist(),
            )))
            for j in range(1, n + 1)
        ))
    assert len(views) == 1


@st.composite
def ledger_cases(draw):
    """(n, mu, v, q, mode, L) with beta = n^mu <= 128."""
    n = draw(st.integers(2, 5))
    mu = draw(st.integers(1, max(m for m in range(1, 7) if n**m <= 128)))
    mode = draw(st.sampled_from(["symbolic", "concrete"]))
    length = draw(st.integers(1, 8 if mode == "concrete" else 24))
    return n, mu, draw(st.integers(1, mu)), draw(st.sampled_from([3, 7])), mode, length


@settings(deadline=None, max_examples=40)
@given(ledger_cases())
def test_ledger_totals_equal_oracle_sums(case):
    # the ledger prices (round, lead) counts, the oracle adds one charge per
    # sum, and both round once
    n, mu, v, q, mode, length = case
    exponents = [e for e in itertools.product(range(q), repeat=2) if any(e)][:mu]
    cs = candidate_set_from_exponents(exponents, q)
    rep = run_simulation(
        SimulationConfig(n=n, candidate_set=cs, length=length, v=v, mode=mode, seed=v)
    )
    epsilon = None if mode == "symbolic" else protocol.DEFAULT_EPSILON
    plan = generate_query_plan(n, mu, v)  # the oracle reads no permutation
    assert (rep.total_download, rep.per_round) == oracle_totals(plan, cs, length, epsilon)


@settings(deadline=None, max_examples=30)
@given(simulations().filter(lambda case: case[-1] is not None))
def test_concrete_download_splits_into_header_slack_and_rounding(case):
    config = config_of(case)
    n, cs, length, epsilon = config.n, config.candidate_set, config.length, case[-1]
    codes = build_concrete_codes(cs, length, epsilon)
    joint, leads = download_costs(cs.profile, length, codes)
    ideal_joint, ideal_leads = download_costs(cs.profile, length)
    concrete, ideal = [joint, *leads], [ideal_joint, *ideal_leads]
    # a code's length is its header, then floor(L (h + epsilon)) digits: the
    # symbolic cost L h, the slack L epsilon and the floor's rounding
    header = [c.header_len for c in (codes.joint_code, *codes.sum_codes)]
    entropies = [cs.profile.joint, *cs.profile.h[:-1]]
    assert [c - d for c, d in zip(concrete, header)] == [
        math.floor(length * (h + epsilon)) for h in entropies
    ]
    slack = [length * epsilon] * len(concrete)
    rounding = [c - d - x - s for c, d, x, s in zip(concrete, header, ideal, slack)]
    assert all(-1 < r <= 1e-12 * length for r in rounding)
    # scheme_download is linear in the costs, so the three parts add up to
    # the shortfall of the measured total against the symbolic one
    total = run_simulation(config).total_download
    parts = [scheme_download(n, t[0], t[1:]) for t in (header, slack, rounding)]
    assert total == scheme_download(n, joint, leads)
    assert abs(total - length * d_one(n, cs.profile) - math.fsum(parts)) <= 1e-12 * total


@st.composite
def answer_cases(draw):
    """(n, mu, v, q, L, seed) with beta = n^mu <= 2^10."""
    mu = draw(st.integers(1, 10))
    n = draw(st.integers(2, max(n for n in range(2, 65) if n**mu <= 2**10)))
    v = draw(st.integers(1, mu))
    q = draw(st.sampled_from([3, 61, 67, 16381]))
    return n, mu, v, q, draw(st.integers(1, 3)), draw(st.integers(0, 2**16))


# the module's row block, and blocks of 3 rows, so that one round's rows span
# several blocks
@pytest.mark.parametrize("block", [protocol.BLOCK, 3])
@settings(deadline=None, max_examples=60)
@given(answer_cases())
def test_symbolic_answers_equal_an_int64_oracle(block, case):
    # tau >= 3 members overflow int8 symbols at q = 61 and int16 at q = 16381
    # unless they are added in a wider type
    n, mu, v, q, length, seed = case
    f = 1 if q > mu + 1 else 3
    exponents = [e for e in itertools.product(range(q), repeat=f) if any(e)][:mu]
    cs = candidate_set_from_exponents(exponents, q)
    plan = generate_query_plan(n, mu, v, seed=seed)
    store = MessageStore.generate(q, f, plan.beta, length, seed=seed)
    values = protocol.evaluate_candidates(store, cs)
    wide = values.astype(np.int64)
    with mock.patch.object(protocol, "BLOCK", block):
        answers, _ = answer_queries(plan, store, values)
    for j in range(1, n + 1):
        # each row: its members' segments added in int64, mod q
        oracle = sum(
            np.where(t[:, None] > 0, x[plan.permutation[t - 1] - 1], 0)
            for x, t in zip(wide, dense(plan)[plan.rows(j)].T)
        ) % q
        assert answers.dtype == protocol.symbol_dtype(q)
        assert np.array_equal(answers[plan.rows(j)], oracle)


@st.composite
def one_pass_cases(draw):
    """(n, mu, v, q, mode, L, seed) with beta = n^mu <= 81."""
    n = draw(st.integers(2, 5))
    mu = draw(st.integers(1, max(m for m in range(1, 6) if n**m <= 81)))
    mode = draw(st.sampled_from(["symbolic", "concrete"]))
    length = draw(st.integers(1, 6 if mode == "concrete" else 16))
    q = draw(st.sampled_from([2, 3, 7, 61]))
    return n, mu, draw(st.integers(1, mu)), q, mode, length, draw(st.integers(0, 2**16))


@settings(deadline=None, max_examples=50)
@given(one_pass_cases())
def test_one_pass_answers_equal_the_per_database_reference(case):
    n, mu, v, q, mode, length, seed = case
    exponents = [e for e in itertools.product(range(q), repeat=3) if any(e)][:mu]
    cs = candidate_set_from_exponents(exponents, q)
    plan = generate_query_plan(n, mu, v, seed=seed)
    store = MessageStore.generate(q, 3, plan.beta, length, seed=seed)
    codes = build_concrete_codes(cs, length) if mode == "concrete" else None
    values = protocol.evaluate_candidates(store, cs)
    answers, lead = answer_queries(plan, store, values, codes)
    assert len(answers) == len(lead) == len(plan.sums)
    for j in range(1, n + 1):
        expected, expected_lead = answer_database(j, plan, store, values, codes)
        assert lead[plan.rows(j)].tolist() == expected_lead.tolist()
        if codes is None:
            assert answers.dtype == expected.dtype
            assert np.array_equal(answers[plan.rows(j)], expected)
        else:
            assert answers[plan.rows(j)] == expected

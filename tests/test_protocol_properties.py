"""Property tests (hypothesis) of the protocol's charge arrays against the
per-sum ledger oracle in test_protocol: charges, totals and per-round sums
must be equal bit for bit, not approximately.  The symbolic answers are held
equal to sums of member segments added in int64."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
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
from test_protocol import closed_form, oracle_ledger


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

    def spy(j, plan, *args, **kwargs):
        answers, charges = real(j, plan, *args, **kwargs)
        recorded.append((j, plan, charges))
        return answers, charges

    with mock.patch.object(protocol, "answer_queries", spy):
        rep = run_simulation(config)
    assert [j for j, _, _ in recorded] == list(range(1, n + 1))
    ledger = []  # every database's oracle entries, added up exactly
    for j, plan, charges in recorded:
        oracle = oracle_ledger(j, plan, cs, length, epsilon)
        first = plan.round[plan.rows(j)] == 1
        assert charges.dtype == float and len(charges) == len(first)
        assert charges[first].tolist() == [oracle[0][1]] + [0.0] * (first.sum() - 1)
        assert charges[~first].tolist() == [c for _, c in oracle[1:]]
        ledger += oracle
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
        views.add(tuple(
            tuple(sorted(answer_queries(j, plan, store, cs, values, codes)[1].tolist()))
            for j in range(1, n + 1)
        ))
    assert len(views) == 1


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
    for j in range(1, n + 1):
        with mock.patch.object(protocol, "BLOCK", block):
            answers, _ = answer_queries(j, plan, store, cs, values)
        # each row: its members' segments added in int64, mod q
        oracle = sum(
            np.where(t[:, None] > 0, x[plan.permutation[t - 1] - 1], 0)
            for x, t in zip(wide, plan.sums[plan.rows(j)].T)
        ) % q
        assert answers.dtype == protocol.symbol_dtype(q)
        assert np.array_equal(answers, oracle)

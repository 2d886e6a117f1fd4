"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np

from privcomp import (
    FixedCode,
    FunctionTable,
    SimulationConfig,
    TypeVector,
    achievable_rate,
    build_monomial,
    candidate_set_from_exponents,
    d_one,
    d_opt,
    encode_fixed,
    decode_fixed,
    generate_query_plan,
    monomial_candidate_set,
    order_by_entropy,
    outer_bound,
    rank_in_type,
    rate_lower_bound,
    round_download,
    run_simulation,
    type_of,
    unrank_in_type,
    verify_privacy_structure,
)
from privcomp.cli import figure_rows, load_reference_figure
from test_rates import outer_messages_oracle

PRODUCT_PMF = (5 / 9, 2 / 9, 2 / 9)  # pmf of w1*w2 over F_3


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_figure_reproduction():
    t0 = time.perf_counter()
    rows = figure_rows(q=3, ns=[3, 5], gs=[2, 3], f_max=7)
    reference = load_reference_figure()
    worst = 0.0
    checked = 0
    for r in rows:
        ref_ach, ref_conv = reference[(r["n"], r["g"], r["f"])]
        worst = max(worst, abs(r["achievable"] - ref_ach), abs(r["converse"] - ref_conv))
        checked += 2
    elapsed = time.perf_counter() - t0
    ok = checked == 56 and worst <= 1e-9 and elapsed < 10.0
    _report(
        1,
        "figure reproduction",
        ok,
        f"{checked} reference values, worst deviation {worst:.3e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------- criterion 2


def _affine_tables(q: int, f: int) -> set:
    inputs = list(itertools.product(range(q), repeat=f))
    tables = set()
    for coeffs in itertools.product(range(q), repeat=f + 1):
        a0, rest = coeffs[0], coeffs[1:]
        tables.add(
            tuple((a0 + sum(a * w for a, w in zip(rest, inp))) % q for inp in inputs)
        )
    return tables


def _random_nonaffine_table(rng, q: int, f: int, affine: set) -> FunctionTable:
    while True:
        values = tuple(int(x) for x in rng.integers(0, q, size=q**f))
        if values not in affine:
            return FunctionTable(q=q, f=f, values=values)


def test_criterion_2_capacity_identity():
    rng = np.random.default_rng(20240)
    affine_cache = {}
    worst = 0.0
    runs = 0
    while runs < 50:
        q = int(rng.choice([2, 3, 5]))
        f = int(rng.integers(1, 4))
        if q == 2 and f == 1:
            continue  # every function of one bit is affine
        n = int(rng.integers(2, 6))
        if (q, f) not in affine_cache:
            affine_cache[(q, f)] = _affine_tables(q, f)
        messages = [
            build_monomial(tuple(1 if i == j else 0 for i in range(f)), q)
            for j in range(f)
        ]
        extra = _random_nonaffine_table(rng, q, f, affine_cache[(q, f)])
        cs = order_by_entropy(messages + [extra])
        assert cs.mu == f + 1
        ach = achievable_rate(n, cs.profile)
        outer = outer_bound(n, cs.profile)
        corollary = outer_messages_oracle(n, f, cs.profile.h_min)
        worst = max(worst, abs(ach - outer), abs(ach - corollary))
        runs += 1
    ok = worst <= 1e-12
    _report(
        2,
        "capacity identity (messages + one nonlinear function)",
        ok,
        f"{runs} randomized instances, worst deviation among achievable, "
        f"outer and h_min * C_PIR = {worst:.3e}",
    )


# ---------------------------------------------------------------- criterion 3


def _mu_at_most_4_sets():
    """Candidate sets with mu <= 4 drawn from nonparallel monomial pools."""
    sets = []
    for f, g, cut in [(2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 3, 4), (3, 2, 4)]:
        pool = monomial_candidate_set(f, g, 3)
        exps = [t.exponents for t in pool.functions[:cut]]
        sets.append(candidate_set_from_exponents(exps, 3))
    # non-prefix draws from the same pools
    for exps in [[(1, 0), (1, 1)], [(0, 1), (1, 1), (2, 1)], [(1, 0), (0, 1), (2, 1), (1, 1)]]:
        sets.append(candidate_set_from_exponents(exps, 3))
    return sets


def test_criterion_3_ledger_equals_formula():
    worst_ledger = 0.0
    worst_rate = 0.0
    sims = 0
    L = 4
    for cs in _mu_at_most_4_sets():
        assert cs.mu <= 4
        for n in (2, 3):
            expected_total = L * d_one(n, cs.profile)
            for v in {1, cs.mu}:
                rep = run_simulation(
                    SimulationConfig(
                        n=n, candidate_set=cs, length=L, v=v, seed=sims,
                    )
                )
                worst_ledger = max(
                    worst_ledger,
                    abs(rep.total_download - expected_total) / expected_total,
                )
                worst_rate = max(
                    worst_rate,
                    abs(rep.rate_measured - rep.rate_formula) / rep.rate_formula,
                )
                for tau, charge in rep.per_round:
                    ref = L * round_download(tau, n, cs.profile)
                    if ref:
                        worst_ledger = max(worst_ledger, abs(charge - ref) / ref)
                sims += 1
    ok = worst_ledger <= 1e-12 and worst_rate <= 1e-12
    _report(
        3,
        "ledger equals formula (symbolic downloads)",
        ok,
        f"{sims} simulations, worst ledger rel.err {worst_ledger:.3e}, "
        f"worst rate rel.err {worst_rate:.3e}",
    )


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_recovery_and_privacy():
    configs = [
        (2, [(1, 0), (0, 1), (1, 1)]),
        (3, [(1, 0), (0, 1), (1, 1)]),
        (2, [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]),
        (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]),
        (2, [(1, 1)]),
        (2, [(1, 0), (0, 1), (1, 1), (2, 1)]),
    ]
    runs = 0
    failures = 0
    seed = 0
    while runs < 200:
        for n, exps in configs:
            cs = candidate_set_from_exponents(exps, 3)
            for v in range(1, cs.mu + 1):
                rep = run_simulation(
                    SimulationConfig(n=n, candidate_set=cs, length=4, v=v, seed=seed)
                )
                if not (rep.recovery_ok and rep.privacy_ok):
                    failures += 1
                runs += 1
        seed += 1
    # negative control: a plan with one extra desired singleton must be caught
    plan = generate_query_plan(2, 2, 1, seed=0)
    extra = np.zeros((1, plan.mu), dtype=plan.sums.dtype)
    extra[0, 0] = 3
    tampered = replace(
        plan,
        sums=np.vstack([plan.sums, extra]),
        db=np.append(plan.db, 1),
        round=np.append(plan.round, 1),
        desired=np.append(plan.desired, True),
        side_ref=np.append(plan.side_ref, -1),
    )
    control = verify_privacy_structure(tampered)
    ok = failures == 0 and runs >= 200 and not control.ok
    _report(
        4,
        "recovery and privacy structure",
        ok,
        f"{runs} seeded runs, {failures} failures; "
        f"negative control rejected: {not control.ok}",
    )


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_bound_ordering():
    rng = np.random.default_rng(555)
    worst_gap = 0.0
    checked = 0
    while checked < 500:
        q = int(rng.choice([2, 3, 5]))
        f = int(rng.integers(1, 4))
        mu = int(rng.integers(1, 9))
        tables = [
            FunctionTable(
                q=q, f=f, values=tuple(int(x) for x in rng.integers(0, q, size=q**f))
            )
            for _ in range(mu)
        ]
        if not any(len(set(t.values)) > 1 for t in tables):
            continue
        cs = order_by_entropy(tables)
        n = int(rng.integers(2, 6))
        lower = rate_lower_bound(n, cs.mu, cs.profile.h_min, cs.profile.h_max)
        ach = achievable_rate(n, cs.profile)
        outer = outer_bound(n, cs.profile)
        dopt = d_opt(n, cs.profile)
        done = d_one(n, cs.profile)
        worst_gap = max(worst_gap, lower - ach, ach - outer, dopt - done)
        checked += 1
    quad = candidate_set_from_exponents([(1, 0), (0, 1), (1, 1), (2, 1)], 3)
    d1 = d_one(2, quad.profile)
    d0 = d_opt(2, quad.profile)
    strict = abs(d1 - 25.8114252) < 1e-6 and abs(d0 - 24.0) < 1e-9 and d1 > d0
    ok = worst_gap <= 1e-12 and strict
    _report(
        5,
        "bound ordering",
        ok,
        f"{checked} randomized sets, worst ordering violation {worst_gap:.3e}; "
        f"strict d_one {d1:.7f} > d_opt {d0:.1f}: {strict}",
    )


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_concrete_mode():
    t0 = time.perf_counter()
    L, eps = 1024, 0.05
    h = -sum(p * math.log(p, 3) for p in PRODUCT_PMF)
    code = FixedCode(q=3, alphabet_size=3, length=L, budget=h + eps)
    length_bound = L * (h + eps) + 3 * math.ceil(math.log(L + 1, 3))
    length_ok = code.codeword_len <= length_bound

    rng = np.random.default_rng(60)
    segments = rng.choice(3, size=(10_000, L), p=PRODUCT_PMF)
    counts = np.stack([(segments == s).sum(axis=1) for s in range(3)], axis=1)
    atypical = 0
    for row in counts:
        tv = TypeVector(counts=tuple(int(c) for c in row))
        if tv.class_size() > code.payload_capacity:
            atypical += 1
    atypical_rate = atypical / len(counts)
    # the fast per-type test above must agree with the encoder's own decision
    spot_ok = True
    for row in segments[:50]:
        seq = tuple(int(x) for x in row)
        cw = encode_fixed(seq, code)
        expected_atypical = type_of(seq, 3).class_size() > code.payload_capacity
        if cw.atypical != expected_atypical:
            spot_ok = False
        if not cw.atypical and decode_fixed(cw, code) != seq:
            spot_ok = False

    cs = candidate_set_from_exponents([(1, 0), (1, 1)], 3)
    rep = run_simulation(
        SimulationConfig(
            n=2, candidate_set=cs, length=512, v=2, mode="concrete", seed=6,
        )
    )
    rate_gap = abs(rep.rate_measured - rep.rate_formula) / rep.rate_formula
    elapsed = time.perf_counter() - t0
    ok = (
        length_ok
        and atypical_rate < 0.05
        and spot_ok
        and rate_gap <= 0.10
        and rep.decode_failure_rate < 0.10
        and rep.recovery_ok
        and elapsed < 120.0
    )
    _report(
        6,
        "concrete-mode coding",
        ok,
        f"codeword {code.codeword_len} <= {length_bound:.1f}; atypical rate "
        f"{atypical_rate:.4f}; end-to-end rate gap {rate_gap:.3f}, decode "
        f"failures {rep.decode_failure_rate:.3f}; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_enumerative_coder():
    per_type_ranks = {}
    for seq in itertools.product(range(3), repeat=8):
        tv = type_of(seq, 3)
        r = rank_in_type(seq, 3)
        assert unrank_in_type(r, tv) == seq
        per_type_ranks.setdefault(tv.counts, []).append(r)
    bijective = all(
        sorted(ranks) == list(range(len(ranks)))
        for ranks in per_type_ranks.values()
    )
    rng = np.random.default_rng(70)
    sampled_ok = True
    for _ in range(1000):
        seq = tuple(int(x) for x in rng.integers(0, 27, size=256))
        tv = type_of(seq, 27)
        if unrank_in_type(rank_in_type(seq, 27), tv) != seq:
            sampled_ok = False
    ok = bijective and sampled_ok
    _report(
        7,
        "enumerative coder correctness",
        ok,
        f"3^8 exhaustive round-trip, per-type ranks bijective: {bijective}; "
        f"1000 sampled round-trips at alphabet 27, length 256: {sampled_ok}",
    )

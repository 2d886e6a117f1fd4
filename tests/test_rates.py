import ast
import itertools
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from privcomp import (
    DegenerateInstanceError,
    FunctionTable,
    ResourceLimitError,
    UsageError,
    achievable_rate,
    asymptotic_rate,
    baseline_virtual_pir_rate,
    build_monomial,
    candidate_set_from_exponents,
    d_one,
    d_opt,
    monomial_candidate_set,
    order_by_entropy,
    outer_bound,
    pir_capacity,
    rate_lower_bound,
    rate_report,
    round_download,
)
from privcomp.candidates import EntropyProfile
from privcomp.rates import CAPACITY_TOL, scheme_download

H_PRODUCT = 0.9057125980138373  # entropy of w1*w2 over F_3


def profile_oracle(tables):
    """Oracle profile: entropies and prefix joints by direct counting."""
    q, f = tables[0].q, tables[0].f
    total = q**f

    def entropy(counter):
        return -sum(
            (c / total) * math.log(c / total) for c in counter.values()
        ) / math.log(q)

    hs = sorted(
        (entropy(Counter(t.values)) for t in tables), reverse=True
    )
    ordered = sorted(tables, key=lambda t: -entropy(Counter(t.values)))
    joints = []
    for v in range(1, len(tables) + 1):
        c = Counter(
            tuple(t.values[i] for t in ordered[:v]) for i in range(total)
        )
        joints.append(entropy(c))
    return EntropyProfile(h=tuple(hs), prefix_joint=tuple(joints))


def pir_capacity_oracle(n, f):
    return (1 - 1 / n) / (1 - (1 / n) ** f)


def outer_messages_oracle(n, f, h_min):
    """Corollary outer bound when the candidates hold all f messages."""
    return h_min * pir_capacity_oracle(n, f)


def achievable_messages_oracle(n, f, profile):
    """Corollary achievable rate when the first f candidates are the messages.

    Two closed-form branches: mu <= f+1 gives h_min * C_PIR; otherwise the
    denominator picks up the entropies of candidates f+1 .. mu-1.
    """
    mu = profile.mu
    assert mu >= f and all(abs(h - 1.0) <= 1e-9 for h in profile.h[:f])
    if mu <= f + 1:
        return outer_messages_oracle(n, f, profile.h_min)
    s = 0.0
    for v in range(mu - 1, f, -1):  # small terms first
        s += profile.h[v - 1] * (n ** (1 - v) - n ** (1 - mu))
    denom = 1 - (1 / n) ** f + (1 - 1 / n) * s
    return profile.h_min * (1 - 1 / n) / denom


def pair_set():
    return candidate_set_from_exponents([(1, 0), (1, 1)], 3)


def triple_set():
    return candidate_set_from_exponents([(1, 0), (0, 1), (1, 1)], 3)


def quad_set():
    return candidate_set_from_exponents([(1, 0), (0, 1), (1, 1), (2, 1)], 3)


# -------------------------------------------------------------- pir capacity


def test_pir_capacity_values():
    assert pir_capacity(3, 2) == pytest.approx(0.75, abs=1e-15)
    assert pir_capacity(2, 1) == pytest.approx(1.0, abs=1e-15)
    assert pir_capacity(5, 3) == pytest.approx(100 / 124, abs=1e-12)


def test_pir_capacity_rejects_single_database():
    with pytest.raises(UsageError):
        pir_capacity(1, 2)


# --------------------------------------------------------------- outer bound


def test_outer_bound_two_correlated_functions():
    cs = pair_set()
    # oracle: evaluate the bound exactly as written, from oracle joints
    p = profile_oracle(list(cs.functions))
    denom = sum(
         2 ** (2 - v + 1) * (p.prefix_joint[v - 1] - (p.prefix_joint[v - 2] if v > 1 else 0))
        for v in (1, 2)
    )
    expected = 2**2 * p.h_min / denom
    assert outer_bound(2, cs.profile) == pytest.approx(expected, abs=1e-12)
    assert outer_bound(2, cs.profile) == pytest.approx(0.679284448510378, abs=1e-9)


def test_outer_bound_reduces_to_pir_capacity():
    cs = candidate_set_from_exponents([(1, 0), (0, 1)], 3)
    assert outer_bound(3, cs.profile) == pytest.approx(0.75, abs=1e-12)


def test_outer_bound_figure_point():
    cs = monomial_candidate_set(3, 2, 3)
    assert outer_bound(3, cs.profile) == pytest.approx(0.627031798624964, abs=1e-9)


def test_outer_bound_messages_values():
    # the general outer bound on sets holding all f messages is h_min * C_PIR
    two = monomial_candidate_set(2, 2, 3).profile
    assert two.h_min == pytest.approx(H_PRODUCT, abs=1e-15)
    assert outer_bound(3, two) == pytest.approx(0.679284448510378, abs=1e-9)
    assert outer_bound(3, two) == pytest.approx(
        outer_messages_oracle(3, 2, two.h_min), abs=1e-15
    )
    for n, f in [(2, 3), (4, 2)]:
        messages = monomial_candidate_set(f, 1, 3).profile
        assert outer_bound(n, messages) == pytest.approx(
            pir_capacity(n, f), abs=1e-15
        )
    g3 = monomial_candidate_set(7, 3, 3).profile
    assert outer_bound(3, g3) == pytest.approx(0.493618066481006, abs=1e-9)
    assert outer_bound(3, g3) == pytest.approx(
        outer_messages_oracle(3, 7, g3.h_min), abs=1e-14
    )


def test_rates_finite_beyond_double_range():
    # ten messages and 375 functions of them: 7^385 > 1e308, so
    # n^mu * h_min / d_opt cannot be formed in doubles
    profile = EntropyProfile(
        h=(1.0,) * 10 + (0.5,) * 375,
        prefix_joint=tuple(range(1, 11)) + (10.0,) * 375,
    )
    assert 7**profile.mu > 10**308
    assert outer_bound(7, profile) == pytest.approx(
        outer_messages_oracle(7, 10, profile.h_min), rel=1e-12
    )
    assert achievable_rate(7, profile) == pytest.approx(
        achievable_messages_oracle(7, 10, profile), rel=1e-12
    )


# ----------------------------------------------------------- achievable rate


def test_achievable_uniform_pair():
    cs = candidate_set_from_exponents([(1, 0), (0, 1)], 3)
    assert achievable_rate(2, cs.profile) == pytest.approx(2 / 3, abs=1e-12)


def test_achievable_matches_outer_for_two_functions():
    cs = pair_set()
    ach = achievable_rate(2, cs.profile)
    assert ach == pytest.approx(0.679284448510378, abs=1e-9)
    assert ach == pytest.approx(outer_bound(2, cs.profile), abs=1e-12)


def test_achievable_figure_point_joint_pinned():
    cs = monomial_candidate_set(3, 2, 3)
    profile = EntropyProfile(h=cs.profile.h, prefix_joint=cs.profile.prefix_joint)
    assert profile.joint == pytest.approx(3.0, abs=1e-9)
    assert achievable_rate(3, profile) == pytest.approx(0.611259007076291, abs=1e-9)


def test_achievable_messages_branches():
    # the general rate on sets holding all f messages, against both branches
    # of the corollary; mu = f + 1 collapses to h_min * C_PIR
    cs = triple_set()
    assert achievable_rate(2, cs.profile) == pytest.approx(
        cs.profile.h_min * pir_capacity(2, 2), abs=1e-15
    )
    five = monomial_candidate_set(2, 3, 3)
    assert achievable_rate(5, five.profile) == pytest.approx(
        0.730074298724149, abs=1e-9
    )
    thirteen = monomial_candidate_set(3, 3, 3)
    assert thirteen.mu == 13
    assert achievable_rate(3, thirteen.profile) == pytest.approx(
        0.495127314659448, abs=1e-9
    )
    for n, f, profile in [(2, 2, cs.profile), (5, 2, five.profile),
                          (3, 3, thirteen.profile)]:
        assert achievable_rate(n, profile) == pytest.approx(
            achievable_messages_oracle(n, f, profile), abs=1e-15
        )


def test_achievable_messages_equals_general_rate_with_joint_pinned():
    # the joint entropy of a set holding all f messages is f
    for f, g, n in [(2, 2, 2), (2, 3, 3), (3, 2, 4), (3, 3, 2)]:
        cs = monomial_candidate_set(f, g, 3)
        pinned = EntropyProfile(
            h=cs.profile.h,
            prefix_joint=cs.profile.prefix_joint[:-1] + (float(f),),
        )
        assert achievable_messages_oracle(n, f, cs.profile) == pytest.approx(
            achievable_rate(n, pinned), abs=1e-12
        )
        assert achievable_rate(n, cs.profile) == pytest.approx(
            achievable_rate(n, pinned), abs=1e-12
        )


def test_mu_one_degenerate_rate():
    cs = candidate_set_from_exponents([(1, 1)], 3)
    assert achievable_rate(2, cs.profile) == pytest.approx(1.0, abs=1e-12)
    assert outer_bound(2, cs.profile) == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------- lower bound and baseline


def test_rate_lower_bound_values():
    assert rate_lower_bound(3, 3, 1.0, 1.0) == pytest.approx(
        (1 - 1 / 3) / (1 - (1 / 3) ** 3), abs=1e-12
    )
    val = rate_lower_bound(3, 3, H_PRODUCT, 1.0)
    assert val == pytest.approx(0.627031798624964, abs=1e-9)
    assert val <= 0.679284448510378
    assert rate_lower_bound(4, 1, 0.5, 0.8) == pytest.approx(0.5 / 0.8, abs=1e-12)
    with pytest.raises(DegenerateInstanceError):
        rate_lower_bound(2, 2, 0.0, 0.0)


def test_baseline_virtual_pir():
    val = baseline_virtual_pir_rate(3, 3, H_PRODUCT)
    assert val == pytest.approx(0.627031798624964, abs=1e-9)
    # strictly below the redundancy-eliminating rate for the same instance
    assert val < 0.679284448510378
    assert baseline_virtual_pir_rate(3, 3, 1.0) == pytest.approx(
        rate_lower_bound(3, 3, 1.0, 1.0), abs=1e-15
    )
    assert baseline_virtual_pir_rate(2, 1, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_asymptotic_rate():
    assert asymptotic_rate(3, H_PRODUCT) == pytest.approx(0.603808, abs=1e-5)
    assert asymptotic_rate(2, 1.0) == pytest.approx(0.5, abs=1e-15)
    h_min_g3 = monomial_candidate_set(3, 3, 3).profile.h_min
    assert asymptotic_rate(3, h_min_g3) == pytest.approx(
        0.493413633295413, abs=3e-4
    )


# ------------------------------------------------------------ download costs


def test_d_opt_examples():
    assert d_opt(2, triple_set().profile) == pytest.approx(12.0, abs=1e-9)
    two = candidate_set_from_exponents([(1, 0), (0, 1)], 3)
    assert d_opt(2, two.profile) == pytest.approx(6.0, abs=1e-12)
    assert d_opt(2, quad_set().profile) == pytest.approx(24.0, abs=1e-9)


def test_d_one_examples():
    assert d_one(2, triple_set().profile) == pytest.approx(12.0, abs=1e-9)
    two = candidate_set_from_exponents([(1, 0), (0, 1)], 3)
    assert d_one(2, two.profile) == pytest.approx(6.0, abs=1e-12)
    d1 = d_one(2, quad_set().profile)
    assert d1 == pytest.approx(25.8114252, abs=1e-6)
    assert d1 > d_opt(2, quad_set().profile)


def test_round_download():
    cs = triple_set()
    assert round_download(1, 2, cs.profile) == pytest.approx(
        2 * cs.profile.joint, abs=1e-12
    )
    assert round_download(2, 2, cs.profile) == pytest.approx(6.0, abs=1e-9)
    uniform = candidate_set_from_exponents([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    mu = uniform.mu
    assert round_download(mu, 3, uniform.profile) == pytest.approx(
        3 * 2 ** (mu - 1), abs=1e-9
    )
    total = sum(round_download(t, 2, cs.profile) for t in range(1, cs.mu + 1))
    assert total == pytest.approx(d_one(2, cs.profile), abs=1e-12)
    with pytest.raises(UsageError):
        round_download(4, 2, cs.profile)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_d_one_is_the_sum_of_its_rounds(q):
    for f in (1, 2, 3):
        for g in (1, 2, 3):
            profile = monomial_candidate_set(f, g, q).profile
            for n in (2, 3, 5, 10):
                rounds = sum(
                    round_download(t, n, profile) for t in range(1, profile.mu + 1)
                )
                assert d_one(n, profile) == pytest.approx(rounds, rel=1e-12, abs=0)


def test_d_one_past_the_double_range_is_inf():
    # mu = 1100 at n = 2: 2^1099 and C(1099, 549) are both past 1e308
    mu = 1100
    h = tuple(1.0 - v / (2 * mu) for v in range(mu))
    joint = tuple(min(sum(h[: v + 1]), 3.0) for v in range(mu))
    profile = EntropyProfile(h=h, prefix_joint=joint)
    assert d_one(2, profile) == math.inf
    assert round_download(mu // 2, 2, profile) == math.inf
    # one candidate fewer than the range: both finite, and equal
    small = EntropyProfile(h=h[:200], prefix_joint=profile.prefix_joint[:200])
    rounds = sum(round_download(t, 3, small) for t in range(1, 201))
    assert math.isfinite(rounds)
    assert d_one(3, small) == pytest.approx(rounds, rel=1e-12, abs=0)


# the converse's closed forms as loops of their own, written before one
# Horner rule served every closed form: the floats must not move
def d_opt_loop(n, profile):
    acc = prev = 0.0
    for jv in profile.prefix_joint:
        acc, prev = acc * n + (jv - prev), jv
    return n * acc


def outer_bound_loop(n, profile):
    x, joint = 1.0 / n, profile.prefix_joint
    acc = 0.0
    for v in range(len(joint) - 1, -1, -1):
        acc = acc * x + (joint[v] - (joint[v - 1] if v else 0.0))
    return profile.h_min / acc


def test_converse_equals_its_loops_on_the_figure_grid():
    from privcomp import ResourceLimitError

    profiles = [  # past the double range at n = 7
        EntropyProfile(h=(1.0,) * 10 + (0.5,) * 375,
                       prefix_joint=tuple(range(1, 11)) + (10.0,) * 375)
    ]
    for q in (2, 3, 5, 7):
        for g in (1, 2, 3, 4):
            for f in range(1, 8):
                try:
                    profiles.append(monomial_candidate_set(f, g, q).profile)
                except ResourceLimitError:
                    break
    profiles.append(random_candidate_set(np.random.default_rng(5)).profile)
    for profile in profiles:
        for n in (2, 3, 4, 5, 7):
            assert d_opt(n, profile) == d_opt_loop(n, profile)
            assert outer_bound(n, profile) == outer_bound_loop(n, profile)
    assert d_opt(7, profiles[0]) == math.inf


def test_scheme_download_of_integer_costs_is_exact():
    # n (joint + sum_v c_v (n^(mu-v) - 1)) in integers, past the double
    # range too
    rng = np.random.default_rng(11)
    for n in (2, 3, 7, 10**6):
        for mu in (1, 2, 5, 60):
            costs = [int(c) for c in rng.integers(0, 10**6, size=mu - 1)]
            joint = int(rng.integers(0, 10**6))
            expected = n * (
                joint + sum(c * (n ** (mu - v) - 1) for v, c in enumerate(costs, 1))
            )
            total = scheme_download(n, joint, costs)
            assert type(total) is int and total == expected
    assert scheme_download(10**6, 1, [1] * 59) > 10**308
    # float costs past the double range are math.inf, not an error
    assert scheme_download(10**6, 1.0, [1.0] * 59) == math.inf


# ------------------------------------------------------- invariants, report


def random_candidate_set(rng):
    q = int(rng.choice([2, 3, 5]))
    f = int(rng.integers(1, 4))
    mu = int(rng.integers(1, 9))
    while True:
        tables = [
            FunctionTable(
                q=q, f=f, values=tuple(int(x) for x in rng.integers(0, q, size=q**f))
            )
            for _ in range(mu)
        ]
        if any(len(set(t.values)) > 1 for t in tables):
            return order_by_entropy(tables)


def test_bound_ordering_randomized():
    rng = np.random.default_rng(7)
    for _ in range(100):
        cs = random_candidate_set(rng)
        for n in (2, 3, 5):
            lower = rate_lower_bound(n, cs.mu, cs.profile.h_min, cs.profile.h_max)
            ach = achievable_rate(n, cs.profile)
            outer = outer_bound(n, cs.profile)
            assert lower <= ach + 1e-12
            assert ach <= outer + 1e-12
            assert d_one(n, cs.profile) >= d_opt(n, cs.profile) - 1e-12


def test_uniform_profile_closed_form():
    for mu in (1, 2, 4):
        exps = [tuple(1 if j == i else 0 for j in range(mu)) for i in range(mu)]
        cs = candidate_set_from_exponents(exps, 3)
        for n in (2, 3):
            assert achievable_rate(n, cs.profile) == pytest.approx(
                (1 - 1 / n) / (1 - (1 / n) ** mu), abs=1e-12
            )


def test_tie_permutation_invariance():
    # swap the two equal-entropy products; every rate quantity must not move
    a = candidate_set_from_exponents([(1, 0), (0, 1), (1, 1), (2, 1)], 3)
    b = candidate_set_from_exponents([(1, 0), (0, 1), (2, 1), (1, 1)], 3)
    for n in (2, 3):
        assert achievable_rate(n, a.profile) == pytest.approx(
            achievable_rate(n, b.profile), abs=1e-12
        )
        assert d_one(n, a.profile) == pytest.approx(d_one(n, b.profile), abs=1e-12)
        assert rate_lower_bound(
            n, a.mu, a.profile.h_min, a.profile.h_max
        ) == pytest.approx(
            rate_lower_bound(n, b.mu, b.profile.h_min, b.profile.h_max), abs=1e-15
        )
        assert baseline_virtual_pir_rate(
            n, a.mu, a.profile.h_min
        ) == pytest.approx(
            baseline_virtual_pir_rate(n, b.mu, b.profile.h_min), abs=1e-15
        )


def test_rate_report_fields():
    rep = rate_report(3, monomial_candidate_set(2, 2, 3))
    assert rep.capacity_met
    assert not rep.degenerate
    assert rep.achievable == pytest.approx(0.679284448510378, abs=1e-9)
    assert rep.d_one >= rep.d_opt - 1e-12
    d = rep.as_dict()
    assert set(d) == {
        "n", "mu", "f", "h_min", "achievable", "outer_bound", "lower_bound",
        "baseline_pir", "baseline_pir_unnormalized", "d_opt", "d_one",
        "capacity_met", "degenerate",
    }
    single = rate_report(2, candidate_set_from_exponents([(1,)], 3))
    assert single.degenerate and single.achievable == 1.0


def test_capacity_met_does_not_depend_on_n():
    # D_a - D_o = sum_{v<mu} (n^-(v-1) - n^-(mu-1)) (h[v] - dJ_v), each term
    # >= 0, so whether it is zero does not depend on n; a tolerance on the two
    # rates read the shrinking gap as zero from n = 10^3 on.  At n = 2 the
    # downloads differ by 0.09 or more wherever a term is positive
    sets = []
    for q, f, g in itertools.product((2, 3, 5, 7), range(1, 6), range(1, 5)):
        try:
            sets.append(monomial_candidate_set(f, g, q))
        except ResourceLimitError:  # q = 5 and 7 at the larger f
            pass
    rng = np.random.default_rng(23)
    sets += [random_candidate_set(rng) for _ in range(60)]
    for cs in sets:
        met = [rate_report(n, cs).capacity_met for n in (2, 3, 10, 10**3, 10**5, 10**7)]
        assert met == [d_one(2, cs.profile) - d_opt(2, cs.profile) <= 1e-9] * 6


def test_readme_library_snippet():
    # run the README's Library block and check the values its comments show
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    namespace, shown = {}, {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            expr = compile(ast.Expression(stmt.value), "README.md", "eval")
            shown[ast.get_source_segment(block, stmt)] = eval(expr, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert "# 0.679284448510378" in block
    achievable = shown["pc.achievable_rate(3, cs.profile)"]
    assert achievable == pytest.approx(0.679284448510378, abs=1e-15)
    outer = shown["pc.outer_bound(3, cs.profile)"]
    assert outer == pytest.approx(0.679284448510378, abs=1e-15)
    assert abs(achievable - outer) <= CAPACITY_TOL
    report = namespace["report"]
    assert shown["report.rate_measured"] == report.rate_formula
    assert report.recovery_ok and report.privacy_ok


def test_degenerate_all_constant():
    const = FunctionTable(q=3, f=1, values=(1, 1, 1))
    cs = order_by_entropy([const])
    with pytest.raises(DegenerateInstanceError):
        rate_report(2, cs)


def test_d_opt_alternative_expansion():
    # independent path: d_opt == n*J_mu + (n-1) * sum_v n^(mu-v) * J_v
    rng = np.random.default_rng(31)
    for _ in range(40):
        cs = random_candidate_set(rng)
        joints = cs.profile.prefix_joint
        mu = cs.mu
        for n in (2, 3, 4):
            expansion = n * joints[-1] + (n - 1) * sum(
                n ** (mu - v) * joints[v - 1] for v in range(1, mu)
            )
            assert d_opt(n, cs.profile) == pytest.approx(expansion, rel=1e-12)

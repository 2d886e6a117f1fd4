import itertools
from collections import Counter
from dataclasses import replace

import pytest

from privcomp import TauSum, generate_query_plan, verify_privacy_structure


def sibling_plans(n, mu, permutation=None, seed=0):
    if permutation is None:
        permutation = generate_query_plan(n, mu, 1, seed=seed).permutation
    return [
        generate_query_plan(n, mu, v, permutation=permutation)
        for v in range(1, mu + 1)
    ]


# ------------------------------------------------------------- exact checks


@pytest.mark.parametrize("n,mu", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_type_multisets_equal_across_v(n, mu):
    report = verify_privacy_structure(sibling_plans(n, mu))
    assert report.type_multisets_ok
    assert report.ok


def test_negative_control_extra_desired_singleton():
    plans = sibling_plans(2, 2)
    tampered = plans[0]
    extra = TauSum(
        sum_id=len(tampered.sums),
        db=1,
        round=1,
        members=((tampered.v, 3),),
        desired=True,
        side_ref=None,
    )
    plans[0] = replace(tampered, sums=tampered.sums + (extra,))
    report = verify_privacy_structure(plans, check_relabeling=False)
    assert not report.type_multisets_ok
    assert not report.ok
    assert any("multiset differs" in v for v in report.violations)


# ----------------------------------------------- distribution (relabeling)


@pytest.mark.parametrize("n,mu", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2)])
def test_views_are_relabelings_across_v(n, mu):
    report = verify_privacy_structure(sibling_plans(n, mu))
    assert report.relabeling_ok is True


def test_relabeling_detects_breakage():
    plans = sibling_plans(2, 3)
    # retarget one undesired subindex: type multisets still match, but the
    # sharing pattern stops being a relabeling of the other plans' views
    sums = list(plans[0].sums)
    for i, s in enumerate(sums):
        if not s.desired and s.round == 2:
            (w1, t1), (w2, t2) = s.members
            sums[i] = replace(s, members=((w1, t2), (w2, t2)))
            break
    plans[0] = replace(plans[0], sums=tuple(sums))
    report = verify_privacy_structure(plans)
    assert report.type_multisets_ok
    assert report.relabeling_ok is False
    assert not report.ok


# -------------------------------------------------- exact law, brute force


def wire_distributions(n, mu):
    """Distribution of each database's wire view over all permutations."""
    beta = n**mu
    plans = [
        generate_query_plan(n, mu, v, permutation=tuple(range(1, beta + 1)))
        for v in range(1, mu + 1)
    ]
    views = {
        (v, j): [s.members for s in plans[v - 1].per_db(j)]
        for v in range(1, mu + 1)
        for j in range(1, n + 1)
    }
    dists = {key: Counter() for key in views}
    for perm in itertools.permutations(range(1, beta + 1)):
        for key, sums in views.items():
            # members are sorted by candidate already; only subindices move
            canon = tuple(
                sorted(tuple((w, perm[t - 1]) for w, t in s) for s in sums)
            )
            dists[key][canon] += 1
    return dists


@pytest.mark.parametrize("n,mu", [(2, 2), (2, 3)])
def test_wire_distribution_identical_across_v(n, mu):
    dists = wire_distributions(n, mu)
    for j in range(1, n + 1):
        for v in range(2, mu + 1):
            assert dists[(v, j)] == dists[(1, j)]


# ----------------------------------------------------------- uniformity


def test_subindex_uniformity_chi_square():
    report = verify_privacy_structure(sibling_plans(2, 3), uniformity_seeds=1500)
    assert report.uniformity_ok is True
    assert report.chi_square
    for _db, _label, stat, threshold in report.chi_square:
        assert stat <= threshold


def test_verify_requires_full_plan_family():
    from privcomp import UsageError

    plans = sibling_plans(2, 2)
    with pytest.raises(UsageError):
        verify_privacy_structure(plans[:1])


# ------------------------------------- full joint law, exhaustive micro case


def test_full_joint_distribution_micro_exhaustive():
    """Complete privacy condition at micro scale, checked exhaustively.

    Over GF(2) with candidates {w1, w1*w2}, n=2, L=1 (beta=4), enumerate every
    message realization and every permutation, and compare the exact joint
    distribution of (wire query, answers, all candidate images) per database
    across the two desired indices.  Queries are independent of the messages,
    so equality here is the full information-theoretic privacy statement for
    this instance.
    """
    import numpy as np

    from privcomp import MessageStore, answer_queries, candidate_set_from_exponents
    from privcomp.protocol import evaluate_candidates

    q, f, mu, n, L = 2, 2, 2, 2, 1
    beta = n**mu
    cs = candidate_set_from_exponents([(1, 0), (1, 1)], q)
    plans = {
        (v, perm): generate_query_plan(n, mu, v, permutation=perm)
        for v in (1, 2)
        for perm in itertools.permutations(range(1, beta + 1))
    }
    dists = {(v, j): Counter() for v in (1, 2) for j in (1, 2)}
    for msg_bits in itertools.product(range(q), repeat=f * beta * L):
        msgs = np.array(msg_bits, dtype=np.int16).reshape(f, beta, L)
        store = MessageStore(q=q, f=f, beta=beta, length=L, seed=None, messages=msgs)
        values = evaluate_candidates(store, cs)
        images = tuple(tuple(int(x) for x in val.ravel()) for val in values)
        for (v, perm), plan in plans.items():
            for j in (1, 2):
                answers, _ = answer_queries(j, plan, store, cs, values=values)
                view = [
                    (
                        "bundle",
                        perm[answers.round1.subindex - 1],
                        tuple(int(x) for x in answers.round1.payload.ravel()),
                    )
                ]
                for s in plan.per_db(j):
                    if s.round == 1:
                        continue
                    wired = tuple((w, perm[t - 1]) for w, t in s.members)
                    payload = tuple(int(x) for x in answers.sums[s.sum_id].payload)
                    view.append(("sum", wired, payload))
                dists[(v, j)][(tuple(sorted(view)), images)] += 1
    for j in (1, 2):
        assert dists[(1, j)] == dists[(2, j)]

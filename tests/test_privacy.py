import ast
import functools
import importlib.util
import itertools
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from dense_plans import dense, with_dense
from privcomp import ProtocolError, QueryPlan, generate_query_plan, verify_privacy_structure


def db_rows(plan, j):
    """(round, members) of database j's sums in plan order.

    members is the sorted tuple of (candidate, subindex) pairs of the sum.
    """
    at = plan.rows(j)
    return [
        (int(tau), tuple((w + 1, int(t)) for w, t in enumerate(row) if t))
        for row, tau in zip(dense(plan)[at], plan.round[at])
    ]


def sibling_plans(n, mu, seed=0):
    """Plans for every desired index, sharing one private permutation."""
    permutation = generate_query_plan(n, mu, 1, seed=seed).permutation
    return [
        generate_query_plan(n, mu, v)._replace(permutation=permutation)
        for v in range(1, mu + 1)
    ]


def type_multiset(plan, j):
    """Sorted (round, candidate set) of database j's sums."""
    return sorted((tau, tuple(w for w, _ in m)) for tau, m in db_rows(plan, j))


# ------------------------------------------------------------- exact checks


@pytest.mark.parametrize("n,mu", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_type_multisets_equal_across_v(n, mu):
    plans = sibling_plans(n, mu)
    for j in range(1, n + 1):
        base = type_multiset(plans[0], j)
        assert all(type_multiset(p, j) == base for p in plans[1:])
    assert all(verify_privacy_structure(p).ok for p in plans)


def test_negative_control_extra_desired_singleton():
    plan = generate_query_plan(2, 2, 1, seed=0)
    extra = np.zeros((1, plan.mu), dtype=np.int32)
    extra[0, plan.v - 1] = 3
    tampered = with_dense(plan, np.vstack([dense(plan), extra]))._replace(
        side_ref=np.append(plan.side_ref, -1),
        bounds=np.append(plan.bounds[:-1], plan.bounds[-1] + 1),
    )
    report = verify_privacy_structure(tampered)
    assert report.relabeling_ok is False
    assert not report.ok
    assert any("multiset is not symmetric" in v for v in report.violations)


# ----------------------------------------------- distribution (relabeling)


@pytest.mark.parametrize("n,mu", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2)])
def test_views_are_relabelings_across_v(n, mu):
    for plan in sibling_plans(n, mu):
        assert verify_privacy_structure(plan).relabeling_ok is True


def test_relabeling_detects_breakage():
    plans = sibling_plans(2, 3)
    # retarget one undesired subindex: type multisets still match, but the
    # sharing pattern stops being a relabeling of the other plans' views
    sums = dense(plans[0])
    desired = sums[:, plans[0].v - 1] != 0
    i = np.flatnonzero(~desired & (plans[0].round == 2))[0]
    (w1, w2) = np.flatnonzero(sums[i])
    sums[i, w1] = sums[i, w2]
    tampered = with_dense(plans[0], sums)
    assert all(
        type_multiset(tampered, j) == type_multiset(plans[1], j) for j in (1, 2)
    )
    report = verify_privacy_structure(tampered)
    assert report.relabeling_ok is False
    assert not report.ok
    assert any("not a relabeling" in v for v in report.violations)


def test_cyclic_symmetry_alone_is_not_privacy():
    # candidate w + 1 of the pair {w, w + 1} reuses the subindex of the
    # singleton w: the view is a relabeling of itself under the cycle
    # (1 2 3) but not under the transposition (1 2)
    sums = np.array(
        [[1, 0, 0], [0, 2, 0], [0, 0, 3], [4, 1, 0], [0, 5, 2], [3, 0, 6]],
        dtype=np.int32,
    )
    rows = len(sums)
    plan = with_dense(QueryPlan(
        v=1, mu=3, permutation=np.arange(1, 9), sums=None, members=None,
        side_ref=np.full(rows, -1), bounds=np.array([0, rows, rows]),
    ), sums)
    cycled = with_dense(plan, sums[:, [2, 0, 1]])
    swapped = with_dense(plan, sums[:, [1, 0, 2]])
    if importlib.util.find_spec("networkx"):
        assert vf2_isomorphic(plan, cycled, 1)
        assert not vf2_isomorphic(plan, swapped, 1)
    report = verify_privacy_structure(plan)
    assert report.relabeling_ok is False
    assert any("not a relabeling" in v for v in report.violations)


# -------------------------------------------------- exact law, brute force


@functools.cache
def wire_distributions(n, mu):
    """Distribution of each database's wire view over all permutations: key
    (True, v, j) the sequence of sums it receives, (False, v, j) their
    multiset."""
    beta = n**mu
    plans = [
        generate_query_plan(n, mu, v)._replace(permutation=np.arange(1, beta + 1))
        for v in range(1, mu + 1)
    ]
    views = {
        (v, j): [m for _, m in db_rows(plans[v - 1], j)]
        for v in range(1, mu + 1)
        for j in range(1, n + 1)
    }
    dists = {(ordered, *key): Counter() for key in views for ordered in (True, False)}
    for perm in itertools.permutations(range(1, beta + 1)):
        for key, sums in views.items():
            # members are sorted by candidate already; only subindices move
            wired = tuple(tuple((w, perm[t - 1]) for w, t in s) for s in sums)
            dists[(True, *key)][wired] += 1
            dists[(False, *key)][tuple(sorted(wired))] += 1
    return dists


@pytest.mark.parametrize("n,mu", [(2, 2), (2, 3)])
def test_wire_distribution_identical_across_v(n, mu):
    dists = wire_distributions(n, mu)
    for j in range(1, n + 1):
        for v in range(2, mu + 1):
            assert dists[(False, v, j)] == dists[(False, 1, j)]


@pytest.mark.parametrize("n,mu", [(2, 2), (2, 3)])
def test_ordered_wire_distribution_identical_across_v(n, mu):
    # the sums in the order a database receives them, not only their
    # multiset: a plan-order wire whose first sum is always {v} differs
    dists = wire_distributions(n, mu)
    for j in range(1, n + 1):
        for v in range(2, mu + 1):
            assert dists[(True, v, j)] == dists[(True, 1, j)]


# ----------------------------------------------------------- uniformity


def test_subindex_uniformity_chi_square():
    """Over seeded permutations, the wire subindex of a fixed slot is uniform.

    Slots per plan and database: the round-1 subindex and the desired
    subindex of the last desired sum; chi-square against uniform at 1 %.
    """
    chi2 = pytest.importorskip("scipy.stats").chi2
    n, mu, seeds = 2, 3, 1500
    beta = n**mu
    threshold = float(chi2.ppf(1 - 0.01, beta - 1))
    slots = []
    for p in sibling_plans(n, mu):
        for j in range(1, n + 1):
            at, sums = p.rows(j), dense(p)
            round1 = np.flatnonzero(p.round[at] == 1)
            slots.append(int(sums[at][round1[0]].max()))
            last_desired = np.flatnonzero(sums[at][:, p.v - 1])[-1]
            slots.append(int(sums[at][last_desired, p.v - 1]))
    counts = np.zeros((len(slots), beta), dtype=np.int64)
    for seed in range(seeds):
        perm = np.array(generate_query_plan(n, mu, 1, seed=seed).permutation)
        counts[np.arange(len(slots)), perm[np.array(slots) - 1] - 1] += 1
    expected = seeds / beta
    chi_square = ((counts - expected) ** 2 / expected).sum(axis=1)
    assert len(chi_square)
    for stat in chi_square:
        assert stat <= threshold


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
        (v, perm): generate_query_plan(n, mu, v)._replace(permutation=np.array(perm))
        for v in (1, 2)
        for perm in itertools.permutations(range(1, beta + 1))
    }
    dists = {(v, j): Counter() for v in (1, 2) for j in (1, 2)}
    for msg_bits in itertools.product(range(q), repeat=f * beta * L):
        msgs = np.array(msg_bits, dtype=np.int16).reshape(f, beta, L)
        store = MessageStore(q=q, messages=msgs)
        values = evaluate_candidates(store, cs)
        images = tuple(tuple(int(x) for x in val.ravel()) for val in values)
        for (v, perm), plan in plans.items():
            every, _ = answer_queries(plan, store, values=values)
            for j in (1, 2):
                answers = every[plan.rows(j)]
                rows = db_rows(plan, j)
                # the round-1 rows form the joint bundle, in candidate order
                bundle = sorted(
                    (m[0], a) for (tau, m), a in zip(rows, answers) if tau == 1
                )
                view = [
                    (
                        "bundle",
                        perm[bundle[0][0][1] - 1],
                        tuple(int(x) for _, a in bundle for x in a),
                    )
                ]
                for (tau, members), a in zip(rows, answers):
                    if tau == 1:
                        continue
                    wired = tuple((w, perm[t - 1]) for w, t in members)
                    payload = tuple(int(x) for x in a)
                    view.append(("sum", wired, payload))
                dists[(v, j)][(tuple(sorted(view)), images)] += 1
    for j in (1, 2):
        assert dists[(1, j)] == dists[(2, j)]


# ------------------------------------------ independent oracle: networkx VF2


def incidence_graph(plan, j):
    """Database j's view as a graph: sum and subindex nodes, candidate edges."""
    import networkx as nx

    g = nx.Graph()
    for i, (_, members) in enumerate(db_rows(plan, j)):
        g.add_node(("sum", i), label=tuple(w for w, _ in members))
        for w, t in members:
            g.add_node(("t", t), label=None)
            g.add_edge(("sum", i), ("t", t), w=w)
    return g


def vf2_isomorphic(plan_a, plan_b, j):
    import networkx as nx

    return nx.is_isomorphic(
        incidence_graph(plan_a, j),
        incidence_graph(plan_b, j),
        node_match=lambda a, b: a["label"] == b["label"],
        edge_match=lambda a, b: a["w"] == b["w"],
    )


@pytest.mark.parametrize(
    "n,mu", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 3), (3, 4), (4, 4), (5, 4)]
)
def test_relabeling_agrees_with_vf2(n, mu):
    pytest.importorskip("networkx")
    plans = sibling_plans(n, mu)
    isomorphic = all(
        vf2_isomorphic(plans[0], p, j) for p in plans[1:] for j in range(1, n + 1)
    )
    for p in plans:
        assert verify_privacy_structure(p).relabeling_ok is isomorphic
    # (4, 4) and (5, 4) were not private under the earlier copy rule
    assert isomorphic


def test_relabeling_search_is_not_recursive():
    # (2, 10): 2046 sums, past the recursion limit of a per-sum recursion
    report = verify_privacy_structure(generate_query_plan(2, 10, 1, seed=0))
    assert report.relabeling_ok is True
    assert report.ok


def test_certificate_holds_no_copy_of_sums():
    # (2, 16): 131,070 sums; a sorted copy of them as a dense matrix of 16
    # int32 columns alone is 8.4 MB, so the rows must be gathered one block
    # at a time
    plan = generate_query_plan(2, 16, 1, seed=0)
    verify_privacy_structure(generate_query_plan(2, 3, 1, seed=0))
    tracemalloc.start()
    try:
        report = verify_privacy_structure(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    dense_bytes = 131_070 * 16 * 4
    assert peak < dense_bytes, peak / dense_bytes


def test_certificate_gathers_members_round_by_round():
    # (2, 13): 16,382 sums of 13 columns.  Gathering whole rows of sums and
    # their images as BLOCK x mu int64 entries peaked at 2.82 MB; member
    # blocks of one round, at most 1716 rows of 7 members, need half of that
    plan = generate_query_plan(2, 13, 1, seed=0)
    verify_privacy_structure(generate_query_plan(2, 3, 1, seed=0))
    tracemalloc.start()
    try:
        report = verify_privacy_structure(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak <= 2.82e6 / 2, peak


def test_certificate_rejects_a_class_that_runs_past_the_last_row():
    # database 2's round-2 sum (4, 1) loses candidate 2 and becomes a second
    # round-1 singleton of candidate 1; the transposition maps it to copy 1
    # of type (2,), which does not exist and would sort past the last row
    plan = generate_query_plan(2, 2, 1, seed=0)
    sums = dense(plan)
    sums[5, 1] = 0
    assert (plan.rows(2), plan.round[5], sums[5, 0]) == (slice(3, 6), 2, 4)
    report = verify_privacy_structure(with_dense(plan, sums))
    assert report.relabeling_ok is False
    assert any("multiset is not symmetric" in v for v in report.violations)


@pytest.mark.parametrize("w,more,fewer", [(1, "(1,)", "(2,)"), (0, "(2,)", "(1,)")])
def test_asymmetry_message_names_the_larger_class(w, more, fewer):
    # database 2's round-2 sum (4, 1) keeps only one member and becomes a
    # second round-1 singleton of that candidate
    plan = generate_query_plan(2, 2, 1, seed=0)
    sums = dense(plan)
    sums[5, w] = 0
    assert verify_privacy_structure(with_dense(plan, sums)).violations == [
        "db 2: (round, type) multiset is not symmetric: round 1 has more sums "
        f"of type {more} than of type {fewer}"
    ]


def test_asymmetry_messages_count_true_under_the_cycle():
    # database 1 of the (2, 3) plan: (3, 2, 0) becomes a second (1,) and
    # (0, 4, 3) a second (2,), so round 1 holds (1,) twice, (2,) twice and
    # (3,) once.  The cycle moves (1,) to (2,), which has as many rows, so a
    # message naming (1,) must name its preimage (3,) as the smaller class
    plan = generate_query_plan(2, 3, 1, seed=0)
    sums = dense(plan)
    assert sums[3:6].tolist() == [[3, 2, 0], [4, 0, 2], [0, 4, 3]]
    sums[3, 1] = sums[5, 2] = 0
    tampered = with_dense(plan, sums)
    violations = verify_privacy_structure(tampered).violations
    assert len(violations) == 2  # one for each generator, both on database 1
    counts = Counter(type_multiset(tampered, 1))
    for message in violations:
        tau, more, fewer = re.fullmatch(
            r"db 1: \(round, type\) multiset is not symmetric: round (\d+) has "
            r"more sums of type (\(.*\)) than of type (\(.*\))",
            message,
        ).groups()
        tau, more, fewer = int(tau), ast.literal_eval(more), ast.literal_eval(fewer)
        assert counts[(tau, more)] > counts[(tau, fewer)]


@pytest.mark.parametrize("mu", [1, 2])
@pytest.mark.parametrize("past_beta", [False, True])
def test_certificate_rejects_a_subindex_outside_the_segments(mu, past_beta):
    plan = generate_query_plan(2, mu, 1, seed=0)
    sums = dense(plan)
    sums[0, 0] = plan.beta + 1 if past_beta else -1
    with pytest.raises(ProtocolError, match=f"outside \\[1, {plan.beta}\\]"):
        verify_privacy_structure(with_dense(plan, sums))

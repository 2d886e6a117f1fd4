"""Property tests (hypothesis) of the privacy certificate on plans with one
entry changed.  Against networkx VF2: the certificate may only certify
private plans, and at n = 2, where every (database, round, type) class holds
one sum, it must certify every private plan.  Against a pure-Python copy of
its own rule: it certifies exactly the plans that rule accepts."""

from collections import defaultdict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from privcomp import generate_query_plan, protocol, verify_privacy_structure
from test_privacy import vf2_isomorphic

pytest.importorskip("networkx")


@st.composite
def mutated_plans(draw, sizes=((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)),
                  intact=False):
    """A plan with one entry of sums changed: a subindex moved, a member added
    (0 -> t) or a member removed (t -> 0); with intact, one plan in five is
    left as built."""
    n, mu = draw(st.sampled_from(sizes))
    plan = generate_query_plan(n, mu, draw(st.integers(1, mu)), seed=draw(st.integers(0, 3)))
    if intact and draw(st.integers(0, 4)) == 0:
        return plan
    r = draw(st.integers(0, len(plan.sums) - 1))
    w = draw(st.integers(0, mu - 1))
    sums = plan.sums.copy()
    sums[r, w] = draw(st.integers(0, plan.beta).filter(lambda t: t != sums[r, w]))
    return plan._replace(sums=sums)


def vf2_private(plan):
    """Every view is isomorphic to its image with columns 1 and w swapped."""
    for w in range(1, plan.mu):
        sums = plan.sums.copy()
        sums[:, [0, w]] = sums[:, [w, 0]]
        swapped = plan._replace(sums=sums)
        if not all(vf2_isomorphic(plan, swapped, j) for j in range(1, plan.n + 1)):
            return False
    return True


# the module's row block, and blocks of 2 rows, so that a database's rows
# span many blocks and the map is checked against earlier blocks
@pytest.mark.parametrize("block", [protocol.BLOCK, 2])
@settings(max_examples=150, deadline=None)
@given(plan=mutated_plans())
def test_certificate_agrees_with_vf2_on_mutated_plans(block, plan):
    # at n >= 3 the copy rule's sigma may miss the relabeling of a changed
    # plan that is still private (24 of the 432 single-entry changes of the
    # (3, 2) plans), never the other way
    with mock.patch.object(protocol, "BLOCK", block):
        certified = verify_privacy_structure(plan).relabeling_ok
    private = vf2_private(plan)
    if certified:
        assert private
    if plan.n == 2:
        assert certified == private


def copy_rule_certifies(plan):
    """The certificate's rule, row by row: on each database, for the cycle
    (1 2 ... mu) and the transposition (1 2), the rows of each (round,
    members) class, in plan order, are zipped with those of its image class;
    the sizes must agree and the subindex map rho must be well defined."""
    mu = plan.mu
    generators = [[(w + 1) % mu for w in range(mu)], [1, 0, *range(2, mu)]]
    for j in range(1, plan.n + 1):
        classes = defaultdict(list)
        for row in plan.sums[plan.rows(j)].tolist():
            members = frozenset(w for w, t in enumerate(row) if t)
            classes[(len(members), members)].append(row)
        for pi in generators[: min(mu - 1, 2)]:
            rho = {}
            for (tau, members), rows in classes.items():
                image = classes.get((tau, frozenset(pi[w] for w in members)), [])
                if len(image) != len(rows):
                    return False
                for r, s in zip(rows, image):
                    for w in range(mu):
                        if rho.setdefault(r[w], s[pi[w]]) != s[pi[w]]:
                            return False
    return True


ORACLE_SIZES = ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2))


@pytest.mark.parametrize("block", [protocol.BLOCK, 2])
@settings(max_examples=200, deadline=None)
@given(plan=mutated_plans(ORACLE_SIZES, intact=True))
def test_certificate_equals_its_copy_rule(block, plan):
    with mock.patch.object(protocol, "BLOCK", block):
        certified = verify_privacy_structure(plan).ok
    assert certified == copy_rule_certifies(plan)

"""Property test (hypothesis) of the privacy certificate against networkx VF2
on plans with one entry changed: the certificate may only certify private
plans, and at n = 2, where every (database, round, type) class holds one sum,
it must certify every private plan."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from privcomp import generate_query_plan, protocol, verify_privacy_structure
from test_privacy import vf2_isomorphic

pytest.importorskip("networkx")


@st.composite
def mutated_plans(draw):
    """A plan with one entry of sums changed: a subindex moved, a member added
    (0 -> t) or a member removed (t -> 0)."""
    n, mu = draw(st.sampled_from([(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)]))
    plan = generate_query_plan(n, mu, draw(st.integers(1, mu)), seed=draw(st.integers(0, 3)))
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

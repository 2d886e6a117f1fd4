"""Property test (hypothesis) of the privacy certificate against networkx VF2
on plans with one subindex changed: the certificate may only certify private
plans, and at n = 2, where every (database, round, type) class holds one sum,
it must certify every private plan."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from privcomp import generate_query_plan, verify_privacy_structure
from test_privacy import vf2_isomorphic

pytest.importorskip("networkx")


@st.composite
def mutated_plans(draw):
    n, mu = draw(st.sampled_from([(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)]))
    plan = generate_query_plan(n, mu, draw(st.integers(1, mu)), seed=0)
    entries = np.argwhere(plan.sums != 0)
    r, w = entries[draw(st.integers(0, len(entries) - 1))]
    sums = plan.sums.copy()
    sums[r, w] = draw(st.integers(1, plan.beta))
    return replace(plan, sums=sums)


def vf2_private(plan):
    """Every view is isomorphic to its image with columns 1 and w swapped."""
    for w in range(1, plan.mu):
        sums = plan.sums.copy()
        sums[:, [0, w]] = sums[:, [w, 0]]
        swapped = replace(plan, sums=sums)
        if not all(vf2_isomorphic(plan, swapped, j) for j in range(1, plan.n + 1)):
            return False
    return True


@settings(max_examples=80, deadline=None)
@given(mutated_plans())
def test_certificate_agrees_with_vf2_on_mutated_plans(plan):
    certified = verify_privacy_structure(plan).ok
    private = vf2_private(plan)
    if certified:
        assert private
    if plan.n == 2:
        assert certified == private

"""Property tests (hypothesis) of the privacy certificate on plans with one
entry changed.  Against networkx VF2: the certificate may only certify
private plans, and at n = 2, where every (database, round, type) class holds
one sum, it must certify every private plan.  Against a pure-Python copy of
its own rule: it certifies exactly the plans that rule accepts."""

from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from privcomp import generate_query_plan, protocol, verify_privacy_structure
from test_privacy import vf2_isomorphic

pytest.importorskip("networkx")


VF2_SIZES = ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2))
ORACLE_SIZES = ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2))


@st.composite
def mutated_plans(draw, sizes=VF2_SIZES, intact=False):
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


def sizes_for(block, sizes):
    """Every size at the module's row block.  With blocks of 2 rows, the
    sizes whose plans give some database a round of more than 2 rows: at
    (2, 2) and (3, 2) every round has at most 2."""
    return sizes if block == protocol.BLOCK else [s for s in sizes if s not in ((2, 2), (3, 2))]


def split_rounds(plan, block):
    """Whether the rows of some round of some database span several blocks:
    the map is then checked against earlier blocks of that round."""
    return any(
        np.bincount(plan.round[plan.rows(j)])[1:].max(initial=0) > block
        for j in range(1, plan.n + 1)
    )


# the module's row block, and blocks of 2 rows, so that one round's rows at
# one database span several blocks and the map is checked against earlier ones
@pytest.mark.parametrize("block", [protocol.BLOCK, 2])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_certificate_agrees_with_vf2_on_mutated_plans(block, data):
    plan = data.draw(mutated_plans(sizes_for(block, VF2_SIZES)))
    assert block == protocol.BLOCK or split_rounds(plan, block)
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


@pytest.mark.parametrize("block", [protocol.BLOCK, 2])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_certificate_equals_its_copy_rule(block, data):
    plan = data.draw(mutated_plans(sizes_for(block, ORACLE_SIZES), intact=True))
    assert block == protocol.BLOCK or split_rounds(plan, block)
    with mock.patch.object(protocol, "BLOCK", block):
        certified = verify_privacy_structure(plan).ok
    assert certified == copy_rule_certifies(plan)

"""Linear candidate sets as an independent capacity oracle.

For the nonzero linear functions of f messages over GF(q), one per line
through the origin ((q^f - 1)/(q - 1) of them), the private-computation
capacity is the PIR capacity with f messages (H. Sun and S. A. Jafar, "The
capacity of private computation", IEEE T-IT 2019):
C_SJ = (1 + 1/n + ... + 1/n^(f-1))^-1.  The scheme's rate may not exceed it
and the printed outer bound may not fall below it.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from privcomp import (
    FunctionTable,
    SimulationConfig,
    achievable_rate,
    order_by_entropy,
    outer_bound,
    run_simulation,
)


def linear_candidates(q, f):
    """Every nonzero linear function of f messages up to a scalar, its first
    nonzero coefficient 1, in lexicographic order of the coefficients."""
    inputs = np.array(list(itertools.product(range(q), repeat=f)))
    lines = [
        a for a in itertools.product(range(q), repeat=f) if any(a) and a[np.flatnonzero(a)[0]] == 1
    ]
    assert len(lines) == (q**f - 1) // (q - 1)
    return order_by_entropy([FunctionTable(q, f, inputs @ np.array(a) % q) for a in lines])


def capacity(n, f):
    return 1 / sum(Fraction(1, n**k) for k in range(f))


LINEAR_SETS = [(2, 2), (3, 2), (5, 2), (3, 3), (2, 4)]


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("q,f", LINEAR_SETS)
def test_linear_sets_bracket_the_capacity(q, f, n):
    profile = linear_candidates(q, f).profile
    rate, bound, c = achievable_rate(n, profile), outer_bound(n, profile), capacity(n, f)
    assert rate <= c * (1 + 1e-12)
    assert c <= bound * (1 + 1e-12)
    if f == 2:  # the bound is tight
        assert bound == pytest.approx(c, rel=1e-12)
    if (q, f) == (2, 2):  # {x, y, x + y}: the scheme meets the capacity
        assert rate == pytest.approx(c, rel=1e-12)


def test_outer_bound_depends_on_the_tie_order():
    # all 13 functions are uniform, so input position orders them: the third,
    # x2 + x3, depends on the first two.  The bound reads 0.64, above
    # C_SJ = 4/7, where three independent functions first would give 4/7
    profile = linear_candidates(3, 3).profile
    increments = np.diff([0.0, *profile.prefix_joint])
    assert np.round(increments[:5], 12).tolist() == [1, 1, 0, 0, 1]
    assert outer_bound(2, profile) == pytest.approx(0.64, rel=1e-12)
    assert achievable_rate(2, profile) == pytest.approx(0.500672, abs=1e-6)
    assert float(capacity(2, 3)) == pytest.approx(0.571429, abs=1e-6)


def test_simulation_on_a_linear_set():
    # mu = 4 linear functions of 2 messages over GF(3), not a monomial set
    cs = linear_candidates(3, 2)
    rep = run_simulation(SimulationConfig(n=2, candidate_set=cs, length=4, v=2))
    assert rep.privacy_ok and rep.recovery_ok
    assert rep.rate_measured == pytest.approx(rep.rate_formula, rel=1e-12)
    assert rep.rate_formula == pytest.approx(0.615385, abs=1e-6)

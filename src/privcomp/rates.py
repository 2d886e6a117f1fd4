"""Closed-form capacity bounds, achievable rates, and download-cost expansions.

Every function takes an EntropyProfile (candidate entropies sorted descending
plus prefix joint entropies, all in q-ary units) and evaluates the rate or
per-segment download cost in double precision.  Denominator sums accumulate
Horner-style from the smallest terms up to bound roundoff; the reported
figures are compared against 15-digit references at 1e-9.

Conventions: replication needs n >= 2 databases; a single candidate (mu = 1)
is degenerate retrieval with rate 1 (compressed download of the one possible
function, no privacy constraint binds).
"""

import math
from dataclasses import asdict, dataclass

from .candidates import EntropyProfile
from .errors import DegenerateInstanceError, UsageError

CAPACITY_TOL = 1e-12


def _check_n(n: int):
    if n < 2:
        raise UsageError("replication requires at least 2 databases")


def pir_capacity(n: int, f: int) -> float:
    """Retrieval capacity for f independent uniform messages on n replicas."""
    _check_n(n)
    if f < 1:
        raise UsageError("f must be >= 1")
    return (1 - 1 / n) / (1 - (1 / n) ** f)


def d_opt(n: int, profile: EntropyProfile) -> float:
    """Converse-bound download cost per segment length.

    Sum over v of n^(mu-v+1) * [H(X^[v]) - H(X^[v-1])], evaluated by Horner
    from v = mu down to v = 1; past the double range it is math.inf.
    """
    _check_n(n)
    acc = prev = 0.0
    for jv in profile.prefix_joint:
        acc, prev = acc * n + (jv - prev), jv
    return n * acc


def outer_bound(n: int, profile: EntropyProfile) -> float:
    """Upper bound on the private-computation rate for this profile.

    n^mu h_min / d_opt, evaluated as h_min / sum_v n^-(v-1) [H(X^[v]) -
    H(X^[v-1])] by Horner in 1/n, so it stays finite past the double range.
    """
    _check_n(n)
    x = 1.0 / n
    joint = profile.prefix_joint
    acc = 0.0
    for v in range(len(joint) - 1, -1, -1):
        acc = acc * x + (joint[v] - (joint[v - 1] if v else 0.0))
    if acc <= 0.0:
        raise DegenerateInstanceError("all candidates constant; no converse bound")
    return profile.h_min / acc


def achievable_rate(n: int, profile: EntropyProfile) -> float:
    """Rate of the compress-then-sum scheme for an arbitrary candidate set.

    h_min / ( sum_{v<mu} n^-(v-1) h[v] + n^-(mu-1) [joint - sum_{v<mu} h[v]] ),
    which equals 1 when mu = 1.
    """
    _check_n(n)
    h = profile.h
    mu = profile.mu
    if profile.h_max <= 0.0:
        raise DegenerateInstanceError("all candidates constant; rate undefined")
    x = 1.0 / n
    acc = profile.joint - sum(h[: mu - 1])
    for v in range(mu - 1, 0, -1):
        acc = acc * x + h[v - 1]
    return profile.h_min / acc


def rate_lower_bound(n: int, mu: int, h_min: float, h_max: float) -> float:
    """(h_min/h_max) times the uniform-candidate retrieval rate."""
    _check_n(n)
    if mu < 1:
        raise UsageError("mu must be >= 1")
    if h_max <= 0.0:
        raise DegenerateInstanceError("h_max = 0; lower bound undefined")
    return (h_min / h_max) * pir_capacity(n, mu)


def baseline_virtual_pir_rate(n: int, mu: int, h_min: float) -> float:
    """Rate of plain retrieval treating each candidate as a virtual message.

    Normalized by h_min so it is comparable under the smallest-function-size
    rate definition; the raw value is pir_capacity(n, mu).
    """
    return h_min * pir_capacity(n, mu)


def asymptotic_rate(n: int, h_min: float) -> float:
    """Common limit of the achievable rate and outer bound as f grows."""
    _check_n(n)
    return h_min * (1 - 1 / n)


def round_download(tau: int, n: int, profile: EntropyProfile) -> float:
    """Total round-tau download over all databases, per segment length.

    Round 1 sends the jointly compressed candidate tuple; later rounds charge
    each sum at the largest entropy among its constituents.  Past the double
    range the cost is math.inf.
    """
    _check_n(n)
    mu = profile.mu
    if not 1 <= tau <= mu:
        raise UsageError(f"round {tau} out of range [1, {mu}]")
    if tau == 1:
        return n * profile.joint
    inner = 0.0
    try:
        for v in range(mu - tau + 1, 0, -1):
            inner += math.comb(mu - v, tau - 1) * profile.h[v - 1]
        return n * (n - 1) ** (tau - 1) * inner
    except OverflowError:  # an integer factor is past the double range
        return math.inf


def d_one(n: int, profile: EntropyProfile) -> float:
    """Download cost per segment length of the compress-then-sum scheme.

    The rounds of round_download summed in closed form, in O(mu): candidate
    v leads C(mu-v, tau-1) (n-1)^(tau-1) sums of round tau per database, and
    over tau >= 2 these add up to n^(mu-v) - 1.  Past the double range the
    cost is math.inf.
    """
    _check_n(n)
    mu = profile.mu
    later = 0.0  # added in order, not by sum(), which compensates from 3.12 on
    try:
        for v in range(1, mu):
            later += profile.h[v - 1] * (n ** (mu - v) - 1)
    except OverflowError:  # an integer factor is past the double range
        return math.inf
    return n * profile.joint + n * later


@dataclass(frozen=True)
class RateReport:
    """All rate figures for one (n, candidate set) instance."""

    n: int
    mu: int
    f: int
    h_min: float
    achievable: float
    outer_bound: float
    lower_bound: float
    baseline_pir: float
    baseline_pir_unnormalized: float
    d_opt: float
    d_one: float
    capacity_met: bool
    degenerate: bool  # mu = 1: rate 1 by the direct-retrieval convention

    def __post_init__(self):
        if self.lower_bound > self.achievable + 1e-9:
            raise UsageError("lower bound exceeds achievable rate")
        if self.achievable > self.outer_bound + 1e-9:
            raise UsageError("achievable rate exceeds outer bound")

    def as_dict(self) -> dict:
        return asdict(self)


def rate_report(n: int, candidate_set) -> RateReport:
    """Evaluate every bound of the theory for one candidate set."""
    profile = candidate_set.profile
    if profile.h_max <= 0.0:
        raise DegenerateInstanceError("all candidates constant")
    ach = achievable_rate(n, profile)
    outer = outer_bound(n, profile)
    return RateReport(
        n=n,
        mu=profile.mu,
        f=candidate_set.f,
        h_min=profile.h_min,
        achievable=ach,
        outer_bound=outer,
        lower_bound=rate_lower_bound(n, profile.mu, profile.h_min, profile.h_max),
        baseline_pir=baseline_virtual_pir_rate(n, profile.mu, profile.h_min),
        baseline_pir_unnormalized=pir_capacity(n, profile.mu),
        d_opt=d_opt(n, profile),
        d_one=d_one(n, profile),
        capacity_met=abs(ach - outer) <= CAPACITY_TOL,
        degenerate=profile.mu == 1,
    )

"""Closed-form capacity bounds, achievable rates, and download-cost expansions.

Every function takes an EntropyProfile (candidate entropies sorted descending
plus prefix joint entropies, all in q-ary units) and evaluates the rate or
per-segment download cost in double precision.  Each closed form is one
Horner sum over a list of per-v terms, in n for a download and in 1/n for a
rate: the converse's terms are the prefix-joint increments H(X^[v]) -
H(X^[v-1]), the scheme's are h[v] for v < mu, then the joint less their
exactly rounded sum.  The reported figures are compared against 15-digit
references at 1e-9.

Conventions: replication needs n >= 2 databases; a single candidate (mu = 1)
is degenerate retrieval with rate 1 (compressed download of the one possible
function, no privacy constraint binds).
"""

import math
from collections import namedtuple

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


def _horner(x, terms):
    """terms[0] + x (terms[1] + x (...)) from the integer 0: integer terms at an
    integer x stay exact, and a float sum past the double range is math.inf."""
    acc = 0
    for t in reversed(terms):
        acc = acc * x + t
    return acc


def _increments(profile: EntropyProfile) -> list:
    """The converse's terms: H(X^[v]) - H(X^[v-1]) for v = 1..mu."""
    joint = profile.prefix_joint
    return [jv - prev for prev, jv in zip((0.0, *joint), joint)]


def _scheme_terms(joint, lead_costs) -> list:
    """The scheme's terms: the cost of one sum led by each v < mu, then the
    joint less all of them, totalled exactly (integers as integers)."""
    total = sum if all(isinstance(c, int) for c in lead_costs) else math.fsum
    return [*lead_costs, joint - total(lead_costs)]


def d_opt(n: int, profile: EntropyProfile) -> float:
    """Converse-bound download cost per segment length.

    Sum over v of n^(mu-v+1) * [H(X^[v]) - H(X^[v-1])], by Horner in n; past
    the double range it is math.inf.
    """
    _check_n(n)
    return n * _horner(n, _increments(profile)[::-1])


def outer_bound(n: int, profile: EntropyProfile) -> float:
    """Upper bound on the private-computation rate for this profile.

    n^mu h_min / d_opt, evaluated as h_min / sum_v n^-(v-1) [H(X^[v]) -
    H(X^[v-1])] by Horner in 1/n, so it stays finite past the double range.
    """
    _check_n(n)
    acc = _horner(1.0 / n, _increments(profile))
    if acc <= 0.0:
        raise DegenerateInstanceError("all candidates constant; no converse bound")
    return profile.h_min / acc


def achievable_rate(n: int, profile: EntropyProfile) -> float:
    """Rate of the compress-then-sum scheme for an arbitrary candidate set.

    h_min / ( sum_{v<mu} n^-(v-1) h[v] + n^-(mu-1) [joint - sum_{v<mu} h[v]] ),
    by Horner in 1/n over the scheme's terms; it equals 1 when mu = 1.
    """
    _check_n(n)
    if profile.h_max <= 0.0:
        raise DegenerateInstanceError("all candidates constant; rate undefined")
    return profile.h_min / _horner(1.0 / n, _scheme_terms(profile.joint, profile.h[:-1]))


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


def scheme_download(n: int, joint, lead_costs):
    """n (joint + sum_{v<mu} lead_costs[v-1] (n^(mu-v) - 1)), the scheme's
    download from its round-1 cost per database and the cost of one sum led
    by each v < mu (C(mu-v, tau-1) (n-1)^(tau-1) per database in round tau),
    by Horner in n over the scheme's terms.  Exact for integer costs;
    math.inf past the double range for floats."""
    return n * _horner(n, _scheme_terms(joint, lead_costs)[::-1])


def d_one(n: int, profile: EntropyProfile) -> float:
    """Download cost per segment length of the compress-then-sum scheme: the
    rounds of round_download summed by scheme_download."""
    _check_n(n)
    return scheme_download(n, profile.joint, profile.h[:-1])


class RateReport(
    namedtuple(
        "RateReport",
        "n mu f h_min achievable outer_bound lower_bound baseline_pir "
        "baseline_pir_unnormalized d_opt d_one capacity_met degenerate",
    )
):
    """All rate figures for one (n, candidate set) instance; capacity_met is
    the achievable rate equal to the outer bound, at every n; degenerate is
    mu = 1, rate 1 by the direct-retrieval convention."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.lower_bound > self.achievable + 1e-9:
            raise UsageError("lower bound exceeds achievable rate")
        if self.achievable > self.outer_bound + 1e-9:
            raise UsageError("achievable rate exceeds outer bound")
        return self

    def as_dict(self) -> dict:
        return self._asdict()


def rate_report(n: int, candidate_set) -> RateReport:
    """Evaluate every bound of the theory for one candidate set."""
    profile = candidate_set.profile
    if profile.h_max <= 0.0:
        raise DegenerateInstanceError("all candidates constant")
    # achievable = outer bound exactly when every term of D_a - D_o =
    # sum_{v<mu} (n^-(v-1) - n^-(mu-1)) (h[v] - dJ_v), each >= 0, is zero
    gaps = [h - dj for h, dj in zip(profile.h[:-1], _increments(profile))]
    return RateReport(
        n=n,
        mu=profile.mu,
        f=candidate_set.f,
        h_min=profile.h_min,
        achievable=achievable_rate(n, profile),
        outer_bound=outer_bound(n, profile),
        lower_bound=rate_lower_bound(n, profile.mu, profile.h_min, profile.h_max),
        baseline_pir=baseline_virtual_pir_rate(n, profile.mu, profile.h_min),
        baseline_pir_unnormalized=pir_capacity(n, profile.mu),
        d_opt=d_opt(n, profile),
        d_one=d_one(n, profile),
        capacity_met=max(gaps, default=0.0) <= CAPACITY_TOL,
        degenerate=profile.mu == 1,
    )

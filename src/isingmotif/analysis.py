"""Poisson comparison layer: limit targets, Stein-Chen bound, rate fits.

For a motif with k positives and perimeter gamma, under the field schedule
exp(2 a(n)) = c * n**(-d/k), the count of motif occurrences approaches a
Poisson law with parameter c**k * exp(-2 b gamma).  This module computes that
target, measures total variation distances against it, bounds the distance of
the increasing (superset) count via the Stein-Chen method, and fits empirical
decay rates on log-log scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .distributions import (  # noqa: F401  (re-exported surface)
    CountDistribution,
    PoissonTarget,
    factorial_moments,
    poisson_limit,
    tv_distance,
)
from .errors import DegenerateFit, FerromagneticOnly
from .exact import FieldSchedule
from .motifs import LocalConfig


def poisson_target(schedule: FieldSchedule, b: float, motif: LocalConfig) -> PoissonTarget:
    """Poisson target for a motif counted under the given schedule.

    Raises:
        MotifScheduleMismatch: if k(motif) or d differs from the schedule's
            (the scaling of the field is tied to the motif's positive count).
    """
    schedule.check_motif(motif)
    return PoissonTarget(poisson_limit(schedule.c, b, motif))


def stein_chen_bound(superset_law: CountDistribution, num_sites: int, b: float) -> float:
    """Upper bound on d_TV(law of superset count, Poisson(its mean)).

    With lambda_n the mean and Var the variance of the exact superset-count
    law on a torus of ``num_sites`` sites, the bound (Barbour, Holst and
    Janson, *Poisson Approximation*, 1992) is

        (1 - exp(-lambda_n)) / lambda_n * (Var - lambda_n + 2 lambda_n^2 / n^d),

    using translation invariance to collapse the sum of squared per-site
    expectations into lambda_n^2 / n^d.  Valid for a nonnegative pair
    potential b, where the increasing per-site indicators are positively
    related.  A mean that underflows to 0 gives 0: the law is then the point
    mass at 0, which is Poisson(0).

    Raises:
        FerromagneticOnly: if the pair potential b is negative.
    """
    if b < 0:
        raise FerromagneticOnly("the Stein-Chen bound requires b >= 0")
    lam_n = superset_law.mean
    if lam_n == 0.0:
        return 0.0
    prefactor = (1.0 - math.exp(-lam_n)) / lam_n
    return prefactor * (superset_law.variance - lam_n + 2.0 * lam_n**2 / num_sites)


class RateFit(NamedTuple):
    slope: float
    intercept: float
    r2: float


def rate_fit(
    ns: Sequence[int], values: Sequence[float], error_floor: float = 0.0
) -> RateFit:
    """Least-squares fit of log(value) against log(n).

    Points whose value falls below 10x ``error_floor`` are excluded, so noise
    never corrupts the slope of a decaying sequence.

    Raises:
        DegenerateFit: nonpositive values, or fewer than 3 usable points.
    """
    if len(ns) != len(values):
        raise ValueError("ns and values must have the same length")
    pairs = list(zip(ns, values))
    if any(v <= 0 for _, v in pairs):
        raise DegenerateFit("rate fit requires strictly positive values")
    usable = [(n, v) for n, v in pairs if v >= 10.0 * error_floor]
    if len(usable) < 3:
        raise DegenerateFit(f"need at least 3 usable points, got {len(usable)}")
    x = np.log([n for n, _ in usable])
    y = np.log([v for _, v in usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    r2 = 1.0 if ss_tot == 0.0 and ss_res <= 1e-24 else 1.0 - ss_res / ss_tot
    return RateFit(float(slope), float(intercept), float(r2))


@dataclass(frozen=True)
class RingCheckReport:
    """Distance between the counts of a motif and of its ringed extension.

    The ringed motif adds an all-negative shell; its count never exceeds the
    base motif's count, and both laws merge as the lattice grows under the
    schedule.
    """

    tv: float
    mean_difference: float
    base_mean: float
    ring_mean: float


def ring_equivalence_check(
    base_law: CountDistribution, ring_law: CountDistribution
) -> RingCheckReport:
    """Exact TV and mean gap between the count laws of a motif and its ring."""
    return RingCheckReport(
        tv=tv_distance(base_law, ring_law),
        mean_difference=abs(base_law.mean - ring_law.mean),
        base_mean=base_law.mean,
        ring_mean=ring_law.mean,
    )

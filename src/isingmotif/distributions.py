"""Integer count distributions, Poisson targets and limits, and total variation distance."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteLimit, NotNormalized
from .motifs import LocalConfig

#: Fixed rounding allowance in the error budget of every TV against a Poisson target.
POISSON_TAIL = 1e-12

_NORMALIZATION_TOL = 1e-9

#: Samples per ``np.unique`` call in ``CountDistribution.from_samples``.
_SAMPLE_CHUNK = 1 << 16


class CountDistribution:
    """Distribution of a nonnegative integer count, exact or empirical.

    ``sample_size == 0`` marks an exact law; a positive value records how many
    samples the empirical frequencies came from (used for error budgets).
    """

    def __init__(self, pmf: Mapping[int, float], sample_size: int = 0):
        cleaned: dict[int, float] = {}
        for key, mass in pmf.items():
            k = int(key)
            if k != key or k < 0:
                raise ValueError(f"support must be nonnegative integers, got {key!r}")
            if mass < -1e-15:
                raise NotNormalized(f"negative mass {mass} at {k}")
            if mass > 0.0:
                cleaned[k] = float(mass)
        total = math.fsum(cleaned.values())
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise NotNormalized(f"masses sum to {total}, not 1")
        self._pmf = dict(sorted(cleaned.items()))
        self.sample_size = int(sample_size)

    @classmethod
    def from_samples(cls, counts: Iterable[int]) -> "CountDistribution":
        """Empirical law of the samples; ``__init__`` checks that they are integers >= 0.

        The frequencies are summed over chunks of ``_SAMPLE_CHUNK`` samples, so
        no temporary grows with the number of samples.
        """
        counts = np.asarray(list(counts) if not isinstance(counts, np.ndarray) else counts)
        if counts.size == 0:
            raise ValueError("no samples")
        flat, freq = counts.reshape(-1), Counter()
        for start in range(0, flat.size, _SAMPLE_CHUNK):
            values, found = np.unique(flat[start:start + _SAMPLE_CHUNK], return_counts=True)
            freq.update(dict(zip(values.tolist(), found.tolist())))
        pmf = {v: f / counts.size for v, f in freq.items()}
        return cls(pmf, sample_size=int(counts.size))

    @property
    def is_exact(self) -> bool:
        return self.sample_size == 0

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self._pmf)

    def pmf(self, k: int) -> float:
        return self._pmf.get(k, 0.0)

    @property
    def mean(self) -> float:
        return math.fsum(k * p for k, p in self._pmf.items())

    @property
    def variance(self) -> float:
        m = self.mean
        return math.fsum((k - m) ** 2 * p for k, p in self._pmf.items())

    def factorial_moment(self, order: int) -> float:
        """E[X (X-1) ... (X-order+1)]: sums pmf(k) * k!/(k-order)!."""
        if order < 1:
            raise ValueError("order must be >= 1")
        total = 0.0
        for k, p in self._pmf.items():
            if k >= order:
                fall = 1
                for j in range(order):
                    fall *= k - j
                total += p * fall
        return total

    def __repr__(self) -> str:
        kind = "exact" if self.is_exact else f"empirical(m={self.sample_size})"
        return f"CountDistribution({kind}, mean={self.mean:.6g}, support={self.support})"


@dataclass(frozen=True)
class PoissonTarget:
    """A Poisson law used as comparison target."""

    lam: float

    def __post_init__(self):
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError("Poisson parameter must be a positive finite real")

    def pmf_upto(self, kmax: int) -> list[float]:
        """Masses of 0..kmax in Loader's saddle-point form (Loader, "Fast and
        accurate computation of binomial probabilities", 2000): p_0 = exp(-lam),
        p_k = exp(-stirlerr(k) - bd0(k, lam)) / sqrt(2 pi k).

        No mass is computed from another, so no rounding builds up along k:
        against 40-digit masses of 0..20000 the L1 error stays below 5e-16 for
        lam from 1e-3 to 1e9, the mode of Poisson(1e4) included.
        """
        lam = self.lam
        return [math.exp(-lam)] + [
            math.exp(-_stirlerr(k) - _bd0(k, lam)) / math.sqrt(2.0 * math.pi * k)
            for k in range(1, kmax + 1)
        ]


#: stirlerr(k) = log(k!) - log(sqrt(2 pi k) (k / e)^k) for k = 1..15, correctly rounded
_STIRLERR = (
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
    0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
    0.009255462182712733, 0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)


def _stirlerr(k: int) -> float:
    """The error of Stirling's formula for log(k!): a table to 15, then 5 terms of its series."""
    if k <= 15:
        return _STIRLERR[k - 1]
    kk = k * k
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / kk) / kk) / kk) / kk) / k


def _bd0(x: int, lam: float) -> float:
    """x log(x / lam) + lam - x, by its series in v = (x - lam) / (x + lam) near x = lam."""
    if abs(x - lam) >= 0.1 * (x + lam):
        return x * math.log(x / lam) + lam - x
    v = (x - lam) / (x + lam)
    total, term = (x - lam) * v, 2.0 * x * v
    for j in itertools.count(1):
        term *= v * v
        nxt = total + term / (2 * j + 1)
        if nxt == total:
            return total
        total = nxt


def poisson_limit(c: float, b: float, motif: LocalConfig) -> float:
    """The limit parameter c**k * exp(-2 b gamma) of a motif with k positives
    and perimeter gamma, as exp(k log c - 2 b gamma).

    Raises:
        NonFiniteLimit: if the parameter is not a finite float.
    """
    log_lam = motif.k * math.log(c) - 2.0 * b * motif.perimeter
    try:
        lam = math.exp(log_lam)
    except OverflowError:
        lam = math.inf
    if not math.isfinite(lam):
        raise NonFiniteLimit(f"lambda = exp({log_lam!r}) is not a finite float")
    return lam


def tv_distance(p: CountDistribution, q, with_budget: bool = False):
    """Total variation distance, half the L1 distance between the two pmfs.

    ``q`` may be another CountDistribution or a PoissonTarget.  Against a
    Poisson target the sum reads the Poisson masses on 0..max(p.support) only:
    ``p`` has no mass beyond, so the Poisson mass there enters as the one
    term 1 - sum of those masses, and the distance is exact up to rounding.
    Its budget is the fixed allowance POISSON_TAIL.  For empirical inputs the
    budget also carries the plug-in bias bound sqrt(support size / sample size).

    Returns the distance, or (distance, error_budget) if ``with_budget``.
    """
    budget = 0.0
    if isinstance(q, PoissonTarget):
        masses = q.pmf_upto(max(p.support))
        tail = max(1.0 - math.fsum(masses), 0.0)
        tv = 0.5 * (math.fsum(abs(p.pmf(k) - mass) for k, mass in enumerate(masses)) + tail)
        budget += POISSON_TAIL
    elif isinstance(q, CountDistribution):
        keys = set(p.support) | set(q.support)
        tv = 0.5 * math.fsum(abs(p.pmf(k) - q.pmf(k)) for k in keys)
        if q.sample_size > 0:
            budget += math.sqrt(len(keys) / q.sample_size)
    else:
        raise TypeError(f"cannot compare against {type(q).__name__}")
    if p.sample_size > 0:
        support = len(p.support) if isinstance(q, PoissonTarget) else len(keys)
        budget += math.sqrt(support / p.sample_size)
    tv = float(min(max(tv, 0.0), 1.0))
    if with_budget:
        return tv, float(budget)
    return tv

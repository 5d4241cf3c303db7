"""Integer count distributions, Poisson targets and limits, and total variation distance."""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteLimit, NotNormalized
from .motifs import LocalConfig

#: Fixed rounding allowance in the error budget of every TV against a Poisson target.
POISSON_TAIL = 1e-12

_NORMALIZATION_TOL = 1e-9


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
        """Empirical law of the samples; ``__init__`` checks that they are integers >= 0."""
        counts = np.asarray(list(counts) if not isinstance(counts, np.ndarray) else counts)
        if counts.size == 0:
            raise ValueError("no samples")
        values, freq = np.unique(counts, return_counts=True)
        pmf = {v: f / counts.size for v, f in zip(values.tolist(), freq)}
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
        """Masses of 0..kmax, climbing by p_k = p_{k-1} * lam / k in log domain.

        Each step rounds at the scale of lam, so the drift grows with it: in L1
        about 2e-14 through the mode of Poisson(50), 1e-11 through that of 1e4.
        """
        steps = (math.log(self.lam) - math.log(k) for k in range(1, kmax + 1))
        return [math.exp(log_p) for log_p in itertools.accumulate(steps, initial=-self.lam)]


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

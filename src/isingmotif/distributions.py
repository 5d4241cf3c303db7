"""Integer count distributions, Poisson targets and limits, and total variation distance."""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteLimit, NotNormalized
from .motifs import LocalConfig

#: Poisson tails are truncated once this much cumulative mass is reached.
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

    def pmf_truncated(self, at_least: int = 0):
        """Masses 0..K, K >= ``at_least``, with a neglected tail below POISSON_TAIL.

        The pmf climbs by the stable recursion p_{k} = p_{k-1} * lam / k in
        log domain.  Returns (array of masses, leftover tail mass bound).
        """
        masses = []
        log_p = -self.lam
        cum = 0.0
        k = 0
        while True:
            p = math.exp(log_p)
            masses.append(p)
            cum += p
            done_mass = 1.0 - cum <= POISSON_TAIL
            past_mode = k >= self.lam
            if done_mass and past_mode and k >= at_least:
                break
            if k > 10_000_000:  # pragma: no cover - safety stop
                break
            k += 1
            log_p += math.log(self.lam) - math.log(k)
        return np.array(masses), max(1.0 - cum, 0.0)


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
    Poisson target, the tail beyond the truncation point enters the sum as
    unmatched Poisson mass, and the neglected remainder (at most the tail
    cutoff) goes into the error budget.  For empirical inputs the budget also
    carries the plug-in bias bound sqrt(support size / sample size).

    Returns the distance, or (distance, error_budget) if ``with_budget``.
    """
    budget = 0.0
    if isinstance(q, PoissonTarget):
        kmax = max(p.support) if p.support else 0
        masses, leftover = q.pmf_truncated(at_least=kmax)
        total = math.fsum(abs(p.pmf(k) - float(mass)) for k, mass in enumerate(masses))
        tv = 0.5 * (total + leftover)
        budget += leftover + POISSON_TAIL
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

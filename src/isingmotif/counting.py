"""Counting motif occurrences in configurations.

Two matching modes exist for a motif eta at a site x:

* ``exact_match``: the restriction of the configuration to B(x, r) equals the
  translated motif (positives exactly on x + positives, the rest of the ball
  negative).
* ``superset_match``: the configuration is +1 on all of x + positives,
  regardless of the other ball sites.  This indicator is increasing in the
  configuration, and the superset count dominates the exact count pointwise.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .distributions import CountDistribution
from .errors import LatticeTooSmall, SignatureMismatch
from .exact import ExactMeasure, SpinConfig
from .lattice import TorusLattice, Vertex
from .motifs import LocalConfig

EXACT_MATCH = "exact_match"
SUPERSET_MATCH = "superset_match"
MODES = (EXACT_MATCH, SUPERSET_MATCH)

#: Bytes of one (samples, sites) int8 gather in ``count_samples``.
_SAMPLE_CHUNK_BYTES = 1 << 20


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _check_motif(lattice: TorusLattice, motif: LocalConfig) -> None:
    if motif.signature != lattice.signature:
        raise SignatureMismatch(
            f"motif signature {motif.signature} != lattice signature {lattice.signature}"
        )
    if lattice.n <= 2 * lattice.rho * motif.radius:
        raise LatticeTooSmall(
            f"motif of radius {motif.radius} needs n > {2 * lattice.rho * motif.radius}, "
            f"got n={lattice.n}"
        )


@lru_cache(maxsize=None)
def _site_tables(lattice: TorusLattice, motif: LocalConfig, mode: str):
    """The sites each site's match inspects, and the spin each must carry.

    Returns (idx, want) with shapes (N, m) and (m,): row x of ``idx`` lists the
    site indices of x + positives, then, in exact mode only, those of the rest
    of the ball around x; ``want`` holds the matching +1 / -1 spins.  Every
    counter reads this table.

    Raises:
        ValueError: unknown mode.
        SignatureMismatch, LatticeTooSmall: motif and lattice do not fit.
    """
    _check_mode(mode)
    _check_motif(lattice, motif)
    plus = sorted(motif.positives)
    rest = sorted(set(motif.ball_sites) - motif.positives) if mode == EXACT_MATCH else []
    n, d = lattice.n, lattice.d
    sites = np.array([lattice.vertex_at(i) for i in range(lattice.num_sites)], dtype=np.int64)
    offsets = np.array(plus + rest, dtype=np.int64).reshape(-1, d)
    coords = (sites[:, None, :] + offsets[None, :, :]) % n
    idx = np.zeros(coords.shape[:2], dtype=np.int64)
    for axis in range(d):
        idx = idx * n + coords[:, :, axis]
    return idx, np.array([1] * len(plus) + [-1] * len(rest), dtype=np.int8)


@lru_cache(maxsize=None)
def _site_words(lattice: TorusLattice, motif: LocalConfig, mode: str):
    """``_site_tables`` as bitmask words: a mask matches at x iff mask & care[x] == plus[x]."""
    idx, want = _site_tables(lattice, motif, mode)
    word = np.uint32 if lattice.num_sites <= 32 else np.uint64
    bits = np.left_shift(word(1), idx.astype(word))
    return np.bitwise_or.reduce(bits, axis=1), np.bitwise_or.reduce(bits[:, want == 1], axis=1)


def _mask_hits(lattice: TorusLattice, motif: LocalConfig, mode: str, start: int, stop: int):
    """Yield, site by site, whether each bitmask in range(start, stop) matches there.

    The yielded boolean array is one buffer, overwritten at the next site.
    """
    care, plus = _site_words(lattice, motif, mode)
    masks = np.arange(start, stop, dtype=care.dtype)
    selected = np.empty_like(masks)
    hit = np.empty(len(masks), dtype=bool)
    for care_x, plus_x in zip(care, plus):
        np.bitwise_and(masks, care_x, out=selected)
        yield np.equal(selected, plus_x, out=hit)


def indicator(cfg: SpinConfig, x: Vertex, motif: LocalConfig, mode: str) -> int:
    """1 if the motif occurs at x in the given mode, else 0.

    Scans the translated positives (and, in exact mode, the negative rest of
    the ball) with early exit on the first mismatch.
    """
    _check_mode(mode)
    lattice = cfg.lattice
    _check_motif(lattice, motif)
    x = lattice.canon(x)
    spins = cfg.spins
    for off in motif.positives:
        if spins[lattice.site_index(lattice.add(x, off))] != 1:
            return 0
    if mode == EXACT_MATCH:
        for off in set(motif.ball_sites) - motif.positives:
            if spins[lattice.site_index(lattice.add(x, off))] != -1:
                return 0
    return 1


def count(cfg: SpinConfig, motif: LocalConfig, mode: str) -> int:
    """Number of sites at which the motif occurs (between 0 and n^d)."""
    return int(count_samples(cfg.lattice, cfg.spins[None, :], motif, mode)[0])


def count_samples(
    lattice: TorusLattice, spins: np.ndarray, motif: LocalConfig, mode: str
) -> np.ndarray:
    """Counts for a whole (num_samples, n^d) matrix of configurations.

    Works through the samples in chunks of about ``_SAMPLE_CHUNK_BYTES`` per
    (samples, sites) gather, one column of the site table at a time, so the
    working set stays a few MB whatever the batch size.
    """
    idx, want = _site_tables(lattice, motif, mode)
    spins = np.asarray(spins, dtype=np.int8)
    totals = np.zeros(spins.shape[0], dtype=np.int64)
    step = max(1, _SAMPLE_CHUNK_BYTES // lattice.num_sites)
    for start in range(0, spins.shape[0], step):
        block = spins[start:start + step]
        match = np.ones(block.shape, dtype=bool)
        for j in range(idx.shape[1]):
            match &= block[:, idx[:, j]] == want[j]
        totals[start:start + step] = match.sum(axis=1)
    return totals


def count_all_masks(
    lattice: TorusLattice, motif: LocalConfig, mode: str, chunk: int = 1 << 16
) -> np.ndarray:
    """Counts for every configuration bitmask of the lattice (exact pipeline).

    The result is uint8: a count never exceeds the number of sites, far below
    256 wherever the 2**sites masks can be enumerated.
    """
    total = 1 << lattice.num_sites
    counts = np.zeros(total, dtype=np.uint8)
    for start in range(0, total, chunk):
        acc = counts[start:start + chunk]
        for hit in _mask_hits(lattice, motif, mode, start, start + len(acc)):
            acc += hit
    return counts


def site_match_probabilities(measure: ExactMeasure, motif: LocalConfig, mode: str) -> np.ndarray:
    """Exact occurrence probability of the motif at every site."""
    probs = measure.probabilities()
    hits = _mask_hits(measure.lattice, motif, mode, 0, measure.num_configs)
    return np.array([probs[hit].sum() for hit in hits])


@lru_cache(maxsize=16)
def _mask_counts(lattice: TorusLattice, motif: LocalConfig, mode: str) -> np.ndarray:
    """Read-only ``count_all_masks``, shared by every measure on the lattice."""
    counts = count_all_masks(lattice, motif, mode)
    counts.flags.writeable = False
    return counts


def count_distribution_exact(
    measure: ExactMeasure, motif: LocalConfig, mode: str
) -> CountDistribution:
    """Exact law of the motif count under the measure, with cached moments."""
    counts = _mask_counts(measure.lattice, motif, mode)
    pmf = np.bincount(counts, weights=measure.probabilities())
    return CountDistribution({k: float(p) for k, p in enumerate(pmf) if p > 0.0}, sample_size=0)

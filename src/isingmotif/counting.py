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

from dataclasses import dataclass
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


@dataclass(frozen=True)
class CountObservable:
    """A motif together with the matching mode used to count it."""

    motif: LocalConfig
    mode: str

    def __post_init__(self):
        _check_mode(self.mode)


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
def _site_tables(lattice: TorusLattice, motif: LocalConfig):
    """Per-site index arrays for the motif's positives and negative ball rest.

    Returns (plus_idx, rest_idx) with shapes (N, k) and (N, beta - k), where
    row x lists the site indices of x + positives and of the remaining ball
    sites around x.
    """
    n, d = lattice.n, lattice.d
    sites = np.array([lattice.vertex_at(i) for i in range(lattice.num_sites)], dtype=np.int64)
    plus = np.array(sorted(motif.positives), dtype=np.int64).reshape(motif.k, d)
    rest = np.array(
        sorted(set(motif.ball_sites) - motif.positives), dtype=np.int64
    ).reshape(motif.size - motif.k, d)

    def to_indices(offsets: np.ndarray) -> np.ndarray:
        coords = (sites[:, None, :] + offsets[None, :, :]) % n
        idx = np.zeros(coords.shape[:2], dtype=np.int64)
        for axis in range(d):
            idx = idx * n + coords[:, :, axis]
        return idx

    return to_indices(plus), to_indices(rest)


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
    _check_mode(mode)
    lattice = cfg.lattice
    _check_motif(lattice, motif)
    plus_idx, rest_idx = _site_tables(lattice, motif)
    matches = (cfg.spins[plus_idx] == 1).all(axis=1)
    if mode == EXACT_MATCH and rest_idx.shape[1]:
        matches &= (cfg.spins[rest_idx] == -1).all(axis=1)
    return int(matches.sum())


def count_samples(
    lattice: TorusLattice, spins: np.ndarray, motif: LocalConfig, mode: str
) -> np.ndarray:
    """Counts for a whole (num_samples, n^d) matrix of configurations.

    Works through the samples in chunks of about ``_SAMPLE_CHUNK_BYTES`` per
    (samples, sites) gather, one motif offset at a time, so the working set
    stays a few MB whatever the batch size.
    """
    _check_mode(mode)
    _check_motif(lattice, motif)
    spins = np.asarray(spins, dtype=np.int8)
    plus_idx, rest_idx = _site_tables(lattice, motif)
    columns = [(plus_idx[:, j], 1) for j in range(plus_idx.shape[1])]
    if mode == EXACT_MATCH:
        columns += [(rest_idx[:, j], -1) for j in range(rest_idx.shape[1])]
    totals = np.zeros(spins.shape[0], dtype=np.int64)
    step = max(1, _SAMPLE_CHUNK_BYTES // lattice.num_sites)
    for start in range(0, spins.shape[0], step):
        block = spins[start:start + step]
        match = np.ones(block.shape, dtype=bool)
        for idx, want in columns:
            match &= block[:, idx] == want
        totals[start:start + step] = match.sum(axis=1)
    return totals


def count_all_masks(
    lattice: TorusLattice, motif: LocalConfig, mode: str, chunk: int = 1 << 16
) -> np.ndarray:
    """Counts for every configuration bitmask of the lattice (exact pipeline).

    The result is uint8: a count never exceeds the number of sites, far below
    256 wherever the 2**sites masks can be enumerated.
    """
    _check_mode(mode)
    _check_motif(lattice, motif)
    n_sites = lattice.num_sites
    plus_idx, rest_idx = _site_tables(lattice, motif)
    word = np.uint32 if n_sites <= 32 else np.uint64
    plus_masks = [word(sum(1 << int(i) for i in plus_idx[x])) for x in range(n_sites)]
    ball_masks = [
        word(int(plus_masks[x]) | sum(1 << int(i) for i in rest_idx[x]))
        for x in range(n_sites)
    ]
    total = 1 << n_sites
    counts = np.zeros(total, dtype=np.uint8)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        masks = np.arange(start, stop, dtype=word)
        acc = counts[start:stop]
        selected = np.empty_like(masks)
        hit = np.empty(stop - start, dtype=bool)
        for x in range(n_sites):
            want = plus_masks[x]
            np.bitwise_and(masks, ball_masks[x] if mode == EXACT_MATCH else want, out=selected)
            acc += np.equal(selected, want, out=hit)
    return counts


def site_match_probabilities(measure: ExactMeasure, motif: LocalConfig, mode: str) -> np.ndarray:
    """Exact occurrence probability of the motif at every site."""
    _check_mode(mode)
    lattice = measure.lattice
    _check_motif(lattice, motif)
    plus_idx, rest_idx = _site_tables(lattice, motif)
    probs = measure.probabilities()
    masks = np.arange(measure.num_configs, dtype=np.uint64)
    out = np.empty(lattice.num_sites, dtype=np.float64)
    for x in range(lattice.num_sites):
        want = np.uint64(sum(1 << int(i) for i in plus_idx[x]))
        sel = want
        if mode == EXACT_MATCH:
            sel = np.uint64(int(want) | sum(1 << int(i) for i in rest_idx[x]))
        out[x] = probs[(masks & sel) == want].sum()
    return out


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

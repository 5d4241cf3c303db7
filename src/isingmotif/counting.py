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
from .exact import ExactMeasure, SpinConfig, as_spins, read_only
from .lattice import TorusLattice, Vertex
from .motifs import LocalConfig

EXACT_MATCH = "exact_match"
SUPERSET_MATCH = "superset_match"
MODES = (EXACT_MATCH, SUPERSET_MATCH)

#: Bytes of one chunk of samples in ``count_samples`` (sites x samples, int8).
_SAMPLE_CHUNK_BYTES = 1 << 17

#: Bitmasks per chunk in ``count_all_masks``.
_MASK_CHUNK = 1 << 16


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


@lru_cache(maxsize=None)
def _site_tables(lattice: TorusLattice, motif: LocalConfig, mode: str):
    """The offsets each site's match inspects, and the spin each must carry.

    Returns (offsets, want) with shapes (m, d) and (m,): the rows of
    ``offsets`` are the positives, then, in exact mode only, the rest of the
    ball; ``want`` holds the matching +1 / -1 spins.  The match at x inspects
    the sites x + offsets.  Every counter reads this table.

    Raises:
        ValueError: unknown mode.
        SignatureMismatch, LatticeTooSmall: motif and lattice do not fit.
    """
    _check_mode(mode)
    motif.check_fits(lattice)
    plus = sorted(motif.positives)
    rest = sorted(set(motif.ball_sites) - motif.positives) if mode == EXACT_MATCH else []
    offsets = np.array(plus + rest, dtype=np.int64).reshape(-1, lattice.d)
    want = np.array([1] * len(plus) + [-1] * len(rest), dtype=np.int8)
    return read_only(offsets), read_only(want)


@lru_cache(maxsize=None)
def _site_words(lattice: TorusLattice, motif: LocalConfig, mode: str):
    """``_site_tables`` as bitmask words: a mask matches at x iff mask & care[x] == plus[x]."""
    offsets, want = _site_tables(lattice, motif, mode)
    shape = (lattice.n,) * lattice.d
    sites = np.indices(shape).reshape(lattice.d, -1, 1)  # site index order is row-major
    idx = np.ravel_multi_index(tuple(sites + offsets.T[:, None, :]), shape, mode="wrap")
    word = np.uint32 if lattice.num_sites <= 32 else np.uint64
    bits = np.left_shift(word(1), idx.astype(word))
    care = np.bitwise_or.reduce(bits, axis=1)
    return read_only(care), read_only(np.bitwise_or.reduce(bits[:, want == 1], axis=1))


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
    motif.check_fits(lattice)
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
    """Counts for a whole (num_samples, n^d) matrix of +1 / -1 configurations.

    Works through the samples in chunks of about ``_SAMPLE_CHUNK_BYTES``.  Each
    chunk is copied once into an int8 sites-major buffer of shape
    (n + 2R, ..., n + 2R, chunk), R the largest offset component of the
    pattern, whose border is filled by wrap-around one axis at a time (so the
    corners too).  A pattern column with offset o is then the slice
    [R + o_1 : R + o_1 + n, ...] of that buffer; the columns, signed by the
    wanted spin, add up in an accumulator, and a site matches where the sum is
    the number of columns.

    Raises:
        ValueError: ``spins`` is not 2-D with n^d columns, or holds an entry
            other than +1 and -1; or an unknown mode.
        SignatureMismatch, LatticeTooSmall: motif and lattice do not fit.
    """
    offsets, want = _site_tables(lattice, motif, mode)
    spins = np.asarray(spins)
    if spins.ndim != 2 or spins.shape[1] != lattice.num_sites:
        raise ValueError(
            f"spins must have shape (samples, {lattice.num_sites}), got {spins.shape}"
        )
    n, d, columns = lattice.n, lattice.d, len(want)
    halo = int(np.abs(offsets).max(initial=0))  # below n / 2, as n > 2 * rho * radius
    step = max(1, min(len(spins), _SAMPLE_CHUNK_BYTES // lattice.num_sites))
    pad = np.empty((n + 2 * halo,) * d + (step,), dtype=np.int8)
    acc = np.empty((n,) * d + (step,), dtype=np.int8 if columns <= 127 else np.int16)
    windows = [tuple(slice(halo + o, halo + o + n) for o in off) for off in offsets]
    core = (slice(halo, halo + n),) * d
    totals = np.empty(len(spins), dtype=np.int64)
    for start in range(0, len(spins), step):
        block = as_spins(spins[start:start + step])
        k = len(block)
        part, total = pad[..., :k], acc[..., :k]
        part[core] = np.moveaxis(block.reshape((k,) + (n,) * d), 0, -1)
        for axis in range(d):
            lead = (slice(None),) * axis
            part[lead + (slice(0, halo),)] = part[lead + (slice(n, n + halo),)]
            part[lead + (slice(n + halo, None),)] = part[lead + (slice(halo, 2 * halo),)]
        total.fill(0)
        for window, spin in zip(windows, want):
            (np.add if spin == 1 else np.subtract)(total, part[window], out=total)
        hits = (total == columns).reshape(lattice.num_sites, k)
        totals[start:start + k] = hits.sum(axis=0, dtype=np.int32)
    return totals


def count_all_masks(lattice: TorusLattice, motif: LocalConfig, mode: str) -> np.ndarray:
    """Counts for every configuration bitmask of the lattice (exact pipeline).

    The masks are counted in chunks of ``_MASK_CHUNK``.  The result is uint8:
    a count never exceeds the number of sites, far below 256 wherever the
    2**sites masks can be enumerated.
    """
    total = 1 << lattice.num_sites
    counts = np.zeros(total, dtype=np.uint8)
    for start in range(0, total, _MASK_CHUNK):
        acc = counts[start:start + _MASK_CHUNK]
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
    return read_only(count_all_masks(lattice, motif, mode))


def count_distribution_exact(
    measure: ExactMeasure, motif: LocalConfig, mode: str
) -> CountDistribution:
    """Exact law of the motif count under the measure, with cached moments."""
    counts = _mask_counts(measure.lattice, motif, mode)
    pmf = np.bincount(counts, weights=measure.probabilities())
    return CountDistribution({k: float(p) for k, p in enumerate(pmf) if p > 0.0}, sample_size=0)

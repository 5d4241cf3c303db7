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
from typing import Sequence

import numpy as np

from . import exact
from .distributions import CountDistribution
from .exact import ExactMeasure, SpinConfig, as_spins, read_only
from .lattice import TorusLattice, Vertex
from .motifs import LocalConfig

EXACT_MATCH = "exact_match"
SUPERSET_MATCH = "superset_match"
MODES = (EXACT_MATCH, SUPERSET_MATCH)

#: Bytes of one chunk of samples in ``count_samples`` (sites x samples, int8).
_SAMPLE_CHUNK_BYTES = 1 << 17


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


@lru_cache(maxsize=None)  # mcmc_grid, cftp_grid: every b on a lattice reuses it
def _site_tables(lattice: TorusLattice, motif: LocalConfig, mode: str):
    """The sites each site's match reads, and the spin each must carry.

    Returns (index, want) with shapes (m, n^d) and (m,): column j of the match
    at site x reads the wrapped site ``index[j, x]``, x + offset_j on the
    torus, and wants the spin ``want[j]``.  The offsets are the positives,
    then, in exact mode only, the rest of the ball.  Every counter reads this
    table.

    Raises:
        ValueError: unknown mode.
        SignatureMismatch, LatticeTooSmall: motif and lattice do not fit.
    """
    _check_mode(mode)
    motif.check_fits(lattice)
    plus = sorted(motif.positives)
    rest = sorted(set(motif.ball_sites) - motif.positives) if mode == EXACT_MATCH else []
    offsets = np.array(plus + rest, dtype=np.int64).reshape(-1, lattice.d)
    shape = (lattice.n,) * lattice.d
    sites = np.indices(shape).reshape(lattice.d, 1, lattice.num_sites)  # row-major site order
    index = np.ravel_multi_index(tuple(sites + offsets.T[:, :, None]), shape, mode="wrap")
    want = np.array([1] * len(plus) + [-1] * len(rest), dtype=np.int8)
    return read_only(index), read_only(want)


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
    chunk is made an int8 sites-major (n^d, chunk) block, without a copy when
    the rows are the transpose of such a block, as the samplers' are.  Row x of
    the gather ``block.take(index[j], axis=0)`` holds the spins that column j
    of the ``_site_tables`` match at x reads; the gathers, signed by the wanted
    spin, add up in an accumulator, and a site matches where the sum is the
    number of columns.

    Raises:
        ValueError: ``spins`` is not 2-D with n^d columns, or holds an entry
            other than +1 and -1; or an unknown mode.
        SignatureMismatch, LatticeTooSmall: motif and lattice do not fit.
    """
    index, want = _site_tables(lattice, motif, mode)
    spins = np.asarray(spins)
    if spins.ndim != 2 or spins.shape[1] != lattice.num_sites:
        raise ValueError(
            f"spins must have shape (samples, {lattice.num_sites}), got {spins.shape}"
        )
    columns = len(want)
    step = max(1, min(len(spins), _SAMPLE_CHUNK_BYTES // lattice.num_sites))
    acc = np.empty((lattice.num_sites, step), dtype=np.int8 if columns <= 127 else np.int16)
    totals = np.empty(len(spins), dtype=np.int64)
    for start in range(0, len(spins), step):
        block = np.ascontiguousarray(as_spins(spins[start:start + step]).T)
        total = acc[:, :block.shape[1]]
        total.fill(0)
        for sites, spin in zip(index, want):
            (np.add if spin == 1 else np.subtract)(total, block.take(sites, axis=0), out=total)
        totals[start:start + block.shape[1]] = (total == columns).sum(axis=0, dtype=np.int32)
    return totals


def _count_blocks(lattice: TorusLattice, motif: LocalConfig, mode: str) -> exact.PatternBlocks:
    """The count of every configuration bitmask, one uint8 block at a time.

    The blocks of ``exact.PatternBlocks`` whose patterns are the sites'
    matches, each of weight 1: the match at x reads the sites of column x of
    ``_site_tables``' index and wants +1 where its column wants +1.  The
    arguments are checked at the call, before any block is made.
    """
    index, want = _site_tables(lattice, motif, mode)
    sites = lattice.num_sites
    return exact.PatternBlocks(sites, exact.mask_block(sites), index.T, want == 1, 1, np.uint8)


def count_all_masks(lattice: TorusLattice, motif: LocalConfig, mode: str) -> np.ndarray:
    """Counts for every configuration bitmask of the lattice, as one uint8 array.

    The concatenation of the blocks the exact count laws stream without
    storing (see ``count_laws_exact``), kept for the oracles.  uint8 holds
    every count, which is at most the number of sites: ``TooLargeForExact``
    is raised past ``exact.MASK_BITS`` of them.
    """
    return _count_blocks(lattice, motif, mode).concatenated()


def count_laws_exact(
    measure: ExactMeasure, laws: Sequence[tuple[LocalConfig, str]]
) -> list[CountDistribution]:
    """Exact laws of several ``(motif, mode)`` counts under the measure, in one pass.

    Every law's counts are streamed block by block beside the measure's level
    blocks, so no array of one entry per configuration is made.
    """
    streams = [_count_blocks(measure.lattice, motif, mode) for motif, mode in laws]
    return [
        CountDistribution({k: float(p) for k, p in enumerate(pmf) if p > 0.0}, sample_size=0)
        for pmf in measure.count_pmfs(streams)
    ]


def count_distribution_exact(
    measure: ExactMeasure, motif: LocalConfig, mode: str
) -> CountDistribution:
    """Exact law of the motif count under the measure."""
    return count_laws_exact(measure, [(motif, mode)])[0]

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
from typing import Iterator, Sequence

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


def _site_words(lattice: TorusLattice, motif: LocalConfig, mode: str):
    """``_site_tables`` as bitmask words: a mask matches at x iff mask & care[x] == plus[x]."""
    offsets, want = _site_tables(lattice, motif, mode)
    shape = (lattice.n,) * lattice.d
    sites = np.indices(shape).reshape(lattice.d, -1, 1)  # site index order is row-major
    idx = np.ravel_multi_index(tuple(sites + offsets.T[:, None, :]), shape, mode="wrap")
    word = np.uint32 if lattice.num_sites <= 32 else np.uint64
    bits = np.left_shift(word(1), idx.astype(word))
    care = np.bitwise_or.reduce(bits, axis=1)
    return care, np.bitwise_or.reduce(bits[:, want == 1], axis=1)


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


def _add_matches(words: np.ndarray, care: np.ndarray, plus: np.ndarray, out: np.ndarray):
    """Add to ``out`` the number of sites x with words & care[x] == plus[x]."""
    selected = np.empty_like(words)
    hit = np.empty(len(words), dtype=bool)
    for care_x, plus_x in zip(care, plus):
        np.bitwise_and(words, care_x, out=selected)
        out += np.equal(selected, plus_x, out=hit)
    return out


def _count_blocks(lattice: TorusLattice, motif: LocalConfig, mode: str) -> Iterator[np.ndarray]:
    """The count of every configuration bitmask, one block of 2**L masks at a time.

    Blocks come in bitmask order, 2**L = ``exact.mask_block(sites)`` masks
    each, all in one uint8 buffer that the next block overwrites.  A block's
    counts are the sum of three pieces, tabulated before the first block:

    * a site whose match reads only the low L bits matches alike in every
      block: their counts over 2**L masks form one table;
    * a site that reads only the high bits matches in all of a block or in
      none of it: one offset per block;
    * a site that reads both straddles the block boundary: its indicator over
      the low bits of 2**L masks is added to a block whose start matches the
      site's high bits.

    The arguments are checked at the call, before any block is made.
    """
    care, plus = _site_words(lattice, motif, mode)
    step = exact.mask_block(lattice.num_sites)
    low_bits = care.dtype.type(step - 1)
    masks = np.arange(step, dtype=care.dtype)
    starts = np.arange(0, 1 << lattice.num_sites, step, dtype=care.dtype)
    low = (care & ~low_bits) == 0  # and a site that reads no bit (superset, no positives)
    table = _add_matches(masks, care[low], plus[low], np.zeros(step, dtype=np.uint8))
    care, plus = care[~low], plus[~low]
    # (blocks, sites): the block's start matches the site's high bits
    matches = (starts[:, None] & (care & ~low_bits)) == (plus & ~low_bits)
    straddle = (care & low_bits) != 0
    offsets = matches[:, ~straddle].sum(axis=1, dtype=np.uint8)
    matches = matches[:, straddle]
    care, plus = care[straddle] & low_bits, plus[straddle] & low_bits
    parts = [((masks & c) == p).view(np.uint8) for c, p in zip(care, plus)]

    def blocks():
        out = np.empty(step, dtype=np.uint8)
        for offset, match in zip(offsets, matches):
            np.add(table, offset, out=out)
            for j in np.flatnonzero(match):
                out += parts[j]
            yield out

    return blocks()


def count_all_masks(lattice: TorusLattice, motif: LocalConfig, mode: str) -> np.ndarray:
    """Counts for every configuration bitmask of the lattice, as one uint8 array.

    The concatenation of the blocks the exact count laws stream without
    storing (see ``count_laws_exact``), kept for the oracles.  uint8 holds
    every count: a count never exceeds the number of sites, far below 256
    wherever the 2**sites masks can be enumerated.
    """
    blocks = _count_blocks(lattice, motif, mode)
    counts = np.empty(1 << lattice.num_sites, dtype=np.uint8)
    for row, block in zip(counts.reshape(-1, exact.mask_block(lattice.num_sites)), blocks):
        row[:] = block
    return counts


def count_laws_exact(
    measure: ExactMeasure, laws: Sequence[tuple[LocalConfig, str]]
) -> list[CountDistribution]:
    """Exact laws of several ``(motif, mode)`` counts under the measure, in one pass.

    Every law's counts are streamed block by block beside the measure's level
    index, so no count array of one entry per configuration is made.
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

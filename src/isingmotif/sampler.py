"""Samplers for the Gibbs measure: heat-bath and Metropolis kernels, plus
coupling-from-the-past perfect sampling for the ferromagnetic case.

There are two ways to draw: ``sample_with_params`` returns a ``SampleBatch``
from any kernel (replica chains for heat-bath and Metropolis, exact draws for
kind="cftp"), and ``cftp_batch`` returns a (count, sites) matrix of exact
draws.  Both make their samples in blocks of at most ``_SAMPLE_BLOCK_BYTES``
(64 KiB) of spins and store each block at its rows of the matrix; given a
function ``each`` of a block, they store what it makes of the block instead,
so a caller that needs one count per sample keeps the counts, never the
samples.

Reproducibility contract: every uniform any sampler reads is a pure function
of (seed, chain, time, site), so reruns with the same seed are bit-identical,
no two chains share randomness, and a chain does not depend on how chains are
batched.  Chain i is MCMC replica i or CFTP draw i.  The stream is
counter-based (Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as
easy as 1, 2, 3", SC 2011): the uniform of chain i at time t, site x of an
S-site lattice is

    key_i = mix(mix((seed + 1) * G) ^ mix((i + 1) * G))
    w     = mix(key_i + (t * S + x) * G) >> 11
    u     = w * 2**-53

in uint64 arithmetic, where mix is the SplitMix64 finaliser (Steele, Lea and
Flood, OOPSLA 2014) and G = 0x9E3779B97F4A7C15.  An MCMC replica starts with
spin +1 at x iff its t = 0 uniform is below 1/2 and reads time t in sweep t.
Coupling-from-the-past reads time t >= 1 for the sweep at time -t, so each
doubling round re-reads the randomness of the times it shares with earlier
rounds.  Its rounds sweep every pending draw of a call together, from a start
horizon learned on a pilot of the first draws; by monotonicity a draw's value
does not depend on the horizon its rounds start from.

Both kernels perform systematic scans in colour-class order.  The neighbor
graph is coloured greedily once per lattice (two classes on even tori with
rho = 1, p = 1); a sweep updates the classes one after another, and all sites
of a class, in all chains, in one vectorized step.  No two sites of a class
are neighbors, so the block update equals a site-by-site scan in colour-major
order: every update sees the freshly updated neighbors, and site x still
consumes its own uniform.  A scan in any fixed order is a systematic-scan
Gibbs (or Metropolis) sampler for the same measure (Gonzalez, Low, Gretton and
Guestrin, AISTATS 2011).  The heat-bath update at site x sets the spin to +1
with probability e^h / (e^h + e^-h), h = a + b * (sum of neighbor spins),
comparing one shared uniform against that probability; for b >= 0 this rule
is monotone in the configuration, which is what coupling-from-the-past
requires (Propp and Wilson, 1996).

Every decision u < p is made on integers: the stream yields the words w and
each kernel's table holds T = ceil(p * 2**53) as uint64, so u < p <=> w <
p * 2**53 <=> w < T, since scaling by 2**53 is exact and w is an integer
(p = 0 gives T = 0, never; p = 1 gives T = 2**53, always).  Inside the
samplers a spin is up = (s + 1) / 2, uint8 in {0, 1}, sites-major: (sites,
chains), or (sites, 2, m) for coupling-from-the-past's stack of top and
bottom chains, the rows in colour-class order so that each class is a
contiguous block.  Tables are indexed by k, the number of + neighbors
(neighbor sum 2k - degree), which a row gather (``take`` on axis 0) adds up
in uint8, or in uint16 once the largest index passes 255: heat-bath sets
up = [w < T(k)] and Metropolis flips up where w < T(k + (degree + 1) up).
Where every heat-bath threshold is equal (b = 0), the sweep sees so and sets
up = [w < T] at every site at once, reading no neighbor; as that state does
not depend on the one before, an MCMC chain then sweeps only at its record
times.

A sampler call makes one ``_Kernel``, whose buffers every sweep of the call
reuses: the kind's threshold table on the lattice's layout, the stream's words
and scratch for the call's chains (a chunk of draws for coupling-from-the-past),
and a sweep's neighbor gather and threshold lookup for the largest class.  It
sweeps an array of chains over a range of times, forward from 1 for MCMC and
back from the horizon for coupling-from-the-past, through ``_words``, which
computes any range about ``_STREAM_BLOCK_BYTES`` (256 KiB) of words at a time;
a chunk of coupling-from-the-past draws fills that block at one time step.  One
stage, ``_stacked``, copies each recorded sample or coalesced draw into a 64
KiB block, which the next block overwrites, restores site order and -1/+1
spins once per block, which stays sites-major, and stores the block, or what
``each`` makes of it, at its batch rows.  So a sampler cell's memory does not
grow with its sample count beyond what ``each`` keeps: heat-bath at d=2, n=64,
b=0.25 with 10**5 samples on 64 replicas, counted by the runner, peaks at 40
MB resident.  The golden runs in tests/data pin every sample bit of the three
kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import AntiferromagneticUnsupported, CoalescenceTimeout
from .exact import ModelParams, SpinConfig, read_only
from .lattice import TorusLattice, as_int

KINDS = ("heat_bath", "metropolis", "cftp")

_U64 = (1 << 64) - 1

#: Neighbor reads per chain, horizon * sites * degree, past which ``cftp_batch``
#: gives up on a draw (2**20 sweeps back on a 16-site lattice of degree 4).
_READ_LIMIT = 1 << 26

#: Bytes of uint64 words in one stream call; a CFTP chunk fills it at one time.
_STREAM_BLOCK_BYTES = 1 << 18

#: Bytes of int8 spins in one block of recorded samples (rows x sites).
_SAMPLE_BLOCK_BYTES = 1 << 16


@dataclass(frozen=True)
class SamplerSpec:
    """How to drive a sampler: kernel, burn-in, thinning and seed.

    ``burn_in_sweeps`` and ``thinning_sweeps`` only apply to the approximate
    kernels; coupling-from-the-past ignores them (each draw is exact).
    """

    kind: str
    burn_in_sweeps: int = 100
    thinning_sweeps: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        # an MCMC chain thinned by 0 sweeps records the same state repeatedly
        thinning_low = 0 if self.kind == "cftp" else 1
        for name, low in (("burn_in_sweeps", 0), ("thinning_sweeps", thinning_low), ("seed", None)):
            object.__setattr__(self, name, as_int(getattr(self, name), name, low))


class _Layout(NamedTuple):
    """The sites-major row layout of one lattice's spins.

    ``order[r]`` is the site stored in row r and ``row_of[x]`` the row of site
    x.  ``classes`` holds one (rows, nbr) pair per colour class: the slice of
    its rows and the (neighbor_count, class_size) matrix of the rows of its
    sites' neighbors.
    """

    order: np.ndarray
    row_of: np.ndarray
    classes: tuple[tuple[slice, np.ndarray], ...]


@lru_cache(maxsize=None)  # mcmc_grid, cftp_grid: every b on a lattice reuses it
def _colour_classes(lattice: TorusLattice) -> _Layout:
    """Greedy proper colouring of the lattice's neighbor graph, cached per lattice.

    Sites are coloured in index order with the smallest colour unused by an
    already coloured neighbor.  The rows hold the classes one after another,
    each class's sites in increasing order.
    """
    rows = [[lattice.site_index(w) for w in lattice.neighbors(v)] for v in lattice.vertices()]
    colour = [-1] * len(rows)
    for x, row in enumerate(rows):
        taken = {colour[y] for y in row}
        colour[x] = next(c for c in range(len(row) + 1) if c not in taken)
    nbr, colour = np.array(rows, dtype=np.intp), np.array(colour)
    order = np.argsort(colour, kind="stable")
    row_of = np.argsort(order)
    bounds = np.searchsorted(colour[order], np.arange(colour.max() + 2)).tolist()
    classes = tuple(
        (slice(lo, hi), read_only(np.ascontiguousarray(row_of[nbr[order[lo:hi]]].T)))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    )
    return _Layout(read_only(order), read_only(row_of), classes)


def _thresholds(p) -> np.ndarray:
    """ceil(p * 2**53) as uint64, so that w < T <=> w * 2**-53 < p for a word w."""
    return np.ceil(np.asarray(p) * 2.0**53).astype(np.uint64)


def _heat_bath_thresholds(a: float, b: float, degree: int) -> np.ndarray:
    """Thresholds of p_plus at index k, the number of + neighbors (0..degree)."""
    return _thresholds([
        1.0 / (1.0 + np.exp(-2.0 * (a + b * s))) for s in range(-degree, degree + 1, 2)
    ])


def _metropolis_thresholds(a: float, b: float, degree: int) -> np.ndarray:
    """Thresholds of the flip acceptance at index k + (degree + 1) * up."""
    return _thresholds([
        np.exp(min(-2.0 * spin * (a + b * s), 0.0))
        for spin in (-1, 1) for s in range(-degree, degree + 1, 2)
    ])


def _view(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The first prod(``shape``) entries of the flat ``buffer``, as an array of ``shape``."""
    return buffer[:math.prod(shape)].reshape(shape)


def _flat(thresholds: np.ndarray) -> bool:
    """Whether a heat-bath table is flat (b = 0): it is monotone in k, so equal
    ends mean equal entries, and a site's update reads no neighbor."""
    return thresholds[0] == thresholds[-1]


def _plus_neighbors(up: np.ndarray, nbr: np.ndarray, top: int, gather: np.ndarray) -> np.ndarray:
    """Number of + neighbors of a class's sites (rows ``nbr``); uint16 once ``top`` > 255.

    The neighbor rows are gathered into ``gather``.
    """
    dtype = np.uint8 if top <= 255 else np.uint16
    return np.add.reduce(up.take(nbr, axis=0, out=gather, mode="clip"), axis=0, dtype=dtype)


def _sweep_heat_bath(up: np.ndarray, classes, thresholds: np.ndarray, words: np.ndarray,
                     views: tuple):
    """One systematic heat-bath scan, in place, vectorized across chains.

    ``up`` is (sites, chains) in the rows of ``_colour_classes(...).classes``,
    or (sites, 2, m) for the stack of coupled top and bottom chains; the
    stream's ``words`` broadcast against it, (sites, 1, m) for the stack.
    A flat table sets every class at once, as w < T.  ``views`` holds the
    temporaries, ``_Kernel.views`` at ``up.shape``.
    """
    if _flat(thresholds):
        np.less(words, thresholds[0], out=up.view(bool))
        return
    for (rows, nbr), (gather, table) in zip(classes, views):
        k = _plus_neighbors(up, nbr, thresholds.size - 1, gather)
        np.less(words[rows], thresholds.take(k, out=table, mode="clip"),
                out=up[rows].view(bool))


def _sweep_metropolis(up: np.ndarray, classes, thresholds: np.ndarray, words: np.ndarray,
                      views: tuple):
    """One systematic single-flip Metropolis scan of (sites, chains) uint8 spins, in place."""
    for (rows, nbr), (gather, table) in zip(classes, views):
        old = up[rows]
        index = _plus_neighbors(up, nbr, thresholds.size - 1, gather)
        index += old * index.dtype.type(thresholds.size // 2)
        old ^= words[rows] < thresholds.take(index, out=table, mode="clip")


def _plus_minus(up: np.ndarray) -> np.ndarray:
    """uint8 {0, 1} spins as int8 -1/+1, s = 2 up - 1, in place."""
    spins = up.view(np.int8)
    spins *= np.int8(2)
    spins -= np.int8(1)
    return spins


_KERNELS = {
    "heat_bath": (_sweep_heat_bath, _heat_bath_thresholds),
    "metropolis": (_sweep_metropolis, _metropolis_thresholds),
}


def heat_bath_plus_probability(cfg: SpinConfig, x, params: ModelParams) -> float:
    """Probability that a heat-bath update at x sets the spin to +1."""
    lattice = cfg.lattice
    total = sum(cfg.spin(w) for w in lattice.neighbors(lattice.canon(x)))
    h = params.a + params.b * total
    return float(1.0 / (1.0 + np.exp(-2.0 * h)))


def metropolis_flip_probability(cfg: SpinConfig, x, params: ModelParams) -> float:
    """Acceptance probability of flipping the spin at x."""
    lattice = cfg.lattice
    x = lattice.canon(x)
    total = sum(cfg.spin(w) for w in lattice.neighbors(x))
    delta = -2.0 * cfg.spin(x) * (params.a + params.b * total)
    return float(min(1.0, np.exp(min(delta, 0.0))))


# -- the random stream --------------------------------------------------------------

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finaliser of the uint64 array ``z``, in place.

    Array arithmetic wraps modulo 2**64.  ``tmp``, of z's shape, is the
    scratch; without it one is made.
    """
    tmp = np.empty_like(z) if tmp is None else tmp
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= _MIX_1
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= _MIX_2
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


def _chain_keys(seed: int, chains: np.ndarray) -> np.ndarray:
    """key_i = mix(mix((seed + 1) G) ^ mix((i + 1) G)) for each chain index i."""
    seed_key = np.array([(seed + 1) & _U64], dtype=np.uint64)
    seed_key *= _GAMMA
    keys = np.asarray(chains, dtype=np.uint64) + np.uint64(1)
    keys *= _GAMMA
    _mix(keys)
    keys ^= _mix(seed_key)
    return _mix(keys)


def _words(order: np.ndarray, keys: np.ndarray, times: range, buffers: tuple):
    """Yield (t, words) for each time t of ``times``, in its order: the (rows,
    len(keys)) uint64 words w of time t, row r at site ``order[r]`` and column
    i in the chain of ``keys[i]``.  Any range is computed in calls of as many of
    its times as fit in ``_STREAM_BLOCK_BYTES``, each into the first of
    ``buffers``, two flat uint64 arrays of max(_STREAM_BLOCK_BYTES // 8, rows *
    len(keys)) entries or more, which the next call overwrites; the second is
    the scratch."""
    per_call = max(1, _STREAM_BLOCK_BYTES // (8 * order.size * keys.size))
    for i in range(0, len(times), per_call):
        part = times[i:i + per_call]
        words, tmp = (_view(buffer, (len(part), order.size, keys.size)) for buffer in buffers)
        counter = _view(buffers[1], (len(part), order.size))  # free until _mix
        np.add(np.fromiter(part, np.uint64, len(part))[:, None] * np.uint64(order.size),
               order.astype(np.uint64), out=counter)
        counter *= _GAMMA
        np.add(counter[:, :, None], keys, out=words)
        _mix(words, tmp)
        words >>= np.uint64(11)
        yield from zip(part, words)


class _Kernel:
    """One sampler call's sweeps of one kind on a lattice, and the buffers they
    reuse: the stream's for up to ``chains`` chains, and a sweep's neighbor
    gather and threshold lookup for the largest class at ``width`` spins per row.
    """

    def __init__(self, lattice: TorusLattice, kind: str, params: ModelParams,
                 chains: int, width: int):
        self.layout = _colour_classes(lattice)
        self.sweep, table = _KERNELS[kind]
        self.degree = self.layout.classes[0][1].shape[0]
        cells = max(nbr.shape[1] for _, nbr in self.layout.classes) * width
        self.thresholds = table(params.a, params.b, self.degree)
        size = max(_STREAM_BLOCK_BYTES // 8, lattice.num_sites * chains)
        self.stream = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
        self.gather = np.empty(self.degree * cells, dtype=np.uint8)
        self.table = np.empty(cells, dtype=np.uint64)

    def views(self, shape: tuple[int, ...]) -> tuple:
        """Per class, its (gather, table) temporaries for spins of ``shape``."""
        return tuple((_view(self.gather, nbr.shape + shape[1:]),
                      _view(self.table, nbr.shape[1:] + shape[1:]))
                     for _, nbr in self.layout.classes)

    def sweeps(self, up: np.ndarray, keys: np.ndarray, times: range):
        """Sweep ``up``, the chains of ``keys`` as (sites, chains) or the (sites,
        2, chains) stack of coupled chains, in place at each time of ``times``,
        and yield the time after its sweep."""
        views, shape = self.views(up.shape), up.shape[:1] + (1,) * (up.ndim - 2) + keys.shape
        for t, words in _words(self.layout.order, keys, times, self.stream):
            self.sweep(up, self.layout.classes, self.thresholds, words.reshape(shape), views)
            yield t


# -- recorded samples -------------------------------------------------------------


def _stacked(lattice: TorusLattice, records, count: int, each) -> np.ndarray:
    """The samples of ``records``, or the rows ``each`` makes of them unless it
    is None, stored at their batch rows in one array of ``count`` rows.

    ``records`` yields (rows, up) pairs: the batch rows of some samples and
    their uint8 spins, the (sites, len(rows)) columns of a sampler's state in
    the rows of ``_colour_classes(lattice)``.  The samples are copied, in the
    order they came, into blocks of ``_SAMPLE_BLOCK_BYTES``, the last one
    maybe partial.  A block's spins are -1/+1 int8 in site order, a (k, sites)
    view of a sites-major buffer, so that a counter that reads samples
    sites-major gets them without a transpose; the next block overwrites it.
    """
    row_of = _colour_classes(lattice).row_of
    size = max(1, _SAMPLE_BLOCK_BYTES // row_of.size)
    gathered = np.empty((row_of.size, size), dtype=np.uint8)  # in colour-class rows
    ordered = np.empty(gathered.size, dtype=np.uint8)
    batch_rows = np.empty(size, dtype=np.intp)
    out = None

    def store(k: int):
        nonlocal out
        spins = _plus_minus(gathered[:, :k].take(row_of, axis=0, mode="clip",
                                                 out=_view(ordered, (row_of.size, k)))).T
        part = spins if each is None else np.asarray(each(spins))
        if out is None:
            out = np.empty((count,) + part.shape[1:], dtype=part.dtype)
        out[batch_rows[:k]] = part

    fill = 0
    for rows, up in records:
        done = 0
        while done < rows.size:
            k = min(rows.size - done, size - fill)
            gathered[:, fill:fill + k] = up[:, done:done + k]
            batch_rows[fill:fill + k] = rows[done:done + k]
            fill, done = fill + k, done + k
            if fill == size:
                store(fill)
                fill = 0
    if fill:
        store(fill)
    return out


# -- coupling from the past -------------------------------------------------------


def _cftp_records(lattice: TorusLattice, params: ModelParams, seed: int, count: int):
    """(rows, up) for ``_stacked``, one pair per chunk of draws that coalesce in a round."""
    sites = lattice.num_sites
    draw_chunk = max(1, _STREAM_BLOCK_BYTES // (8 * sites))
    kernel = _Kernel(lattice, "heat_bath", params, draw_chunk, 2 * draw_chunk)
    stack = np.empty(sites * 2 * draw_chunk, dtype=np.uint8)

    def run_round(chunks, horizon: int, left: list):
        """Sweep the draws of ``chunks``, arrays of at most ``draw_chunk`` draw
        indices, from time -horizon; yield the coalesced, append the rest to ``left``."""
        for active in chunks:
            chains = _view(stack, (sites, 2, active.size))
            chains[:, 0], chains[:, 1] = 1, 0
            for _ in kernel.sweeps(chains, _chain_keys(seed, active), range(horizon, 0, -1)):
                pass
            done = (chains[:, 0] == chains[:, 1]).all(axis=0)
            left.append(active[~done])
            if done.any():
                yield active[done], chains[:, 0, done]

    pilot = min(draw_chunk, count)
    pending, rest = np.arange(pilot), range(pilot, count)
    horizon = 1
    while pending.size or rest:
        if horizon * sites * kernel.degree > _READ_LIMIT:
            raise CoalescenceTimeout(
                f"{pending.size + len(rest)} draws not coalesced after {horizon // 2} sweeps"
                f" back, the limit of {_READ_LIMIT} neighbor reads per chain"
            )
        left = []
        yield from run_round((pending[i:i + draw_chunk]
                              for i in range(0, pending.size, draw_chunk)), horizon, left)
        if rest and 2 * sum(map(len, left)) <= pilot:
            # the draws not yet swept are indexed and keyed a chunk at a time, so that
            # no array grows with the number of draws but the few left pending
            yield from run_round((np.arange(i, min(i + draw_chunk, count))
                                  for i in rest[::draw_chunk]), horizon, left)
            rest = rest[:0]
        pending = np.concatenate(left)
        horizon *= 2


def cftp_batch(
    lattice: TorusLattice,
    params: ModelParams,
    seed: int,
    count: int,
    each=None,
) -> np.ndarray:
    """Exact draws from the Gibbs measure, as a (count, num_sites) spin matrix.

    Runs monotone coupling-from-the-past per draw: coupled heat-bath chains
    from the all-plus and all-minus states share per-time uniforms from a
    horizon of h sweeps back, h doubling each round, and the common value at
    time 0 is returned once they coalesce.  The uniform at (draw i, time -t,
    site x) is a pure function of (seed, i, t, x), the counter-based stream
    of the module docstring.  A pilot chunk of the first draws doubles h
    from 1 until at least half of them have coalesced; every other draw
    starts at that h.  Each round then sweeps every pending draw of the call,
    in chunks whose words for one time step fill one ``_STREAM_BLOCK_BYTES``
    block, each chunk's top and bottom chains swept as one (sites, 2, m)
    stack.  For b >= 0 the thresholds are nondecreasing in the number of +
    neighbors, so the scan is monotone and chains from any horizon past a
    draw's coalescence time end in the same state (Propp and Wilson, 1996):
    the draws do not depend on the start horizon, on batching or on chunk size.

    The draws are made in blocks of at most ``_SAMPLE_BLOCK_BYTES`` of
    spins, as they coalesce.  With ``each``, a function of such a (k, sites)
    block that returns an array of k rows, the result holds, row for row,
    what it returns instead of the spins, and no spin matrix is made.

    Raises:
        AntiferromagneticUnsupported: if b < 0 (the kernel is not monotone).
        CoalescenceTimeout: if any chain pair fails to coalesce before a
            round's horizon * sites * degree would pass ``_READ_LIMIT``.
    """
    if params.b < 0:
        raise AntiferromagneticUnsupported("coupling-from-the-past requires b >= 0")
    seed, count = as_int(seed, "seed"), as_int(count, "count", 1)
    records = _cftp_records(lattice, params, seed, count)
    return _stacked(lattice, records, count, each)


# -- batch generation -------------------------------------------------------------


@dataclass
class SampleBatch:
    """A batch of sampled configurations as one (count, sites) matrix, and the
    number of chains that drew it (``count`` for kind="cftp").  A batch drawn
    with ``each`` holds the rows that ``each`` made in ``spins``."""

    spins: np.ndarray
    replicas: int


def _mcmc_records(
    lattice: TorusLattice,
    params: ModelParams,
    spec: SamplerSpec,
    count: int,
    replicas: int,
):
    """(rows, up) for ``_stacked``, one pair per record time: the replicas that
    keep a sample then, and their batch rows."""
    quota = -(-count // replicas)
    # sample j is the state after sweep first + j * thinning
    first = spec.burn_in_sweeps or spec.thinning_sweeps
    last = first + spec.thinning_sweeps * (quota - 1)
    kernel = _Kernel(lattice, spec.kind, params, replicas, replicas)
    keys = _chain_keys(spec.seed, np.arange(replicas))
    # +1 where u < 1/2, that is w < 2**52
    (_, words), = _words(kernel.layout.order, keys, range(1), kernel.stream)
    up = (words < np.uint64(1 << 52)).view(np.uint8)
    # replica i keeps its first ceil((count - i) / replicas) samples, replica-major:
    # its sample j is row i (quota - 1) + min(i, full) + j, where the first
    # ``full`` replicas keep all quota samples
    full = count - (quota - 1) * replicas
    chains = np.arange(replicas)
    offsets = chains * (quota - 1) + np.minimum(chains, full)
    times = range(1, last + 1)
    if spec.kind == "heat_bath" and _flat(kernel.thresholds):
        # a flat sweep sets every site from its own word: only recorded sweeps matter
        times = range(first, last + 1, spec.thinning_sweeps)
    for t in kernel.sweeps(up, keys, times):
        j, offset = divmod(t - first, spec.thinning_sweeps)
        if j >= 0 and offset == 0:
            kept = replicas if j < quota - 1 else full
            yield offsets[:kept] + j, up[:, :kept]


def sample_with_params(
    lattice: TorusLattice,
    params: ModelParams,
    spec: SamplerSpec,
    count: int,
    replicas: int | None = None,
    each=None,
) -> SampleBatch:
    """Draw ``count`` configurations at explicitly given model parameters.

    For the approximate kernels the batch is produced by min(count,
    ``replicas``) independent chains (``replicas`` defaults to 64, and a chain
    beyond ``count`` would keep no sample), replica i reading chain i of
    the module's stream and starting from its time-0 random configuration;
    every chain burns in, then records a sample every ``thinning_sweeps``.
    Rows are ordered replica-major, so a rerun with the same seed reproduces
    the batch bit for bit.  For kind="cftp" every row is an independent exact
    draw (burn-in and thinning are ignored).  For the field of a
    ``FieldSchedule``, pass ``schedule.params(lattice.n, b)``.

    Samples are made in blocks of at most ``_SAMPLE_BLOCK_BYTES`` of spins.
    With ``each``, a function of such a (k, sites) block that returns an
    array of k rows, ``spins`` holds, row for row, what it returns instead
    of the samples, and no spin matrix is made.
    """
    count = as_int(count, "count", 1)
    if spec.kind == "cftp":
        return SampleBatch(cftp_batch(lattice, params, spec.seed, count, each), count)
    used = min(count, as_int(64 if replicas is None else replicas, "replicas", 1))
    records = _mcmc_records(lattice, params, spec, count, used)
    return SampleBatch(_stacked(lattice, records, count, each), used)

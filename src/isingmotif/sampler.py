"""Samplers for the Gibbs measure: heat-bath and Metropolis kernels, plus
coupling-from-the-past perfect sampling for the ferromagnetic case.

There are two ways to draw: ``sample_with_params`` returns a ``SampleBatch``
from any kernel (replica chains for heat-bath and Metropolis, exact draws for
kind="cftp"), and ``cftp_batch`` returns a (count, sites) matrix of exact
draws.

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
doubling round re-reads the randomness of the times it shares with the
previous round.

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
The stream computes the (time, row, chain) words of as many times as fit in
``_STREAM_BLOCK_BYTES`` per call.  Site order and -1/+1 spins are restored
only where a sample is recorded or a draw coalesces; the golden runs in
tests/data pin every sample bit of the three kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import AntiferromagneticUnsupported, CoalescenceTimeout
from .exact import ModelParams, SpinConfig, read_only
from .lattice import TorusLattice

KINDS = ("heat_bath", "metropolis", "cftp")

_U64 = (1 << 64) - 1

#: Bytes of one time step's (sites, draws) uint64 words in ``cftp_batch``.
_CFTP_CHUNK_BYTES = 1 << 20

#: Sweeps back in time after which ``cftp_batch`` gives up on a draw.
_EPOCH_LIMIT = 1 << 20

#: Bytes of uint64 words the stream computes in one call, a block of times.
_STREAM_BLOCK_BYTES = 1 << 18


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
        if self.burn_in_sweeps < 0 or self.thinning_sweeps < 0:
            raise ValueError("burn_in_sweeps and thinning_sweeps must be >= 0")
        if self.kind != "cftp" and self.thinning_sweeps < 1:
            raise ValueError(f"thinning_sweeps must be >= 1 for {self.kind}")


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


@lru_cache(maxsize=None)
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


def _plus_neighbors(up: np.ndarray, nbr: np.ndarray, top: int) -> np.ndarray:
    """Number of + neighbors of a class's sites (rows ``nbr``); uint16 once ``top`` > 255."""
    dtype = np.uint8 if top <= 255 else np.uint16
    return np.add.reduce(up.take(nbr, axis=0), axis=0, dtype=dtype)


def _sweep_heat_bath(up: np.ndarray, classes, thresholds: np.ndarray, words: np.ndarray):
    """One systematic heat-bath scan, in place, vectorized across chains.

    ``up`` is (sites, chains) in the rows of ``_colour_classes(...).classes``,
    or (sites, 2, m) for the stack of coupled top and bottom chains; the
    stream's ``words`` broadcast against it, (sites, 1, m) for the stack.
    """
    for rows, nbr in classes:
        k = _plus_neighbors(up, nbr, thresholds.size - 1)
        np.less(words[rows], thresholds.take(k), out=up[rows].view(bool))


def _sweep_metropolis(up: np.ndarray, classes, thresholds: np.ndarray, words: np.ndarray):
    """One systematic single-flip Metropolis scan of (sites, chains) uint8 spins, in place."""
    for rows, nbr in classes:
        old = up[rows]
        index = _plus_neighbors(up, nbr, thresholds.size - 1)
        index += old * index.dtype.type(thresholds.size // 2)
        old ^= words[rows] < thresholds.take(index)


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


def _mix(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser of the uint64 array ``z``, in place.

    ``tmp`` is scratch of the same shape.  Array arithmetic wraps modulo 2**64.
    """
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
    tmp = np.empty_like(keys)
    _mix(keys, tmp)
    keys ^= _mix(seed_key, np.empty_like(seed_key))
    return _mix(keys, tmp)


class _Stream:
    """The counter-based words of up to ``chains`` chains, sites-major.

    ``words(keys, t, count)`` returns the (count, sites, len(keys)) uint64
    words w of times t .. t + count - 1, row r of each time holding site
    ``order[r]``, computed in preallocated buffers; the result is overwritten
    by the next call.  ``block(m)`` is how many times one call may ask for
    with m keys: as many as fit in ``_STREAM_BLOCK_BYTES``, and at least one.
    """

    def __init__(self, order: np.ndarray, chains: int):
        self.sites = order.size
        self.row_gamma = order.astype(np.uint64) * _GAMMA
        size = max(_STREAM_BLOCK_BYTES // 8, self.sites * chains)
        self.work = np.empty(size, dtype=np.uint64)
        self.tmp = np.empty(size, dtype=np.uint64)

    def block(self, m: int) -> int:
        return max(1, self.work.size // (self.sites * m))

    def words(self, keys: np.ndarray, t: int, count: int = 1) -> np.ndarray:
        shape = (count, self.sites, keys.size)
        size = count * self.sites * keys.size
        work, tmp = (buf[:size].reshape(shape) for buf in (self.work, self.tmp))
        # (t S + x) G = t S G + x G modulo 2**64
        step = np.array([(t + i) * self.sites * int(_GAMMA) & _U64 for i in range(count)],
                        dtype=np.uint64)
        counter = step[:, None] + self.row_gamma
        np.add(counter[:, :, None], keys, out=work)
        _mix(work, tmp)
        work >>= np.uint64(11)
        return work


# -- coupling from the past -------------------------------------------------------


def cftp_batch(
    lattice: TorusLattice,
    params: ModelParams,
    seed: int,
    count: int,
) -> np.ndarray:
    """Exact draws from the Gibbs measure, as a (count, num_sites) spin matrix.

    Runs monotone coupling-from-the-past per draw: coupled heat-bath chains
    from the all-plus and all-minus states share per-time uniforms over epochs
    -1, -2, -4, ... and the common value at time 0 is returned once they
    coalesce.  The uniform at (draw i, time -t, site x) is a pure function of
    (seed, i, t, x), the counter-based stream of the module docstring, so
    results do not depend on batching or chunk size.  Draws run in chunks of
    about ``_CFTP_CHUNK_BYTES`` of words per time step, each chunk's top and
    bottom chains swept as one (sites, 2, m) stack.

    Raises:
        AntiferromagneticUnsupported: if b < 0 (the kernel is not monotone).
        CoalescenceTimeout: if any chain pair fails to coalesce within
            ``_EPOCH_LIMIT`` sweeps back in time.
    """
    if params.b < 0:
        raise AntiferromagneticUnsupported("coupling-from-the-past requires b >= 0")
    if count < 1:
        raise ValueError("count must be >= 1")
    sites = lattice.num_sites
    draw_chunk = max(1, _CFTP_CHUNK_BYTES // (8 * sites))
    layout = _colour_classes(lattice)
    thresholds = _heat_bath_thresholds(params.a, params.b, layout.classes[0][1].shape[0])
    stream = _Stream(layout.order, min(draw_chunk, count))
    out = np.empty((count, sites), dtype=np.uint8)
    for start in range(0, count, draw_chunk):
        active = np.arange(start, min(start + draw_chunk, count))
        keys = _chain_keys(seed, active)
        horizon = 1
        while active.size:
            if horizon > _EPOCH_LIMIT:
                raise CoalescenceTimeout(
                    f"{active.size} draws not coalesced after {_EPOCH_LIMIT} sweeps back"
                )
            chains = np.empty((sites, 2, active.size), dtype=np.uint8)
            chains[:, 0] = 1
            chains[:, 1] = 0
            step = stream.block(active.size)
            for top in range(horizon, 0, -step):
                low = max(top - step + 1, 1)
                for words in stream.words(keys, low, top - low + 1)[::-1]:
                    _sweep_heat_bath(chains, layout.classes, thresholds, words[:, None])
            done = (chains[:, 0] == chains[:, 1]).all(axis=0)
            out[active[done]] = chains[:, 0, done].take(layout.row_of, axis=0).T
            active, keys = active[~done], keys[~done]
            horizon *= 2
    return _plus_minus(out)


# -- batch generation -------------------------------------------------------------


@dataclass
class SampleBatch:
    """A batch of sampled configurations as one (count, sites) matrix, and the
    number of chains that drew it (``count`` for kind="cftp")."""

    spins: np.ndarray
    replicas: int


def _run_mcmc_batch(
    lattice: TorusLattice,
    params: ModelParams,
    spec: SamplerSpec,
    count: int,
    replicas: int,
) -> np.ndarray:
    sweep, table = _KERNELS[spec.kind]
    quota = -(-count // replicas)
    # sample j is the state after sweep first + j * thinning
    first = spec.burn_in_sweeps or spec.thinning_sweeps
    last = first + spec.thinning_sweeps * (quota - 1)
    layout = _colour_classes(lattice)
    thresholds = table(params.a, params.b, layout.classes[0][1].shape[0])
    keys = _chain_keys(spec.seed, np.arange(replicas))
    stream = _Stream(layout.order, replicas)
    # +1 where u < 1/2, that is w < 2**52
    up = (stream.words(keys, 0)[0] < np.uint64(1 << 52)).view(np.uint8)
    samples = np.empty((quota, lattice.num_sites, replicas), dtype=np.uint8)
    step = stream.block(replicas)
    for start in range(1, last + 1, step):
        block = stream.words(keys, start, min(step, last + 1 - start))
        for t, words in enumerate(block, start):
            sweep(up, layout.classes, thresholds, words)
            j, offset = divmod(t - first, spec.thinning_sweeps)
            if j >= 0 and offset == 0:
                up.take(layout.row_of, axis=0, out=samples[j])
    # replica i keeps its first ceil((count - i) / replicas) samples, replica-major
    keep = np.arange(quota) * replicas + np.arange(replicas)[:, None] < count
    return _plus_minus(samples.transpose(2, 0, 1)[keep])


def sample_with_params(
    lattice: TorusLattice,
    params: ModelParams,
    spec: SamplerSpec,
    count: int,
    replicas: int | None = None,
) -> SampleBatch:
    """Draw ``count`` configurations at explicitly given model parameters.

    For the approximate kernels the batch is produced by ``replicas``
    (default min(count, 64)) independent chains, replica i reading chain i of
    the module's stream and starting from its time-0 random configuration;
    every chain burns in, then records a sample every ``thinning_sweeps``.
    Rows are ordered replica-major, so a rerun with the same seed reproduces
    the batch bit for bit.  For kind="cftp" every row is an independent exact
    draw (burn-in and thinning are ignored).  For the field of a
    ``FieldSchedule``, pass ``schedule.params(lattice.n, b)``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if spec.kind == "cftp":
        spins = cftp_batch(lattice, params, spec.seed, count)
        used = count
    else:
        used = replicas if replicas is not None else min(count, 64)
        if used < 1:
            raise ValueError("replicas must be >= 1")
        spins = _run_mcmc_batch(lattice, params, spec, count, used)
    return SampleBatch(spins=spins, replicas=used)

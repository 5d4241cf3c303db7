"""Samplers for the Gibbs measure: heat-bath and Metropolis kernels, plus
coupling-from-the-past perfect sampling for the ferromagnetic case.

Reproducibility contract: every stream is derived from a 64-bit seed through
``numpy.random.default_rng([seed, index, ...])`` (SeedSequence hashing of the
seed together with the replica / draw index), so parallel replicas never share
randomness and reruns are bit-identical.

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
requires (Propp and Wilson, 1996).  Both kernels read their probabilities
from a table indexed by the integer neighbor sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AntiferromagneticUnsupported, CoalescenceTimeout
from .exact import FieldSchedule, ModelParams, SpinConfig
from .lattice import INFINITY, TorusLattice, normalize_norm_selector

KINDS = ("heat_bath", "metropolis", "cftp")

_U64 = (1 << 64) - 1

#: Sweeps of uniforms drawn from each replica stream in one block.
_BLOCK = 128

#: Time steps per derived stream in the coupling-from-the-past schedule.
_CFTP_SLAB = 64


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


@dataclass
class ChainState:
    """A single Markov chain: configuration, generator state, sweep counter."""

    config: SpinConfig
    rng: np.random.Generator
    sweep_count: int = 0

    @classmethod
    def start(cls, lattice: TorusLattice, seed: int, init: str = "minus") -> "ChainState":
        rng = np.random.default_rng([seed & _U64, 0])
        if init == "minus":
            cfg = SpinConfig.all_minus(lattice)
        elif init == "plus":
            cfg = SpinConfig.all_plus(lattice)
        elif init == "random":
            spins = (2 * rng.integers(0, 2, size=lattice.num_sites) - 1).astype(np.int8)
            cfg = SpinConfig(lattice, spins)
        else:
            raise ValueError(f"init must be minus/plus/random, got {init!r}")
        return cls(config=cfg, rng=rng, sweep_count=0)


@lru_cache(maxsize=None)
def _neighbor_index_matrix(lattice: TorusLattice) -> np.ndarray:
    """(num_sites, neighbor_count) site indices of each vertex's neighbors."""
    rows = []
    for v in lattice.vertices():
        rows.append([lattice.site_index(w) for w in lattice.neighbors(v)])
    return np.array(rows, dtype=np.intp)


def _colour_classes(nbr: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Greedy proper colouring of the neighbor graph given by ``nbr``.

    Returns one (sites, neighbors) pair per colour class: the class's site
    indices in increasing order and the (neighbor_count, class_size) matrix
    of their neighbors.  Sites are coloured in index order with the smallest
    colour unused by an already coloured neighbor.
    """
    nbr = np.asarray(nbr, dtype=np.intp)
    return _colour_classes_of(nbr.shape, nbr.tobytes())


@lru_cache(maxsize=64)
def _colour_classes_of(shape: tuple, data: bytes) -> list[tuple[np.ndarray, np.ndarray]]:
    nbr = np.frombuffer(data, dtype=np.intp).reshape(shape)
    colour = [-1] * shape[0]
    for x, row in enumerate(nbr.tolist()):
        taken = {colour[y] for y in row}
        colour[x] = next(c for c in range(len(row) + 1) if c not in taken)
    colour = np.array(colour)
    classes = []
    for c in range(colour.max() + 1):
        sites = np.flatnonzero(colour == c)
        classes.append((_read_only(sites), _read_only(np.ascontiguousarray(nbr[sites].T))))
    return classes


def _read_only(array: np.ndarray) -> np.ndarray:
    """Cached arrays are shared by every caller; forbid writes to them."""
    array.setflags(write=False)
    return array


@lru_cache(maxsize=256)
def _heat_bath_table(a: float, b: float, degree: int) -> np.ndarray:
    """p_plus for every neighbor sum -degree..degree, at index sum + degree."""
    return _read_only(np.array([
        1.0 / (1.0 + np.exp(-2.0 * (a + b * s))) for s in range(-degree, degree + 1)
    ]))


@lru_cache(maxsize=256)
def _metropolis_table(a: float, b: float, degree: int) -> np.ndarray:
    """Flip acceptance at index (sum + degree) + (2 degree + 1) * (spin == +1)."""
    return _read_only(np.array([
        np.exp(min(-2.0 * spin * (a + b * s), 0.0))
        for spin in (-1, 1) for s in range(-degree, degree + 1)
    ]))


def _sweep_heat_bath(spins: np.ndarray, nbr: np.ndarray, a: float, b: float,
                     uniforms: np.ndarray) -> None:
    """One systematic heat-bath scan, in place, vectorized across chains.

    ``spins`` is (chains, sites) int8, ``uniforms`` (chains, sites) in [0, 1).
    """
    degree = nbr.shape[1]
    p_plus = _heat_bath_table(a, b, degree)
    for sites, nbr_t in _colour_classes(nbr):
        total = spins[:, nbr_t].sum(axis=1, dtype=np.intp)
        spins[:, sites] = np.where(uniforms[:, sites] < p_plus[total + degree], 1, -1)


def _sweep_metropolis(spins: np.ndarray, nbr: np.ndarray, a: float, b: float,
                      uniforms: np.ndarray) -> None:
    """One systematic single-flip Metropolis scan, in place."""
    degree = nbr.shape[1]
    accept = _metropolis_table(a, b, degree)
    for sites, nbr_t in _colour_classes(nbr):
        old = spins[:, sites]
        index = spins[:, nbr_t].sum(axis=1, dtype=np.intp) + degree
        index += (old > 0) * (2 * degree + 1)
        spins[:, sites] = np.where(uniforms[:, sites] < accept[index], -old, old)


_SWEEPS = {"heat_bath": _sweep_heat_bath, "metropolis": _sweep_metropolis}


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


def heat_bath_sweep_with_uniforms(
    cfg: SpinConfig, params: ModelParams, uniforms: np.ndarray
) -> SpinConfig:
    """Deterministic heat-bath sweep driven by explicit per-site uniforms.

    With b >= 0 and the same uniforms, this map preserves the componentwise
    partial order between configurations.
    """
    uniforms = np.asarray(uniforms, dtype=np.float64).reshape(1, -1)
    if uniforms.shape[1] != cfg.lattice.num_sites:
        raise ValueError("need one uniform per site")
    spins = cfg.spins.copy().reshape(1, -1)
    _sweep_heat_bath(spins, _neighbor_index_matrix(cfg.lattice), params.a, params.b, uniforms)
    return SpinConfig(cfg.lattice, spins[0])


def _scalar_sweep(state: ChainState, params: ModelParams, kind: str) -> ChainState:
    lattice = state.config.lattice
    uniforms = state.rng.uniform(size=(1, lattice.num_sites))
    spins = state.config.spins.copy().reshape(1, -1)
    _SWEEPS[kind](spins, _neighbor_index_matrix(lattice), params.a, params.b, uniforms)
    return ChainState(
        config=SpinConfig(lattice, spins[0]), rng=state.rng, sweep_count=state.sweep_count + 1
    )


def heat_bath_sweep(state: ChainState, params: ModelParams) -> ChainState:
    """One systematic heat-bath scan over all sites."""
    return _scalar_sweep(state, params, "heat_bath")


def metropolis_sweep(state: ChainState, params: ModelParams) -> ChainState:
    """One systematic Metropolis scan (flip proposals, accept with min(1, e^dH))."""
    return _scalar_sweep(state, params, "metropolis")


# -- coupling from the past -------------------------------------------------------


def _cftp_slab(seed: int, draw: int, slab: int, sites: int, rows: int) -> np.ndarray:
    """First ``rows`` rows of a (_CFTP_SLAB, sites) slab of uniforms for one
    draw; row j drives time -(slab*S+j+1).

    Regenerating a slab always yields the same values, which is what reusing
    the randomness of past epochs across doubling rounds requires.  Uniforms
    are generated row-major, so a short slab is a prefix of the full one.
    """
    rng = np.random.default_rng([seed & _U64, draw & _U64, slab])
    return rng.uniform(size=(rows, sites))


def cftp_batch(
    lattice: TorusLattice,
    params: ModelParams,
    seed: int,
    count: int,
    epoch_limit: int = 1 << 20,
    draw_chunk: int = 4096,
) -> np.ndarray:
    """Exact draws from the Gibbs measure, as a (count, num_sites) spin matrix.

    Runs monotone coupling-from-the-past per draw: coupled heat-bath chains
    from the all-plus and all-minus states share per-time uniforms over epochs
    -1, -2, -4, ... and the common value at time 0 is returned once they
    coalesce.  Draw i consumes only streams derived from (seed, i), so results
    do not depend on batching or chunk size.

    Raises:
        AntiferromagneticUnsupported: if b < 0 (the kernel is not monotone).
        CoalescenceTimeout: if any chain pair fails to coalesce within
            ``epoch_limit`` sweeps back in time.
    """
    if params.b < 0:
        raise AntiferromagneticUnsupported("coupling-from-the-past requires b >= 0")
    if count < 1:
        raise ValueError("count must be >= 1")
    sites = lattice.num_sites
    nbr = _neighbor_index_matrix(lattice)
    out = np.empty((count, sites), dtype=np.int8)
    for start in range(0, count, draw_chunk):
        active = np.arange(start, min(start + draw_chunk, count))
        horizon = 1
        while active.size:
            if horizon > epoch_limit:
                raise CoalescenceTimeout(
                    f"{active.size} draws not coalesced after {epoch_limit} sweeps back"
                )
            top = np.ones((active.size, sites), dtype=np.int8)
            bot = np.full((active.size, sites), -1, dtype=np.int8)
            # times -horizon .. -1; time -t lives in slab (t-1)//S, row (t-1)%S
            block = None
            loaded_slab = -1
            for t in range(horizon, 0, -1):
                slab, row = divmod(t - 1, _CFTP_SLAB)
                if slab != loaded_slab:
                    rows = min(horizon - slab * _CFTP_SLAB, _CFTP_SLAB)
                    block = np.stack(
                        [_cftp_slab(seed, int(i), slab, sites, rows) for i in active]
                    )
                    loaded_slab = slab
                uniforms = block[:, row, :]
                _sweep_heat_bath(top, nbr, params.a, params.b, uniforms)
                _sweep_heat_bath(bot, nbr, params.a, params.b, uniforms)
            done = (top == bot).all(axis=1)
            out[active[done]] = top[done]
            active = active[~done]
            horizon *= 2
    return out


def cftp_sample(
    lattice: TorusLattice, params: ModelParams, seed: int, epoch_limit: int = 1 << 20
) -> SpinConfig:
    """One exact draw from the Gibbs measure (see ``cftp_batch``)."""
    spins = cftp_batch(lattice, params, seed, count=1, epoch_limit=epoch_limit)
    return SpinConfig(lattice, spins[0])


# -- batch generation -------------------------------------------------------------


@dataclass
class SampleBatch:
    """A batch of sampled configurations, stored as one (count, sites) matrix."""

    lattice: TorusLattice
    params: ModelParams
    spec: SamplerSpec
    spins: np.ndarray
    replicas: int

    def __len__(self) -> int:
        return self.spins.shape[0]

    def __getitem__(self, i: int) -> SpinConfig:
        return SpinConfig(self.lattice, self.spins[i])

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _run_mcmc_batch(
    lattice: TorusLattice,
    params: ModelParams,
    spec: SamplerSpec,
    count: int,
    replicas: int,
) -> np.ndarray:
    sites = lattice.num_sites
    nbr = _neighbor_index_matrix(lattice)
    sweep = _SWEEPS[spec.kind]
    quotas = [count // replicas + (1 if i < count % replicas else 0) for i in range(replicas)]
    quota_max = max(quotas)

    rngs = [np.random.default_rng([spec.seed & _U64, i]) for i in range(replicas)]
    spins = np.stack(
        [(2 * rng.integers(0, 2, size=sites) - 1).astype(np.int8) for rng in rngs]
    )
    samples = np.empty((replicas, quota_max, sites), dtype=np.int8)

    buffer = np.empty((replicas, _BLOCK, sites))
    pos = _BLOCK
    done_sweeps = 0
    recorded = 0
    while recorded < quota_max:
        if done_sweeps < spec.burn_in_sweeps:
            n_sweeps = spec.burn_in_sweeps - done_sweeps
        else:
            n_sweeps = spec.thinning_sweeps
        for _ in range(n_sweeps):
            if pos == _BLOCK:
                for rng, rows in zip(rngs, buffer):
                    rng.random(out=rows)  # the same values as rng.uniform(size=rows.shape)
                pos = 0
            sweep(spins, nbr, params.a, params.b, buffer[:, pos, :])
            pos += 1
            done_sweeps += 1
        if done_sweeps >= spec.burn_in_sweeps:
            samples[:, recorded, :] = spins
            recorded += 1
    return np.concatenate([samples[i, : quotas[i]] for i in range(replicas)], axis=0)


def sample_with_params(
    lattice: TorusLattice,
    params: ModelParams,
    spec: SamplerSpec,
    count: int,
    replicas: int | None = None,
) -> SampleBatch:
    """Draw ``count`` configurations at explicitly given model parameters.

    For the approximate kernels the batch is produced by ``replicas``
    (default min(count, 64)) independent chains with derived streams
    (seed, replica), each started from its stream's random configuration;
    every chain burns in, then records a sample every ``thinning_sweeps``.
    Rows are ordered replica-major, so a rerun with the same seed reproduces
    the batch bit for bit.  For kind="cftp" every row is an independent exact
    draw (burn-in and thinning are ignored).
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
    return SampleBatch(lattice=lattice, params=params, spec=spec, spins=spins, replicas=used)


def sample_batch(
    lattice: TorusLattice,
    schedule: FieldSchedule,
    b: float,
    spec: SamplerSpec,
    count: int,
    replicas: int | None = None,
) -> SampleBatch:
    """Draw ``count`` configurations with the field set by the schedule.

    The magnetic field is a(n) = 0.5 * log(c * n**(-d/k_target)) for the
    lattice's side length; see ``sample_with_params`` for the batch layout and
    reproducibility contract.
    """
    if schedule.d != lattice.d:
        raise ValueError(f"schedule dimension {schedule.d} != lattice dimension {lattice.d}")
    return sample_with_params(lattice, schedule.params(lattice.n, b), spec, count, replicas)


# -- configuration snapshots -------------------------------------------------------
#
# Binary format: one ASCII header line `d n rho p`, then the n^d sign bits in
# row-major lexicographic site order packed big-endian by numpy.packbits
# (bit = 1 for spin +1).


def save_spin_config(cfg: SpinConfig, path) -> None:
    lattice = cfg.lattice
    p_txt = "inf" if lattice.p == INFINITY else str(lattice.p)
    header = f"{lattice.d} {lattice.n} {lattice.rho} {p_txt}\n".encode("ascii")
    packed = np.packbits((cfg.spins == 1).astype(np.uint8))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(packed.tobytes())


def load_spin_config(path) -> SpinConfig:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        if len(header) != 4:
            raise ValueError("snapshot header must be 'd n rho p'")
        d, n, rho = int(header[0]), int(header[1]), int(header[2])
        p = normalize_norm_selector(header[3])
        payload = fh.read()
    lattice = TorusLattice(d, n, rho, p)
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))[: lattice.num_sites]
    return SpinConfig(lattice, (2 * bits.astype(np.int8) - 1))

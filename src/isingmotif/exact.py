"""Exact Gibbs measures by full enumeration, local energies, and conditional motif laws.

The measure weights a configuration sigma by exp(a * sum_x sigma(x) +
b * sum_edges sigma(x) sigma(y)).  Both sums are integers, so each small
lattice is enumerated once into the (M, E) level of every configuration, and
every (a, b) on it is a lookup in a table of a*M + b*E.  Count laws are summed
from the level table, chunk by chunk in bitmask order, without a table of one
probability per configuration; that table is built on demand only for the
oracle queries (means, variances, conditionals).  All weights stay in log
domain; the field a can be strongly negative, which would underflow raw
weights.

Configurations are identified with bitmasks: bit i set means site i (row-major
lexicographic index) carries spin +1.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, NamedTuple

import numpy as np

from .distributions import poisson_limit
from .errors import MissingSpin, MotifScheduleMismatch, NonFiniteLimit, NotClean, TooLargeForExact
from .lattice import TorusLattice, Vertex
from .motifs import LocalConfig, family_size

#: Default cap on sites for full enumeration (2**cap configurations).
DEFAULT_SITE_CAP = 24

#: Bitmasks per chunk of the level multiplicities and of ``counting.count_all_masks``.
MASK_CHUNK = 1 << 16

# masks per block of ``ExactMeasure.count_pmf``; each of its three buffers takes
# 128 KiB, where a new 512 KiB array per block would be mapped and faulted in anew
_PMF_BLOCK = 1 << 14

# bytes of one (patterns, boundaries) float64 energy block of the sandwich check;
# unblocked, a cap-sized ball and boundary would need hundreds of MB per temporary
_SANDWICH_BLOCK_BYTES = 1 << 22

#: Largest excess of n^d P(motif | boundary) over the limit that still counts as below it.
_SANDWICH_TOL = 1e-12


def read_only(array: np.ndarray) -> np.ndarray:
    """Forbid writes to an array that callers must only read; a cached one is shared by all."""
    array.flags.writeable = False
    return array


def as_spins(values) -> np.ndarray:
    """``values`` as int8, checked to be +1 or -1 before the cast wraps 257 or truncates 1.5."""
    values = np.asarray(values)
    if not np.all((values == 1) | (values == -1)):
        raise ValueError("spins must be +1 or -1")
    return values.astype(np.int8, copy=False)


@dataclass(frozen=True)
class ModelParams:
    """Magnetic field ``a`` and pair potential ``b``."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("model parameters must be finite reals")


@dataclass(frozen=True)
class FieldSchedule:
    """Size-dependent magnetic field with exp(2 a(n)) = c * n**(-d/k_target).

    The scaling keeps the expected number of k_target-positive patterns of
    order one as the lattice grows.
    """

    c: float
    k_target: int
    d: int

    def __post_init__(self):
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ValueError("schedule constant c must be a positive finite real")
        if self.k_target < 1:
            raise ValueError("k_target must be >= 1")
        if self.d < 1:
            raise ValueError("d must be >= 1")

    def field(self, n: int) -> float:
        """a(n) = 0.5 * log(c * n**(-d/k_target))."""
        return 0.5 * (math.log(self.c) - self.d / self.k_target * math.log(n))

    def params(self, n: int, b: float) -> ModelParams:
        return ModelParams(a=self.field(n), b=b)

    def check_motif(self, motif: LocalConfig) -> None:
        """Raise MotifScheduleMismatch unless the schedule targets the motif's k and d."""
        if motif.k != self.k_target:
            raise MotifScheduleMismatch(
                f"motif has k={motif.k}, schedule targets k={self.k_target}"
            )
        if motif.signature[0] != self.d:
            raise MotifScheduleMismatch(
                f"motif dimension {motif.signature[0]} != schedule dimension {self.d}"
            )


def threshold_field(n: int, d: int, k: int, epsilon: float, super_threshold: bool) -> float:
    """Field with exp(2a) = n**(-d/k +- epsilon).

    ``super_threshold=False`` gives the sub-threshold side (exponent
    -d/k - epsilon, patterns vanish); ``True`` the super-threshold side
    (exponent -d/k + epsilon, patterns proliferate).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sign = 1.0 if super_threshold else -1.0
    return 0.5 * (-d / k + sign * epsilon) * math.log(n)


class SpinConfig:
    """One global +/-1 configuration on a lattice.

    Spins are stored densely in row-major lexicographic site order.
    """

    __slots__ = ("lattice", "spins")

    def __init__(self, lattice: TorusLattice, spins):
        spins = np.asarray(spins)
        if spins.shape != (lattice.num_sites,):
            raise ValueError(f"expected {lattice.num_sites} spins, got shape {spins.shape}")
        self.lattice = lattice
        self.spins = as_spins(spins)

    @classmethod
    def all_minus(cls, lattice: TorusLattice) -> "SpinConfig":
        return cls(lattice, np.full(lattice.num_sites, -1, dtype=np.int8))

    @classmethod
    def all_plus(cls, lattice: TorusLattice) -> "SpinConfig":
        return cls(lattice, np.ones(lattice.num_sites, dtype=np.int8))

    @classmethod
    def from_mask(cls, lattice: TorusLattice, mask: int) -> "SpinConfig":
        bits = (int(mask) >> np.arange(lattice.num_sites)) & 1
        return cls(lattice, (2 * bits - 1).astype(np.int8))

    def to_mask(self) -> int:
        mask = 0
        for i in np.flatnonzero(self.spins == 1):
            mask |= 1 << int(i)
        return mask

    def spin(self, vertex: Vertex) -> int:
        return int(self.spins[self.lattice.site_index(self.lattice.canon(vertex))])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpinConfig)
            and self.lattice == other.lattice
            and bool(np.array_equal(self.spins, other.spins))
        )

    def __repr__(self) -> str:
        return f"SpinConfig({self.lattice!r}, mask={self.to_mask():#x})"


def hamiltonian(cfg: SpinConfig, params: ModelParams) -> float:
    """a * sum_x sigma(x) + b * sum_edges sigma(x) sigma(y), each edge once."""
    s = cfg.spins.astype(np.int64)
    edges = cfg.lattice.edges()
    if edges:
        ei = np.fromiter((e[0] for e in edges), dtype=np.int64)
        ej = np.fromiter((e[1] for e in edges), dtype=np.int64)
        pair = int((s[ei] * s[ej]).sum())
    else:
        pair = 0
    return params.a * int(s.sum()) + params.b * pair


def _spin_matrix(masks: np.ndarray, num_sites: int) -> np.ndarray:
    """(len(masks), num_sites) +/-1 int8 matrix from config bitmasks."""
    bits = (masks[:, None] >> np.arange(num_sites, dtype=np.uint64)[None, :]) & np.uint64(1)
    return (2 * bits.astype(np.int8) - 1).astype(np.int8)


def _logsumexp(x: np.ndarray, weights=None, axis: int | None = None) -> np.ndarray:
    """log(sum(weights * exp(x))) along ``axis``; zero-weight entries must be -inf.

    Shifted by the maximum, whose terms are summed apart and added through log1p
    (Blanchard, Higham and Higham, IMA J. Numer. Anal. 41(4), 2021), as in scipy.
    """
    top = np.max(x, axis=axis, keepdims=True)
    at_top = x == top
    w = 1.0 if weights is None else weights
    m = np.sum(w * at_top, axis=axis, keepdims=True)
    rest = np.sum(w * np.exp(np.where(at_top, -np.inf, x) - top), axis=axis, keepdims=True)
    return np.squeeze(np.log1p(rest / m) + np.log(m) + top, axis=axis)


# lru_cache holds no lock while it fills a table, so every cached call takes this
# one: a thread that misses waits for the table another thread is filling
_LEVELS_LOCK = threading.Lock()


class _Levels(NamedTuple):
    """One lattice's enumeration, shared by every (a, b) on it."""

    index: np.ndarray  # level of every configuration, indexed by bitmask
    count: np.ndarray  # multiplicity of every level
    field: np.ndarray  # magnetisation M of every level
    pair: np.ndarray  # pair sum E of every level


@lru_cache(maxsize=2)  # exact_grid, demo.ini: two threads on (n, motif, b) cells span 2 lattices
def _energy_levels(lattice: TorusLattice) -> _Levels:
    """Enumerate the lattice once: the (M, E) level of every configuration.

    M = sum_x sigma(x) and E = sum_edges sigma(x) sigma(y) are integers, so
    the level (M + N) * (2|E| + 1) + (E + |E|) is a dense index.  The index is
    built in place by doubling: the masks with top bit k are the masks below
    2**k with site k turned from -1 to +1 (the sites above k still -1), which
    adds 2 to M and twice the neighbours' spin sum to E.
    """
    n_sites = lattice.num_sites
    edges = lattice.edges()
    n_edges = len(edges)
    width = 2 * n_edges + 1
    size = (2 * n_sites + 1) * width
    lower: list[list[int]] = [[] for _ in range(n_sites)]
    degree = [0] * n_sites
    for i, j in edges:  # i < j
        lower[j].append(i)
        degree[i] += 1
        degree[j] += 1
    index = np.empty(1 << n_sites, dtype=np.uint16 if size <= 1 << 16 else np.uint32)
    index[0] = 2 * n_edges  # all minus: M = -N, E = |E|
    for k in range(n_sites):
        half = 1 << k
        upper = index[half:2 * half]
        # every lower neighbour at -1; each one at +1 (bit j set) adds 4
        np.add(index[:half], 2 * width - 2 * degree[k], out=upper)
        for j in lower[k]:
            upper.reshape(-1, 2, 1 << j)[:, 1] += 4
    count = np.zeros(size, dtype=np.intp)
    for start in range(0, len(index), MASK_CHUNK):
        count += np.bincount(index[start:start + MASK_CHUNK], minlength=size)
    levels = np.arange(size)
    out = (index, count, levels // width - n_sites, levels % width - n_edges)
    return _Levels(*map(read_only, out))


class ExactMeasure:
    """Gibbs measure tabulated over all 2**(n^d) configurations.

    Immutable after construction; queries are concurrent-read-safe.  The
    energy exponent a*M + b*E is tabulated once per (M, E) level of the
    lattice's cached enumeration; ``log_weights[m]`` is that value at the
    level of bitmask m, and log_z its log-sum-exp over all configurations.
    """

    def __init__(self, lattice: TorusLattice, params: ModelParams):
        self.lattice = lattice
        self.params = params
        with _LEVELS_LOCK:
            levels = _energy_levels(lattice)
        self._index = levels.index
        table = params.a * levels.field + params.b * levels.pair
        # empty levels are never looked up; -inf keeps exp from overflowing on them
        self._table = np.where(levels.count > 0, table, -np.inf)
        self.log_z = float(_logsumexp(self._table, levels.count))
        self._level_probs = np.exp(self._table - self.log_z)

    @property
    def num_configs(self) -> int:
        return len(self._index)

    @property
    def log_weights(self) -> np.ndarray:
        """Energy exponent of every configuration, indexed by bitmask."""
        return self._table[self._index]

    def probabilities(self) -> np.ndarray:
        """Probability of every configuration, indexed by bitmask (read-only).

        Built afresh on each call, eight bytes per configuration: for the
        oracle queries below; count laws come from ``count_pmf``, which never
        builds this table.
        """
        return read_only(self._level_probs[self._index])

    def count_pmf(self, counts: np.ndarray) -> np.ndarray:
        """Law of a statistic with values in 0..N, given per configuration bitmask.

        Returns pmf of length N + 1, N the number of sites.  Each block of
        ``_PMF_BLOCK`` masks copies its levels and counts into two intp
        buffers, gathers the probabilities of the levels into a third and adds
        them with ``np.add.at``, which adds in index order; every bin thus
        sums the same terms in the same order as
        ``np.bincount(counts, weights=self.probabilities())``, bit for bit.
        The three buffers are made once per call.
        """
        if counts.shape != (self.num_configs,):
            raise ValueError("counts must cover every configuration")
        pmf = np.zeros(self.lattice.num_sites + 1)
        size = min(_PMF_BLOCK, self.num_configs)  # both powers of two: every block is full
        level, bins, probs = np.empty(size, np.intp), np.empty(size, np.intp), np.empty(size)
        for start in range(0, self.num_configs, size):
            level[:], bins[:] = self._index[start:start + size], counts[start:start + size]
            # every level is in range; "clip" spares the copy of ``out`` that "raise" makes
            self._level_probs.take(level, out=probs, mode="clip")
            np.add.at(pmf, bins, probs)
        return pmf

    def expectation(self, values) -> float:
        """Mean of a statistic given as an array indexed by configuration bitmask."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.num_configs,):
            raise ValueError("values must cover every configuration")
        return float(np.dot(self.probabilities(), values))

    # -- partial assignments ------------------------------------------------

    def _assignment_masks(self, assignment: Mapping[Vertex, int]) -> tuple[int, int]:
        as_spins(list(assignment.values()))
        sites_mask = 0
        plus_mask = 0
        for vertex, spin in assignment.items():
            idx = self.lattice.site_index(self.lattice.canon(vertex))
            bit = 1 << idx
            if sites_mask & bit:
                raise ValueError(f"vertex {vertex} assigned twice")
            sites_mask |= bit
            if spin == 1:
                plus_mask |= bit
        return sites_mask, plus_mask

    def _match(self, sites_mask: int, plus_mask: int) -> np.ndarray:
        masks = np.arange(self.num_configs, dtype=np.uint64)
        return (masks & np.uint64(sites_mask)) == np.uint64(plus_mask)

    def conditional_probability(
        self, target: Mapping[Vertex, int], given: Mapping[Vertex, int]
    ) -> float:
        """P(target assignment | given assignment), on disjoint vertex sets."""
        sm_t, pm_t = self._assignment_masks(target)
        sm_g, pm_g = self._assignment_masks(given)
        if sm_t & sm_g:
            raise ValueError("target and given assignments overlap")
        p = self.probabilities()
        denom = float(p[self._match(sm_g, pm_g)].sum())
        if denom <= 0.0:
            raise ValueError("conditioning event has zero probability")
        num = float(p[self._match(sm_t | sm_g, pm_t | pm_g)].sum())
        return num / denom


def build_exact(
    lattice: TorusLattice, params: ModelParams, site_cap: int | None = None
) -> ExactMeasure:
    """Tabulate the Gibbs measure over all configurations of a small lattice.

    Raises:
        TooLargeForExact: if n^d exceeds ``site_cap`` (None: DEFAULT_SITE_CAP).
    """
    cap = DEFAULT_SITE_CAP if site_cap is None else site_cap
    if lattice.num_sites > cap:
        raise TooLargeForExact(
            f"lattice has {lattice.num_sites} sites, enumeration cap is {cap}"
        )
    return ExactMeasure(lattice, params)


# -- local energies -------------------------------------------------------------


def local_energy(
    lattice: TorusLattice,
    x: Vertex,
    radius: int,
    spins: Mapping[Vertex, int],
    params: ModelParams,
) -> float:
    """Energy contribution of the ball B(x, radius).

    Field term over the ball plus pair term over every edge with at least one
    endpoint in the ball (the other endpoint may lie on the boundary).

    Args:
        spins: assignment covering the whole closure of the ball.

    Raises:
        MissingSpin: if any ball or boundary vertex has no assigned spin.
    """
    ball = lattice.ball(lattice.canon(x), radius)
    boundary = lattice.boundary(ball)
    assignment = {lattice.canon(v): s for v, s in spins.items()}
    missing = [v for v in list(ball.members) + list(boundary) if v not in assignment]
    if missing:
        raise MissingSpin(f"no spin assigned on {missing[:4]}{'...' if len(missing) > 4 else ''}")
    as_spins(list(assignment.values()))

    inside = set(ball.members)
    field = sum(assignment[v] for v in ball.members)
    pair = 0
    for y in ball.members:
        for z in lattice.neighbors(y):
            if z in inside:
                if y < z:  # internal edge, count once
                    pair += assignment[y] * assignment[z]
            else:
                pair += assignment[y] * assignment[z]
    return params.a * field + params.b * pair


class _BallTable(NamedTuple):
    """Local energy terms of every pattern on the ball B(x, r) of a motif.

    Row m is the pattern with +1 on members[i] iff bit i of m is set; ``target``
    is the motif's row.  The energy of row m against boundary spins tau is
    a * field[m] + b * (internal[m] + cross[m] @ tau).
    """

    target: int
    members: tuple  # sorted ball vertices
    boundary: tuple  # vertex boundary of the ball, in the order of cross's columns
    field: np.ndarray  # (patterns,) sum of the ball spins
    internal: np.ndarray  # (patterns,) pair sum over the edges inside the ball
    cross: np.ndarray  # (patterns, |boundary|) float64 coefficient of each boundary spin

    def energies(self, taus: np.ndarray, params: ModelParams) -> np.ndarray:
        """(patterns, columns) energies against the +/-1 boundary columns of ``taus``."""
        pair = self.internal[:, None] + self.cross @ taus  # small integers: exact in float64
        return params.a * self.field[:, None] + params.b * pair


def _ball_table(lattice: TorusLattice, x: Vertex, motif: LocalConfig) -> _BallTable:
    ball = lattice.ball(lattice.canon(x), motif.radius)
    members = tuple(ball.members)
    patterns = family_size(len(members), "ball pattern family")
    boundary = tuple(lattice.boundary(ball))
    index = {v: i for i, v in enumerate(members)}
    internal = []
    cross = np.zeros((len(members), len(boundary)))
    for y in members:
        for z in lattice.neighbors(y):
            if z not in index:
                cross[index[y], boundary.index(z)] += 1
            elif y < z:
                internal.append((index[y], index[z]))
    rows = _spin_matrix(np.arange(patterns, dtype=np.uint64), len(members))
    ii, jj = np.array(internal, dtype=np.intp).reshape(-1, 2).T
    target = sum(1 << index[lattice.add(ball.center, off)] for off in motif.positives)
    field, pair = rows.sum(axis=1), (rows[:, ii] * rows[:, jj]).sum(axis=1)
    return _BallTable(target, members, boundary, field, pair, rows @ cross)


def conditional_motif_probability(
    lattice: TorusLattice,
    x: Vertex,
    motif: LocalConfig,
    boundary: Mapping[Vertex, int],
    params: ModelParams,
) -> float:
    """Probability that the motif occupies B(x, r), given the boundary spins.

    Computed in log domain as exp(H(motif)) normalized over the local energies
    of all 2**beta(r) patterns on the ball; the result lies in (0, 1).

    Raises:
        SignatureMismatch, LatticeTooSmall: motif and lattice do not fit.
        FamilyTooLarge: the 2**beta(r) normalization is over the cap.
        MissingSpin: boundary does not cover the whole vertex boundary.
        ValueError: a boundary spin other than +1 or -1.
    """
    motif.check_fits(lattice)
    table = _ball_table(lattice, x, motif)
    assignment = {lattice.canon(v): s for v, s in boundary.items()}
    missing = [v for v in table.boundary if v not in assignment]
    if missing:
        raise MissingSpin(f"boundary spin missing on {missing}")
    tau = as_spins([[assignment[v]] for v in table.boundary])
    energies = table.energies(tau, params)
    return float(np.exp(energies[table.target, 0] - _logsumexp(energies, axis=0)[0]))


@dataclass(frozen=True)
class SandwichReport:
    """Exhaustive check of the scaled conditional law of a clean motif.

    For every boundary assignment tau, n^d * P(motif | tau) must stay below
    the limit value c^k * exp(-2 b gamma); ``worst_ratio`` is the smallest
    observed ratio against that limit (it approaches 1 as n grows) and
    ``max_excess`` the largest upper-bound violation (<= ``_SANDWICH_TOL`` when
    the bound holds).
    """

    n: int
    lambda_target: float
    worst_ratio: float
    max_excess: float
    boundary_count: int
    upper_bound_holds: bool


def check_conditional_sandwich(
    lattice: TorusLattice,
    motif: LocalConfig,
    schedule: FieldSchedule,
    b: float,
) -> SandwichReport:
    """Exhaustively bound n^d * P(motif | boundary) over all boundary spins.

    Raises:
        SignatureMismatch: motif built for a different (d, rho, p).
        NotClean: the motif has positives on its outer shell.
        MotifScheduleMismatch: k(motif) or d differs from the schedule's.
        LatticeTooSmall: n <= 2 * rho * (r + 1), so the closure B(x, r + 1) wraps.
        FamilyTooLarge: the ball patterns or boundary assignments are over the cap.
        NonFiniteLimit: the limit value c^k * exp(-2 b gamma) is not a finite
            float, or underflows to 0.0 so that no ratio against it exists.
    """
    motif.check_fits(lattice)
    if not motif.clean:
        raise NotClean("sandwich check requires a clean motif")
    schedule.check_motif(motif)
    lattice.check_radius(motif.radius + 1)
    n = lattice.n
    params = schedule.params(n, b)
    lam = poisson_limit(schedule.c, b, motif)
    if lam == 0.0:
        raise NonFiniteLimit(f"lambda underflows to 0.0 at c={schedule.c!r}, b={b!r}")

    table = _ball_table(lattice, (0,) * lattice.d, motif)
    n_boundary = len(table.boundary)
    assignments = family_size(n_boundary, "boundary assignment family")

    # boundary assignment m puts +1 on boundary[i] iff bit i of m is set
    step = max(1, _SANDWICH_BLOCK_BYTES // (8 * len(table.field)))
    low, high = math.inf, -math.inf
    for start in range(0, assignments, step):
        masks = np.arange(start, min(start + step, assignments), dtype=np.uint64)
        energies = table.energies(_spin_matrix(masks, n_boundary).T, params)
        log_z = _logsumexp(energies, axis=0)
        scaled = lattice.num_sites * np.exp(energies[table.target] - log_z)
        low, high = min(low, float(scaled.min())), max(high, float(scaled.max()))
    return SandwichReport(
        n=n,
        lambda_target=lam,
        worst_ratio=low / lam,
        max_excess=high - lam,
        boundary_count=assignments,
        upper_bound_holds=high - lam <= _SANDWICH_TOL,
    )

"""Exact Gibbs measures by full enumeration, local energies, and conditional motif laws.

The measure weights a configuration sigma by exp(a * sum_x sigma(x) +
b * sum_edges sigma(x) sigma(y)).  Both sums are integers, so the
configurations of each small lattice fall into (M, E) levels, and every
(a, b) on it is a lookup in a table of a*M + b*E.  The level of every
configuration is streamed block by block in bitmask order from a few tables
of one block each (``PatternBlocks``), as ``counting`` streams the motif
counts; only those tables and each level's multiplicity are kept.  Count laws
are summed in one pass over the level blocks, several at a time, so no table
of one level, probability or count per configuration is made.  The level
and probability tables are built on demand only for the oracle queries
(means, variances, conditionals).
All weights stay in log domain; the field a can be strongly negative, which
would underflow raw weights.

Configurations are identified with bitmasks: bit i set means site i (row-major
lexicographic index) carries spin +1; only ``PatternBlocks`` builds mask words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .distributions import poisson_limit
from .errors import MissingSpin, MotifScheduleMismatch, NonFiniteLimit, NotClean, TooLargeForExact
from .lattice import TorusLattice, Vertex, as_int
from .motifs import LocalConfig, family_size

#: Default cap on sites for full enumeration (2**cap configurations).
DEFAULT_SITE_CAP = 24

#: Bits of one configuration mask word (uint32): no cap passes this many sites.
MASK_BITS = 32

#: Bitmasks per block of every pass over the configurations: the level
#: multiplicities, the count blocks of ``counting`` and the count-law pass.
#: Timed on 2 vCPUs, on the three-law pass of a d=1, n=22 and a d=2, n=5 cell,
#: blocks of 2**14, 2**15 and 2**16 masks take the same time within the noise
#: (medians 57, 57, 53 ms and 555, 520, 535 ms), while at 2**13 the per-block
#: Python work adds 13-32%.  The smallest of the three keeps the pass's three
#: intp / float64 buffers at 128 KiB each, well inside a 2 MB L2 cache.
MASK_CHUNK = 1 << 14


#: High bits that one group of straddling patterns of ``PatternBlocks`` may
#: read: a group keeps at most 2**_GROUP_BITS tables of one block each, and
#: costs one add per block.
_GROUP_BITS = 4


def mask_block(num_sites: int) -> int:
    """Masks per block on ``num_sites`` sites: the largest power of two up to
    ``MASK_CHUNK`` and 2**num_sites, so the blocks tile the masks exactly."""
    return 1 << min(MASK_CHUNK.bit_length() - 1, num_sites)


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
        mask = as_int(mask, "mask")
        if not 0 <= mask < 1 << lattice.num_sites:
            raise ValueError(f"mask must be in [0, 2^{lattice.num_sites}), got {mask}")
        bits = np.array([mask >> i & 1 for i in range(lattice.num_sites)], dtype=np.int8)
        return cls(lattice, 2 * bits - 1)

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


class PatternBlocks:
    """Weighted pattern counts of every configuration bitmask, block by block.

    Pattern t reads the sites ``reads[t]``, each ORed into the uint32 word
    ``care[t]``, and those where ``wants[t]`` (broadcast) is true into
    ``plus[t]``.  The value of mask m is the sum over patterns t of
    ``weight[t] * (m & care[t] == plus[t])``; ``dtype`` must hold the largest.
    Past ``MASK_BITS`` sites, ``TooLargeForExact`` is raised before anything is made.
    Iterating yields the values in bitmask order, ``step`` = 2**L masks per
    block (``mask_block(num_sites)``), all in one buffer that the next block
    overwrites; each iteration makes its own buffer.  A block is the sum of
    three pieces, tabulated here:

    * a pattern that reads only the low L bits matches alike in every block:
      together they form one table;
    * a pattern that reads only high bits matches in all of a block or in
      none of it: one offset per block;
    * a pattern that reads both straddles the block boundary: its low-bit
      indicator is added to the blocks whose start matches its high bits.

    Straddling patterns are grouped, in order of their high bits, while the
    high bits a group reads number at most ``_GROUP_BITS``; a pattern that
    reads more is a group of its own.  A group keeps one table for each set
    of its patterns that some block start matches, and the first group's
    tables hold the low table too.  A block is thus one table plus its
    offset, plus one table for each further group that it matches.
    """

    def __init__(self, num_sites: int, step: int, reads, wants, weight, dtype):
        if num_sites > MASK_BITS:
            raise TooLargeForExact(f"{num_sites} sites pass the {MASK_BITS}-bit mask word")
        bits = np.left_shift(np.uint32(1), np.asarray(reads, dtype=np.uint32))
        care = np.bitwise_or.reduce(bits, axis=-1)
        plus = np.bitwise_or.reduce(bits * np.asarray(wants, dtype=bool), axis=-1)
        low_bits = np.uint32(step - 1)
        masks = np.arange(step, dtype=np.uint32)
        starts = np.arange(0, 1 << num_sites, step, dtype=np.uint32)
        weight = np.broadcast_to(np.asarray(weight, dtype=dtype), care.shape)
        high = care & ~low_bits
        reads_low = (care & low_bits) != 0

        selected, hit = np.empty_like(masks), np.empty(step, dtype=bool)

        def indicator(t) -> np.ndarray:  # weight of pattern t where its low bits match
            np.bitwise_and(masks, care[t] & low_bits, out=selected)
            np.equal(selected, plus[t] & low_bits, out=hit)
            return np.multiply(hit, weight[t], dtype=dtype)

        def total(tables, start: np.ndarray) -> np.ndarray:
            out = start.copy()
            for table in tables:
                out += table
            return read_only(out)

        on_high = np.flatnonzero((high != 0) & ~reads_low)
        matches = (starts[:, None] & care[on_high]) == plus[on_high]
        self._offsets = (matches * weight[on_high]).sum(axis=1, dtype=dtype)
        zeros = np.zeros(step, dtype)
        base = total(map(indicator, np.flatnonzero(high == 0)), zeros)  # and those reading no bit
        straddle = np.flatnonzero((high != 0) & reads_low)
        parts = {t: indicator(t) for t in straddle}
        groups: list[list[int]] = []
        for t in sorted(straddle, key=lambda t: int(high[t])):
            if groups and (union | int(high[t])).bit_count() <= _GROUP_BITS:
                groups[-1].append(t)
                union |= int(high[t])
            else:
                groups.append([t])
                union = int(high[t])

        def group_tables(group: list[int], first: bool) -> list:
            """Per block, the group's table for the patterns that the block start matches."""
            group_high = np.bitwise_or.reduce(high[group])
            keys, inverse = np.unique(starts & group_high, return_inverse=True)
            made = {(): base if first else None}
            per_key = []
            for key in keys:
                matched = tuple(t for t in group if (key & high[t]) == (plus[t] & high[t]))
                if matched not in made:
                    made[matched] = total(map(parts.get, matched), base if first else zeros)
                per_key.append(made[matched])
            return list(map(per_key.__getitem__, inverse.tolist()))

        # per block: the first group's table (or the low table), then one
        # table or None for each further group
        self._tables = [group_tables(group, g == 0) for g, group in enumerate(groups)]
        self._tables = self._tables or [[base] * len(starts)]
        self._step, self._dtype = step, dtype

    def __iter__(self) -> Iterator[np.ndarray]:
        out = np.empty(self._step, dtype=self._dtype)
        for first, offset, *rest in zip(self._tables[0], self._offsets, *self._tables[1:]):
            np.add(first, offset, out=out)
            for table in rest:
                if table is not None:
                    out += table
            yield out

    def concatenated(self) -> np.ndarray:
        """The value of every mask, as one array indexed by bitmask (for the oracles)."""
        out = np.empty((len(self._offsets), self._step), dtype=self._dtype)
        for row, block in zip(out, self):
            row[:] = block
        return out.reshape(-1)


class _Levels(NamedTuple):
    """One lattice's enumeration, shared by every (a, b) on it."""

    blocks: PatternBlocks  # level of every configuration, streamed in bitmask order
    count: np.ndarray  # multiplicity of every level
    field: np.ndarray  # magnetisation M of every level
    pair: np.ndarray  # pair sum E of every level


@lru_cache(maxsize=1)  # exact_grid, demo.ini: one cell's lattice; cells run in (n, motif, b) order
def _energy_levels(lattice: TorusLattice, step: int) -> _Levels:
    """Enumerate the lattice once: the (M, E) level of every configuration, in blocks of ``step``.

    M = sum_x sigma(x) and E = sum_edges sigma(x) sigma(y) are integers, so
    the level (M + N) * (2|E| + 1) + (E + |E|) is a dense index.  As
    M + N = 2 #plus and E + |E| = 2 #agree, it is a weighted count of
    patterns: 2 (2|E| + 1) for each site at +1, and 2 for each edge whose two
    spins agree (both -1 or both +1).  Its blocks are ``PatternBlocks``, whose
    tables are all that is kept; one pass over them counts every level's
    multiplicity.  ``step`` is ``mask_block(N)``.
    """
    n_sites = lattice.num_sites
    edges = np.array(lattice.edges(), dtype=np.intp).reshape(-1, 2)
    width = 2 * len(edges) + 1
    size = (2 * n_sites + 1) * width  # N <= MASK_BITS: at most 65 * 993 = 64545 < 2**16
    reads = np.concatenate([np.arange(n_sites).repeat(2).reshape(-1, 2), edges, edges])
    wants = np.repeat([True, False, True], [n_sites, len(edges), len(edges)])[:, None]
    weight = np.repeat([2 * width, 2], [n_sites, 2 * len(edges)])
    blocks = PatternBlocks(n_sites, step, reads, wants, weight, np.uint16)
    count = np.zeros(size, dtype=np.intp)
    for block in blocks:
        count += np.bincount(block, minlength=size)
    levels = np.arange(size)
    out = (count, levels // width - n_sites, levels % width - len(edges))
    return _Levels(blocks, *map(read_only, out))


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
        levels = _energy_levels(lattice, mask_block(lattice.num_sites))
        self._levels = levels.blocks
        table = params.a * levels.field + params.b * levels.pair
        # empty levels are never looked up; -inf keeps exp from overflowing on them
        self._table = np.where(levels.count > 0, table, -np.inf)
        self.log_z = float(_logsumexp(self._table, levels.count))
        self._level_probs = np.exp(self._table - self.log_z)

    @property
    def num_configs(self) -> int:
        return 1 << self.lattice.num_sites

    @property
    def log_weights(self) -> np.ndarray:
        """Energy exponent of every configuration, indexed by bitmask."""
        return self._table[self._levels.concatenated()]

    def probabilities(self) -> np.ndarray:
        """Probability of every configuration, indexed by bitmask (read-only).

        Built afresh on each call, with the level of every configuration, for
        the oracle queries below; count laws come from ``count_pmfs``, which
        builds neither table.
        """
        return read_only(self._level_probs[self._levels.concatenated()])

    def count_pmfs(self, streams: Sequence[Iterable[np.ndarray]]) -> list[np.ndarray]:
        """Laws of several statistics with values in 0..N, in one pass over the masks.

        Each stream yields its statistic's values block by block in bitmask
        order, ``mask_block(N)`` masks per block; N is the number of sites, and
        each law a pmf of length N + 1.  The lattice's level blocks come in the
        same order: each is copied into an intp buffer, whose levels'
        probabilities are gathered into a second, once for every stream; each
        stream's block is copied into a third and added to its law with
        ``np.add.at``, which adds in index order.  Every bin thus sums the same
        terms in the same order as
        ``np.bincount(values, weights=self.probabilities())``, bit for bit.
        The three buffers are made once per pass.  A stream with more or fewer
        blocks than the levels raises ``ValueError``.
        """
        pmfs = [np.zeros(self.lattice.num_sites + 1) for _ in streams]
        size = mask_block(self.lattice.num_sites)
        level, bins, probs = np.empty(size, np.intp), np.empty(size, np.intp), np.empty(size)
        for levels, *blocks in zip(self._levels, *streams, strict=True):
            level[:] = levels
            # every level is in range; "clip" spares the copy of ``out`` that "raise" makes
            self._level_probs.take(level, out=probs, mode="clip")
            for pmf, block in zip(pmfs, blocks):
                bins[:] = block
                np.add.at(pmf, bins, probs)
        return pmfs

    def count_pmf(self, counts: np.ndarray) -> np.ndarray:
        """``count_pmfs`` of one statistic given as an array indexed by bitmask."""
        if counts.shape != (self.num_configs,):
            raise ValueError("counts must cover every configuration")
        return self.count_pmfs([counts.reshape(-1, mask_block(self.lattice.num_sites))])[0]

    def expectation(self, values) -> float:
        """Mean of a statistic given as an array indexed by configuration bitmask."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.num_configs,):
            raise ValueError("values must cover every configuration")
        return float(np.dot(self.probabilities(), values))

    # -- partial assignments ------------------------------------------------

    def _assignment_sites(self, assignment: Mapping[Vertex, int]) -> dict[int, bool]:
        """``{site: is_plus}`` of an assignment of +/-1 spins to vertices."""
        as_spins(list(assignment.values()))
        sites = {}
        for vertex, spin in assignment.items():
            site = self.lattice.site_index(self.lattice.canon(vertex))
            if site in sites:
                raise ValueError(f"vertex {vertex} assigned twice")
            sites[site] = spin == 1
        return sites

    def _match(self, pattern: Mapping[int, bool]) -> np.ndarray:
        """Which configurations carry the ``{site: is_plus}`` pattern, indexed by bitmask."""
        sites = self.lattice.num_sites
        return PatternBlocks(sites, mask_block(sites), [list(pattern)], [list(pattern.values())],
                             1, np.uint8).concatenated().view(bool)

    def conditional_probability(
        self, target: Mapping[Vertex, int], given: Mapping[Vertex, int]
    ) -> float:
        """P(target assignment | given assignment), on disjoint vertex sets."""
        target, given = self._assignment_sites(target), self._assignment_sites(given)
        if target.keys() & given.keys():
            raise ValueError("target and given assignments overlap")
        p = self.probabilities()
        denom = float(p[self._match(given)].sum())
        if denom <= 0.0:
            raise ValueError("conditioning event has zero probability")
        num = float(p[self._match(target | given)].sum())
        return num / denom


def build_exact(
    lattice: TorusLattice, params: ModelParams, site_cap: int | None = None
) -> ExactMeasure:
    """Tabulate the Gibbs measure over all configurations of a small lattice.

    Raises:
        TooLargeForExact: if n^d exceeds ``site_cap`` (None: DEFAULT_SITE_CAP) or MASK_BITS.
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

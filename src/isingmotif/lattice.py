"""Periodic lattice geometry: vertices, neighborhoods, balls and their size constants.

The torus has vertex set {0..n-1}^d.  Two vertices are neighbors when the
componentwise circular displacement has L_p norm at most rho.  Balls are taken
with respect to graph distance (the neighborhood is the unit step), so their
size beta(r) and internal edge count alpha(r) depend only on (d, rho, p, r)
whenever n > 2*rho*r.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import FamilyTooLarge, LatticeTooSmall

Vertex = tuple[int, ...]

#: Distinguished selector for the L-infinity norm (exact comparisons only;
#: no floating-point norm arithmetic is ever performed).
INFINITY = math.inf

#: Cap on the 2**sites pattern families that ``motifs.family_size`` enumerates.
DEFAULT_FAMILY_CAP = 1 << 20

#: Cap on candidate neighbor offsets and on ball sites.  ``counting.count_samples``
#: sums a match of more than 127 columns in int16, and Metropolis indexes its
#: table in uint16 up to 2 * degree + 1: past 2**15 - 1 both would wrap.
GEOMETRY_CAP = (1 << 15) - 1


def as_int(value, name: str, low: int | None = None) -> int:
    """``value`` as an int, checked to be integral and >= ``low`` before the cast truncates 2.5."""
    try:
        q = int(value)
    except (OverflowError, ValueError):  # inf, nan
        q = None
    if q is None or q != value or (low is not None and q < low):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return q


def normalize_norm_selector(p) -> int | float:
    """Return ``p`` as an integer >= 1 or the INFINITY selector."""
    if p == INFINITY:
        return INFINITY
    if isinstance(p, str):
        if p.strip().lower() in ("inf", "infinity"):
            return INFINITY
        p = int(p)
    q = int(p)
    if q != p or q < 1:
        raise ValueError(f"norm selector must be an integer >= 1 or 'inf', got {p!r}")
    return q


def lattice_signature(d, rho, p) -> tuple:
    """(d, rho, p) checked: integers d, rho >= 1 and a norm selector."""
    return as_int(d, "d", 1), as_int(rho, "rho", 1), normalize_norm_selector(p)


def norm_label(p) -> int | str:
    """The norm selector as files and results write it: its integer, or "inf"."""
    return "inf" if p == INFINITY else p


@lru_cache(maxsize=None)  # exact_grid, mcmc_grid, cftp_grid: every neighbors() call
def neighbor_offsets(d: int, rho: int, p) -> tuple[Vertex, ...]:
    """Nonzero integer vectors v with ||v||_p <= rho, sorted lexicographically.

    All comparisons are integer-exact: for finite p the test is
    sum(|v_i|^p) <= rho^p, for p = INFINITY it is max(|v_i|) <= rho.

    Raises:
        FamilyTooLarge: the (2 rho + 1)^d candidates pass GEOMETRY_CAP.
    """
    # 2 rho + 1 > 2, so at d = bit_length(cap) the candidates already pass the cap
    if (2 * rho + 1) ** min(d, GEOMETRY_CAP.bit_length()) > GEOMETRY_CAP:
        raise FamilyTooLarge(
            f"neighbor offsets have (2*{rho}+1)^{d} candidates, cap is {GEOMETRY_CAP}"
        )
    offsets = []
    for v in product(range(-rho, rho + 1), repeat=d):
        if all(c == 0 for c in v):
            continue
        if p == INFINITY or sum(abs(c) ** p for c in v) <= rho**p:
            offsets.append(v)
    return tuple(sorted(offsets))


def ball_offsets(d: int, rho: int, p, radius: int) -> tuple[Vertex, ...]:
    """Offsets within graph distance ``radius`` of the origin in Z^d (no wrap), sorted.

    Valid as the torus ball whenever n > 2*rho*radius.  Every ball and motif
    radius passes through here and is checked outside the cache: the search
    stops at distance == radius, which a radius of 1.5 or -1 never reaches.

    Raises:
        ValueError: radius is not an integer >= 0.
        FamilyTooLarge: the neighbor offsets or the ball pass GEOMETRY_CAP.
    """
    return _ball_offsets(d, rho, p, as_int(radius, "radius", 0))


@lru_cache(maxsize=None)  # exact_grid, mcmc_grid, cftp_grid: every motif's ball
def _ball_offsets(d: int, rho: int, p, radius: int) -> tuple[Vertex, ...]:
    """Breadth-first search from the origin, stopped at distance ``radius``."""
    steps = neighbor_offsets(d, rho, p)
    origin = (0,) * d
    dist = {origin: 0}
    frontier = deque([origin])
    while frontier:
        if len(dist) > GEOMETRY_CAP:
            raise FamilyTooLarge(f"ball of radius {radius} passes {GEOMETRY_CAP} sites")
        v = frontier.popleft()
        dv = dist[v]
        if dv == radius:
            continue
        for s in steps:
            w = tuple(a + b for a, b in zip(v, s))
            if w not in dist:
                dist[w] = dv + 1
                frontier.append(w)
    return tuple(sorted(dist))


@dataclass(frozen=True)
class Ball:
    """A graph-distance ball on the torus.

    ``members`` is the full sorted vertex list; its length is beta(radius),
    independent of the center (and of n while n > 2*rho*radius).
    """

    center: Vertex
    radius: int
    members: tuple[Vertex, ...]


class TorusLattice:
    """Geometry of the d-dimensional discrete torus {0..n-1}^d.

    Immutable after construction; all query methods are safe for concurrent
    reads.  Vertices are canonical tuples with every coordinate reduced mod n,
    and every vertex collection returned by this class is sorted
    lexicographically.

    Args:
        d: dimension, an integer >= 1.
        n: side length, an integer >= 1.
        rho: neighborhood range, an integer >= 1.
        p: norm selector, an integer >= 1 or INFINITY / "inf".
    """

    def __init__(self, d: int, n: int, rho: int = 1, p=1):
        self.d, self.rho, self.p = lattice_signature(d, rho, p)
        self.n = as_int(n, "n", 1)
        self.num_sites = self.n**self.d

    # -- identity ----------------------------------------------------------

    @property
    def signature(self) -> tuple:
        """(d, rho, p): what a motif must match to apply to this lattice."""
        return (self.d, self.rho, self.p)

    def _key(self) -> tuple:
        return (self.d, self.n, self.rho, self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, TorusLattice) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"TorusLattice(d={self.d}, n={self.n}, rho={self.rho}, p={norm_label(self.p)})"

    # -- vertices ----------------------------------------------------------

    def canon(self, v) -> Vertex:
        """Reduce a coordinate tuple componentwise mod n."""
        if len(v) != self.d:
            raise ValueError(f"expected {self.d} coordinates, got {len(v)}")
        return tuple(int(c) % self.n for c in v)

    def vertices(self):
        """All vertices in lexicographic order."""
        return (v for v in product(range(self.n), repeat=self.d))

    def site_index(self, v: Vertex) -> int:
        """Row-major lexicographic index of a canonical vertex."""
        idx = 0
        for c in v:
            idx = idx * self.n + c
        return idx

    def vertex_at(self, index: int) -> Vertex:
        """The vertex of row-major index ``index``, in [0, n^d)."""
        index = as_int(index, "index")
        if not 0 <= index < self.num_sites:
            raise ValueError(f"index must be in [0, {self.num_sites}), got {index}")
        coords = []
        for _ in range(self.d):
            coords.append(index % self.n)
            index //= self.n
        return tuple(reversed(coords))

    def add(self, x: Vertex, y) -> Vertex:
        """Componentwise sum mod n."""
        return tuple((a + b) % self.n for a, b in zip(x, y))

    # -- neighborhoods and edges -------------------------------------------

    def neighbors(self, x: Vertex) -> tuple[Vertex, ...]:
        """Sorted tuple of the neighbors of x (never containing x itself)."""
        x = self.canon(x)
        seen = {self.add(x, off) for off in neighbor_offsets(self.d, self.rho, self.p)}
        seen.discard(x)
        return tuple(sorted(seen))

    @property
    def neighbor_count(self) -> int:
        """Number of neighbors of any vertex (the lattice is vertex-transitive)."""
        return len(self.neighbors((0,) * self.d))

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All undirected edges as (i, j) site-index pairs with i < j."""
        out = []
        for v in self.vertices():
            i = self.site_index(v)
            for w in self.neighbors(v):
                j = self.site_index(w)
                if j > i:
                    out.append((i, j))
        return tuple(out)

    # -- balls ---------------------------------------------------------------

    def ball_size(self, radius: int) -> int:
        """beta(radius): number of vertices of any radius-``radius`` ball."""
        return len(ball_offsets(self.d, self.rho, self.p, radius))

    def check_radius(self, radius: int) -> None:
        """Raise LatticeTooSmall unless n > 2*rho*radius, below which a ball wraps onto itself."""
        if self.n <= 2 * self.rho * radius:
            raise LatticeTooSmall(
                f"ball of radius {radius} needs n > {2 * self.rho * radius}, got n={self.n}"
            )

    def ball(self, x: Vertex, radius: int) -> Ball:
        """The ball B(x, radius).

        Raises:
            ValueError: radius is not an integer >= 0.
            LatticeTooSmall: see ``check_radius``.
        """
        offs = ball_offsets(self.d, self.rho, self.p, radius)
        self.check_radius(radius)
        x = self.canon(x)
        members = tuple(sorted(self.add(x, off) for off in offs))
        return Ball(center=x, radius=int(radius), members=members)

    def boundary(self, ball: Ball) -> tuple[Vertex, ...]:
        """The exterior vertex boundary: neighbors of members outside the ball."""
        inside = set(ball.members)
        out = set()
        for v in ball.members:
            for w in self.neighbors(v):
                if w not in inside:
                    out.add(w)
        return tuple(sorted(out))

    def internal_edge_count(self, ball: Ball) -> int:
        """alpha(radius): number of edges with both endpoints inside the ball."""
        inside = set(ball.members)
        total = 0
        for v in ball.members:
            for w in self.neighbors(v):
                if w in inside:
                    total += 1
        return total // 2

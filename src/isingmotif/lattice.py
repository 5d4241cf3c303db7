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

from .errors import LatticeTooSmall

Vertex = tuple[int, ...]

#: Distinguished selector for the L-infinity norm (exact comparisons only;
#: no floating-point norm arithmetic is ever performed).
INFINITY = math.inf


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


def norm_label(p) -> int | str:
    """The norm selector as files and results write it: its integer, or "inf"."""
    return "inf" if p == INFINITY else p


@lru_cache(maxsize=None)
def neighbor_offsets(d: int, rho: int, p) -> tuple[Vertex, ...]:
    """Nonzero integer vectors v with ||v||_p <= rho, sorted lexicographically.

    All comparisons are integer-exact: for finite p the test is
    sum(|v_i|^p) <= rho^p, for p = INFINITY it is max(|v_i|) <= rho.
    """
    offsets = []
    for v in product(range(-rho, rho + 1), repeat=d):
        if all(c == 0 for c in v):
            continue
        if p == INFINITY or sum(abs(c) ** p for c in v) <= rho**p:
            offsets.append(v)
    return tuple(sorted(offsets))


@lru_cache(maxsize=None)
def offset_distance_map(d: int, rho: int, p, radius: int) -> dict[Vertex, int]:
    """Graph distances from the origin in Z^d (no wrap), up to ``radius``.

    Valid as the torus distance whenever n > 2*rho*radius.
    """
    steps = neighbor_offsets(d, rho, p)
    origin = (0,) * d
    dist = {origin: 0}
    frontier = deque([origin])
    while frontier:
        v = frontier.popleft()
        dv = dist[v]
        if dv == radius:
            continue
        for s in steps:
            w = tuple(a + b for a, b in zip(v, s))
            if w not in dist:
                dist[w] = dv + 1
                frontier.append(w)
    return dist


@lru_cache(maxsize=None)
def ball_offsets(d: int, rho: int, p, radius: int) -> tuple[Vertex, ...]:
    """Offsets within graph distance ``radius`` of the origin, sorted."""
    return tuple(sorted(offset_distance_map(d, rho, p, radius)))


@dataclass(frozen=True)
class Ball:
    """A graph-distance ball on the torus.

    ``members`` is the full sorted vertex list; its length is beta(radius),
    independent of the center (and of n while n > 2*rho*radius).
    """

    center: Vertex
    radius: int
    members: tuple[Vertex, ...]

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self.members


class TorusLattice:
    """Geometry of the d-dimensional discrete torus {0..n-1}^d.

    Immutable after construction; all query methods are safe for concurrent
    reads.  Vertices are canonical tuples with every coordinate reduced mod n,
    and every vertex collection returned by this class is sorted
    lexicographically.

    Args:
        d: dimension (>= 1).
        n: side length (>= 1).
        rho: neighborhood range (>= 1).
        p: norm selector, an integer >= 1 or INFINITY / "inf".
    """

    def __init__(self, d: int, n: int, rho: int = 1, p=1):
        if d < 1 or n < 1 or rho < 1:
            raise ValueError("d, n and rho must all be >= 1")
        self.d = int(d)
        self.n = int(n)
        self.rho = int(rho)
        self.p = normalize_norm_selector(p)
        self.num_sites = self.n**self.d
        self._ball_cache: dict[tuple[Vertex, int], Ball] = {}
        self._edges: tuple[tuple[int, int], ...] | None = None

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
        if self._edges is None:
            out = []
            for v in self.vertices():
                i = self.site_index(v)
                for w in self.neighbors(v):
                    j = self.site_index(w)
                    if j > i:
                        out.append((i, j))
            self._edges = tuple(out)
        return self._edges

    def graph_distance(self, x: Vertex, y: Vertex) -> int:
        """Minimal number of neighbor steps between two vertices (BFS)."""
        x, y = self.canon(x), self.canon(y)
        if x == y:
            return 0
        dist = {x: 0}
        frontier = deque([x])
        while frontier:
            v = frontier.popleft()
            for w in self.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    if w == y:
                        return dist[w]
                    frontier.append(w)
        raise ValueError("vertices are not connected")  # unreachable for rho >= 1

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
            LatticeTooSmall: see ``check_radius``.
        """
        if radius < 0:
            raise ValueError("radius must be >= 0")
        self.check_radius(radius)
        x = self.canon(x)
        key = (x, radius)
        cached = self._ball_cache.get(key)
        if cached is None:
            offs = ball_offsets(self.d, self.rho, self.p, radius)
            members = tuple(sorted(self.add(x, off) for off in offs))
            cached = Ball(center=x, radius=radius, members=members)
            self._ball_cache[key] = cached
        return cached

    def boundary(self, ball: Ball) -> tuple[Vertex, ...]:
        """The exterior vertex boundary: neighbors of members outside the ball."""
        inside = set(ball.members)
        out = set()
        for v in ball.members:
            for w in self.neighbors(v):
                if w not in inside:
                    out.add(w)
        return tuple(sorted(out))

    def closure(self, ball: Ball) -> Ball:
        """The ball together with its boundary, i.e. B(x, radius + 1)."""
        return self.ball(ball.center, ball.radius + 1)

    def internal_edge_count(self, ball: Ball) -> int:
        """alpha(radius): number of edges with both endpoints inside the ball."""
        inside = set(ball.members)
        total = 0
        for v in ball.members:
            for w in self.neighbors(v):
                if w in inside:
                    total += 1
        return total // 2

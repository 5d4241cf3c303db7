"""Local spin patterns (motifs) on a reference ball and their combinatorics.

A motif of radius r is a +/-1 pattern on the ball B(0, r), determined by its
set of positive offsets.  Only the positives are stored; every other ball
vertex is implicitly negative.  Motifs carry the lattice signature (d, rho, p)
they were built against and are rejected when applied to a mismatched lattice,
because the perimeter depends on the per-vertex neighbor count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

from .errors import FamilyTooLarge, MotifFileError, SignatureMismatch
from .lattice import (
    TorusLattice,
    Vertex,
    ball_offsets,
    neighbor_offsets,
    norm_label,
    normalize_norm_selector,
)

#: (d, rho, p) a motif was built against.
LatticeSignature = tuple

#: Cap on enumerated family sizes.
DEFAULT_FAMILY_CAP = 1 << 20


def family_size(sites: int, what: str) -> int:
    """2**sites, the number of patterns on ``sites`` free sites, unless over the cap.

    Raises:
        FamilyTooLarge: 2**sites > DEFAULT_FAMILY_CAP; the message names ``what``.
    """
    total = 1 << sites
    if total > DEFAULT_FAMILY_CAP:
        raise FamilyTooLarge(f"{what} has 2^{sites} members, cap is {DEFAULT_FAMILY_CAP}")
    return total


@dataclass(frozen=True)
class LocalConfig:
    """A fixed local pattern on the ball B(0, radius).

    Attributes:
        radius: ball radius r >= 0.
        positives: offsets (ball-relative coordinate tuples) carrying spin +1.
        signature: (d, rho, p) of the lattices this motif applies to.
    """

    radius: int
    positives: frozenset
    signature: LatticeSignature

    def __post_init__(self):
        d, rho, p = self.signature
        p = normalize_norm_selector(p)
        object.__setattr__(self, "signature", (int(d), int(rho), p))
        object.__setattr__(self, "positives", frozenset(tuple(map(int, v)) for v in self.positives))
        if self.radius < 0:
            raise ValueError("radius must be >= 0")
        ball = set(ball_offsets(d, rho, p, self.radius))
        bad = [v for v in self.positives if v not in ball]
        if bad:
            raise ValueError(f"positive vertices outside B(0, {self.radius}): {sorted(bad)}")

    # -- basic statistics ----------------------------------------------------

    @property
    def k(self) -> int:
        """Number of positive vertices."""
        return len(self.positives)

    @property
    def ball_sites(self) -> tuple[Vertex, ...]:
        """All offsets of the reference ball, sorted."""
        d, rho, p = self.signature
        return ball_offsets(d, rho, p, self.radius)

    @property
    def size(self) -> int:
        """beta(radius): number of sites of the reference ball."""
        return len(self.ball_sites)

    @property
    def perimeter(self) -> int:
        """V * |positives| - 2 * (edges among positives), with V the neighbor count.

        Always an even nonnegative integer.  For a clean motif this equals the
        number of neighboring pairs inside the ball with opposite spins.
        """
        d, rho, p = self.signature
        steps = set(neighbor_offsets(d, rho, p))
        internal = 0
        for u in self.positives:
            for v in self.positives:
                if tuple(a - b for a, b in zip(v, u)) in steps:
                    internal += 1
        return len(steps) * self.k - internal  # each edge counted twice in the loop

    @property
    def clean(self) -> bool:
        """True when no positive vertex sits on the outermost shell.

        Equivalently, every positive has graph distance <= radius - 1 from the
        center; the all-negative motif is clean at any radius.
        """
        if not self.positives:
            return True
        if self.radius == 0:
            return False
        d, rho, p = self.signature
        inner = set(ball_offsets(d, rho, p, self.radius - 1))
        return all(v in inner for v in self.positives)

    @property
    def opposite_pair_count(self) -> int:
        """Neighboring pairs inside the ball carrying opposite spins."""
        d, rho, p = self.signature
        steps = set(neighbor_offsets(d, rho, p))
        ball = set(self.ball_sites)
        count = 0
        for u in self.positives:
            for s in steps:
                w = tuple(a + b for a, b in zip(u, s))
                if w in ball and w not in self.positives:
                    count += 1
        return count

    def check_fits(self, lattice: TorusLattice) -> None:
        """Raise SignatureMismatch or LatticeTooSmall unless the motif applies to ``lattice``."""
        if self.signature != lattice.signature:
            raise SignatureMismatch(
                f"motif signature {self.signature} != lattice signature {lattice.signature}"
            )
        lattice.check_radius(self.radius)

    def ring(self) -> "LocalConfig":
        """Extend to radius + 1 with an all-negative outer shell.

        The result is always clean and keeps the same positive set.
        """
        return LocalConfig(self.radius + 1, self.positives, self.signature)

    # -- canonical serialization ----------------------------------------------

    def canonical_text(self, n_hint: int = 0) -> str:
        """Bit-exact text form: header line, then one sorted positive per line."""
        d, rho, p = self.signature
        lines = [f"{d} {n_hint} {rho} {norm_label(p)} {self.radius}"]
        for v in sorted(self.positives):
            lines.append(" ".join(str(c) for c in v))
        return "\n".join(lines) + "\n"

    @property
    def motif_hash(self) -> str:
        """Stable short hash of the canonical text (n_hint excluded)."""
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:12]

    def __repr__(self) -> str:
        d, rho, p = self.signature
        return (
            f"LocalConfig(r={self.radius}, k={self.k}, d={d}, rho={rho}, p={norm_label(p)}, "
            f"positives={sorted(self.positives)})"
        )


def null_config(radius: int, signature: LatticeSignature) -> LocalConfig:
    """The all-negative motif of the given radius."""
    return LocalConfig(radius, frozenset(), signature)


def single_positive(radius: int, signature: LatticeSignature) -> LocalConfig:
    """A single positive vertex at the center (clean whenever radius >= 1)."""
    d = signature[0]
    return LocalConfig(radius, frozenset({(0,) * d}), signature)


def enumerate_superset_family(cfg: LocalConfig) -> list[LocalConfig]:
    """All motifs of the same radius whose positives contain cfg's positives.

    The result has 2**(beta(r) - k) members and starts with ``cfg`` itself;
    every other member has at least k + 1 positives.

    Raises:
        FamilyTooLarge: if the family would exceed DEFAULT_FAMILY_CAP members.
    """
    free = sorted(set(cfg.ball_sites) - cfg.positives)
    total = family_size(len(free), "superset family")
    out = []
    for mask in range(total):
        extra = {free[i] for i in range(len(free)) if (mask >> i) & 1}
        out.append(LocalConfig(cfg.radius, cfg.positives | extra, cfg.signature))
    return out


def enumerate_exceeding(radius: int, k_min: int, signature: LatticeSignature) -> list[LocalConfig]:
    """All motifs on B(0, radius) with strictly more than ``k_min`` positives.

    Raises:
        FamilyTooLarge: if 2**beta(radius) exceeds DEFAULT_FAMILY_CAP.
    """
    d, rho, p = signature
    sites = ball_offsets(d, rho, normalize_norm_selector(p), radius)
    total = family_size(len(sites), "ball pattern family")
    out = []
    for mask in range(total):
        if mask.bit_count() <= k_min:
            continue
        pos = frozenset(sites[i] for i in range(len(sites)) if (mask >> i) & 1)
        out.append(LocalConfig(radius, pos, signature))
    return out


# -- motif files ---------------------------------------------------------------
#
# Plain text, bit-exact.  First non-comment line: `d n_hint rho p r` with
# n_hint = 0 meaning "any side length".  Then one line per positive vertex
# with d space-separated ball-relative integer coordinates.  Comments start
# with '#'.


def parse_motif_text(text: str) -> tuple[LocalConfig, int]:
    """Parse motif file content.  Returns (motif, n_hint)."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise MotifFileError("empty motif file")
    head = lines[0].split()
    if len(head) != 5:
        raise MotifFileError(f"header must be 'd n_hint rho p r', got {lines[0]!r}")
    try:
        d, n_hint, rho = int(head[0]), int(head[1]), int(head[2])
        p = normalize_norm_selector(head[3])
        radius = int(head[4])
    except ValueError as exc:
        raise MotifFileError(f"bad header {lines[0]!r}: {exc}") from exc
    positives = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != d:
            raise MotifFileError(f"expected {d} coordinates, got {line!r}")
        try:
            positives.append(tuple(int(c) for c in parts))
        except ValueError as exc:
            raise MotifFileError(f"bad coordinate line {line!r}") from exc
    try:
        cfg = LocalConfig(radius, frozenset(positives), (d, rho, p))
    except ValueError as exc:
        raise MotifFileError(str(exc)) from exc
    if len(positives) != cfg.k:
        raise MotifFileError("duplicate positive vertex in motif file")
    return cfg, n_hint


def load_motif(path) -> tuple[LocalConfig, int]:
    """Read a motif file from disk.  Returns (motif, n_hint).

    Raises OSError if it cannot be read, MotifFileError if it is no UTF-8 motif text.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MotifFileError(f"not UTF-8 text: {exc}") from exc
    return parse_motif_text(text)


def save_motif(cfg: LocalConfig, path, n_hint: int = 0) -> None:
    """Write a motif in canonical form."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cfg.canonical_text(n_hint=n_hint))


@lru_cache(maxsize=None)
def bundled_motif(name: str) -> LocalConfig:
    """Load one of the motif files shipped with the package (data/ directory)."""
    from importlib.resources import files

    text = (files("isingmotif") / "data" / name).read_text(encoding="utf-8")
    cfg, _ = parse_motif_text(text)
    return cfg

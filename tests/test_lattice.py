import itertools

import numpy as np
import pytest

from isingmotif import INFINITY, LocalConfig, TorusLattice, lattice
from isingmotif.errors import FamilyTooLarge, LatticeTooSmall
from isingmotif.lattice import _ball_offsets, neighbor_offsets


def test_square_lattice_neighbors():
    lat = TorusLattice(2, 8, rho=1, p=1)
    assert lat.neighbors((0, 0)) == ((0, 1), (0, 7), (1, 0), (7, 0))
    assert lat.neighbor_count == 4


def test_linf_adds_diagonals():
    lat = TorusLattice(2, 8, rho=1, p=INFINITY)
    assert len(lat.neighbors((0, 0))) == 8


def test_wraparound_d1():
    lat = TorusLattice(1, 4, rho=1, p=1)
    assert lat.neighbors((3,)) == ((0,), (2,))


def test_neighbor_symmetry_and_irreflexivity():
    for p in (1, 2, INFINITY):
        lat = TorusLattice(2, 5, rho=2, p=p)
        for x in lat.vertices():
            nbrs = lat.neighbors(x)
            assert x not in nbrs
            for y in nbrs:
                assert x in lat.neighbors(y)


def test_translation_covariance():
    lat = TorusLattice(2, 6, rho=1, p=INFINITY)
    for x in lat.vertices():
        shifted = tuple(sorted(lat.add(y, x) for y in lat.neighbors((0, 0))))
        assert lat.neighbors(x) == shifted


def test_ball_sizes():
    lat1 = TorusLattice(2, 8, rho=1, p=1)
    assert len(lat1.ball((0, 0), 1).members) == 5
    lat2 = TorusLattice(2, 8, rho=1, p=INFINITY)
    assert len(lat2.ball((0, 0), 1).members) == 9


def test_offset_enumerations_are_capped(monkeypatch):
    # 3^12 and 3^13 candidate vectors pass the 2^15 - 1 cap: refused before any is made
    with pytest.raises(FamilyTooLarge, match=r"\(2\*1\+1\)\^12 candidates, cap is 32767"):
        neighbor_offsets(12, 1, INFINITY)
    with pytest.raises(FamilyTooLarge, match=r"\(2\*1\+1\)\^13 candidates"):
        neighbor_offsets(13, 1, INFINITY)
    # a dimension read from a motif header is refused without computing 3^d
    with pytest.raises(FamilyTooLarge, match=r"\^1000000000 candidates"):
        neighbor_offsets(10**9, 1, 1)
    # the most candidates of any lattice in use, 13^2
    assert len(neighbor_offsets(2, 6, INFINITY)) == 168
    # a ball is refused once its search passes the cap: a d=1 radius of 16384
    # has 32769 sites, and one of 500000 no longer runs for seconds
    with pytest.raises(FamilyTooLarge, match="ball of radius 16384 passes 32767 sites"):
        _ball_offsets.__wrapped__(1, 1, 1, 16384)
    monkeypatch.setattr(lattice, "GEOMETRY_CAP", 100)
    assert len(_ball_offsets.__wrapped__(1, 1, 1, 49)) == 99
    with pytest.raises(FamilyTooLarge, match="ball of radius 50 passes 100 sites"):
        _ball_offsets.__wrapped__(1, 1, 1, 50)
    assert len(neighbor_offsets.__wrapped__(1, 49, 1)) == 98
    with pytest.raises(FamilyTooLarge, match="candidates"):
        neighbor_offsets.__wrapped__(1, 50, 1)


def test_ball_rejects_small_lattice():
    lat = TorusLattice(1, 4, rho=1, p=1)
    with pytest.raises(LatticeTooSmall):
        lat.ball((0,), 2)


@pytest.mark.parametrize("radius", [1.5, -1, 0.5])
def test_radius_must_be_an_integer_at_least_zero(radius):
    # the breadth-first search stops only at distance == radius: these never ended
    lat = TorusLattice(1, 9, 1, 1)
    lat.ball_size(1)  # an integer radius is cached; the check must not sit behind it
    with pytest.raises(ValueError, match="radius"):
        lat.ball((0,), radius)
    with pytest.raises(ValueError, match="radius"):
        lat.ball_size(radius)
    with pytest.raises(ValueError, match="radius"):
        LocalConfig(radius, frozenset(), (1, 1, 1))


@pytest.mark.parametrize("d, n, rho", [(1, 2.5, 1), (1.9, 4, 1), (1, 4, 1.5), (0, 4, 1)])
def test_lattice_rejects_non_integral_sizes(d, n, rho):
    with pytest.raises(ValueError):
        TorusLattice(d, n, rho)


def test_lattice_accepts_numpy_integers():
    lat = TorusLattice(np.int64(2), np.uint8(4), np.int32(1), np.int16(1))
    assert lat == TorusLattice(2, 4, 1, 1)
    assert (type(lat.d), type(lat.n), type(lat.rho), type(lat.p)) == (int, int, int, int)
    assert type(lat.ball((0, 0), np.int64(1)).radius) is int


def test_internal_edge_counts():
    lat = TorusLattice(2, 8, rho=1, p=1)
    assert lat.internal_edge_count(lat.ball((0, 0), 1)) == 4
    lat1 = TorusLattice(1, 8, rho=1, p=1)
    assert lat1.internal_edge_count(lat1.ball((0,), 1)) == 2
    # brute-force oracle on the 3x3 Chebyshev block
    latinf = TorusLattice(2, 8, rho=1, p=INFINITY)
    ball = latinf.ball((0, 0), 1)
    brute = sum(
        1
        for u, v in itertools.combinations(ball.members, 2)
        if v in latinf.neighbors(u)
    )
    assert latinf.internal_edge_count(ball) == 20 == brute


def test_beta_alpha_independent_of_n_and_center():
    for p in (1, INFINITY):
        small = TorusLattice(2, 7, rho=1, p=p)
        big = TorusLattice(2, 11, rho=1, p=p)
        for r in (0, 1, 2):
            balls = [small.ball((0, 0), r), small.ball((3, 5), r), big.ball((2, 2), r)]
            sizes = {len(b.members) for b in balls}
            assert sizes == {small.ball_size(r)}
            alphas = {lat.internal_edge_count(b) for lat, b in zip((small, small, big), balls)}
            assert len(alphas) == 1


def test_ball_translation():
    lat = TorusLattice(2, 9, rho=1, p=1)
    base = lat.ball((0, 0), 2)
    shifted = lat.ball((4, 7), 2)
    assert shifted.members == tuple(sorted(lat.add(v, (4, 7)) for v in base.members))


def test_boundary_and_closure():
    lat = TorusLattice(1, 8, rho=1, p=1)
    ball = lat.ball((0,), 1)
    assert lat.boundary(ball) == ((2,), (6,))
    # the closure of a ball is the ball of the next radius
    closure = lat.ball((0,), 2)
    assert set(closure.members) == set(ball.members) | set(lat.boundary(ball))


def test_canon_rejects_wrong_coordinate_count():
    with pytest.raises(ValueError, match="expected 1 coordinates, got 2"):
        TorusLattice(1, 5).canon((1, 2))


@pytest.mark.parametrize("index, fragment", [
    (100, r"index must be in \[0, 8\), got 100"),
    (8, r"index must be in \[0, 8\), got 8"),
    (-1, r"index must be in \[0, 8\), got -1"),
    (1.5, "index must be an integer"),
])
def test_vertex_at_rejects_out_of_range_index(index, fragment):
    # an index outside [0, n^d) would wrap onto some vertex
    with pytest.raises(ValueError, match=fragment):
        TorusLattice(1, 8).vertex_at(index)


def test_site_index_roundtrip_and_order():
    lat = TorusLattice(2, 5, rho=1, p=1)
    for i, v in enumerate(lat.vertices()):
        assert lat.site_index(v) == i
        assert lat.vertex_at(i) == v


def test_edges_each_once():
    lat = TorusLattice(2, 4, rho=1, p=1)
    edges = lat.edges()
    assert len(edges) == len(set(edges))
    assert len(edges) == lat.num_sites * lat.neighbor_count // 2
    assert all(i < j for i, j in edges)


def test_tiny_torus_neighbor_dedup():
    # n = 2: +1 and -1 reach the same vertex, which must be listed once
    lat = TorusLattice(1, 2, rho=1, p=1)
    assert lat.neighbors((0,)) == ((1,),)
    assert len(lat.edges()) == 1

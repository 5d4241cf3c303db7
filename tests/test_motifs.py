import itertools

import pytest

from isingmotif import INFINITY, LocalConfig, TorusLattice
from isingmotif.errors import FamilyTooLarge, MotifFileError
from isingmotif.motifs import (
    bundled_motif,
    enumerate_exceeding,
    enumerate_superset_family,
    null_config,
    parse_motif_text,
    save_motif,
    single_positive,
)

D1 = (1, 1, 1)
D2 = (2, 1, 1)


def all_motifs(radius, signature):
    sites = null_config(radius, signature).ball_sites
    for k in range(len(sites) + 1):
        for combo in itertools.combinations(sites, k):
            yield LocalConfig(radius, frozenset(combo), signature)


def test_k_values():
    assert null_config(2, D2).k == 0
    assert single_positive(1, D2).k == 1
    assert bundled_motif("blob_k10.motif").k == 10


def test_perimeter_values():
    assert single_positive(1, D2).perimeter == 4
    domino = LocalConfig(2, frozenset({(0, 0), (1, 0)}), D2)
    assert domino.perimeter == 6  # 4*2 - 2*1
    assert bundled_motif("blob_k10.motif").perimeter == 58


def test_clean_flags():
    assert null_config(0, D1).clean
    assert null_config(3, D2).clean
    assert not LocalConfig(1, frozenset({(1,)}), D1).clean  # positive on the shell
    assert bundled_motif("blob_k10.motif").clean


def test_ring_basics():
    eta0 = null_config(1, D1)
    assert eta0.ring() == null_config(2, D1)
    ringed = single_positive(0, D1).ring()
    assert ringed.radius == 1 and ringed.k == 1 and ringed.clean
    assert ringed.ball_sites == ((-1,), (0,), (1,))


def test_ring_always_clean_and_preserves_k():
    for motif in all_motifs(1, D1):
        ringed = motif.ring()
        assert ringed.clean
        assert ringed.k == motif.k


def test_perimeter_even_and_matches_pair_count_when_clean():
    # exhaustive over every motif on balls with at most 12 sites
    for radius, sig in ((1, D1), (2, D1), (1, D2), (1, (2, 1, INFINITY))):
        for motif in all_motifs(radius, sig):
            gamma = motif.perimeter
            assert gamma % 2 == 0 and gamma >= 0
            if motif.clean:
                assert gamma == motif.opposite_pair_count
            ringed = motif.ring()
            assert ringed.perimeter == ringed.opposite_pair_count


def test_family_partition_by_k():
    sites = len(null_config(1, D2).ball_sites)
    count = sum(1 for _ in all_motifs(1, D2))
    assert count == 2**sites == 32


def test_superset_family():
    fam = enumerate_superset_family(single_positive(1, D1))
    assert len(fam) == 4  # 2 free boundary sites
    assert fam[0] == single_positive(1, D1)
    assert all(m.k >= 2 for m in fam[1:])

    full = LocalConfig(1, frozenset(null_config(1, D1).ball_sites), D1)
    assert enumerate_superset_family(full) == [full]

    assert len(enumerate_superset_family(null_config(1, D2))) == 32


def test_superset_family_cap():
    # the radius-3 ball of Z^2 has beta = 25 sites: 2^25 members exceed the cap
    with pytest.raises(FamilyTooLarge):
        enumerate_superset_family(null_config(3, D2))


def test_enumerate_exceeding():
    only_full = enumerate_exceeding(1, 2, D1)
    assert len(only_full) == 1 and only_full[0].k == 3
    assert enumerate_exceeding(1, 3, D1) == []
    assert len(enumerate_exceeding(1, 0, D1)) == 7


def test_positives_must_lie_in_ball():
    with pytest.raises(ValueError):
        LocalConfig(1, frozenset({(2,)}), D1)
    with pytest.raises(ValueError):
        LocalConfig(1, frozenset({(1, 1)}), D2)  # L1 distance 2 from center


def test_file_roundtrip(tmp_path):
    motif = bundled_motif("blob_k10.motif")
    path = tmp_path / "m.motif"
    save_motif(motif, path, n_hint=16)
    text = path.read_text()
    parsed, hint = parse_motif_text(text)
    assert parsed == motif
    assert hint == 16
    # canonical text is bit-stable
    assert text == parsed.canonical_text(n_hint=16)


def test_file_parse_errors():
    with pytest.raises(MotifFileError):
        parse_motif_text("")
    with pytest.raises(MotifFileError):
        parse_motif_text("1 0 1\n")  # short header
    with pytest.raises(MotifFileError):
        parse_motif_text("1 0 1 1 1\n0 0\n")  # wrong coordinate arity
    with pytest.raises(MotifFileError):
        parse_motif_text("1 0 1 1 1\n0\n0\n")  # duplicate vertex
    with pytest.raises(MotifFileError):
        parse_motif_text("1 0 1 1 1\n9\n")  # outside the ball


def test_comments_and_inf_norm():
    motif, hint = parse_motif_text("# header comment\n2 0 1 inf 1\n1 1\n")
    assert motif.signature == (2, 1, INFINITY)
    assert motif.k == 1 and hint == 0


def test_motif_hash_stable_and_order_free():
    a = LocalConfig(1, frozenset({(0, 0), (1, 0)}), D2)
    b = LocalConfig(1, frozenset({(1, 0), (0, 0)}), D2)
    assert a.motif_hash == b.motif_hash
    assert a.motif_hash != single_positive(1, D2).motif_hash


def test_rho_two_ball_membership():
    sig = (1, 2, 1)
    motif = LocalConfig(1, frozenset({(-2,), (2,)}), sig)  # reachable in one rho=2 step
    assert motif.k == 2
    lat = TorusLattice(1, 9, rho=2, p=1)
    assert set(motif.ball_sites) == {(-2,), (-1,), (0,), (1,), (2,)}
    assert len(lat.ball((0,), 1).members) == 5

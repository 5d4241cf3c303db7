import numpy as np
import pytest

from isingmotif import (
    EXACT_MATCH,
    SUPERSET_MATCH,
    ModelParams,
    SpinConfig,
    TorusLattice,
    build_exact,
    count,
    count_distribution_exact,
    indicator,
    site_match_probabilities,
)
from isingmotif import counting
from isingmotif.counting import CountObservable, count_all_masks, count_samples
from isingmotif.errors import LatticeTooSmall, SignatureMismatch
from isingmotif.lattice import INFINITY
from isingmotif.motifs import (
    LocalConfig,
    bundled_motif,
    enumerate_superset_family,
    null_config,
    single_positive,
)

D1 = (1, 1, 1)
D2 = (2, 1, 1)


def naive_count(cfg, motif, mode):
    """Independent per-site rescan, dictionary-based."""
    lat = cfg.lattice
    total = 0
    for x in lat.vertices():
        ok = True
        for off in sorted(motif.ball_sites):
            spin = cfg.spins[lat.site_index(lat.add(x, off))]
            positive = off in motif.positives
            if positive and spin != 1:
                ok = False
            if not positive and mode == EXACT_MATCH and spin != -1:
                ok = False
        total += ok
    return total


def test_indicator_null_motif_on_all_minus():
    lat = TorusLattice(1, 6, 1, 1)
    cfg = SpinConfig.all_minus(lat)
    eta0 = null_config(1, D1)
    assert all(indicator(cfg, x, eta0, EXACT_MATCH) == 1 for x in lat.vertices())
    assert count(cfg, eta0, EXACT_MATCH) == 6
    assert count(cfg, eta0, SUPERSET_MATCH) == 6  # empty positive set matches anywhere


def test_indicator_positive_motifs_on_all_minus():
    lat = TorusLattice(2, 5, 1, 1)
    cfg = SpinConfig.all_minus(lat)
    motif = single_positive(1, D2)
    assert count(cfg, motif, EXACT_MATCH) == 0
    assert count(cfg, motif, SUPERSET_MATCH) == 0


def test_single_plus_at_origin():
    lat = TorusLattice(2, 5, 1, 1)
    spins = np.full(lat.num_sites, -1, dtype=np.int8)
    spins[lat.site_index((0, 0))] = 1
    cfg = SpinConfig(lat, spins)
    motif = single_positive(1, D2)
    hits = [x for x in lat.vertices() if indicator(cfg, x, motif, EXACT_MATCH)]
    assert hits == [(0, 0)]
    assert count(cfg, motif, EXACT_MATCH) == 1
    # superset mode matches at the origin only as well (one positive site)
    assert count(cfg, motif, SUPERSET_MATCH) == 1


def test_count_against_naive_rescan():
    rng = np.random.default_rng(11)
    lat = TorusLattice(1, 12, 1, 1)
    motif = bundled_motif("single_plus_d1.motif")
    for _ in range(25):
        cfg = SpinConfig(lat, rng.choice((-1, 1), size=lat.num_sites).astype(np.int8))
        for mode in (EXACT_MATCH, SUPERSET_MATCH):
            assert count(cfg, motif, mode) == naive_count(cfg, motif, mode)


def test_ring_count_never_exceeds_base():
    rng = np.random.default_rng(5)
    lat = TorusLattice(1, 10, 1, 1)
    motif = bundled_motif("single_plus_d1.motif")
    ringed = motif.ring()
    for _ in range(50):
        cfg = SpinConfig(lat, rng.choice((-1, 1), size=lat.num_sites).astype(np.int8))
        assert count(cfg, ringed, EXACT_MATCH) <= count(cfg, motif, EXACT_MATCH)


def test_superset_count_dominates_and_decomposes():
    # superset count == sum of exact counts over the whole superset family
    lat = TorusLattice(1, 6, 1, 1)
    motif = single_positive(1, D1)
    family = enumerate_superset_family(motif)
    for mask in range(1 << lat.num_sites):
        cfg = SpinConfig.from_mask(lat, mask)
        sup = count(cfg, motif, SUPERSET_MATCH)
        exact = count(cfg, motif, EXACT_MATCH)
        assert sup >= exact
        assert sup == sum(count(cfg, member, EXACT_MATCH) for member in family)


def test_superset_indicator_is_increasing():
    # exhaustive scan of ordered configuration pairs on a tiny lattice
    lat = TorusLattice(1, 4, 1, 1)
    motif = single_positive(1, D1)
    values = {}
    for mask in range(16):
        cfg = SpinConfig.from_mask(lat, mask)
        values[mask] = [indicator(cfg, x, motif, SUPERSET_MATCH) for x in lat.vertices()]
    for low in range(16):
        for high in range(16):
            if low & high == low:  # low <= high as spin configurations
                assert all(a <= b for a, b in zip(values[low], values[high]))


def test_signature_and_size_guards():
    lat = TorusLattice(2, 5, 1, 1)
    cfg = SpinConfig.all_minus(lat)
    with pytest.raises(SignatureMismatch):
        count(cfg, bundled_motif("single_plus_d1.motif"), EXACT_MATCH)
    small = SpinConfig.all_minus(TorusLattice(1, 4, 1, 1))
    big_motif = null_config(2, D1)
    with pytest.raises(LatticeTooSmall):
        count(small, big_motif, EXACT_MATCH)
    with pytest.raises(ValueError):
        CountObservable(big_motif, "bogus_mode")


def test_count_all_masks_matches_per_config_count():
    lat = TorusLattice(1, 8, 1, 1)
    motif = bundled_motif("single_plus_d1.motif")
    for mode in (EXACT_MATCH, SUPERSET_MATCH):
        table = count_all_masks(lat, motif, mode)
        for mask in (0, 1, 37, 255, 100, 170):
            assert table[mask] == count(SpinConfig.from_mask(lat, mask), motif, mode)


def test_count_samples_matches_scalar():
    rng = np.random.default_rng(2)
    lat = TorusLattice(2, 4, 1, 1)
    motif = bundled_motif("single_plus_d2.motif")
    spins = rng.choice((-1, 1), size=(40, lat.num_sites)).astype(np.int8)
    batch_counts = count_samples(lat, spins, motif, EXACT_MATCH)
    for row in range(40):
        assert batch_counts[row] == count(SpinConfig(lat, spins[row]), motif, EXACT_MATCH)


@pytest.mark.parametrize("lattice,motif", [
    (TorusLattice(1, 9, 1, 1), bundled_motif("single_plus_d1.motif")),
    (TorusLattice(2, 5, 1, 1), bundled_motif("single_plus_d2.motif")),
    (TorusLattice(1, 11, 2, 1), LocalConfig(1, frozenset({(0,), (1,)}), (1, 2, 1))),
    (TorusLattice(2, 7, 1, INFINITY), bundled_motif("blob_k10.motif")),
])
@pytest.mark.parametrize("mode", [EXACT_MATCH, SUPERSET_MATCH])
def test_count_samples_matches_count_and_indicator(lattice, motif, mode, monkeypatch):
    rng = np.random.default_rng(5)
    spins = rng.choice((-1, 1), size=(60, lattice.num_sites)).astype(np.int8)
    spins[0] = -1  # the motif planted once at the origin: an exact match
    spins[0, [lattice.site_index(lattice.canon(off)) for off in motif.positives]] = 1
    spins[1] = 1
    whole = count_samples(lattice, spins, motif, mode)
    # chunks of 7 rows: several full chunks and a partial one
    monkeypatch.setattr(counting, "_SAMPLE_CHUNK_BYTES", 7 * lattice.num_sites)
    got = count_samples(lattice, spins, motif, mode)
    assert np.array_equal(got, whole)
    for row, value in zip(spins, got):
        cfg = SpinConfig(lattice, row)
        assert value == count(cfg, motif, mode)
        assert value == sum(indicator(cfg, x, motif, mode) for x in lattice.vertices())
    assert got.any()


def test_count_distribution_binomial_case():
    # r=0 null motif counts minus sites: Binomial(4, 1/2) at a=b=0
    lat = TorusLattice(1, 4, 1, 1)
    measure = build_exact(lat, ModelParams(0.0, 0.0))
    dist = count_distribution_exact(measure, null_config(0, D1), EXACT_MATCH)
    assert dist.pmf(4) == pytest.approx(1 / 16)
    for k in range(5):
        from math import comb

        assert dist.pmf(k) == pytest.approx(comb(4, k) / 16)


def test_count_distribution_mean_oracle():
    from isingmotif import count as count_fn

    lat = TorusLattice(1, 8, 1, 1)
    measure = build_exact(lat, ModelParams(-0.7, 0.3))
    motif = bundled_motif("single_plus_d1.motif")
    dist = count_distribution_exact(measure, motif, EXACT_MATCH)
    direct = sum(
        measure.probabilities()[mask] * count_fn(SpinConfig.from_mask(lat, mask), motif, EXACT_MATCH)
        for mask in range(measure.num_configs)
    )
    assert dist.mean == pytest.approx(direct, rel=1e-12)
    assert dist.factorial_moment(1) == pytest.approx(dist.mean)


def test_translation_invariant_site_probabilities():
    lat = TorusLattice(1, 8, 1, 1)
    measure = build_exact(lat, ModelParams(-0.5, -0.3))
    motif = bundled_motif("single_plus_d1.motif")
    for mode in (EXACT_MATCH, SUPERSET_MATCH):
        per_site = site_match_probabilities(measure, motif, mode)
        assert per_site.max() - per_site.min() <= 1e-12
        dist = count_distribution_exact(measure, motif, mode)
        assert per_site.sum() == pytest.approx(dist.mean, abs=1e-10)

import re
import tracemalloc

import numpy as np
import pytest

from isingmotif import (
    EXACT_MATCH,
    SUPERSET_MATCH,
    ModelParams,
    SpinConfig,
    TorusLattice,
    build_exact,
    conditional_motif_probability,
    count,
    count_distribution_exact,
    indicator,
    local_energy,
    site_match_probabilities,
)
from isingmotif import counting
from isingmotif.counting import count_all_masks, count_samples
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
        count(cfg, single_positive(1, D2), "bogus_mode")


@pytest.mark.parametrize("lattice,motif", [
    (TorusLattice(1, 8, 1, 1), bundled_motif("single_plus_d1.motif")),
    (TorusLattice(2, 3, 1, INFINITY),
     LocalConfig(1, frozenset({(0, 0), (1, 1)}), (2, 1, INFINITY))),
    (TorusLattice(1, 11, 2, 1), LocalConfig(1, frozenset({(0,), (1,)}), (1, 2, 1))),
])
@pytest.mark.parametrize("mode", [EXACT_MATCH, SUPERSET_MATCH])
def test_count_all_masks_matches_per_config_count(lattice, motif, mode, monkeypatch):
    # every mask, across chunk boundaries (chunks of 100 masks)
    monkeypatch.setattr(counting, "_MASK_CHUNK", 100)
    table = count_all_masks(lattice, motif, mode)
    for mask in range(1 << lattice.num_sites):
        assert table[mask] == naive_count(SpinConfig.from_mask(lattice, mask), motif, mode)


def test_cached_count_arrays_are_read_only_and_shared():
    lat = TorusLattice(1, 8, 1, 1)
    motif = bundled_motif("single_plus_d1.motif")
    for params in (ModelParams(-0.7, 0.3), ModelParams(0.4, -0.2)):
        measure = build_exact(lat, params)
        dist = count_distribution_exact(measure, motif, SUPERSET_MATCH)
        direct = np.bincount(
            count_all_masks(lat, motif, SUPERSET_MATCH), weights=measure.probabilities()
        )
        assert [dist.pmf(k) for k in range(len(direct))] == list(direct)
    cached = counting._mask_counts(lat, motif, SUPERSET_MATCH)
    assert cached.dtype == np.uint8
    # the pattern tables every counter reads are cached too
    tables = counting._site_tables(lat, motif, SUPERSET_MATCH)
    words = counting._site_words(lat, motif, SUPERSET_MATCH)
    for array in (cached, *tables, *words):
        with pytest.raises(ValueError):
            array[0] = 1


def test_count_samples_matches_scalar():
    rng = np.random.default_rng(2)
    lat = TorusLattice(2, 4, 1, 1)
    motif = bundled_motif("single_plus_d2.motif")
    spins = rng.choice((-1, 1), size=(40, lat.num_sites)).astype(np.int8)
    batch_counts = count_samples(lat, spins, motif, EXACT_MATCH)
    for row in range(40):
        assert batch_counts[row] == naive_count(SpinConfig(lat, spins[row]), motif, EXACT_MATCH)


CORNER_CASE = (
    # offsets reach the corners of the halo: R = rho * radius = 4 on n = 9
    TorusLattice(2, 9, 2, INFINITY),
    LocalConfig(2, frozenset({(0, 0), (4, -4), (-4, 4), (-3, -4)}), (2, 2, INFINITY)),
)


@pytest.mark.parametrize("lattice,motif", [
    (TorusLattice(1, 9, 1, 1), bundled_motif("single_plus_d1.motif")),
    (TorusLattice(2, 5, 1, 1), bundled_motif("single_plus_d2.motif")),
    (TorusLattice(1, 11, 2, 1), LocalConfig(1, frozenset({(0,), (1,)}), (1, 2, 1))),
    (TorusLattice(2, 7, 1, INFINITY), bundled_motif("blob_k10.motif")),
    # d=3: the halo is filled along three axes in turn
    (TorusLattice(3, 4, 1, 1), single_positive(1, (3, 1, 1))),
    # the null motif: R = 1 in exact mode, and no offsets at all in superset mode
    (TorusLattice(2, 5, 1, 1), null_config(1, D2)),
    CORNER_CASE,
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


def test_count_samples_accepts_any_layout_and_integer_width():
    lattice, motif = CORNER_CASE
    rng = np.random.default_rng(17)
    spins = rng.choice((-1, 1), size=(10, lattice.num_sites)).astype(np.int8)
    expected = [
        sum(indicator(SpinConfig(lattice, row), x, motif, EXACT_MATCH) for x in lattice.vertices())
        for row in spins
    ]
    fortran = np.asfortranarray(spins)
    assert not fortran.flags.c_contiguous
    strided = np.repeat(spins, 2, axis=0)[:, ::1][::2]
    assert not strided.flags.c_contiguous
    for variant in (fortran, strided, spins.astype(np.int64), spins.tolist()):
        assert count_samples(lattice, variant, motif, EXACT_MATCH).tolist() == expected


def test_count_samples_zero_rows():
    lattice = TorusLattice(2, 5, 1, 1)
    motif = bundled_motif("single_plus_d2.motif")
    for mode in (EXACT_MATCH, SUPERSET_MATCH):
        got = count_samples(lattice, np.empty((0, lattice.num_sites), np.int8), motif, mode)
        assert got.shape == (0,) and got.dtype == np.int64


def test_count_samples_rejects_a_wrong_shape():
    lattice = TorusLattice(1, 8, 1, 1)
    motif = bundled_motif("single_plus_d1.motif")
    for shape in ((3, 9), (3, 7), (8,), (2, 2, 8)):
        spins = -np.ones(shape, dtype=np.int8)
        with pytest.raises(ValueError, match=re.escape(f"(samples, 8), got {shape}")):
            count_samples(lattice, spins, motif, EXACT_MATCH)


LAT8 = TorusLattice(1, 8, 1, 1)
PARAMS8 = ModelParams(-1.0, 0.3)


def _by_site(spins):
    return {(x,): s for x, s in enumerate(spins.tolist())}


#: Every entry point that takes spins, fed the 8 spins of LAT8.  The bad
#: entries below sit on sites 2 and 6, the boundary of B(0, 1), or everywhere.
SPIN_ENTRY_POINTS = {
    "SpinConfig": lambda spins: SpinConfig(LAT8, spins),
    "count_samples": lambda spins: count_samples(
        LAT8, np.stack([np.ones(8, dtype=np.int8), spins]), single_positive(1, D1), SUPERSET_MATCH
    ),
    "local_energy": lambda spins: local_energy(LAT8, (0,), 1, _by_site(spins), PARAMS8),
    "conditional_motif_probability": lambda spins: conditional_motif_probability(
        LAT8, (0,), single_positive(1, D1), _by_site(spins), PARAMS8
    ),
    "ExactMeasure.conditional_probability": lambda spins: build_exact(
        LAT8, PARAMS8
    ).conditional_probability({}, _by_site(spins)),
}


@pytest.mark.parametrize("entry", SPIN_ENTRY_POINTS)
@pytest.mark.parametrize("spins", [
    # cast to int8 before the check, 257 and -255 wrap to 1 and 1.5, 1.9 truncate to 1
    np.full(8, 257),
    np.full(8, -255),
    np.array([1, 1, 1.5, -1, 1, 1, 1, 1]),
    np.array([1, 1, 1, -1, 1, 1, 1.9, 1]),
    np.array([1, 1, -1, -1, 1, 1, 0, 1], dtype=np.int8),
    np.full(8, 0.5),
    np.full(8, 1j),
], ids=["257", "-255", "1.5", "1.9", "0", "0.5", "1j"])
def test_spins_other_than_plus_minus_one_are_rejected(entry, spins):
    with pytest.raises(ValueError, match=re.escape("must be +1 or -1")):
        SPIN_ENTRY_POINTS[entry](spins)


def test_count_samples_working_set_is_bounded():
    # the int8 halo buffer, the accumulator and the per-chunk temporaries stay
    # well below the 3 MiB that a per-column gather of 1 MiB chunks reaches
    lattice = TorusLattice(2, 16, 1, 1)
    motif = bundled_motif("single_plus_d2.motif")
    spins = np.random.default_rng(23).choice((-1, 1), size=(20000, 256)).astype(np.int8)
    count_samples(lattice, spins[:1], motif, EXACT_MATCH)  # the pattern table is cached
    tracemalloc.start()
    try:
        count_samples(lattice, spins, motif, EXACT_MATCH)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


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
    lat = TorusLattice(1, 8, 1, 1)
    measure = build_exact(lat, ModelParams(-0.7, 0.3))
    motif = bundled_motif("single_plus_d1.motif")
    dist = count_distribution_exact(measure, motif, EXACT_MATCH)
    direct = sum(
        prob * naive_count(SpinConfig.from_mask(lat, mask), motif, EXACT_MATCH)
        for mask, prob in enumerate(measure.probabilities())
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

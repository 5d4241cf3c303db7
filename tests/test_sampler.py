import math

import numpy as np
import pytest
from scipy import stats

from isingmotif import (
    EXACT_MATCH,
    ChainState,
    CountDistribution,
    FieldSchedule,
    ModelParams,
    SamplerSpec,
    SpinConfig,
    TorusLattice,
    build_exact,
    cftp_batch,
    cftp_sample,
    count_distribution_exact,
    hamiltonian,
    heat_bath_sweep,
    heat_bath_sweep_with_uniforms,
    load_spin_config,
    metropolis_sweep,
    sample_batch,
    sample_with_params,
    save_spin_config,
    tv_distance,
)
from isingmotif.counting import count_samples
from isingmotif.errors import AntiferromagneticUnsupported, CoalescenceTimeout
from isingmotif.lattice import INFINITY
from isingmotif.motifs import bundled_motif
from isingmotif.sampler import (
    _CFTP_SLAB,
    _cftp_slab,
    _colour_classes,
    _neighbor_index_matrix,
    _sweep_heat_bath,
    _sweep_metropolis,
    heat_bath_plus_probability,
    metropolis_flip_probability,
)


def config_law(spins_matrix, lattice):
    """Empirical distribution over configuration bitmasks."""
    weights = 1 << np.arange(lattice.num_sites, dtype=np.int64)
    masks = ((spins_matrix == 1) * weights).sum(axis=1)
    return CountDistribution.from_samples(masks)


def exact_config_law(measure):
    return CountDistribution(
        {m: float(p) for m, p in enumerate(measure.probabilities())}, sample_size=0
    )


# -- per-site kernels --------------------------------------------------------------


@pytest.mark.parametrize("d,n", [(1, 8), (1, 12), (2, 3)])
@pytest.mark.parametrize("a,b", [(0.0, 0.5), (-0.6, 0.3), (0.2, -0.4)])
def test_heat_bath_detailed_balance(d, n, a, b):
    # exhaustive single-update enumeration on n^d <= 12 sites
    lat = TorusLattice(d, n, 1, 1)
    params = ModelParams(a, b)
    measure = build_exact(lat, params)
    probs = measure.probabilities()
    for mask in range(measure.num_configs):
        cfg = SpinConfig.from_mask(lat, mask)
        for site in range(lat.num_sites):
            p_plus = heat_bath_plus_probability(cfg, lat.vertex_at(site), params)
            up = mask | (1 << site)
            down = mask & ~(1 << site)
            # P(state -> up) = p_plus regardless of the current spin at site
            assert probs[down] * p_plus == pytest.approx(
                probs[up] * (1 - p_plus), rel=1e-10, abs=1e-18
            )


@pytest.mark.parametrize("a,b", [(0.0, 0.5), (-0.6, 0.3), (0.2, -0.4)])
def test_metropolis_detailed_balance(a, b):
    lat = TorusLattice(1, 10, 1, 1)
    params = ModelParams(a, b)
    measure = build_exact(lat, params)
    probs = measure.probabilities()
    for mask in range(measure.num_configs):
        cfg = SpinConfig.from_mask(lat, mask)
        for site in range(lat.num_sites):
            p_flip = metropolis_flip_probability(cfg, lat.vertex_at(site), params)
            flipped = mask ^ (1 << site)
            cfg_f = SpinConfig.from_mask(lat, flipped)
            p_back = metropolis_flip_probability(cfg_f, lat.vertex_at(site), params)
            assert probs[mask] * p_flip == pytest.approx(
                probs[flipped] * p_back, rel=1e-10, abs=1e-18
            )


def test_metropolis_delta_matches_hamiltonian():
    rng = np.random.default_rng(4)
    lat = TorusLattice(2, 4, 1, 1)
    params = ModelParams(-0.4, 0.7)
    for _ in range(20):
        spins = rng.choice((-1, 1), size=lat.num_sites).astype(np.int8)
        cfg = SpinConfig(lat, spins)
        site = int(rng.integers(lat.num_sites))
        flipped = spins.copy()
        flipped[site] = -flipped[site]
        delta = hamiltonian(SpinConfig(lat, flipped), params) - hamiltonian(cfg, params)
        s = spins[site]
        nbr_sum = sum(cfg.spin(w) for w in lat.neighbors(lat.vertex_at(site)))
        assert delta == pytest.approx(-2 * s * (params.a + params.b * nbr_sum), abs=1e-12)
        assert metropolis_flip_probability(cfg, lat.vertex_at(site), params) == pytest.approx(
            min(1.0, math.exp(min(delta, 0.0))), abs=1e-12
        )


def test_metropolis_always_accepts_at_zero_params():
    # delta H = 0 so every proposal is accepted: one sweep flips everything
    lat = TorusLattice(1, 6, 1, 1)
    state = ChainState.start(lat, seed=1, init="minus")
    state = metropolis_sweep(state, ModelParams(0.0, 0.0))
    assert np.all(state.config.spins == 1)
    assert state.sweep_count == 1


def test_heat_bath_strong_negative_field():
    lat = TorusLattice(2, 4, 1, 1)
    state = ChainState.start(lat, seed=3, init="random")
    state = heat_bath_sweep(state, ModelParams(-30.0, 0.2))
    assert np.all(state.config.spins == -1)


def test_heat_bath_product_frequency():
    # b = 0: stationary per-site law is +1 with probability e^a/(e^a+e^-a)
    lat = TorusLattice(1, 8, 1, 1)
    a = -0.35
    state = ChainState.start(lat, seed=11, init="random")
    params = ModelParams(a, 0.0)
    sweeps = 20_000
    plus = 0
    for _ in range(sweeps):
        state = heat_bath_sweep(state, params)
        plus += int((state.config.spins == 1).sum())
    total = sweeps * lat.num_sites
    p_hat = plus / total
    p = math.exp(a) / (math.exp(a) + math.exp(-a))
    se = math.sqrt(p * (1 - p) / total)
    assert abs(p_hat - p) <= 3 * se * 1.5 + 1e-9  # slack for one-sweep autocorrelation


def test_monotone_coupling_preserves_order():
    rng = np.random.default_rng(8)
    lat = TorusLattice(2, 4, 1, 1)
    params = ModelParams(-0.2, 0.6)
    for _ in range(50):
        low_spins = rng.choice((-1, 1), size=lat.num_sites).astype(np.int8)
        bump = rng.random(lat.num_sites) < 0.4
        high_spins = np.where(bump, 1, low_spins).astype(np.int8)
        low = SpinConfig(lat, low_spins)
        high = SpinConfig(lat, high_spins)
        uniforms = rng.random(lat.num_sites)
        low2 = heat_bath_sweep_with_uniforms(low, params, uniforms)
        high2 = heat_bath_sweep_with_uniforms(high, params, uniforms)
        assert np.all(low2.spins <= high2.spins)


# -- colour-class sweeps --------------------------------------------------------------

COLOUR_LATTICES = [
    (TorusLattice(1, 4, 1, 1), 2),
    (TorusLattice(1, 5, 1, 1), 3),
    (TorusLattice(2, 3, 1, 1), 4),
    (TorusLattice(2, 16, 1, 1), 2),
    (TorusLattice(1, 13, 2, 1), None),
    (TorusLattice(2, 5, 1, INFINITY), None),
]


@pytest.mark.parametrize("lat,expected", COLOUR_LATTICES)
def test_colour_classes_proper_and_covering(lat, expected):
    nbr = _neighbor_index_matrix(lat)
    classes = _colour_classes(nbr)
    sites = np.concatenate([cls for cls, _ in classes])
    assert np.array_equal(np.sort(sites), np.arange(lat.num_sites))
    for cls, nbr_t in classes:
        assert np.array_equal(nbr_t, nbr[cls].T)
        assert not np.isin(nbr[cls], cls).any()
    if expected is not None:
        assert len(classes) == expected


def _scalar_colour_scan(lat, spins, params, uniforms, kind):
    """Site-by-site scan in colour-major order with the scalar oracles."""
    cfg = SpinConfig(lat, spins.copy())
    for cls, _ in _colour_classes(_neighbor_index_matrix(lat)):
        for x in cls:
            v = lat.vertex_at(int(x))
            if kind == "heat_bath":
                p = heat_bath_plus_probability(cfg, v, params)
                cfg.spins[x] = 1 if uniforms[x] < p else -1
            elif uniforms[x] < metropolis_flip_probability(cfg, v, params):
                cfg.spins[x] = -cfg.spins[x]
    return cfg.spins


@pytest.mark.parametrize("lat", [lat for lat, _ in COLOUR_LATTICES])
@pytest.mark.parametrize("a,b", [(0.0, 0.5), (-0.6, 0.3), (0.2, -0.4), (-1.0, 0.0)])
@pytest.mark.parametrize("kind,sweep", [
    ("heat_bath", _sweep_heat_bath), ("metropolis", _sweep_metropolis),
])
def test_block_sweep_equals_scalar_colour_scan(lat, a, b, kind, sweep):
    rng = np.random.default_rng(17)
    params = ModelParams(a, b)
    nbr = _neighbor_index_matrix(lat)
    spins = rng.choice((-1, 1), size=(5, lat.num_sites)).astype(np.int8)
    for _ in range(3):
        uniforms = rng.random(spins.shape)
        want = np.stack([
            _scalar_colour_scan(lat, row, params, u, kind) for row, u in zip(spins, uniforms)
        ])
        sweep(spins, nbr, a, b, uniforms)
        assert np.array_equal(spins, want)


@pytest.mark.parametrize("sites", [1, 16, 64])
def test_cftp_short_slab_is_prefix_of_full_slab(sites):
    for seed, draw, slab in ((7, 0, 0), (7, 3, 1), (2026, 4095, 2)):
        full = _cftp_slab(seed, draw, slab, sites, _CFTP_SLAB)
        assert full.shape == (_CFTP_SLAB, sites)
        for rows in (1, 2, 5, 32, 63, _CFTP_SLAB):
            assert np.array_equal(_cftp_slab(seed, draw, slab, sites, rows), full[:rows])


# -- stationary-law oracles ---------------------------------------------------------


def test_heat_bath_matches_exact_config_law():
    lat = TorusLattice(1, 4, 1, 1)
    params = ModelParams(0.3, 0.5)
    measure = build_exact(lat, params)
    spec = SamplerSpec(kind="heat_bath", burn_in_sweeps=200, thinning_sweeps=1, seed=5)
    batch = sample_with_params(lat, params, spec, count=200_000)
    tv = tv_distance(config_law(batch.spins, lat), exact_config_law(measure))
    assert tv < 0.01


def test_metropolis_matches_exact_config_law():
    lat = TorusLattice(1, 4, 1, 1)
    params = ModelParams(0.3, 0.5)
    measure = build_exact(lat, params)
    spec = SamplerSpec(kind="metropolis", burn_in_sweeps=200, thinning_sweeps=2, seed=6)
    batch = sample_with_params(lat, params, spec, count=200_000)
    tv = tv_distance(config_law(batch.spins, lat), exact_config_law(measure))
    assert tv < 0.01


def test_cftp_matches_exact_config_law():
    lat = TorusLattice(1, 4, 1, 1)
    params = ModelParams(0.3, 0.5)
    measure = build_exact(lat, params)
    spins = cftp_batch(lat, params, seed=7, count=100_000)
    tv = tv_distance(config_law(spins, lat), exact_config_law(measure))
    assert tv < 0.01


def test_cftp_product_law_chi_square():
    # b = 0: sites are independent, +1 w.p. e^a/(e^a+e^-a); chi-square at 1%
    lat = TorusLattice(2, 8, 1, 1)
    a = -0.8
    spins = cftp_batch(lat, ModelParams(a, 0.0), seed=13, count=10_000)
    p = math.exp(a) / (math.exp(a) + math.exp(-a))
    draws = spins.shape[0]
    plus_counts = (spins == 1).sum(axis=0)
    expected = draws * p
    chi2 = float(((plus_counts - expected) ** 2 / (draws * p * (1 - p))).sum())
    threshold = stats.chi2.ppf(0.99, lat.num_sites)
    assert chi2 < threshold


def test_cftp_rejects_antiferromagnet():
    lat = TorusLattice(1, 4, 1, 1)
    with pytest.raises(AntiferromagneticUnsupported):
        cftp_sample(lat, ModelParams(0.0, -0.1), seed=1)


def test_cftp_timeout():
    lat = TorusLattice(1, 8, 1, 1)
    with pytest.raises(CoalescenceTimeout):
        cftp_batch(lat, ModelParams(0.0, 3.0), seed=1, count=4, epoch_limit=2)


def test_cftp_draw_independent_of_batching():
    lat = TorusLattice(1, 6, 1, 1)
    params = ModelParams(-0.5, 0.4)
    alone = cftp_batch(lat, params, seed=21, count=1)
    batched = cftp_batch(lat, params, seed=21, count=5)
    assert np.array_equal(alone[0], batched[0])
    chunked = cftp_batch(lat, params, seed=21, count=5, draw_chunk=2)
    assert np.array_equal(batched, chunked)


# -- batch contract -----------------------------------------------------------------


def test_sample_batch_deterministic():
    lat = TorusLattice(2, 8, 1, 1)
    sched = FieldSchedule(c=1.0, k_target=1, d=2)
    spec = SamplerSpec(kind="heat_bath", burn_in_sweeps=20, thinning_sweeps=1, seed=99)
    one = sample_batch(lat, sched, 0.2, spec, count=100)
    two = sample_batch(lat, sched, 0.2, spec, count=100)
    assert np.array_equal(one.spins, two.spins)
    other = sample_batch(
        lat, sched, 0.2,
        SamplerSpec(kind="heat_bath", burn_in_sweeps=20, thinning_sweeps=1, seed=100),
        count=100,
    )
    assert not np.array_equal(one.spins, other.spins)


def test_sample_batch_applies_schedule():
    lat = TorusLattice(2, 16, 1, 1)
    sched = FieldSchedule(c=1.0, k_target=1, d=2)
    spec = SamplerSpec(kind="heat_bath", burn_in_sweeps=1, thinning_sweeps=1, seed=1)
    batch = sample_batch(lat, sched, 0.1, spec, count=2)
    assert batch.params.a == pytest.approx(0.5 * math.log(1 / 256))
    assert len(batch) == 2
    assert isinstance(batch[0], SpinConfig)


@pytest.mark.parametrize("kind", ["heat_bath", "metropolis"])
def test_zero_thinning_rejected_for_mcmc(kind):
    with pytest.raises(ValueError, match="thinning_sweeps"):
        SamplerSpec(kind=kind, thinning_sweeps=0)
    assert SamplerSpec(kind="cftp", thinning_sweeps=0).thinning_sweeps == 0


def test_sample_batch_replica_layout():
    lat = TorusLattice(1, 6, 1, 1)
    sched = FieldSchedule(c=1.0, k_target=1, d=1)
    spec = SamplerSpec(kind="heat_bath", burn_in_sweeps=5, thinning_sweeps=1, seed=3)
    batch = sample_batch(lat, sched, 0.0, spec, count=10, replicas=3)
    assert batch.replicas == 3
    assert batch.spins.shape == (10, 6)


def test_cftp_sample_batch_kind():
    lat = TorusLattice(1, 4, 1, 1)
    sched = FieldSchedule(c=1.0, k_target=1, d=1)
    spec = SamplerSpec(kind="cftp", seed=17)
    batch = sample_batch(lat, sched, 0.3, spec, count=50)
    assert batch.spins.shape == (50, 4)
    again = sample_batch(lat, sched, 0.3, spec, count=50)
    assert np.array_equal(batch.spins, again.spins)


def test_empirical_count_law_close_to_exact():
    # reduced-scale version of the full acceptance sweep
    lat = TorusLattice(1, 8, 1, 1)
    params = ModelParams(-0.3, 0.5)
    measure = build_exact(lat, params)
    motif = bundled_motif("single_plus_d1.motif")
    exact_law = count_distribution_exact(measure, motif, EXACT_MATCH)
    spec = SamplerSpec(kind="heat_bath", burn_in_sweeps=300, thinning_sweeps=2, seed=23)
    batch = sample_with_params(lat, params, spec, count=100_000)
    counts = count_samples(lat, batch.spins, motif, EXACT_MATCH)
    emp = CountDistribution.from_samples(counts)
    assert tv_distance(emp, exact_law) < 0.02


def test_snapshot_roundtrip(tmp_path):
    rng = np.random.default_rng(31)
    lat = TorusLattice(2, 5, 1, 1)
    cfg = SpinConfig(lat, rng.choice((-1, 1), size=lat.num_sites).astype(np.int8))
    path = tmp_path / "snap.bin"
    save_spin_config(cfg, path)
    back = load_spin_config(path)
    assert back == cfg
    save_spin_config(back, tmp_path / "snap2.bin")
    assert (tmp_path / "snap.bin").read_bytes() == (tmp_path / "snap2.bin").read_bytes()

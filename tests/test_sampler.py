import math

import numpy as np
import pytest
from scipy import stats

from isingmotif import (
    EXACT_MATCH,
    CountDistribution,
    FieldSchedule,
    ModelParams,
    SamplerSpec,
    SpinConfig,
    TorusLattice,
    build_exact,
    cftp_batch,
    count_distribution_exact,
    hamiltonian,
    sample_with_params,
    tv_distance,
)
from isingmotif import sampler
from isingmotif.counting import count_samples
from isingmotif.errors import AntiferromagneticUnsupported, CoalescenceTimeout
from isingmotif.lattice import INFINITY
from isingmotif.motifs import bundled_motif
from isingmotif.sampler import (
    _KERNELS,
    _STREAM_BLOCK_BYTES,
    _chain_keys,
    _colour_classes,
    _heat_bath_thresholds,
    _metropolis_thresholds,
    _Stream,
    _sweep_heat_bath,
    _sweep_metropolis,
    _thresholds,
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


def random_words(rng, shape):
    """53-bit stream words w whose uniforms w * 2**-53 are ``rng.random(shape)``."""
    return (rng.random(shape) * 2.0**53).astype(np.uint64)


def as_up(spins):
    """-1/+1 spins as the samplers' uint8 {0, 1}."""
    return (np.asarray(spins) > 0).astype(np.uint8)


def as_spins(up):
    """The samplers' uint8 {0, 1} back to int8 -1/+1."""
    return up.astype(np.int8) * np.int8(2) - np.int8(1)


def block_sweep(kind, lat, params, up, words):
    """One sweep of ``kind`` over sites-major uint8 rows, with the batch's table."""
    sweep, table = _KERNELS[kind]
    classes = _colour_classes(lat).classes
    sweep(up, classes, table(params.a, params.b, classes[0][1].shape[0]), words)


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
    up = as_up(np.full((lat.num_sites, 1), -1, dtype=np.int8))
    block_sweep("metropolis", lat, ModelParams(0.0, 0.0), up,
                random_words(np.random.default_rng(1), up.shape))
    assert np.all(as_spins(up) == 1)


def test_heat_bath_strong_negative_field():
    lat = TorusLattice(2, 4, 1, 1)
    rng = np.random.default_rng(3)
    up = as_up(rng.choice((-1, 1), size=(lat.num_sites, 4)).astype(np.int8))
    block_sweep("heat_bath", lat, ModelParams(-30.0, 0.2), up, random_words(rng, up.shape))
    assert np.all(as_spins(up) == -1)


def test_heat_bath_product_frequency():
    # b = 0: stationary per-site law is +1 with probability e^a/(e^a+e^-a)
    lat = TorusLattice(1, 8, 1, 1)
    a = -0.35
    sweeps = 20_000
    spec = SamplerSpec(kind="heat_bath", burn_in_sweeps=0, thinning_sweeps=1, seed=11)
    batch = sample_with_params(lat, ModelParams(a, 0.0), spec, count=sweeps, replicas=1)
    plus = int((batch.spins == 1).sum())
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
        low = rng.choice((-1, 1), size=(lat.num_sites, 1)).astype(np.int8)
        high = np.where(rng.random(low.shape) < 0.4, 1, low).astype(np.int8)
        low, high = as_up(low), as_up(high)
        words = random_words(rng, low.shape)
        block_sweep("heat_bath", lat, params, low, words)
        block_sweep("heat_bath", lat, params, high, words)
        assert np.all(low <= high)


def assert_threshold_identity(threshold, p):
    """w < threshold <=> w 2**-53 < p for the 53-bit words w next to the threshold."""
    t = int(threshold)
    for w in (0, t - 1, t, t + 1, 2**53 - 1):
        if 0 <= w < 2**53:
            assert bool(np.uint64(w) < threshold) == (w * 2.0**-53 < p), (p, w)


@pytest.mark.parametrize("p", sorted({
    float(p) for edge in (0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0)
    for p in (np.nextafter(edge, -1.0), edge, np.nextafter(edge, 2.0)) if 0.0 <= p <= 1.0
}))
def test_threshold_identity_at_edges(p):
    table = _thresholds([p])
    assert table.dtype == np.uint64
    assert_threshold_identity(table[0], p)


@pytest.mark.parametrize("a", [-40.0, 40.0])
def test_threshold_identity_of_saturated_tables(a):
    # at |a| = 40 the scalar oracles' probabilities round to 1 or fall below 2**-53
    lat = TorusLattice(1, 4, 1, 1)
    params = ModelParams(a, 0.5)
    hb = _heat_bath_thresholds(a, 0.5, 2)
    mp = _metropolis_thresholds(a, 0.5, 2)
    probs = []
    for mask in range(16):
        cfg = SpinConfig.from_mask(lat, mask)
        up, k = mask & 1, ((mask >> 1) & 1) + ((mask >> 3) & 1)
        for table, index, p in (
            (hb, k, heat_bath_plus_probability(cfg, (0,), params)),
            (mp, k + 3 * up, metropolis_flip_probability(cfg, (0,), params)),
        ):
            assert_threshold_identity(table[index], p)
            probs.append(p)
    assert 1.0 in probs and 0.0 < min(probs) < 2.0**-53


# -- colour-class sweeps --------------------------------------------------------------

COLOUR_LATTICES = [
    (TorusLattice(1, 4, 1, 1), 2),
    (TorusLattice(1, 5, 1, 1), 3),
    (TorusLattice(2, 3, 1, 1), 4),
    (TorusLattice(2, 16, 1, 1), 2),
    (TorusLattice(1, 13, 2, 1), None),
    (TorusLattice(2, 5, 1, INFINITY), None),
    # degree 48 and 80: many classes of a few sites each
    (TorusLattice(2, 9, 3, INFINITY), None),
    (TorusLattice(2, 11, 4, INFINITY), None),
]


@pytest.mark.parametrize("lat,expected", COLOUR_LATTICES)
def test_colour_classes_proper_and_covering(lat, expected):
    # the neighbor table comes from the lattice's own neighbor query
    nbr = np.array([[lat.site_index(w) for w in lat.neighbors(lat.vertex_at(x))]
                    for x in range(lat.num_sites)])
    order, row_of, classes = _colour_classes(lat)
    assert np.array_equal(np.sort(order), np.arange(lat.num_sites))
    assert np.array_equal(order[row_of], np.arange(lat.num_sites))
    # the class slices tile the rows, each class in increasing site order
    assert [rows.start for rows, _ in classes[1:]] == [rows.stop for rows, _ in classes[:-1]]
    assert classes[0][0].start == 0 and classes[-1][0].stop == lat.num_sites
    for rows, nbr_rows in classes:
        cls = order[rows]
        assert np.all(np.diff(cls) > 0)
        assert np.array_equal(nbr_rows, row_of[nbr[cls]].T)
        assert not np.isin(nbr[cls], cls).any()
    if expected is not None:
        assert len(classes) == expected


def to_rows(lat, values):
    """(chains, sites) in site order to the sampler's sites-major rows."""
    return np.ascontiguousarray(values.T[_colour_classes(lat).order])


def to_sites(lat, rows):
    """The sampler's sites-major rows back to (chains, sites) in site order."""
    return rows[_colour_classes(lat).row_of].T


def _scalar_colour_scan(lat, spins, params, uniforms, kind):
    """Site-by-site scan in colour-major order with the scalar oracles."""
    cfg = SpinConfig(lat, spins.copy())
    order, _, classes = _colour_classes(lat)
    for rows, _ in classes:
        for x in order[rows]:
            v = lat.vertex_at(int(x))
            if kind == "heat_bath":
                p = heat_bath_plus_probability(cfg, v, params)
                cfg.spins[x] = 1 if uniforms[x] < p else -1
            elif uniforms[x] < metropolis_flip_probability(cfg, v, params):
                cfg.spins[x] = -cfg.spins[x]
    return cfg.spins


def assert_block_sweep_equals_scalar_colour_scan(lat, a, b, kind):
    rng = np.random.default_rng(17)
    params = ModelParams(a, b)
    spins = rng.choice((-1, 1), size=(5, lat.num_sites)).astype(np.int8)
    rows = to_rows(lat, as_up(spins))
    for _ in range(3):
        words = random_words(rng, spins.shape)
        spins = np.stack([
            _scalar_colour_scan(lat, row, params, w * 2.0**-53, kind)
            for row, w in zip(spins, words)
        ])
        block_sweep(kind, lat, params, rows, to_rows(lat, words))
        assert np.array_equal(as_spins(to_sites(lat, rows)), spins)


@pytest.mark.parametrize("lat", [lat for lat, _ in COLOUR_LATTICES])
@pytest.mark.parametrize("a,b", [(0.0, 0.5), (-0.6, 0.3), (0.2, -0.4), (-1.0, 0.0)])
@pytest.mark.parametrize("kind,sweep", [
    ("heat_bath", _sweep_heat_bath), ("metropolis", _sweep_metropolis),
])
def test_block_sweep_equals_scalar_colour_scan(lat, a, b, kind, sweep):
    assert _KERNELS[kind][0] is sweep
    assert_block_sweep_equals_scalar_colour_scan(lat, a, b, kind)


@pytest.mark.parametrize("kind", ["heat_bath", "metropolis"])
def test_block_sweep_past_uint8_index(kind):
    # degree 168: the Metropolis table index k + 169 up runs to 337 and needs uint16
    lat = TorusLattice(2, 14, 6, INFINITY)
    assert _metropolis_thresholds(0.0, 0.0, 168).size == 338
    assert_block_sweep_equals_scalar_colour_scan(lat, -0.2, 0.01, kind)


@pytest.mark.parametrize("lat", [TorusLattice(1, 6, 1, 1), TorusLattice(2, 4, 1, 1)])
def test_stacked_sweep_equals_separate_sweeps(lat):
    rng = np.random.default_rng(23)
    params = ModelParams(-0.3, 0.4)
    stack = as_up(rng.choice((-1, 1), size=(lat.num_sites, 2, 7)).astype(np.int8))
    top, bot = stack[:, 0].copy(), stack[:, 1].copy()
    for _ in range(3):
        words = random_words(rng, (lat.num_sites, 7))
        block_sweep("heat_bath", lat, params, stack, words[:, None])
        block_sweep("heat_bath", lat, params, top, words)
        block_sweep("heat_bath", lat, params, bot, words)
        assert np.array_equal(stack[:, 0], top) and np.array_equal(stack[:, 1], bot)


# -- the counter-based stream -------------------------------------------------------

_M64 = (1 << 64) - 1
_G = 0x9E3779B97F4A7C15


def _splitmix64(z):
    z ^= z >> 30
    z = z * 0xBF58476D1CE4E5B9 & _M64
    z ^= z >> 27
    z = z * 0x94D049BB133111EB & _M64
    return z ^ (z >> 31)


def reference_uniform(seed, chain, t, x, sites):
    """The documented stream in Python integers: the uniform of (chain, time t, site x)."""
    key = _splitmix64(_splitmix64((seed + 1) * _G & _M64) ^ _splitmix64((chain + 1) * _G & _M64))
    return (_splitmix64((key + (t * sites + x) * _G) & _M64) >> 11) * 2.0**-53


def stream_block(seed, draws, times, sites):
    """(len(draws), len(times), sites) uniforms w * 2**-53 from the sampler's stream."""
    draws = np.asarray(draws)
    stream = _Stream(np.arange(sites), draws.size)
    keys = _chain_keys(seed, draws)
    return np.stack([stream.words(keys, t)[0].T * 2.0**-53 for t in times], axis=1)


def test_cftp_stream_matches_reference_formula():
    for seed in (0, 7, -3, 2**64 - 1):
        got = stream_block(seed, [0, 1, 4095, 2**40], [0, 1, 2, 1000], 5)
        want = [[[reference_uniform(seed, i, t, x, 5) for x in range(5)]
                 for t in (0, 1, 2, 1000)] for i in (0, 1, 4095, 2**40)]
        assert np.array_equal(got, np.array(want))


def test_cftp_stream_independent_of_active_set():
    seed, sites = 11, 9
    full = stream_block(seed, np.arange(12), range(1, 9), sites)
    for active in ([3], [7, 3], [11, 0, 5], list(range(2, 12))):
        part = stream_block(seed, active, range(1, 9), sites)
        assert np.array_equal(part, full[active])
    # a larger buffer and a later start leave the values unchanged too
    stream = _Stream(np.arange(sites), 64)
    keys = _chain_keys(seed, np.arange(12))
    for t in (8, 3, 1):
        assert np.array_equal(stream.words(keys[4:], t)[0].T * 2.0**-53, full[4:, t - 1])


@pytest.mark.parametrize("lat", [TorusLattice(2, 4, 1, 1), TorusLattice(1, 13, 2, 1)])
def test_stream_time_blocks_in_row_order(lat):
    # one call for a block of times gives each time's uniforms, row r at site order[r]
    seed, sites = 3, lat.num_sites
    full = stream_block(seed, np.arange(5), range(1, 41), sites)
    order = _colour_classes(lat).order
    stream = _Stream(order, 5)
    keys = _chain_keys(seed, np.arange(5))
    assert stream.block(5) == _STREAM_BLOCK_BYTES // (8 * sites * 5) >= 40
    for start, count in ((1, 40), (1, 1), (7, 13), (40, 1)):
        block = stream.words(keys, start, count)
        assert block.shape == (count, sites, 5) and block.dtype == np.uint64
        want = full[:, start - 1:start - 1 + count][:, :, order].transpose(1, 2, 0)
        assert np.array_equal(block * 2.0**-53, want)


def assert_cells_uniform(cells):
    """Chi-square at 1% that the integer cells 0..63 are equally likely."""
    observed = np.bincount(cells.ravel(), minlength=64)
    expected = cells.size / 64
    assert float(((observed - expected) ** 2).sum() / expected) < stats.chi2.ppf(0.99, 63)


@pytest.fixture(scope="module")
def stream_values():
    """10^6 uniforms: 1000 draws x 10 times x 100 sites."""
    return stream_block(2020, np.arange(1000), range(1, 11), 100)


def test_cftp_stream_in_unit_interval_and_uniform(stream_values):
    u = stream_values.ravel()
    assert u.size == 10**6
    assert u.min() >= 0.0 and u.max() < 1.0
    assert_cells_uniform((u * 64).astype(np.intp))


@pytest.mark.parametrize("axis", [0, 1, 2], ids=["draws", "times", "sites"])
def test_cftp_stream_serial_pairs(stream_values, axis):
    # disjoint pairs of neighbours along one axis, binned on an 8 x 8 grid
    first = np.take(stream_values, np.arange(0, stream_values.shape[axis], 2), axis=axis)
    second = np.take(stream_values, np.arange(1, stream_values.shape[axis], 2), axis=axis)
    assert_cells_uniform((first * 8).astype(np.intp) * 8 + (second * 8).astype(np.intp))


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
        cftp_batch(lat, ModelParams(0.0, -0.1), seed=1, count=1)


def test_cftp_timeout(monkeypatch):
    monkeypatch.setattr(sampler, "_EPOCH_LIMIT", 2)
    lat = TorusLattice(1, 8, 1, 1)
    with pytest.raises(CoalescenceTimeout):
        cftp_batch(lat, ModelParams(0.0, 3.0), seed=1, count=4)


def reference_cftp(lat, params, seed, draw):
    """One draw of monotone CFTP, chain by chain and site by site with the
    scalar oracle, from ``reference_uniform``.

    Returns the draw and the horizon at which its chains coalesced.
    """
    sites = lat.num_sites
    horizon = 1
    while True:
        top, bot = np.ones(sites, dtype=np.int8), -np.ones(sites, dtype=np.int8)
        for t in range(horizon, 0, -1):
            u = np.array([reference_uniform(seed, draw, t, x, sites) for x in range(sites)])
            top = _scalar_colour_scan(lat, top, params, u, "heat_bath")
            bot = _scalar_colour_scan(lat, bot, params, u, "heat_bath")
        if np.array_equal(top, bot):
            return top, horizon
        horizon *= 2


# 36 uniforms per stream call: rounds and burn-ins span several time blocks,
# the last one partial, and the block length changes as CFTP draws coalesce
SMALL_BLOCK = [None, 8 * 36]


@pytest.mark.parametrize("block_bytes", SMALL_BLOCK)
def test_cftp_draw_independent_of_batching(block_bytes, monkeypatch):
    if block_bytes:
        monkeypatch.setattr(sampler, "_STREAM_BLOCK_BYTES", block_bytes)
    lat = TorusLattice(1, 6, 1, 1)
    params = ModelParams(-0.5, 0.4)
    want = [reference_cftp(lat, params, 21, i) for i in range(6)]
    # the chunks {0, 1, 2} and {3, 4, 5} of 3 draws coalesce at different horizons
    horizons = [h for _, h in want]
    assert max(horizons[:3]) != max(horizons[3:])
    want_spins = np.stack([spins for spins, _ in want])
    alone = cftp_batch(lat, params, seed=21, count=1)
    assert np.array_equal(alone, want_spins[:1])
    # the default chunk holds all 6 draws; then chunks of 1, 2 and 3 draws
    for draws in (None, 1, 2, 3):
        if draws:
            monkeypatch.setattr(sampler, "_CFTP_CHUNK_BYTES", 8 * lat.num_sites * draws)
        got = cftp_batch(lat, params, seed=21, count=6)
        assert np.array_equal(got, want_spins), draws


# -- batch contract -----------------------------------------------------------------


def test_sample_batch_deterministic():
    lat = TorusLattice(2, 8, 1, 1)
    params = FieldSchedule(c=1.0, k_target=1, d=2).params(lat.n, 0.2)
    spec = SamplerSpec(kind="heat_bath", burn_in_sweeps=20, thinning_sweeps=1, seed=99)
    one = sample_with_params(lat, params, spec, count=100)
    two = sample_with_params(lat, params, spec, count=100)
    assert np.array_equal(one.spins, two.spins)
    other = sample_with_params(
        lat, params,
        SamplerSpec(kind="heat_bath", burn_in_sweeps=20, thinning_sweeps=1, seed=100),
        count=100,
    )
    assert not np.array_equal(one.spins, other.spins)


@pytest.mark.parametrize("kind", ["heat_bath", "metropolis"])
def test_zero_thinning_rejected_for_mcmc(kind):
    with pytest.raises(ValueError, match="thinning_sweeps"):
        SamplerSpec(kind=kind, thinning_sweeps=0)
    assert SamplerSpec(kind="cftp", thinning_sweeps=0).thinning_sweeps == 0


def test_sample_batch_replica_layout():
    lat = TorusLattice(1, 6, 1, 1)
    spec = SamplerSpec(kind="heat_bath", burn_in_sweeps=5, thinning_sweeps=1, seed=3)
    batch = sample_with_params(lat, ModelParams(-0.5, 0.0), spec, count=10, replicas=3)
    assert batch.replicas == 3
    assert batch.spins.shape == (10, 6)


def test_cftp_sample_batch_kind():
    # kind="cftp" batches are cftp_batch's draws
    lat = TorusLattice(1, 4, 1, 1)
    params = FieldSchedule(c=1.0, k_target=1, d=1).params(lat.n, 0.3)
    spec = SamplerSpec(kind="cftp", seed=17)
    batch = sample_with_params(lat, params, spec, count=50)
    assert batch.spins.shape == (50, 4)
    assert batch.replicas == 50
    assert np.array_equal(batch.spins, cftp_batch(lat, params, seed=17, count=50))


def reference_mcmc(lat, params, spec, count, replicas):
    """An MCMC batch chain by chain and site by site with the scalar oracles,
    from ``reference_uniform``: replica i starts at +1 where its time-0 uniform
    is below 1/2, sweep t reads time t, and sample j is the state after sweep
    B + j T (or (j + 1) T when B = 0)."""
    sites = lat.num_sites
    first = spec.burn_in_sweeps if spec.burn_in_sweeps > 0 else spec.thinning_sweeps
    rows = []
    for i in range(replicas):
        quota = len(range(i, count, replicas))
        uniforms = [
            np.array([reference_uniform(spec.seed, i, t, x, sites) for x in range(sites)])
            for t in range(first + spec.thinning_sweeps * (quota - 1) + 1)
        ]
        spins = np.where(uniforms[0] < 0.5, 1, -1).astype(np.int8)
        for t, u in enumerate(uniforms[1:], start=1):
            spins = _scalar_colour_scan(lat, spins, params, u, spec.kind)
            if t >= first and (t - first) % spec.thinning_sweeps == 0:
                rows.append(spins.copy())
    return np.stack(rows)


@pytest.mark.parametrize("kind", ["heat_bath", "metropolis"])
@pytest.mark.parametrize("burn_in,thinning", [(3, 2), (0, 2)])
@pytest.mark.parametrize("lat", [TorusLattice(1, 6, 1, 1), TorusLattice(2, 3, 1, 1)])
@pytest.mark.parametrize("block_bytes", SMALL_BLOCK)
def test_mcmc_batch_equals_reference_stream(kind, burn_in, thinning, lat, block_bytes,
                                            monkeypatch):
    if block_bytes:
        monkeypatch.setattr(sampler, "_STREAM_BLOCK_BYTES", block_bytes)
    params = ModelParams(-0.3, -0.4)
    spec = SamplerSpec(kind=kind, burn_in_sweeps=burn_in, thinning_sweeps=thinning, seed=41)
    batch = sample_with_params(lat, params, spec, count=7, replicas=3)
    assert np.array_equal(batch.spins, reference_mcmc(lat, params, spec, 7, 3))


@pytest.mark.parametrize("kind", ["heat_bath", "metropolis"])
def test_mcmc_replica_independent_of_replica_count(kind):
    lat = TorusLattice(2, 4, 1, 1)
    params = ModelParams(0.1, -0.2)
    spec = SamplerSpec(kind=kind, burn_in_sweeps=4, thinning_sweeps=3, seed=5)
    quota = 6
    by_replicas = {
        r: sample_with_params(lat, params, spec, count=r * quota, replicas=r).spins
        for r in (1, 3, 8)
    }
    for r, spins in by_replicas.items():
        for i in range(r):
            rows = spins[i * quota:(i + 1) * quota]
            assert np.array_equal(rows, by_replicas[8][i * quota:(i + 1) * quota]), (r, i)


@pytest.mark.parametrize("kind", ["heat_bath", "metropolis", "cftp"])
def test_samplers_do_not_use_numpy_generators(kind, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("samplers read only the counter-based stream")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    lat = TorusLattice(1, 6, 1, 1)
    spec = SamplerSpec(kind=kind, burn_in_sweeps=2, thinning_sweeps=1, seed=3)
    batch = sample_with_params(lat, ModelParams(-0.2, 0.3), spec, count=5)
    assert batch.spins.shape == (5, 6)


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

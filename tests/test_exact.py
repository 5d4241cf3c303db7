import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from isingmotif import (
    FieldSchedule,
    ModelParams,
    SpinConfig,
    TorusLattice,
    build_exact,
    check_conditional_sandwich,
    conditional_motif_probability,
    exact,
    hamiltonian,
    local_energy,
    threshold_field,
)
from isingmotif.errors import (
    LatticeTooSmall,
    MissingSpin,
    MotifScheduleMismatch,
    NonFiniteLimit,
    NotClean,
    TooLargeForExact,
)
from isingmotif.exact import _ball_table, _energy_levels, _logsumexp, _spin_matrix
from isingmotif.lattice import INFINITY
from isingmotif.motifs import (
    LocalConfig,
    bundled_motif,
    null_config,
    single_positive,
)

D1 = (1, 1, 1)


def naive_log_z(lattice, params):
    """Independent brute-force partition sum (oracle of the oracle)."""
    total = 0.0
    for bits in itertools.product((-1, 1), repeat=lattice.num_sites):
        spins = np.array(bits, dtype=np.int8)
        energy = params.a * spins.sum()
        for i, j in lattice.edges():
            energy += params.b * spins[i] * spins[j]
        total += math.exp(energy)
    return math.log(total)


def test_hamiltonian_examples():
    lat = TorusLattice(1, 4, rho=1, p=1)
    a, b = 0.7, -0.2
    assert hamiltonian(SpinConfig.all_minus(lat), ModelParams(a, b)) == pytest.approx(
        -4 * a + 4 * b
    )
    assert hamiltonian(SpinConfig.from_mask(lat, 0b0110), ModelParams(0.0, 0.0)) == 0.0
    # single + at the origin: two disagreeing and two agreeing edges cancel
    single = SpinConfig.from_mask(lat, 0b0001)
    assert hamiltonian(single, ModelParams(0.0, 1.0)) == pytest.approx(0.0)


def test_from_mask_reads_masks_past_64_sites():
    lat = TorusLattice(2, 9)  # 81 sites: most masks do not fit in an int64
    for mask in (0, 5, 1 << 70, (1 << 81) - 1):
        assert SpinConfig.from_mask(lat, mask).to_mask() == mask


def test_hamiltonian_on_edgeless_lattice():
    lat = TorusLattice(1, 1)  # the only neighbor of the one site is itself
    assert lat.edges() == ()
    assert hamiltonian(SpinConfig.all_plus(lat), ModelParams(0.7, 5.0)) == 0.7


def test_spin_config_equality():
    lat = TorusLattice(1, 4)
    cfg = SpinConfig.from_mask(lat, 0b0110)
    assert cfg == SpinConfig(lat, [-1, 1, 1, -1])
    assert cfg != SpinConfig.from_mask(lat, 0b0111)
    assert cfg != SpinConfig.from_mask(TorusLattice(2, 2), 0b0110)
    assert cfg != 0b0110


@pytest.mark.parametrize("make, fragment", [
    (lambda: ModelParams(math.nan, 0.0), "finite"),
    (lambda: ModelParams(0.0, math.inf), "finite"),
    (lambda: FieldSchedule(0.0, 1, 1), "schedule constant c"),
    (lambda: FieldSchedule(math.inf, 1, 1), "schedule constant c"),
    (lambda: FieldSchedule(1.0, 1, 0), "d must be >= 1"),
    (lambda: threshold_field(8, 1, 0, 0.5, False), "k must be >= 1"),
    (lambda: SpinConfig(TorusLattice(1, 4), [1, 1, 1]), "expected 4 spins"),
    # a mask outside [0, 2^N) would wrap into some configuration
    (lambda: SpinConfig.from_mask(TorusLattice(1, 8), 1 << 40), r"mask must be in \[0, 2\^8\)"),
    (lambda: SpinConfig.from_mask(TorusLattice(1, 8), 1 << 8), r"mask must be in \[0, 2\^8\)"),
    (lambda: SpinConfig.from_mask(TorusLattice(1, 8), -1), r"mask must be in \[0, 2\^8\)"),
    (lambda: SpinConfig.from_mask(TorusLattice(1, 8), 2.5), "mask must be an integer"),
])
def test_model_values_checked(make, fragment):
    with pytest.raises(ValueError, match=fragment):
        make()


def test_build_exact_uniform_case():
    lat = TorusLattice(1, 4, rho=1, p=1)
    measure = build_exact(lat, ModelParams(0.0, 0.0))
    assert math.exp(measure.log_z) == pytest.approx(16.0)
    probs = measure.probabilities()
    assert np.allclose(probs, 1 / 16)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_build_exact_product_case():
    lat = TorusLattice(1, 3, rho=1, p=1)
    measure = build_exact(lat, ModelParams(1.0, 0.0))
    expected = math.exp(3) / (math.exp(1) + math.exp(-1)) ** 3
    all_plus = SpinConfig.all_plus(lat).to_mask()
    assert measure.probabilities()[all_plus] == pytest.approx(expected, rel=1e-12)


def test_build_exact_against_naive_double_loop():
    lat = TorusLattice(1, 4, rho=1, p=1)
    params = ModelParams(0.3, 0.5)
    measure = build_exact(lat, params)
    assert measure.log_z == pytest.approx(naive_log_z(lat, params), rel=1e-12)


def test_build_exact_cap():
    lat = TorusLattice(2, 6, rho=1, p=1)  # 36 sites
    with pytest.raises(TooLargeForExact):
        build_exact(lat, ModelParams(0.0, 0.0))
    build_exact(TorusLattice(1, 10, 1, 1), ModelParams(0.0, 0.0))  # its levels are now cached
    with pytest.raises(TooLargeForExact):
        build_exact(TorusLattice(1, 10, 1, 1), ModelParams(0.0, 0.0), site_cap=8)


@pytest.mark.parametrize("lat", [
    TorusLattice(1, 6, 1, 1),
    TorusLattice(2, 3, 1, 1),
    TorusLattice(1, 7, 2, 1),
    TorusLattice(2, 3, 1, INFINITY),
])
def test_cached_levels_match_hamiltonian(lat):
    # two (a, b) back to back on one cached enumeration, checked after both
    # exist, so that any aliasing between their tables shows
    first = build_exact(lat, ModelParams(0.45, -0.3))
    second = build_exact(lat, ModelParams(-1.1, 0.7))
    for measure in (first, second):
        weights = measure.log_weights
        for mask in range(measure.num_configs):
            cfg = SpinConfig.from_mask(lat, mask)
            assert weights[mask] == pytest.approx(hamiltonian(cfg, measure.params), abs=1e-12)
            assert measure.probabilities()[mask] == pytest.approx(
                math.exp(weights[mask] - measure.log_z), rel=1e-14
            )
        assert measure.log_z == pytest.approx(naive_log_z(lat, measure.params), rel=1e-12)


@pytest.mark.parametrize("lat", [
    TorusLattice(1, 6, 1, 1),
    TorusLattice(1, 9, 1, 1),
    TorusLattice(2, 3, 1, 1),
    TorusLattice(2, 4, 1, INFINITY),
    TorusLattice(1, 11, 2, 1),
], ids=repr)
@pytest.mark.parametrize("chunk", [exact.MASK_CHUNK, 100])
def test_energy_levels_match_per_mask_levels(lat, chunk, monkeypatch):
    # (M, E) of every mask straight from its spins, against the doubling build
    monkeypatch.setattr(exact, "MASK_CHUNK", chunk)
    levels = _energy_levels.__wrapped__(lat)
    n_sites, edges = lat.num_sites, lat.edges()
    spins = _spin_matrix(np.arange(1 << n_sites, dtype=np.uint64), n_sites).astype(np.int64)
    ii, jj = np.array(edges, dtype=np.intp).T
    field = spins.sum(axis=1)
    pair = (spins[:, ii] * spins[:, jj]).sum(axis=1)
    width = 2 * len(edges) + 1
    size = (2 * n_sites + 1) * width
    level = (field + n_sites) * width + pair + len(edges)
    assert levels.index.dtype == (np.uint16 if size <= 1 << 16 else np.uint32)
    assert np.array_equal(levels.index, level)
    assert levels.count.dtype == np.intp
    assert np.array_equal(levels.count, np.bincount(level, minlength=size))
    assert levels.field.dtype == levels.pair.dtype == np.intp
    assert len(levels.field) == len(levels.pair) == size
    assert np.array_equal(levels.field[level], field)
    assert np.array_equal(levels.pair[level], pair)
    for array in levels:
        with pytest.raises(ValueError):
            array[0] = 1


def test_energy_levels_working_set_is_bounded():
    # the index is built in place, in its own dtype: 1M masks take 2 MiB of
    # uint16 index, and every full-length int64 temporary would add 8 MiB
    lat = TorusLattice(1, 20, 1, 1)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        levels = _energy_levels.__wrapped__(lat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < levels.index.nbytes + 2 * 2**20


def test_probabilities_are_read_only():
    measure = build_exact(TorusLattice(1, 5, 1, 1), ModelParams(0.2, 0.1))
    with pytest.raises(ValueError):
        measure.probabilities()[0] = 0.5


@pytest.mark.parametrize("query, fragment", [
    (lambda m: m.expectation(np.zeros(3)), "values must cover"),
    (lambda m: m.conditional_probability({(0,): 1, (5,): -1}, {}), "assigned twice"),
    (lambda m: m.conditional_probability({(0,): 1}, {(0,): 1}), "overlap"),
])
def test_measure_queries_checked(query, fragment):
    measure = build_exact(TorusLattice(1, 5, 1, 1), ModelParams(0.2, 0.1))
    with pytest.raises(ValueError, match=fragment):
        query(measure)


def test_conditioning_on_zero_probability_event_rejected():
    # at a = -400 a plus spin weighs exp(-800) against the all-minus state: 0.0 in float64
    measure = build_exact(TorusLattice(1, 5, 1, 1), ModelParams(-400.0, 0.0))
    with pytest.raises(ValueError, match="zero probability"):
        measure.conditional_probability({(1,): 1}, {(0,): 1})


def test_normalization_every_build():
    for d, n, a, b in ((1, 6, -0.5, 0.3), (2, 3, 0.2, -0.4), (1, 8, -2.0, 1.0)):
        measure = build_exact(TorusLattice(d, n, 1, 1), ModelParams(a, b))
        assert measure.probabilities().sum() == pytest.approx(1.0, abs=1e-12)


def test_spin_flip_symmetry():
    # global flip with a -> -a leaves the measure invariant, config by config
    lat = TorusLattice(1, 6, rho=1, p=1)
    plus = build_exact(lat, ModelParams(0.7, 0.4))
    minus = build_exact(lat, ModelParams(-0.7, 0.4))
    full = (1 << lat.num_sites) - 1
    for mask in range(1 << lat.num_sites):
        flipped = mask ^ full
        assert plus.log_weights[mask] == minus.log_weights[flipped]
    assert plus.log_z == pytest.approx(minus.log_z, rel=1e-14)


def test_local_energy_null_ball():
    lat = TorusLattice(1, 8, rho=1, p=1)
    a, b = -0.9, 0.35
    spins = {(7,): -1, (0,): -1, (1,): -1, (6,): -1, (2,): -1}
    # field over 3 ball sites, 2 internal + 2 boundary edges all agreeing
    assert local_energy(lat, (0,), 1, spins, ModelParams(a, b)) == pytest.approx(-3 * a + 4 * b)
    assert local_energy(lat, (0,), 1, spins, ModelParams(0.0, 0.0)) == 0.0


def test_local_energy_missing_spin():
    lat = TorusLattice(1, 8, rho=1, p=1)
    with pytest.raises(MissingSpin):
        local_energy(lat, (0,), 1, {(0,): 1, (1,): -1, (7,): -1}, ModelParams(0.1, 0.1))


def test_local_energy_matches_field_pair_decomposition():
    # oracle: a*(2k - beta) + b*(internal pair sum + boundary pair sum)
    rng = np.random.default_rng(7)
    lat = TorusLattice(2, 7, rho=1, p=1)
    ball = lat.ball((2, 3), 1)
    boundary = lat.boundary(ball)
    params = ModelParams(-0.8, 0.6)
    beta = len(ball.members)
    for _ in range(20):
        inside = {v: int(s) for v, s in zip(ball.members, rng.choice((-1, 1), size=beta))}
        outside = {v: int(s) for v, s in zip(boundary, rng.choice((-1, 1), size=len(boundary)))}
        k = sum(1 for s in inside.values() if s == 1)
        pair = 0
        seen = set()
        for y in ball.members:
            for z in lat.neighbors(y):
                if z in inside and frozenset((y, z)) not in seen:
                    seen.add(frozenset((y, z)))
                    pair += inside[y] * inside[z]
                elif z in outside:
                    pair += inside[y] * outside[z]
        expected = params.a * (2 * k - beta) + params.b * pair
        got = local_energy(lat, (2, 3), 1, {**inside, **outside}, params)
        assert got == pytest.approx(expected, abs=1e-12)


def test_conditional_uniform_and_normalized():
    lat = TorusLattice(1, 8, rho=1, p=1)
    motif = bundled_motif("single_plus_d1.motif")
    ball = lat.ball((0,), 1)
    boundary = {v: -1 for v in lat.boundary(ball)}
    assert conditional_motif_probability(
        lat, (0,), motif, boundary, ModelParams(0.0, 0.0)
    ) == pytest.approx(1 / 8)

    # probabilities over all patterns on the ball sum to one
    params = ModelParams(-0.6, 0.4)
    total = 0.0
    for bits in itertools.product((0, 1), repeat=3):
        pos = frozenset(off for off, bit in zip(sorted(motif.ball_sites), bits) if bit)
        eta = LocalConfig(1, pos, motif.signature)
        total += conditional_motif_probability(lat, (0,), eta, boundary, params)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_conditional_matches_exact_measure():
    # local computation == global conditional given the boundary (Markov field),
    # and also given the full exterior
    lat = TorusLattice(1, 8, rho=1, p=1)
    params = ModelParams(-1.0, 0.4)
    measure = build_exact(lat, params)
    motif = bundled_motif("single_plus_d1.motif")
    target = {(7,): -1, (0,): 1, (1,): -1}
    for boundary in ({(6,): -1, (2,): -1}, {(6,): 1, (2,): -1}, {(6,): 1, (2,): 1}):
        local = conditional_motif_probability(lat, (0,), motif, boundary, params)
        global_cond = measure.conditional_probability(target, boundary)
        assert local == pytest.approx(global_cond, rel=1e-10)
        for far in ((1, -1), (-1, 1), (1, 1)):
            full_exterior = dict(boundary)
            full_exterior[(3,)], full_exterior[(4,)] = far[0], far[1]
            full_exterior[(5,)] = -1
            assert measure.conditional_probability(target, full_exterior) == pytest.approx(
                local, rel=1e-10
            )


def test_missing_boundary_spin():
    lat = TorusLattice(1, 8, rho=1, p=1)
    motif = bundled_motif("single_plus_d1.motif")
    with pytest.raises(MissingSpin):
        conditional_motif_probability(lat, (0,), motif, {(2,): -1}, ModelParams(0, 0))


def test_sandwich_upper_bound_reduces_to_ck_when_b_zero():
    motif = bundled_motif("single_plus_d1.motif")
    schedule = FieldSchedule(c=1.5, k_target=1, d=1)
    for n in (8, 12):
        lat = TorusLattice(1, n, rho=1, p=1)
        report = check_conditional_sandwich(lat, motif, schedule, b=0.0)
        assert report.upper_bound_holds
        assert report.lambda_target == pytest.approx(1.5)


def test_sandwich_ratio_increases_toward_one():
    motif = bundled_motif("single_plus_d1.motif")
    schedule = FieldSchedule(c=1.0, k_target=1, d=1)
    ratios = []
    for n in (8, 16, 32):
        lat = TorusLattice(1, n, rho=1, p=1)
        report = check_conditional_sandwich(lat, motif, schedule, b=0.5)
        assert report.upper_bound_holds
        ratios.append(report.worst_ratio)
    assert ratios[0] < ratios[1] < ratios[2] < 1.0


def test_sandwich_rejections():
    schedule = FieldSchedule(c=1.0, k_target=1, d=1)
    lat = TorusLattice(1, 8, rho=1, p=1)
    with pytest.raises(NotClean):
        check_conditional_sandwich(lat, LocalConfig(1, frozenset({(1,)}), D1), schedule, 0.0)
    with pytest.raises(MotifScheduleMismatch):
        check_conditional_sandwich(lat, null_config(1, D1).ring(), schedule, 0.0)
    # the d = 1 schedule on a d = 2 torus, which poisson_target refuses as well
    lat2 = TorusLattice(2, 8, rho=1, p=1)
    with pytest.raises(MotifScheduleMismatch):
        check_conditional_sandwich(lat2, single_positive(1, lat2.signature), schedule, 0.0)
    with pytest.raises(ValueError):
        FieldSchedule(c=1.0, k_target=0, d=1)  # the null motif has no schedule
    with pytest.raises(LatticeTooSmall):
        check_conditional_sandwich(
            TorusLattice(1, 4, 1, 1), single_positive(1, D1), schedule, 0.0
        )


def test_sandwich_limit_overflow_is_typed():
    # c^k = 1e400 is not a float: the same error as poisson_limit, not OverflowError
    pair = LocalConfig(2, frozenset({(0,), (1,)}), D1)
    assert pair.clean
    with pytest.raises(NonFiniteLimit):
        check_conditional_sandwich(
            TorusLattice(1, 8, 1, 1), pair, FieldSchedule(c=1e200, k_target=2, d=1), 0.0
        )


def test_sandwich_limit_underflow_is_typed():
    # c^k = 1e-400 underflows to 0.0: no ratio against it, and no ZeroDivisionError
    pair = LocalConfig(2, frozenset({(0,), (1,)}), D1)
    with pytest.raises(NonFiniteLimit):
        check_conditional_sandwich(
            TorusLattice(1, 8, 1, 1), pair, FieldSchedule(c=1e-200, k_target=2, d=1), 0.0
        )


SANDWICH_CASES = [
    (TorusLattice(1, 8, 1, 1), LocalConfig(2, frozenset({(0,), (1,)}), D1)),
    (TorusLattice(2, 7, 1, 1), bundled_motif("single_plus_d2.motif")),
]


@pytest.mark.parametrize("b", [-0.5, 0.0, 0.5])
@pytest.mark.parametrize("lat,motif", SANDWICH_CASES)
def test_sandwich_equals_per_boundary_oracle(lat, motif, b):
    schedule = FieldSchedule(c=1.3, k_target=motif.k, d=lat.d)
    report = check_conditional_sandwich(lat, motif, schedule, b)
    origin = (0,) * lat.d
    boundary = lat.boundary(lat.ball(origin, motif.radius))
    params = schedule.params(lat.n, b)
    scaled = [
        lat.num_sites * conditional_motif_probability(
            lat, origin, motif, dict(zip(boundary, spins)), params
        )
        for spins in itertools.product((-1, 1), repeat=len(boundary))
    ]
    lam = report.lambda_target
    assert report.boundary_count == len(scaled) == 2 ** len(boundary)
    assert report.worst_ratio == pytest.approx(min(scaled) / lam, rel=1e-12)
    assert report.max_excess == pytest.approx(max(scaled) - lam, rel=1e-12, abs=1e-12 * lam)
    assert report.upper_bound_holds


def test_sandwich_blocks_equal_one_block(monkeypatch):
    lat, motif = SANDWICH_CASES[1]
    schedule = FieldSchedule(c=1.3, k_target=1, d=2)
    whole = check_conditional_sandwich(lat, motif, schedule, -0.5)
    # 3 of the 256 boundaries per block: 86 blocks, the last one short
    monkeypatch.setattr(exact, "_SANDWICH_BLOCK_BYTES", 8 * 32 * 3)
    assert check_conditional_sandwich(lat, motif, schedule, -0.5) == whole


def test_logsumexp_matches_scipy():
    rng = np.random.default_rng(11)
    x = rng.normal(scale=30.0, size=200)
    np.testing.assert_allclose(_logsumexp(x), logsumexp(x), rtol=1e-15, atol=0)
    # zero weights sit on -inf entries, as in ExactMeasure's level table
    weights = rng.integers(0, 5, size=200)
    masked = np.where(weights > 0, x, -np.inf)
    np.testing.assert_allclose(
        _logsumexp(masked, weights), logsumexp(masked, b=weights), rtol=1e-15, atol=0
    )
    grid = rng.normal(scale=5.0, size=(32, 7))
    grid[3, 2] = grid[:, 2].max()  # a tied maximum in one column
    np.testing.assert_allclose(
        _logsumexp(grid, axis=0), logsumexp(grid, axis=0), rtol=1e-15, atol=0
    )
    # one dominant term: the rest underflows to 0 after the shift, or barely counts
    for dominant in (np.array([900.0, 0.0, -5.0]), np.array([0.0, -40.0, -45.0])):
        assert _logsumexp(dominant) == pytest.approx(logsumexp(dominant), rel=1e-15, abs=0)


def test_schedule_field_values():
    sched = FieldSchedule(c=1.0, k_target=1, d=2)
    assert sched.field(16) == pytest.approx(0.5 * math.log(1 / 256))
    assert math.exp(2 * FieldSchedule(c=2.0, k_target=2, d=1).field(9)) == pytest.approx(
        2.0 * 9 ** (-0.5)
    )


def test_threshold_field_sides():
    n, d, k, eps = 16, 1, 1, 0.5
    sub = threshold_field(n, d, k, eps, super_threshold=False)
    sup = threshold_field(n, d, k, eps, super_threshold=True)
    assert math.exp(2 * sub) == pytest.approx(n ** (-1.5))
    assert math.exp(2 * sup) == pytest.approx(n ** (-0.5))


def test_threshold_sanity_small_grid():
    # growing n drives the exact expected count down (sub) and up (super)
    from isingmotif import EXACT_MATCH, count_distribution_exact

    motif = bundled_motif("single_site_d1.motif")
    sub_means, sup_means = [], []
    for n in (8, 12, 16):
        lat = TorusLattice(1, n, 1, 1)
        for store, super_side, b in ((sub_means, False, 0.5), (sup_means, True, -0.5)):
            a = threshold_field(n, 1, 1, 0.5, super_threshold=super_side)
            dist = count_distribution_exact(build_exact(lat, ModelParams(a, b)), motif, EXACT_MATCH)
            store.append(dist.mean)
    assert sub_means[0] > sub_means[1] > sub_means[2]
    assert sup_means[0] < sup_means[1] < sup_means[2]


def test_fkg_small_exhaustive():
    # increasing indicator pairs never anticorrelate when b >= 0
    lat = TorusLattice(1, 4, rho=1, p=1)
    measure = build_exact(lat, ModelParams(-0.3, 0.5))
    masks = np.arange(measure.num_configs, dtype=np.uint64)
    singles = [((masks >> np.uint64(i)) & np.uint64(1)).astype(float) for i in range(4)]
    for f, g in itertools.combinations(singles, 2):
        assert measure.expectation(f * g) >= measure.expectation(f) * measure.expectation(g) - 1e-12


def test_ball_table_matches_local_energy():
    lat = TorusLattice(2, 7, rho=1, p=1)
    params = ModelParams(-0.5, 0.3)
    table = _ball_table(lat, (1, 1), single_positive(1, lat.signature))
    assert table.target == 1 << table.members.index((1, 1))
    rng = np.random.default_rng(3)
    taus = rng.choice((-1, 1), size=(len(table.boundary), 3))
    energies = table.energies(taus, params)  # one column per boundary assignment
    for column in range(taus.shape[1]):
        for row in (0, 3, 17, 31, table.target):
            spins = dict(zip(table.boundary, taus[:, column].tolist()))
            for i, v in enumerate(table.members):
                spins[v] = 1 if (row >> i) & 1 else -1
            assert energies[row, column] == pytest.approx(
                local_energy(lat, (1, 1), 1, spins, params), abs=1e-10
            )

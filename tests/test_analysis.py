import itertools
import math

import numpy as np
import pytest

from isingmotif import (
    EXACT_MATCH,
    SUPERSET_MATCH,
    CountDistribution,
    FieldSchedule,
    ModelParams,
    PoissonTarget,
    TorusLattice,
    build_exact,
    count_distribution_exact,
    factorial_moments,
    poisson_limit,
    poisson_target,
    rate_fit,
    ring_equivalence_check,
    stein_chen_bound,
    tv_distance,
)
from isingmotif.errors import (
    DegenerateFit,
    FerromagneticOnly,
    MotifScheduleMismatch,
    NonFiniteLimit,
    NotNormalized,
)
from isingmotif.motifs import LocalConfig, bundled_motif, single_positive

D1 = (1, 1, 1)
D2 = (2, 1, 1)


def brute_force_tv(p: CountDistribution, q: CountDistribution) -> float:
    """sup over all subsets of the union support (oracle for the half-L1 form)."""
    keys = sorted(set(p.support) | set(q.support))
    assert len(keys) <= 14
    best = 0.0
    for r in range(len(keys) + 1):
        for subset in itertools.combinations(keys, r):
            diff = abs(sum(p.pmf(k) for k in subset) - sum(q.pmf(k) for k in subset))
            best = max(best, diff)
    return best


def test_tv_identity_and_point_mass():
    p = CountDistribution({0: 0.25, 1: 0.5, 2: 0.25})
    assert tv_distance(p, p) == 0.0
    lam = 0.8
    point = CountDistribution({0: 1.0})
    assert tv_distance(point, PoissonTarget(lam)) == pytest.approx(1 - math.exp(-lam), abs=1e-12)


def test_tv_matches_sup_definition():
    rng = np.random.default_rng(1)
    for _ in range(10):
        raw_p = rng.dirichlet(np.ones(6))
        raw_q = rng.dirichlet(np.ones(6))
        p = CountDistribution({k: float(v) for k, v in enumerate(raw_p)})
        q = CountDistribution({k: float(v) for k, v in enumerate(raw_q)})
        assert tv_distance(p, q) == pytest.approx(brute_force_tv(p, q), abs=1e-12)


def test_tv_exact_law_vs_poisson_sup_oracle():
    lat = TorusLattice(1, 8, 1, 1)
    motif = bundled_motif("single_plus_d1.motif")
    sched = FieldSchedule(1.0, 1, 1)
    measure = build_exact(lat, sched.params(8, 0.2))
    law = count_distribution_exact(measure, motif, EXACT_MATCH)
    lam = math.exp(-2 * 0.2 * motif.perimeter)
    target = PoissonTarget(lam)
    # truncated Poisson with the tail lumped on one extra point, for the
    # exhaustive subset search; the lump can only enlarge the sup by the tail
    masses, leftover = target.pmf_truncated(at_least=max(law.support))
    kmax = len(masses) - 1
    trunc = CountDistribution(
        {k: float(m) for k, m in enumerate(masses)} | {kmax + 1: float(leftover)}
    )
    oracle = brute_force_tv(law, trunc)
    got = tv_distance(law, target)
    assert got == pytest.approx(oracle, abs=1e-9)
    assert 0.0 <= got <= 1.0


def test_tv_metric_properties():
    rng = np.random.default_rng(2)
    dists = [
        CountDistribution({k: float(v) for k, v in enumerate(rng.dirichlet(np.ones(5)))})
        for _ in range(6)
    ]
    for p, q in itertools.combinations(dists, 2):
        assert tv_distance(p, q) == pytest.approx(tv_distance(q, p), abs=1e-15)
    for p, q, r in itertools.combinations(dists, 3):
        assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12


def test_tv_budget_for_empirical():
    p = CountDistribution.from_samples([0, 0, 1, 2, 1, 0, 0, 1])
    tv, budget = tv_distance(p, PoissonTarget(0.5), with_budget=True)
    assert budget >= math.sqrt(len(p.support) / 8)
    exact = CountDistribution({0: 0.5, 1: 0.375, 2: 0.125})
    _, budget2 = tv_distance(exact, p, with_budget=True)
    assert budget2 >= math.sqrt(3 / 8)


def test_count_distribution_validation():
    with pytest.raises(NotNormalized):
        CountDistribution({0: 0.4, 1: 0.4})
    with pytest.raises(NotNormalized):
        CountDistribution({0: 1.2, 1: -0.2})
    with pytest.raises(ValueError):
        CountDistribution({-1: 0.5, 0: 0.5})


def test_factorial_moments_poisson():
    lam = 1.3
    masses, _ = PoissonTarget(lam).pmf_truncated()
    dist = CountDistribution({k: float(m) for k, m in enumerate(masses)})
    moments = factorial_moments(dist, 4)
    for order, value in enumerate(moments, start=1):
        assert value == pytest.approx(lam**order, rel=1e-6)


def test_factorial_moments_point_mass():
    dist = CountDistribution({3: 1.0})
    assert factorial_moments(dist, 4) == pytest.approx([3.0, 6.0, 6.0, 0.0])


def test_factorial_moments_empirical_vs_exact():
    lat = TorusLattice(1, 12, 1, 1)
    sched = FieldSchedule(1.0, 1, 1)
    measure = build_exact(lat, sched.params(12, 0.3))
    motif = bundled_motif("single_plus_d1.motif")
    exact = count_distribution_exact(measure, motif, EXACT_MATCH)

    rng = np.random.default_rng(99)
    support = np.array(exact.support)
    probs = np.array([exact.pmf(k) for k in support])
    samples = rng.choice(support, size=100_000, p=probs / probs.sum())
    empirical = CountDistribution.from_samples(samples)
    for order in (1, 2, 3):
        m_exact = exact.factorial_moment(order)
        m_emp = empirical.factorial_moment(order)
        # normal-approximation standard error of the sampled falling factorial
        fall = support * 1.0
        for j in range(1, order):
            fall = fall * (support - j)
        se = math.sqrt(max(float(probs @ fall**2) - m_exact**2, 1e-30) / len(samples))
        assert abs(m_emp - m_exact) <= 3 * se + 1e-9


def test_poisson_target_values():
    sched1 = FieldSchedule(c=1.0, k_target=1, d=2)
    assert poisson_target(sched1, 0.0, single_positive(1, D2)).lam == pytest.approx(1.0)
    c, b = 1.7, 0.21
    target = poisson_target(FieldSchedule(c, 1, 2), b, single_positive(1, D2))
    assert target.lam == pytest.approx(c * math.exp(-8 * b))
    domino = LocalConfig(2, frozenset({(0, 0), (1, 0)}), D2)
    target2 = poisson_target(FieldSchedule(2.0, 2, 2), 0.1, domino)
    assert target2.lam == pytest.approx(4 * math.exp(-1.2))


def test_poisson_limit_overflow_is_typed():
    blob = bundled_motif("blob_k10.motif")
    with pytest.raises(NonFiniteLimit):
        poisson_limit(1.0, -20.0, blob)  # exp(40 gamma), gamma = 58


def test_poisson_limit_large_c_in_log_domain():
    # c**k alone overflows a float; the limit itself does not
    blob = bundled_motif("blob_k10.motif")
    c, b = 1e40, 5.0
    with pytest.raises(OverflowError):
        c**blob.k
    lam = poisson_limit(c, b, blob)
    assert math.isfinite(lam)
    assert math.log(lam) == pytest.approx(blob.k * math.log(c) - 2 * b * blob.perimeter,
                                          rel=1e-14)


def test_poisson_target_mismatch():
    with pytest.raises(MotifScheduleMismatch):
        poisson_target(FieldSchedule(1.0, 2, 2), 0.0, single_positive(1, D2))
    with pytest.raises(MotifScheduleMismatch):
        poisson_target(FieldSchedule(1.0, 1, 1), 0.0, single_positive(1, D2))


def test_stein_chen_binomial_closed_form():
    # b = 0, radius-0 positive site: the superset count is Binomial(N, p)
    lat = TorusLattice(1, 10, 1, 1)
    a = -0.9
    measure = build_exact(lat, ModelParams(a, 0.0))
    motif = single_positive(0, D1)
    p_site = math.exp(a) / (math.exp(a) + math.exp(-a))
    n_sites = lat.num_sites
    lam = n_sites * p_site
    expected = (1 - math.exp(-lam)) / lam * (n_sites * p_site**2)
    law = count_distribution_exact(measure, motif, SUPERSET_MATCH)
    assert stein_chen_bound(law, n_sites, 0.0) == pytest.approx(expected, rel=1e-9)


def test_stein_chen_dominates_exact_tv():
    sched = FieldSchedule(1.0, 1, 1)
    motif = bundled_motif("single_plus_d1.motif")
    for n, b in ((8, 0.0), (10, 0.25), (12, 0.5)):
        lat = TorusLattice(1, n, 1, 1)
        measure = build_exact(lat, sched.params(n, b))
        dist = count_distribution_exact(measure, motif, SUPERSET_MATCH)
        bound = stein_chen_bound(dist, lat.num_sites, b)
        tv = tv_distance(dist, PoissonTarget(dist.mean))
        assert bound >= tv >= 0.0
        lam_n = dist.mean
        assert 0.0 < (1 - math.exp(-lam_n)) / lam_n < 1.0


def test_stein_chen_underflowed_mean_is_zero():
    # at a = -400 every configuration but all-minus has probability 0.0: the
    # superset count is the point mass at 0, which is Poisson(0)
    measure = build_exact(TorusLattice(1, 8, 1, 1), ModelParams(-400.0, 0.0))
    motif = bundled_motif("single_plus_d1.motif")
    law = count_distribution_exact(measure, motif, SUPERSET_MATCH)
    assert law.mean == 0.0
    assert stein_chen_bound(law, 8, 0.0) == 0.0


def test_stein_chen_requires_ferromagnet():
    lat = TorusLattice(1, 8, 1, 1)
    measure = build_exact(lat, ModelParams(-0.5, -0.2))
    law = count_distribution_exact(measure, bundled_motif("single_plus_d1.motif"), SUPERSET_MATCH)
    with pytest.raises(FerromagneticOnly):
        stein_chen_bound(law, lat.num_sites, -0.2)


def test_rate_fit_exact_power():
    ns = [8, 16, 32, 64]
    fit = rate_fit(ns, [n**-2.0 for n in ns])
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0)


def test_rate_fit_constant():
    fit = rate_fit([4, 8, 16], [0.7, 0.7, 0.7])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_rate_fit_errors_and_floor():
    with pytest.raises(DegenerateFit):
        rate_fit([4, 8], [1.0, 0.5])
    with pytest.raises(DegenerateFit):
        rate_fit([4, 8, 16], [1.0, 0.0, 0.5])
    with pytest.raises(DegenerateFit):
        rate_fit([4, 8, 16, 32], [1.0, 0.5, 1e-9, 1e-9], error_floor=1e-8)
    fit = rate_fit([4, 8, 16, 32, 64], [1.0, 0.5, 0.25, 1e-9, 1e-9], error_floor=1e-8)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)


def test_clean_motif_mean_below_limit():
    # under the schedule, the exact mean count of a clean motif never exceeds
    # c^k * exp(-2 b gamma), for either sign of b
    for c in (1.0, 1.6):
        sched = FieldSchedule(c, 1, 1)
        for motif in (bundled_motif("single_plus_d1.motif"),
                      single_positive(0, D1).ring()):
            assert motif.clean
            for b in (-0.4, 0.0, 0.6):
                lam = c**motif.k * math.exp(-2 * b * motif.perimeter)
                for n in (8, 12, 16):
                    lat = TorusLattice(1, n, 1, 1)
                    measure = build_exact(lat, sched.params(n, b))
                    dist = count_distribution_exact(measure, motif, EXACT_MATCH)
                    assert dist.mean <= lam + 1e-12


def test_superset_second_moment_approaches_lambda_squared():
    # |M2 of the superset count - lambda^2| shrinks along the n-sequence
    sched = FieldSchedule(1.0, 1, 1)
    motif = bundled_motif("single_plus_d1.motif")
    for b in (0.0, 0.4):
        lam = math.exp(-2 * b * motif.perimeter)
        gaps = []
        for n in (8, 12, 16, 20):
            lat = TorusLattice(1, n, 1, 1)
            measure = build_exact(lat, sched.params(n, b))
            bar = count_distribution_exact(measure, motif, SUPERSET_MATCH)
            gaps.append(abs(bar.factorial_moment(2) - lam**2))
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]


def test_ring_equivalence_shrinks():
    sched = FieldSchedule(1.0, 1, 1)
    motif = bundled_motif("single_site_d1.motif")
    for b in (-0.3, 0.4):
        tvs, gaps = [], []
        for n in (8, 12, 16):
            lat = TorusLattice(1, n, 1, 1)
            measure = build_exact(lat, sched.params(n, b))
            report = ring_equivalence_check(
                count_distribution_exact(measure, motif, EXACT_MATCH),
                count_distribution_exact(measure, motif.ring(), EXACT_MATCH),
            )
            assert report.ring_mean <= report.base_mean + 1e-12
            tvs.append(report.tv)
            gaps.append(report.mean_difference)
        assert tvs[0] > tvs[1] > tvs[2]
        assert gaps[0] > gaps[1] > gaps[2]

import decimal
import itertools
import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from scipy import stats

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
    poisson_limit,
    poisson_target,
    rate_fit,
    ring_equivalence_check,
    stein_chen_bound,
    tv_distance,
)
from isingmotif.distributions import POISSON_TAIL
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
    # Poisson masses on the law's support with the tail lumped on one extra
    # point, for the exhaustive subset search; the law has no mass there, so
    # the lump leaves the sup unchanged
    masses = target.pmf_upto(max(law.support))
    leftover = 1.0 - math.fsum(masses)
    kmax = len(masses) - 1
    trunc = CountDistribution(
        {k: float(m) for k, m in enumerate(masses)} | {kmax + 1: float(leftover)}
    )
    oracle = brute_force_tv(law, trunc)
    got = tv_distance(law, target)
    assert got == pytest.approx(oracle, abs=1e-9)
    assert 0.0 <= got <= 1.0


POISSON_LAMS = (1e-3, 0.5, 3.2, 50.0, 1e4, 1e9)
GAPPED_PMFS = (
    {0: 0.5, 3: 0.25, 7: 0.25},
    {1: 0.125, 40: 0.375, 60: 0.5},
    {2: 0.25, 300: 0.25, 900: 0.5},
    {2: 0.25, 9_000: 0.25, 10_000: 0.25, 20_000: 0.25},
)

# scipy's pmf is exp(k log lam - lgamma(k + 1) - lam), which rounds at the scale
# of k log lam: through the mode of Poisson(1e4) it is off by 1.4e-11 in L1
# against 40-digit masses, where pmf_upto is off by 1e-16 (that pmf is checked
# in test_poisson_masses_and_tv_match_a_40_digit_reference), so the support
# that runs past 1e4 is left out here
@pytest.mark.parametrize("lam, pmf", [
    pytest.param(lam, pmf, id=f"{lam}-pmf{i}")
    for i, (lam, pmf) in enumerate((lam, pmf) for lam in POISSON_LAMS for pmf in GAPPED_PMFS)
    if not (lam == 1e4 and max(pmf) > lam)
])
def test_tv_to_poisson_matches_scipy(lam, pmf):
    # supports with gaps, most of them running past lam; every Poisson mass
    # beyond the support is unmatched, so it enters as the survival function
    law = CountDistribution(pmf)
    kmax = max(law.support)
    k = np.arange(kmax + 1)
    want = 0.5 * (np.abs([law.pmf(i) for i in k] - stats.poisson.pmf(k, lam)).sum()
                  + stats.poisson.sf(kmax, lam))
    assert tv_distance(law, PoissonTarget(lam)) == pytest.approx(want, abs=1e-12)


def poisson_masses_40_digits(lam, kmax):
    """Masses of 0..kmax by p_k = p_{k-1} lam / k in 40-digit decimals."""
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emin = 40, decimal.MIN_EMIN
        lam = Decimal(lam)
        masses = [(-lam).exp()]
        for k in range(1, kmax + 1):
            masses.append(masses[-1] * lam / k)
        return masses


@pytest.mark.parametrize("lam", POISSON_LAMS)
def test_poisson_masses_and_tv_match_a_40_digit_reference(lam):
    # each mass is computed on its own, so none drifts with k or lam: a
    # log-domain recursion drifted by 2e-11 in L1 through the mode of Poisson(1e4)
    want = poisson_masses_40_digits(lam, 20_000)
    got = PoissonTarget(lam).pmf_upto(20_000)
    assert math.fsum(abs(float(Decimal(g) - w)) for g, w in zip(got, want)) < 2e-15
    for pmf in GAPPED_PMFS:
        law = CountDistribution(pmf)
        kmax = max(law.support)
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            tail = 1 - sum(want[:kmax + 1])
            l1 = sum(abs(Decimal(law.pmf(k)) - want[k]) for k in range(kmax + 1)) + tail
        assert tv_distance(law, PoissonTarget(lam)) == pytest.approx(float(l1 / 2), abs=2e-15)


def test_tv_to_huge_poisson_reads_only_the_support():
    # the masses of a Poisson(1e9) up to the mode would be a billion steps
    law = CountDistribution({0: 0.25, 5: 0.5, 64: 0.25})
    tracemalloc.start()
    try:
        tv, budget = tv_distance(law, PoissonTarget(1e9), with_budget=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert tv == 1.0 and budget == POISSON_TAIL


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
    assert exact.is_exact and not p.is_exact
    assert repr(exact) == "CountDistribution(exact, mean=0.625, support=(0, 1, 2))"
    assert repr(p) == "CountDistribution(empirical(m=8), mean=0.625, support=(0, 1, 2))"


def test_count_distribution_validation():
    with pytest.raises(NotNormalized):
        CountDistribution({0: 0.4, 1: 0.4})
    with pytest.raises(NotNormalized):
        CountDistribution({0: 1.2, 1: -0.2})
    with pytest.raises(ValueError):
        CountDistribution({-1: 0.5, 0: 0.5})


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: CountDistribution.from_samples([]), ValueError, "no samples"),
    (lambda: CountDistribution({0: 1.0}).factorial_moment(0), ValueError, "order must be >= 1"),
    (lambda: PoissonTarget(0.0), ValueError, "positive finite"),
    (lambda: PoissonTarget(math.inf), ValueError, "positive finite"),
    (lambda: tv_distance(CountDistribution({0: 1.0}), {0: 1.0}), TypeError, "dict"),
    (lambda: rate_fit([4, 8, 16], [1.0, 0.5]), ValueError, "same length"),
    (lambda: rate_fit([0, 2, 4], [1.0, 0.5, 0.25]), ValueError, "every n must be > 0"),
    (lambda: rate_fit([-1, 2, 4], [1.0, 0.5, 0.25]), ValueError, "every n must be > 0"),
    (lambda: rate_fit([4, 8, 16], [1.0, math.inf, 0.25]), DegenerateFit, "finite"),
    (lambda: rate_fit([4, 8, 16], [1.0, math.nan, 0.25]), DegenerateFit, "finite"),
    (lambda: rate_fit([2, 2, 2], [1.0, 0.5, 0.25]), DegenerateFit, "2 distinct n"),
    (lambda: stein_chen_bound(CountDistribution({0: 0.5, 1: 0.5}), 0, 0.0),
     ValueError, "num_sites"),
    (lambda: stein_chen_bound(CountDistribution({0: 0.5, 1: 0.5}), -3, 0.0),
     ValueError, "num_sites"),
    (lambda: stein_chen_bound(CountDistribution({0: 0.5, 1: 0.5}), 16, math.nan),
     ValueError, "b must be finite"),
])
def test_law_and_fit_inputs_checked(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


def test_samples_must_be_integers():
    # from_samples hands the values to __init__ uncast, which owns the rule
    with pytest.raises(ValueError, match="nonnegative integers"):
        CountDistribution.from_samples([1.5, 2.7])
    with pytest.raises(ValueError, match="nonnegative integers"):
        CountDistribution.from_samples(np.array([-1, 0, 1]))
    law = CountDistribution.from_samples(np.array([2, 0, 2, 2], dtype=np.uint8))
    assert law.support == (0, 2) and law.pmf(2) == 0.75 and law.sample_size == 4
    assert CountDistribution.from_samples([1.0, 3.0]).support == (1, 3)


def test_factorial_moments_poisson():
    lam = 1.3
    masses = PoissonTarget(lam).pmf_upto(20)
    dist = CountDistribution({k: float(m) for k, m in enumerate(masses)})
    for order in range(1, 5):
        assert dist.factorial_moment(order) == pytest.approx(lam**order, rel=1e-6)


def test_factorial_moments_point_mass():
    dist = CountDistribution({3: 1.0})
    moments = [dist.factorial_moment(order) for order in range(1, 5)]
    assert moments == pytest.approx([3.0, 6.0, 6.0, 0.0])


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
            base_law = count_distribution_exact(measure, motif, EXACT_MATCH)
            ring_law = count_distribution_exact(measure, motif.ring(), EXACT_MATCH)
            report = ring_equivalence_check(base_law, ring_law)
            assert ring_law.mean <= base_law.mean + 1e-12
            assert report.mean_difference == abs(base_law.mean - ring_law.mean)
            tvs.append(report.tv)
            gaps.append(report.mean_difference)
        assert tvs[0] > tvs[1] > tvs[2]
        assert gaps[0] > gaps[1] > gaps[2]

"""Acceptance suite.

One test per criterion; each prints a single line

    ACCEPTANCE <id>: PASS|FAIL (<elapsed>) <detail>

before asserting, so the outcome of every criterion is visible in one place
(run with ``pytest tests/test_acceptance.py -v -s``).  Criteria 2 and up are
compute-heavy; the whole module takes about two minutes on 2 vCPUs.
"""

import itertools
import math
import time

import numpy as np
import pytest

import isingmotif as im
from isingmotif import (
    EXACT_MATCH,
    SUPERSET_MATCH,
    CountDistribution,
    FieldSchedule,
    ModelParams,
    PoissonTarget,
    SamplerSpec,
    TorusLattice,
    build_exact,
    cftp_batch,
    check_conditional_sandwich,
    count_distribution_exact,
    rate_fit,
    ring_equivalence_check,
    sample_with_params,
    stein_chen_bound,
    threshold_field,
    tv_distance,
)
from isingmotif.counting import count_samples
from isingmotif.motifs import LocalConfig, bundled_motif
from isingmotif.sampler import _colour_classes, _heat_bath_thresholds, _sweep_heat_bath


class Criterion:
    """Collects leg failures and prints the one-line verdict."""

    def __init__(self, cid: str):
        self.cid = cid
        self.failures: list[str] = []
        self.start = time.perf_counter()

    def check(self, ok: bool, detail: str) -> None:
        if not ok:
            self.failures.append(detail)

    def finish(self, detail: str = "", budget_s: float | None = None) -> None:
        elapsed = time.perf_counter() - self.start
        if budget_s is not None and elapsed > budget_s:
            self.failures.append(f"runtime {elapsed:.1f}s over budget {budget_s:.0f}s")
        verdict = "PASS" if not self.failures else "FAIL"
        line = f"ACCEPTANCE {self.cid}: {verdict} ({elapsed:.1f}s)"
        if detail:
            line += f" {detail}"
        if self.failures:
            line += " :: " + "; ".join(self.failures)
        print(line)
        assert not self.failures, line


def strictly_decreasing(xs):
    return all(a > b for a, b in zip(xs, xs[1:]))


def strictly_increasing(xs):
    return all(a < b for a, b in zip(xs, xs[1:]))


# ---------------------------------------------------------------------------
# Criterion 1: pinned motif constants
# ---------------------------------------------------------------------------


def test_criterion_1_pinned_constants():
    crit = Criterion("1")
    single = bundled_motif("single_plus_d2.motif")
    crit.check(single.k == 1, f"single-positive k={single.k} != 1")
    crit.check(single.perimeter == 4, f"single-positive gamma={single.perimeter} != 4")
    blob = bundled_motif("blob_k10.motif")
    crit.check(blob.k == 10, f"bundled 10-vertex motif k={blob.k} != 10")
    crit.check(blob.perimeter == 58, f"bundled 10-vertex motif gamma={blob.perimeter} != 58")
    crit.check(blob.clean, "bundled 10-vertex motif must be clean")
    crit.finish(detail="k=1/gamma=4 and k=10/gamma=58", budget_s=1.0)


# ---------------------------------------------------------------------------
# Criterion 2: sampler laws against the exact oracle
# ---------------------------------------------------------------------------

GRID_LATTICES = [(1, 4), (1, 8), (1, 12), (1, 16), (2, 4)]
GRID_AB = [(a, b) for a in (-1.0, -0.3, 0.0) for b in (-0.5, 0.0, 0.5)]


def _grid_motif(d: int) -> LocalConfig:
    return bundled_motif("single_plus_d1.motif" if d == 1 else "single_plus_d2.motif")


@pytest.mark.slow
def test_criterion_2_sampler_vs_exact_oracle():
    crit = Criterion("2")
    worst = (0.0, "")
    for (d, n), (a, b) in itertools.product(GRID_LATTICES, GRID_AB):
        lattice = TorusLattice(d, n, 1, 1)
        params = ModelParams(a, b)
        motif = _grid_motif(d)
        exact_law = count_distribution_exact(build_exact(lattice, params), motif, EXACT_MATCH)
        seed = 2026_000 + 1000 * d + 10 * n + GRID_AB.index((a, b))

        spec = SamplerSpec(kind="heat_bath", burn_in_sweeps=500, thinning_sweeps=2, seed=seed)
        batch = sample_with_params(lattice, params, spec, count=1_000_000)
        counts = count_samples(lattice, batch.spins, motif, EXACT_MATCH)
        tv_hb = tv_distance(CountDistribution.from_samples(counts), exact_law)
        label = f"heat_bath d={d} n={n} a={a} b={b} tv={tv_hb:.4f}"
        crit.check(tv_hb < 0.01, label)
        if tv_hb > worst[0]:
            worst = (tv_hb, label)

        if b >= 0:
            draws = cftp_batch(lattice, params, seed=seed + 7, count=100_000)
            counts = count_samples(lattice, draws, motif, EXACT_MATCH)
            tv_cftp = tv_distance(CountDistribution.from_samples(counts), exact_law)
            label = f"cftp d={d} n={n} a={a} b={b} tv={tv_cftp:.4f}"
            crit.check(tv_cftp < 0.01, label)
            if tv_cftp > worst[0]:
                worst = (tv_cftp, label)
    crit.finish(detail=f"75 cells, worst {worst[1]}")


# ---------------------------------------------------------------------------
# Criterion 3: exhaustive conditional-probability bound
# ---------------------------------------------------------------------------


# The 0.9 threshold is the one specified.  The list runs past n = 64 because
# for d = 1, b = -0.5 the exact worst ratio first exceeds 0.9 at n = 203 (the
# closed form is in the README); every other (d, b) is above 0.9 by n = 64.
SANDWICH_NS = (8, 16, 32, 64, 128, 256)


def test_criterion_3_conditional_upper_bound():
    crit = Criterion("3")
    worst = (math.inf, "")
    for d, motif_name in ((1, "single_plus_d1.motif"), (2, "single_plus_d2.motif")):
        motif = bundled_motif(motif_name)
        schedule = FieldSchedule(c=1.0, k_target=1, d=d)
        for b in (-0.5, 0.0, 0.5):
            ratios = []
            for n in SANDWICH_NS:
                lattice = TorusLattice(d, n, 1, 1)
                report = check_conditional_sandwich(lattice, motif, schedule, b)
                crit.check(
                    report.upper_bound_holds,
                    f"upper bound violated d={d} b={b} n={n} excess={report.max_excess:.3e}",
                )
                ratios.append(report.worst_ratio)
            crit.check(
                all(x <= y for x, y in zip(ratios, ratios[1:])),
                f"worst ratio not nondecreasing d={d} b={b}: {ratios}",
            )
            crit.check(
                ratios[-1] > 0.9,
                f"final worst ratio d={d} b={b} n={SANDWICH_NS[-1]} is {ratios[-1]:.4f} <= 0.9",
            )
            worst = min(worst, (ratios[-1], f"d={d} b={b}"))
            # each extra positive costs exp(2a) = c * n**(-d/k), so over
            # n = 64..256 the deficit 1/ratio - 1 must decay at that rate
            fit = rate_fit(SANDWICH_NS[-3:], [1.0 / r - 1.0 for r in ratios[-3:]])
            expected = -d / schedule.k_target
            crit.check(
                abs(fit.slope - expected) <= 0.1,
                f"deficit slope d={d} b={b} is {fit.slope:.3f}, not within 0.1 of {expected:.0f}",
            )
    crit.finish(
        detail=f"worst ratio at n={SANDWICH_NS[-1]} is {worst[0]:.4f} ({worst[1]})",
        budget_s=10.0,
    )


# ---------------------------------------------------------------------------
# Criteria 4 and 5: exact Poisson pipeline and the Stein-Chen bound
# ---------------------------------------------------------------------------

PIPELINE_NS = [8, 10, 12, 14, 16, 18, 20]
PIPELINE_BS = [-0.3, 0.0, 0.4]


@pytest.fixture(scope="module")
def exact_pipeline():
    """Exact distributions for the d=1 single-positive motif across (b, n)."""
    motif = bundled_motif("single_plus_d1.motif")
    schedule = FieldSchedule(c=1.0, k_target=1, d=1)
    out = {}
    for b in PIPELINE_BS:
        lam = im.poisson_limit(1.0, b, motif)
        per_n = []
        for n in PIPELINE_NS:
            lattice = TorusLattice(1, n, 1, 1)
            measure = build_exact(lattice, schedule.params(n, b))
            law = count_distribution_exact(measure, motif, EXACT_MATCH)
            bar = count_distribution_exact(measure, motif, SUPERSET_MATCH)
            entry = {
                "n": n,
                "law": law,
                "tv": tv_distance(law, PoissonTarget(lam)),
                "lambda_n": bar.mean,
                "tv_bar": tv_distance(bar, PoissonTarget(bar.mean)),
                "bound": stein_chen_bound(bar, lattice.num_sites, b) if b >= 0 else None,
            }
            per_n.append(entry)
        out[b] = {"lambda": lam, "rows": per_n}
    return out


def transfer_matrix_law(n: int, params: ModelParams, motif: LocalConfig) -> CountDistribution:
    """Exact count law of a d=1, radius-1 motif on the n-ring (Kramers-Wannier).

    The state is the spin pair (s[i-1], s[i]); the step to (s[i], s[i+1])
    carries the weight exp(a s[i+1] + b s[i] s[i+1]), times z when
    (s[i-1], s[i], s[i+1]) is the motif's pattern.  The count law is the
    coefficient list of trace(T(z)^n), normalised.  Every entry and every sum
    is nonnegative and the product is rescaled after each step, so neither
    cancellation nor overflow enters at any n.
    """
    if motif.signature[:2] != (1, 1) or motif.radius != 1:
        raise ValueError("the transfer matrix covers d=1, rho=1, radius-1 motifs only")
    pattern = tuple(1 if (off,) in motif.positives else -1 for off in (-1, 0, 1))
    states = list(itertools.product((-1, 1), repeat=2))
    plain, marked = np.zeros((4, 4)), np.zeros((4, 4))
    for i, (x, y) in enumerate(states):
        for z in (-1, 1):
            step = marked if (x, y, z) == pattern else plain
            step[i, states.index((y, z))] = math.exp(params.a * z + params.b * y * z)
    # power[m] is the z**m coefficient of T(z)**steps, up to a common factor
    power = np.zeros((n + 1, 4, 4))
    power[0] = np.eye(4)
    for _ in range(n):
        nxt = power @ plain
        nxt[1:] += power[:-1] @ marked
        power = nxt / nxt.max()
    pmf = np.trace(power, axis1=1, axis2=2)
    return CountDistribution(dict(enumerate(pmf / pmf.sum())))


# The 0.05 threshold is the one specified.  Enumeration stops at n = 20; the
# transfer matrix carries the exact law on to n = 22 and n = 136, where the TV
# first drops below 0.05 for b = 0 and b = -0.3 (see the README).
ORACLE_NS = [22, 32, 48, 64, 96, 128, 136]


@pytest.mark.slow
def test_criterion_4_poisson_limit_at_desk_scale(exact_pipeline):
    crit = Criterion("4")
    motif = bundled_motif("single_plus_d1.motif")
    schedule = FieldSchedule(c=1.0, k_target=1, d=1)
    ns = PIPELINE_NS + ORACLE_NS
    finals = []
    for b in PIPELINE_BS:
        lam = exact_pipeline[b]["lambda"]
        rows = exact_pipeline[b]["rows"]
        for row in rows:
            oracle = transfer_matrix_law(row["n"], schedule.params(row["n"], b), motif)
            support = set(oracle.support) | set(row["law"].support)
            gap = max(abs(oracle.pmf(k) - row["law"].pmf(k)) for k in support)
            crit.check(
                gap <= 1e-11,
                f"b={b} n={row['n']}: transfer matrix differs from enumeration by {gap:.2e}",
            )
        tvs = [row["tv"] for row in rows] + [
            tv_distance(transfer_matrix_law(n, schedule.params(n, b), motif), PoissonTarget(lam))
            for n in ORACLE_NS
        ]
        crit.check(
            strictly_decreasing(tvs),
            f"b={b}: TV to Poisson({lam:.3f}) not strictly decreasing: "
            + str([round(v, 4) for v in tvs]),
        )
        crit.check(
            tvs[-1] < 0.05,
            f"b={b}: TV at n={ns[-1]} is {tvs[-1]:.4f}, not < 0.05",
        )
        fit = rate_fit(ns, tvs)
        crit.check(
            -1.5 <= fit.slope <= -0.5,
            f"b={b}: log-log slope {fit.slope:.3f} outside [-1.5, -0.5]",
        )
        finals.append(f"b={b} {tvs[-1]:.4f}")
    crit.finish(detail=f"TV at n={ns[-1]}: " + ", ".join(finals), budget_s=300.0)


@pytest.mark.slow
def test_criterion_5_stein_chen_bound(exact_pipeline):
    crit = Criterion("5")
    for b in (0.0, 0.4):
        lam = exact_pipeline[b]["lambda"]
        gaps = []
        for row in exact_pipeline[b]["rows"]:
            margin = row["bound"] - row["tv_bar"]
            crit.check(
                margin >= 0.0,
                f"b={b} n={row['n']}: bound {row['bound']:.5f} < tv {row['tv_bar']:.5f}",
            )
            if row["n"] >= 12:
                gaps.append(abs(row["lambda_n"] - lam))
        crit.check(
            strictly_decreasing(gaps),
            f"b={b}: |lambda_n - lambda| not decreasing for n >= 12: "
            + str([round(g, 5) for g in gaps]),
        )
    crit.finish()


# ---------------------------------------------------------------------------
# Criterion 6: FKG inequality with power check
# ---------------------------------------------------------------------------


def _random_increasing_indicator(lattice, rng):
    """Values over all bitmasks of a random superset-mode site indicator."""
    radius = int(rng.integers(0, 2))
    sig = lattice.signature
    sites = LocalConfig(radius, frozenset(), sig).ball_sites
    chosen = rng.choice(len(sites), size=int(rng.integers(1, len(sites) + 1)), replace=False)
    positives = frozenset(sites[i] for i in chosen)
    center = lattice.vertex_at(int(rng.integers(lattice.num_sites)))
    want = np.uint64(
        sum(1 << lattice.site_index(lattice.add(center, off)) for off in positives)
    )
    masks = np.arange(1 << lattice.num_sites, dtype=np.uint64)
    return ((masks & want) == want).astype(np.float64)


def test_criterion_6_fkg_inequality():
    crit = Criterion("6")
    rng = np.random.default_rng(60_2026)
    for d, n in ((1, 10), (2, 3)):
        lattice = TorusLattice(d, n, 1, 1)
        for b in (0.0, 0.25, 0.5):
            measure = build_exact(lattice, ModelParams(0.0, b))
            violations = 0
            for _ in range(200):
                f = _random_increasing_indicator(lattice, rng)
                g = _random_increasing_indicator(lattice, rng)
                lhs = measure.expectation(f * g)
                rhs = measure.expectation(f) * measure.expectation(g)
                if lhs < rhs - 1e-12:
                    violations += 1
            crit.check(
                violations == 0,
                f"d={d} n={n} b={b}: {violations} FKG violations for increasing pairs",
            )
        # power check: the antiferromagnet must violate for at least one pair
        measure = build_exact(lattice, ModelParams(0.0, -0.5))
        violations = 0
        for _ in range(200):
            f = _random_increasing_indicator(lattice, rng)
            g = _random_increasing_indicator(lattice, rng)
            if measure.expectation(f * g) < measure.expectation(f) * measure.expectation(g) - 1e-12:
                violations += 1
        crit.check(
            violations >= 1,
            f"d={d} n={n} b=-0.5: expected at least one violating pair, got none",
        )
    crit.finish(budget_s=60.0)


# ---------------------------------------------------------------------------
# Criterion 7: threshold behavior
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_7_threshold_behavior():
    crit = Criterion("7")
    motif = bundled_motif("single_site_d1.motif")  # k = 1
    ns = list(range(8, 21, 2))
    for side, super_side, b, final_ok, final_txt in (
        ("sub", False, 0.5, lambda v: v < 0.05, "< 0.05"),
        ("super", True, -0.5, lambda v: v > 5.0, "> 5"),
    ):
        means = []
        for n in ns:
            a = threshold_field(n, d=1, k=1, epsilon=0.5, super_threshold=super_side)
            lattice = TorusLattice(1, n, 1, 1)
            law = count_distribution_exact(
                build_exact(lattice, ModelParams(a, b)), motif, EXACT_MATCH
            )
            means.append(law.mean)
        shaped = strictly_decreasing(means) if side == "sub" else strictly_increasing(means)
        crit.check(shaped, f"{side}-threshold means not monotone: {[round(m,4) for m in means]}")
        crit.check(
            final_ok(means[-1]),
            f"{side}-threshold final mean {means[-1]:.4f} not {final_txt}",
        )
    crit.finish(budget_s=120.0)


# ---------------------------------------------------------------------------
# Criterion 8: ring equivalence
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_8_ring_equivalence():
    crit = Criterion("8")
    motif = bundled_motif("single_site_d1.motif")
    schedule = FieldSchedule(c=1.0, k_target=1, d=1)
    for b in (-0.3, 0.4):
        tvs, gaps = [], []
        for n in range(8, 19):
            lattice = TorusLattice(1, n, 1, 1)
            measure = build_exact(lattice, schedule.params(n, b))
            report = ring_equivalence_check(
                count_distribution_exact(measure, motif, EXACT_MATCH),
                count_distribution_exact(measure, motif.ring(), EXACT_MATCH),
            )
            tvs.append(report.tv)
            gaps.append(report.mean_difference)
        crit.check(
            strictly_decreasing(tvs),
            f"b={b}: ring TV not decreasing: {[round(v,5) for v in tvs]}",
        )
        crit.check(
            strictly_decreasing(gaps),
            f"b={b}: ring mean gap not decreasing: {[round(v,5) for v in gaps]}",
        )
    crit.finish(budget_s=120.0)


# ---------------------------------------------------------------------------
# Criterion 9: reversibility and monotonicity suites
# ---------------------------------------------------------------------------


def _neighbor_table(lattice) -> np.ndarray:
    """(sites, neighbor_count) site indices, from the lattice's own neighbor query."""
    return np.array([
        [lattice.site_index(w) for w in lattice.neighbors(lattice.vertex_at(x))]
        for x in range(lattice.num_sites)
    ])


def _detailed_balance_heat_bath(lattice, params) -> float:
    """Worst absolute detailed-balance residual over all single-site updates."""
    measure = build_exact(lattice, params)
    probs = measure.probabilities()
    n_sites = lattice.num_sites
    masks = np.arange(1 << n_sites, dtype=np.uint64)
    spins = (2 * ((masks[:, None] >> np.arange(n_sites, dtype=np.uint64)) & np.uint64(1)).astype(
        np.int64
    ) - 1)
    nbr = _neighbor_table(lattice)
    worst = 0.0
    for x in range(n_sites):
        h = params.a + params.b * spins[:, nbr[x]].sum(axis=1)
        p_plus = 1.0 / (1.0 + np.exp(-2.0 * h))
        down = np.flatnonzero(spins[:, x] == -1)
        up = down | (1 << x)
        resid = np.abs(probs[down] * p_plus[down] - probs[up] * (1.0 - p_plus[up]))
        worst = max(worst, float(resid.max()))
    return worst


def _detailed_balance_metropolis(lattice, params) -> float:
    measure = build_exact(lattice, params)
    probs = measure.probabilities()
    n_sites = lattice.num_sites
    masks = np.arange(1 << n_sites, dtype=np.uint64)
    spins = (2 * ((masks[:, None] >> np.arange(n_sites, dtype=np.uint64)) & np.uint64(1)).astype(
        np.int64
    ) - 1)
    nbr = _neighbor_table(lattice)
    worst = 0.0
    for x in range(n_sites):
        delta = -2.0 * spins[:, x] * (params.a + params.b * spins[:, nbr[x]].sum(axis=1))
        p_flip = np.exp(np.minimum(delta, 0.0))
        flipped = masks ^ np.uint64(1 << x)
        resid = np.abs(probs[masks] * p_flip - probs[flipped] * p_flip[flipped])
        worst = max(worst, float(resid.max()))
    return worst


def test_criterion_9_reversibility_and_monotonicity():
    crit = Criterion("9")
    cases = [
        (TorusLattice(1, 12, 1, 1), ModelParams(-0.6, 0.3)),
        (TorusLattice(1, 12, 1, 1), ModelParams(0.2, -0.4)),
        (TorusLattice(2, 3, 1, 1), ModelParams(0.0, 0.5)),
        (TorusLattice(2, 3, 1, 1), ModelParams(-0.3, -0.5)),
    ]
    for lattice, params in cases:
        hb = _detailed_balance_heat_bath(lattice, params)
        mp = _detailed_balance_metropolis(lattice, params)
        tag = f"d={lattice.d} n={lattice.n} a={params.a} b={params.b}"
        crit.check(hb <= 1e-10, f"heat-bath detailed balance residual {hb:.2e} ({tag})")
        crit.check(mp <= 1e-10, f"metropolis detailed balance residual {mp:.2e} ({tag})")

    # monotonicity of the shared-uniform heat-bath sweep for b >= 0
    rng = np.random.default_rng(90_2026)
    for lattice, params in (
        (TorusLattice(1, 12, 1, 1), ModelParams(-0.4, 0.6)),
        (TorusLattice(2, 4, 1, 1), ModelParams(0.1, 0.35)),
    ):
        sites = lattice.num_sites
        classes = _colour_classes(lattice).classes
        thresholds = _heat_bath_thresholds(params.a, params.b, classes[0][1].shape[0])
        bad = 0
        for _ in range(300):
            low = rng.choice((-1, 1), size=(sites, 1)).astype(np.int8)
            high = np.where(rng.random((sites, 1)) < 0.4, 1, low).astype(np.int8)
            # the sweep reads uint8 {0, 1} spins and the words w = u 2**53
            words = (rng.random((sites, 1)) * 2.0**53).astype(np.uint64)
            low2, high2 = (low > 0).astype(np.uint8), (high > 0).astype(np.uint8)
            _sweep_heat_bath(low2, classes, thresholds, words)
            _sweep_heat_bath(high2, classes, thresholds, words)
            if not np.all(low2 <= high2):
                bad += 1
        crit.check(bad == 0, f"{bad}/300 order-breaking sweeps (d={lattice.d})")
    crit.finish(budget_s=60.0)

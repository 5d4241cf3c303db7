"""Ising model on a lattice torus: exact Gibbs measures, samplers, and
motif-count Poisson diagnostics."""

from . import errors
from .analysis import (
    PoissonTarget,
    RateFit,
    RingCheckReport,
    factorial_moments,
    poisson_limit,
    poisson_target,
    rate_fit,
    ring_equivalence_check,
    stein_chen_bound,
    tv_distance,
)
from .counting import (
    EXACT_MATCH,
    SUPERSET_MATCH,
    count,
    count_all_masks,
    count_distribution_exact,
    count_samples,
    indicator,
    site_match_probabilities,
)
from .distributions import CountDistribution
from .exact import (
    ExactMeasure,
    FieldSchedule,
    ModelParams,
    SandwichReport,
    SpinConfig,
    build_exact,
    check_conditional_sandwich,
    conditional_motif_probability,
    hamiltonian,
    local_energy,
    threshold_field,
)
from .lattice import INFINITY, Ball, TorusLattice, Vertex
from .motifs import (
    LocalConfig,
    bundled_motif,
    enumerate_exceeding,
    enumerate_superset_family,
    load_motif,
    null_config,
    parse_motif_text,
    save_motif,
    single_positive,
)
from .sampler import (
    SampleBatch,
    SamplerSpec,
    cftp_batch,
    load_spin_config,
    sample_with_params,
    save_spin_config,
)

__version__ = "0.1.0"

"""Fixed-size maximum-entropy sampling designs, design-based empirical
processes, and uniform confidence bands for the population CDF."""

from .calibration import (
    CalibrationError,
    CanonicalPoissonParams,
    InclusionProbabilities,
    PopulationFrame,
    canonicalize_poisson,
    cps_inclusion_from_poisson,
    pips_probabilities,
    poisson_from_cps_inclusion,
    solve_truncation_constant,
)
from .inference import (
    BandStatistics,
    LimitCovariance,
    QuantileEstimate,
    band_pipeline,
    estimate_cov_hajek,
    estimate_cov_ht,
    limit_cov_hajek,
    limit_cov_ht,
    simulate_sup_norms,
    sup_quantile,
)
from .oracle import (
    DesignDistribution,
    empirical_cps_distribution,
    enumerate_cps_distribution,
    enumerate_poisson_distribution,
    exact_design_moments,
    exact_inclusion_orders,
    total_variation,
)
from .processes import hajek_evaluate, htep_evaluate
from .samplers import (
    RngStream,
    SampleIndicators,
    SamplingError,
    cps_sample_rejection_batch,
    cps_sample_sequential,
)
from .simulate import (
    CoverageReport,
    ReportCell,
    SimConfig,
    format_report,
    generate_population,
    run_experiment,
    run_replication,
)

__version__ = "0.1.0"

__all__ = [
    "BandStatistics",
    "CalibrationError",
    "CanonicalPoissonParams",
    "CoverageReport",
    "DesignDistribution",
    "InclusionProbabilities",
    "LimitCovariance",
    "PopulationFrame",
    "QuantileEstimate",
    "ReportCell",
    "RngStream",
    "SampleIndicators",
    "SamplingError",
    "SimConfig",
    "band_pipeline",
    "canonicalize_poisson",
    "cps_inclusion_from_poisson",
    "cps_sample_rejection_batch",
    "cps_sample_sequential",
    "empirical_cps_distribution",
    "enumerate_cps_distribution",
    "enumerate_poisson_distribution",
    "estimate_cov_hajek",
    "estimate_cov_ht",
    "exact_design_moments",
    "exact_inclusion_orders",
    "format_report",
    "generate_population",
    "hajek_evaluate",
    "htep_evaluate",
    "limit_cov_hajek",
    "limit_cov_ht",
    "pips_probabilities",
    "poisson_from_cps_inclusion",
    "run_experiment",
    "run_replication",
    "simulate_sup_norms",
    "solve_truncation_constant",
    "sup_quantile",
    "total_variation",
]

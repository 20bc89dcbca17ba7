"""Fixed-size maximum-entropy sampling designs, design-based empirical
processes, and uniform confidence bands for the population CDF.

The brute-force oracle that the tests check the pipeline against is
``cpsband.oracle``; the package itself does not import it.
"""

from .calibration import (
    CalibrationError,
    CanonicalPoissonParams,
    InclusionProbabilities,
    PopulationFrame,
    cps_inclusion_from_poisson,
    pips_probabilities,
    poisson_from_cps_inclusion,
)
from .inference import (
    BandStatistics,
    band_pipeline,
    simulate_sup_norms,
    sup_quantile,
)
from .processes import cdf_estimates
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
    "InclusionProbabilities",
    "PopulationFrame",
    "ReportCell",
    "RngStream",
    "SampleIndicators",
    "SamplingError",
    "SimConfig",
    "band_pipeline",
    "cdf_estimates",
    "cps_inclusion_from_poisson",
    "cps_sample_rejection_batch",
    "cps_sample_sequential",
    "format_report",
    "generate_population",
    "pips_probabilities",
    "poisson_from_cps_inclusion",
    "run_experiment",
    "run_replication",
    "simulate_sup_norms",
    "sup_quantile",
]

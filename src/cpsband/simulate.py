"""Coverage experiment for uniform CDF confidence bands.

Each replication generates a fresh population from a heteroscedastic
lognormal size model, calibrates a fixed-size design, draws one sample,
and checks whether the true population CDF stays inside the simulated
bands around the Horvitz-Thompson and Hájek CDF estimators.  The design
either spreads inclusion evenly across units ("equal") or follows the
auxiliary sizes ("proportional").  Replications are independent and own
substreams keyed by their index, so reports are identical no matter how
many workers run them.
"""

from __future__ import annotations

import io
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .calibration import (
    PopulationFrame,
    pips_probabilities,
    poisson_from_cps_inclusion,
)
from .inference import BandStatistics, band_pipeline
from .samplers import RngStream, cps_sample_sequential

__all__ = [
    "CoverageReport",
    "ReportCell",
    "SimConfig",
    "format_report",
    "generate_population",
    "run_experiment",
    "run_replication",
]


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one coverage experiment.

    ``design`` picks the calibration size variable: "equal" hands the
    calibrator a constant size, so every unit gets inclusion probability
    n/N, while "proportional" calibrates on the auxiliary x, tilting
    inclusion toward large units.  Equal inclusion is the default; the
    reference coverage and width figures were produced under it.  One
    sampler draws every design: selection sampling when the free p are
    equal, block rejection otherwise.  ``sampler="sequential"`` (named
    in the report header and CSV) and the name ``cps_sample_sequential``
    stay only because the ``perfbench`` workloads pass and call them.
    """

    population_size: int
    sampling_fraction: float
    replications: int
    levels: tuple[float, ...] = (0.90, 0.95, 0.99)
    quantile_draws: int = 1000
    master_seed: int = 0
    sampler: Literal["sequential"] = "sequential"
    design: Literal["equal", "proportional"] = "equal"
    threads: int = 1

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if not 0.0 < self.sampling_fraction <= 1.0:
            raise ValueError("sampling_fraction must lie in (0, 1]")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not all(0.0 < g < 1.0 for g in self.levels):
            raise ValueError("levels must lie in (0, 1)")
        if self.quantile_draws < 100:
            raise ValueError("quantile_draws must be at least 100")
        if self.sampler != "sequential":
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.design not in ("equal", "proportional"):
            raise ValueError(f"unknown design {self.design!r}")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        object.__setattr__(self, "levels", tuple(float(g) for g in self.levels))

    @property
    def sample_size(self) -> int:
        return max(1, round(self.sampling_fraction * self.population_size))


@dataclass(frozen=True)
class ReportCell:
    """Aggregate for one (estimator, level) pair."""

    estimator: Literal["HT", "HAJEK"]
    level: float
    coverage: float
    avg_width: float
    max_width: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError("coverage must lie in [0, 1]")
        if self.max_width < self.avg_width:
            raise ValueError("max width cannot be below the average width")


@dataclass(frozen=True)
class CoverageReport:
    """Coverage and band-width aggregates over all replications."""

    config: SimConfig
    cells: tuple[ReportCell, ...]
    runtime_seconds: float = field(compare=False)


def generate_population(n_units: int, rng: RngStream) -> PopulationFrame:
    """Sizes X lognormal with ln X ~ N(0,1); outcomes Y = X + U with
    U | X ~ N(0, X²)."""
    if n_units < 2:
        raise ValueError("population must have at least 2 units")
    gen = rng.generator()
    x = gen.lognormal(mean=0.0, sigma=1.0, size=n_units)
    y = x + gen.normal(loc=0.0, scale=x)
    return PopulationFrame(y=y, x=x)


def run_replication(
    config: SimConfig,
    rep_index: int,
    population: PopulationFrame | None = None,
) -> BandStatistics:
    """One full pass: population, calibration, sample, then the band
    pipeline at every level of the config."""
    rng = RngStream(config.master_seed).substream(rep_index)
    if population is None:
        population = generate_population(config.population_size, rng.substream(0))
    n = config.sample_size
    if config.design == "proportional":
        sizes = population.x
    else:
        sizes = np.ones(config.population_size)
    incl = pips_probabilities(sizes, n)
    params = poisson_from_cps_inclusion(incl)
    sample = cps_sample_sequential(params, rng.substream(1))
    return band_pipeline(
        population, incl, sample, config.levels, config.quantile_draws,
        rng.substream(2),
    )


def _replication_task(args: tuple[SimConfig, int]) -> BandStatistics:
    config, rep_index = args
    try:
        return run_replication(config, rep_index)
    except Exception as exc:
        raise RuntimeError(
            f"replication {rep_index} (seed {config.master_seed}) failed: {exc}"
        ) from exc


def run_experiment(config: SimConfig) -> CoverageReport:
    """All replications, aggregated; deterministic for a fixed seed no
    matter how many worker processes share the load."""
    started = time.perf_counter()
    tasks = [(config, rep) for rep in range(config.replications)]
    if config.threads == 1:
        records = [_replication_task(t) for t in tasks]
    else:
        chunk = max(1, config.replications // (4 * config.threads))
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            records = list(pool.map(_replication_task, tasks, chunksize=chunk))

    scale = 2.0 / np.sqrt(config.population_size)
    cells = []
    for estimator in ("HT", "HAJEK"):
        for j, level in enumerate(config.levels):
            flags = [r.covered(estimator, j) for r in records]
            widths = np.array([r.quantile(estimator, j).q_hat for r in records]) * scale
            cells.append(
                ReportCell(
                    estimator=estimator,
                    level=level,
                    coverage=float(np.mean(flags)),
                    avg_width=float(widths.mean()),
                    max_width=float(widths.max()),
                )
            )
    return CoverageReport(
        config=config,
        cells=tuple(cells),
        runtime_seconds=time.perf_counter() - started,
    )


def format_report(report: CoverageReport) -> tuple[str, str]:
    """Human-readable table plus machine CSV.

    Runtime is deliberately left out of both forms so that reports from
    runs with different worker counts compare byte for byte.
    """
    cfg = report.config
    text = io.StringIO()
    text.write(
        "coverage experiment: N={n} alpha={a:g} n={m} B={b} B'={bp} "
        "design={d} sampler={s} seed={seed}\n".format(
            n=cfg.population_size,
            a=cfg.sampling_fraction,
            m=cfg.sample_size,
            b=cfg.replications,
            bp=cfg.quantile_draws,
            d=cfg.design,
            s=cfg.sampler,
            seed=cfg.master_seed,
        )
    )
    header = "estimator" + "".join(
        f"  level={g:g}: coverage (avg width; max width)" for g in cfg.levels
    )
    text.write(header + "\n")
    if report.cells:
        for estimator in ("HT", "HAJEK"):
            row = [f"{estimator:<9}"]
            for cell in report.cells:
                if cell.estimator != estimator:
                    continue
                row.append(
                    f"  {cell.coverage:.3f} "
                    f"({cell.avg_width:.4f}; {cell.max_width:.4f})"
                )
            text.write("".join(row) + "\n")

    csv = io.StringIO()
    csv.write(
        "population_size,sampling_fraction,sample_size,replications,"
        "quantile_draws,master_seed,design,sampler,estimator,level,"
        "coverage,avg_width,max_width\n"
    )
    for cell in report.cells:
        csv.write(
            f"{cfg.population_size},{cfg.sampling_fraction:g},{cfg.sample_size},"
            f"{cfg.replications},{cfg.quantile_draws},{cfg.master_seed},"
            f"{cfg.design},{cfg.sampler},{cell.estimator},{cell.level:g},"
            f"{cell.coverage:.6f},{cell.avg_width:.6f},{cell.max_width:.6f}\n"
        )
    return text.getvalue(), csv.getvalue()

"""Coverage-experiment harness: determinism, aggregation, reporting."""

from __future__ import annotations

import csv
import io

import numpy as np
import pytest

from cpsband import (
    RngStream,
    SimConfig,
    format_report,
    generate_population,
    run_experiment,
    run_replication,
)
from cpsband.simulate import ReportCell

from helpers import binomial_central_interval

SMALL = SimConfig(
    population_size=80,
    sampling_fraction=0.15,
    replications=12,
    quantile_draws=300,
    master_seed=90,
)


def test_reports_are_identical_across_worker_counts():
    single = format_report(run_experiment(SMALL))
    multi = format_report(
        run_experiment(
            SimConfig(
                **{**SMALL.__dict__, "threads": 2}
            )
        )
    )
    assert single == multi


def test_census_replication_always_covers():
    config = SimConfig(
        population_size=30,
        sampling_fraction=1.0,
        replications=1,
        quantile_draws=300,
        master_seed=4,
    )
    report = run_experiment(config)
    for cell in report.cells:
        assert cell.coverage == 1.0
        assert cell.avg_width == 0.0


def test_replications_use_disjoint_substreams():
    a = run_replication(SMALL, 0)
    b = run_replication(SMALL, 1)
    assert a.sup_ht != b.sup_ht


def test_quantiles_monotone_in_level():
    rec = run_replication(SMALL, 3)
    for quantiles in (rec.q_ht, rec.q_hajek):
        assert len(quantiles) == len(SMALL.levels)
        assert list(quantiles) == sorted(quantiles)


def test_proportional_design_differs_from_equal():
    prop = run_replication(
        SimConfig(**{**SMALL.__dict__, "design": "proportional"}), 0
    )
    equal = run_replication(SMALL, 0)
    assert prop.sup_ht != equal.sup_ht


def test_generate_population_moments():
    pop = generate_population(60_000, RngStream(1))
    # ln X standard normal: E X = exp(1/2); U | X centered with sd X.
    assert pop.x.mean() == pytest.approx(np.exp(0.5), rel=0.05)
    assert np.log(pop.x).std() == pytest.approx(1.0, rel=0.05)
    resid = (pop.y - pop.x) / pop.x
    assert resid.mean() == pytest.approx(0.0, abs=0.02)
    assert resid.std() == pytest.approx(1.0, rel=0.05)


def test_format_report_echoes_config_and_parses_back():
    report = run_experiment(SMALL)
    text, csv_text = format_report(report)
    assert "N=80" in text and "design=equal" in text
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    assert len(rows) == 6
    for row, cell in zip(rows, report.cells):
        assert row["estimator"] == cell.estimator
        assert float(row["coverage"]) == pytest.approx(cell.coverage, abs=1e-6)
        assert float(row["avg_width"]) == pytest.approx(cell.avg_width, abs=1e-6)


def test_single_cell_report_round_trips_through_csv():
    config = SimConfig(
        population_size=40,
        sampling_fraction=0.2,
        replications=2,
        levels=(0.95,),
        quantile_draws=300,
        master_seed=1,
    )
    report = run_experiment(config)
    _, csv_text = format_report(report)
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    assert [r["estimator"] for r in rows] == ["HT", "HAJEK"]
    for row, cell in zip(rows, report.cells):
        assert float(row["level"]) == cell.level
        assert float(row["max_width"]) == pytest.approx(cell.max_width, abs=1e-6)


def test_empty_levels_are_rejected():
    # With no level a run would spend every replication on a report
    # that holds only its header.
    for levels in ((), []):
        with pytest.raises(ValueError, match="levels must hold at least one level"):
            SimConfig(
                population_size=40, sampling_fraction=0.2, replications=1, levels=levels
            )


def test_negative_master_seed_is_rejected_at_construction():
    with pytest.raises(ValueError, match="master_seed must be non-negative, got -3"):
        SimConfig(
            population_size=40, sampling_fraction=0.2, replications=1, master_seed=-3
        )


def test_runtime_excluded_from_comparisons():
    report = run_experiment(SMALL)
    clone = type(report)(
        config=report.config, cells=report.cells, runtime_seconds=-1.0
    )
    assert clone == report
    assert format_report(clone) == format_report(report)


def test_report_cell_validation():
    with pytest.raises(ValueError):
        ReportCell(
            estimator="HT", level=0.9, coverage=1.2, avg_width=0.1, max_width=0.2
        )
    with pytest.raises(ValueError):
        ReportCell(
            estimator="HT", level=0.9, coverage=0.5, avg_width=0.3, max_width=0.2
        )


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(population_size=1, sampling_fraction=0.5, replications=1)
    with pytest.raises(ValueError):
        SimConfig(population_size=10, sampling_fraction=0.0, replications=1)
    with pytest.raises(ValueError):
        SimConfig(population_size=10, sampling_fraction=0.5, replications=0)
    with pytest.raises(ValueError):
        SimConfig(
            population_size=10, sampling_fraction=0.5, replications=1,
            sampler="systematic",
        )
    with pytest.raises(ValueError):
        SimConfig(
            population_size=10, sampling_fraction=0.5, replications=1,
            sampler="rejection",
        )
    with pytest.raises(ValueError):
        SimConfig(
            population_size=10, sampling_fraction=0.5, replications=1,
            design="poisson",
        )
    with pytest.raises(ValueError, match="quantile_draws"):
        SimConfig(
            population_size=10, sampling_fraction=0.5, replications=1,
            quantile_draws=50,
        )
    fields = {"population_size": 10, "sampling_fraction": 0.5, "replications": 1}
    for name in ("population_size", "replications", "quantile_draws",
                 "master_seed", "threads"):
        for value in ("100", 100.0, True):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                SimConfig(**{**fields, name: value})
    with pytest.raises(ValueError, match="sampling_fraction must be a number"):
        SimConfig(**{**fields, "sampling_fraction": "0.5"})
    with pytest.raises(ValueError, match="levels must be a sequence"):
        SimConfig(**fields, levels=0.9)


def test_coverage_is_a_binomial_proportion():
    # Aggregation is a plain mean of covered flags, so feeding Bernoulli
    # flags through it must land inside the exact central 99% interval.
    trials, level = 1000, 0.9
    flags = RngStream(55).generator().random(trials) < level
    coverage = float(np.mean(flags))
    lo, hi = binomial_central_interval(trials, level, 0.99)
    assert lo <= coverage * trials <= hi

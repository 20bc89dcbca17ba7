"""End-to-end command-line flows on temporary files."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from cpsband import (
    PopulationFrame,
    RngStream,
    SampleIndicators,
    band_pipeline,
    pips_probabilities,
)
from cpsband.cli import THREADS_ENV_VAR, main

from helpers import weighted_cdf_counts_brute


@pytest.fixture()
def population_csv(tmp_path):
    rng = np.random.default_rng(6)
    x = rng.lognormal(0, 1, 40)
    y = x + rng.normal(0, x)
    path = tmp_path / "population.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["unit", "y", "x"])
        for i, (yi, xi) in enumerate(zip(y, x)):
            writer.writerow([i, repr(float(yi)), repr(float(xi))])
    return path


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_calibrate_writes_probabilities(population_csv, tmp_path, capsys):
    out = tmp_path / "design.csv"
    assert main([
        "calibrate", "--population", str(population_csv),
        "--size", "8", "--out", str(out),
    ]) == 0
    rows = read_rows(out)
    assert len(rows) == 40
    pi = np.array([float(r["pi"]) for r in rows])
    assert pi.sum() == pytest.approx(8.0, abs=1e-8)
    captured = capsys.readouterr().out
    assert "resolved:" in captured and "sum pi=" in captured


def test_sample_then_band_round_trip(population_csv, tmp_path, capsys):
    sample_out = tmp_path / "sample.csv"
    assert main([
        "sample", "--population", str(population_csv),
        "--size", "8", "--seed", "3", "--out", str(sample_out),
    ]) == 0
    rows = read_rows(sample_out)
    assert sum(int(r["s"]) for r in rows) == 8

    band_out = tmp_path / "band.csv"
    assert main([
        "band", "--population", str(population_csv),
        "--sample", str(sample_out), "--estimator", "hajek",
        "--gamma", "0.9", "--quantile-draws", "400",
        "--seed", "1", "--out", str(band_out),
    ]) == 0
    band = read_rows(band_out)
    assert len(band) == len({r["t"] for r in band})
    for row in band:
        lo, mid, hi = (float(row[k]) for k in ("lower", "center", "upper"))
        assert 0.0 <= lo <= mid <= hi <= 1.0
    assert "sup=" in capsys.readouterr().out


def test_band_is_idempotent(population_csv, tmp_path):
    sample_out = tmp_path / "sample.csv"
    main([
        "sample", "--population", str(population_csv),
        "--size", "6", "--seed", "5", "--out", str(sample_out),
    ])
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        assert main([
            "band", "--population", str(population_csv),
            "--sample", str(sample_out), "--seed", "7", "--out", str(out),
        ]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_writes_text_and_csv(tmp_path, capsys):
    config = {
        "population_size": 60,
        "sampling_fraction": 0.15,
        "replications": 6,
        "quantile_draws": 200,
        "master_seed": 12,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "report"
    assert main([
        "simulate", "--config", str(config_path), "--out", str(out),
    ]) == 0
    text = (tmp_path / "report.txt").read_text()
    assert "coverage experiment: N=60" in text
    rows = read_rows(tmp_path / "report.csv")
    assert len(rows) == 6
    stdout = capsys.readouterr().out
    assert "design=equal" in stdout
    assert "runtime=" in stdout


def test_simulate_threads_env_var(tmp_path, capsys, monkeypatch):
    config = {
        "population_size": 40,
        "sampling_fraction": 0.2,
        "replications": 4,
        "quantile_draws": 200,
        "master_seed": 9,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    monkeypatch.setenv(THREADS_ENV_VAR, "2")
    out = tmp_path / "report"
    assert main([
        "simulate", "--config", str(config_path), "--out", str(out),
    ]) == 0
    assert "threads=2" in capsys.readouterr().out


def test_oracle_check_passes_and_is_deterministic(capsys):
    assert main(["oracle-check", "--seed", "7", "--instances", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["oracle-check", "--seed", "7", "--instances", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "PASS" in first and "FAIL" not in first


def test_unknown_flag_is_rejected(population_csv):
    with pytest.raises(SystemExit):
        main([
            "calibrate", "--population", str(population_csv),
            "--size", "8", "--out", "x.csv", "--bogus",
        ])


def test_malformed_population_reports_single_line_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("unit,wrong,header\n0,1,2\n")
    out = tmp_path / "out.csv"
    code = main([
        "calibrate", "--population", str(bad), "--size", "1", "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert not out.exists()


def test_band_rejects_mismatched_sample(population_csv, tmp_path, capsys):
    sample = tmp_path / "sample.csv"
    sample.write_text("unit,s\n999,1\n")
    code = main([
        "band", "--population", str(population_csv),
        "--sample", str(sample), "--out", str(tmp_path / "b.csv"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("estimator", ["ht", "hajek"])
def test_band_on_census_sample_has_zero_width(tmp_path, capsys, estimator):
    # With every unit sampled, π ≡ 1: the process and the simulated sup
    # quantile are both exactly 0.
    rng = np.random.default_rng(8)
    x = rng.lognormal(0, 1, 30)
    population = tmp_path / "population.csv"
    population.write_text("unit,y,x\n" + "".join(
        f"{i},{float(v)!r},{float(w)!r}\n"
        for i, (v, w) in enumerate(zip(x + rng.normal(0, x), x))
    ))
    sample = tmp_path / "sample.csv"
    sample.write_text("unit,s\n" + "".join(f"{i},1\n" for i in range(30)))
    out = tmp_path / "band.csv"
    assert main([
        "band", "--population", str(population), "--sample", str(sample),
        "--estimator", estimator, "--out", str(out),
    ]) == 0
    stdout = capsys.readouterr().out
    assert "q_hat=0.000000 covered=True width=0.000000" in stdout
    for row in read_rows(out):
        assert row["lower"] == row["center"] == row["upper"]


@pytest.mark.parametrize("estimator", ["ht", "hajek"])
def test_band_center_is_the_estimated_cdf(population_csv, tmp_path, estimator):
    sample_out = tmp_path / "sample.csv"
    main([
        "sample", "--population", str(population_csv),
        "--size", "8", "--seed", "2", "--out", str(sample_out),
    ])
    band_out = tmp_path / "band.csv"
    assert main([
        "band", "--population", str(population_csv), "--sample",
        str(sample_out), "--estimator", estimator, "--out", str(band_out),
    ]) == 0
    population = read_rows(population_csv)
    y = np.array([float(r["y"]) for r in population])
    rows = read_rows(sample_out)
    weights = np.array([int(r["s"]) / float(r["pi"]) for r in rows])
    weights /= weights.sum() if estimator == "hajek" else len(y)
    band = read_rows(band_out)
    t = np.array([float(r["t"]) for r in band])
    want = weighted_cdf_counts_brute(y, weights, t)
    got = np.array([float(r["center"]) for r in band])
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
    # The edges are center -/+ q_hat / sqrt(N) clipped to [0, 1], with
    # q_hat from the band pipeline on the command's default seed.
    pop = PopulationFrame(y=y, x=np.array([float(r["x"]) for r in population]))
    sample = SampleIndicators.from_array(np.array([int(r["s"]) for r in rows]))
    stats = band_pipeline(
        pop, pips_probabilities(pop.x, sample.count), sample, (0.95,), 1000,
        RngStream(0),
    )
    halfwidth = stats.quantile(estimator.upper(), 0).q_hat / np.sqrt(len(y))
    lower = np.array([float(r["lower"]) for r in band])
    upper = np.array([float(r["upper"]) for r in band])
    assert np.array_equal(lower, np.clip(got - halfwidth, 0.0, 1.0))
    assert np.array_equal(upper, np.clip(got + halfwidth, 0.0, 1.0))
    assert np.any((got - halfwidth < 0.0) | (got + halfwidth > 1.0))


def test_sample_method_flag_is_gone(population_csv, tmp_path, capsys):
    # The sequential sampler is the only one; argparse rejects the flag
    # with its usage error.
    with pytest.raises(SystemExit) as exit_info:
        main([
            "sample", "--population", str(population_csv), "--size", "8",
            "--method", "rejection", "--out", str(tmp_path / "s.csv"),
        ])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --method rejection" in capsys.readouterr().err


def band_error(tmp_path, capsys, population_text, sample_text):
    population = tmp_path / "population.csv"
    population.write_text(population_text)
    sample = tmp_path / "sample.csv"
    sample.write_text(sample_text)
    out = tmp_path / "band.csv"
    code = main([
        "band", "--population", str(population), "--sample", str(sample),
        "--quantile-draws", "100", "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == 1 and not out.exists()
    assert err.startswith("error:") and err.count("\n") == 1
    return err


POPULATION_0_TO_3 = "unit,y,x\n0,1.5,1.0\n1,0.2,2.0\n2,3.1,1.5\n3,2.2,0.5\n"


def test_band_rejects_duplicate_sample_unit(tmp_path, capsys):
    # Unit 0 is listed as sampled and then as not sampled; taking the
    # last row would band an n = 1 sample.
    err = band_error(
        tmp_path, capsys, POPULATION_0_TO_3,
        "unit,s\n0,1\n1,0\n2,1\n3,0\n0,0\n",
    )
    assert "sample.csv: line 6, unit '0': unit listed twice" in err


def test_band_rejects_duplicate_population_unit(tmp_path, capsys):
    err = band_error(
        tmp_path, capsys, POPULATION_0_TO_3 + "1,0.7,1.2\n",
        "unit,s\n0,1\n1,0\n2,1\n3,0\n",
    )
    assert "population.csv: line 6, unit '1': unit listed twice" in err


def test_band_rejects_short_population_row(tmp_path, capsys):
    err = band_error(
        tmp_path, capsys, "unit,y,x\n0,1.5,1.0\n1,0.2\n2,3.1,1.5\n",
        "unit,s\n0,1\n1,0\n2,1\n",
    )
    assert "population.csv: line 3, unit '1': 2 fields, expected 3" in err


def test_band_rejects_unparsable_population_value(tmp_path, capsys):
    err = band_error(
        tmp_path, capsys, "unit,y,x\n0,1.5,1.0\n1,abc,2.0\n2,3.1,1.5\n",
        "unit,s\n0,1\n1,0\n2,1\n",
    )
    assert "population.csv: line 3, unit '1': y 'abc' is not a finite number" in err


@pytest.mark.parametrize("value", ["yes", "2"])
def test_band_rejects_sample_indicator_other_than_0_or_1(tmp_path, capsys, value):
    err = band_error(
        tmp_path, capsys, POPULATION_0_TO_3,
        f"unit,s\n0,1\n1,0\n2,{value}\n3,0\n",
    )
    assert f"sample.csv: line 4, unit '2': s '{value}' is not 0 or 1" in err


def test_band_rejects_sample_with_no_sampled_unit(tmp_path, capsys):
    err = band_error(
        tmp_path, capsys, POPULATION_0_TO_3, "unit,s\n0,0\n1,0\n2,0\n3,0\n",
    )
    assert "sample.csv: no unit has s = 1" in err


def test_band_rejects_sample_without_a_certain_unit(tmp_path, capsys):
    # At n = 2 the size-proportional design gives unit 3 (x = 10 against
    # a total of 13) inclusion probability 1, so no sample leaves it out.
    err = band_error(
        tmp_path, capsys, "unit,y,x\n0,1.5,1.0\n1,0.2,1.0\n2,3.1,1.0\n3,2.2,10.0\n",
        "unit,s\n0,1\n1,1\n2,0\n3,0\n",
    )
    assert "sample.csv: unit '3' has s = 0 but inclusion probability 1" in err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_band_rejects_nonpositive_size(tmp_path, capsys, value):
    # Calibration needs every x > 0; the reader names the offending row.
    err = band_error(
        tmp_path, capsys, f"unit,y,x\n0,1.5,1.0\n1,0.2,{value}\n2,3.1,1.5\n",
        "unit,s\n0,1\n1,0\n2,1\n",
    )
    assert f"population.csv: line 3, unit '1': x '{value}' is not positive" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--gamma", "0"), ("--gamma", "1.5"), ("--quantile-draws", "50")],
)
def test_band_checks_flags_before_reading_files(tmp_path, capsys, flag, value):
    # The population path does not exist, so only a check made before
    # any file is read can name the flag.
    out = tmp_path / "band.csv"
    code = main([
        "band", "--population", str(tmp_path / "missing.csv"),
        "--sample", str(tmp_path / "missing_sample.csv"),
        flag, value, "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == 1 and not out.exists()
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1


def test_band_rejects_a_sample_drawn_under_another_design(population_csv, tmp_path, capsys):
    # The sample file states each unit's pi under the population it was
    # drawn from; against a population whose unit 5 is three times
    # larger, every pi moves and band names the first unit that differs.
    sample_out = tmp_path / "drawn.csv"
    assert main([
        "sample", "--population", str(population_csv),
        "--size", "8", "--seed", "3", "--out", str(sample_out),
    ]) == 0
    population = read_rows(population_csv)
    population[5]["x"] = repr(3.0 * float(population[5]["x"]))
    population_text = "unit,y,x\n" + "".join(
        f"{r['unit']},{r['y']},{r['x']}\n" for r in population
    )
    sample_text = sample_out.read_text()
    stated = read_rows(sample_out)[0]["pi"]
    err = band_error(tmp_path, capsys, population_text, sample_text)
    assert f"sample.csv: unit '0': pi '{stated}' is not the design's " in err
    # A pi that is no number is named with its line.
    err = band_error(
        tmp_path, capsys, POPULATION_0_TO_3,
        "unit,pi,s\n0,0.5,1\n1,abc,0\n2,0.5,1\n3,0.5,0\n",
    )
    assert "sample.csv: line 3, unit '1': pi 'abc' is not a finite number" in err

"""CDF estimates and the empirical processes √N (F̂ − F_N) built from
them, against direct double-loop references, and their sups as
band_pipeline takes them."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpsband import (
    InclusionProbabilities,
    PopulationFrame,
    SampleIndicators,
    band_pipeline,
    cdf_estimates,
    cps_sample_sequential,
    generate_population,
    pips_probabilities,
    poisson_from_cps_inclusion,
)
from cpsband import inference, processes
from cpsband.processes import tie_groups
from cpsband.samplers import RngStream

from conftest import design_with_population
from helpers import weighted_cdf_counts_brute


def brute_processes(pop, pi, s, t):
    """The HT and Hájek processes at each t, summed directly over the
    units in one pass over the thresholds."""
    n = pop.size
    w = s.s / pi.pi
    minus_one, ht, count = weighted_cdf_counts_brute(
        pop.y, np.stack([w - 1.0, w, np.ones(n)]), t
    ).T
    return minus_one / np.sqrt(n), np.sqrt(n) * (ht / w.sum() - count / n)


def processes_of(pop, incl, s):
    """The thresholds, and the HT and Hájek processes √N (F̂ − F_N) there."""
    t, cdf, cdf_ht, cdf_hajek = cdf_estimates(pop, incl, s)
    return t, np.sqrt(pop.size) * (cdf_ht - cdf), np.sqrt(pop.size) * (cdf_hajek - cdf)


def draw_sample(params, seed):
    return cps_sample_sequential(params, RngStream(seed))


def sups(pop, incl, s):
    """The HT and Hájek sup statistics of band_pipeline."""
    stats, _, _ = band_pipeline(pop, incl, s, (0.9,), 100, RngStream(0))
    return stats.sup_ht, stats.sup_hajek


@given(design_with_population(), st.integers(0, 1000))
@settings(max_examples=60)
def test_htep_matches_brute_force(args, seed):
    pop, params, incl = args
    s = draw_sample(params, seed)
    t, values, _ = processes_of(pop, incl, s)
    np.testing.assert_array_equal(t, np.unique(pop.y))
    np.testing.assert_allclose(
        values, brute_processes(pop, incl, s, t)[0], atol=1e-12
    )


@given(design_with_population(), st.integers(0, 1000))
@settings(max_examples=60)
def test_hajek_matches_brute_force(args, seed):
    pop, params, incl = args
    s = draw_sample(params, seed)
    t, _, values = processes_of(pop, incl, s)
    np.testing.assert_array_equal(t, np.unique(pop.y))
    np.testing.assert_allclose(
        values, brute_processes(pop, incl, s, t)[1], atol=1e-12
    )


def test_band_pipeline_sorts_the_population_once(monkeypatch):
    # F_N and both estimates come from one sort of the N population y;
    # the Gaussian paths sort only the n sampled y.
    pop = generate_population(200, RngStream(4))
    incl = pips_probabilities(pop.x, 20)
    s = draw_sample(poisson_from_cps_inclusion(incl), 5)
    lengths = []

    def counted(y):
        lengths.append(y.shape[0])
        return tie_groups(y)

    monkeypatch.setattr(processes, "tie_groups", counted)
    monkeypatch.setattr(inference, "tie_groups", counted)
    band_pipeline(pop, incl, s, (0.9,), 100, RngStream(6))
    assert sorted(lengths) == [s.count, pop.size]


@given(design_with_population(), st.integers(0, 1000))
@settings(max_examples=40)
def test_sup_norm_beats_dense_grid(args, seed):
    pop, params, incl = args
    s = draw_sample(params, seed)
    dense = np.linspace(pop.y.min() - 1.0, pop.y.max() + 1.0, 100_001)
    at_dense = brute_processes(pop, incl, s, dense)
    at_jumps = brute_processes(pop, incl, s, np.unique(pop.y))
    for sup, on_grid, exact in zip(sups(pop, incl, s), at_dense, at_jumps):
        assert sup >= np.abs(on_grid).max() - 1e-12
        # The sup is attained at a jump, so it is the brute evaluation at
        # the exact thresholds.
        assert sup == pytest.approx(np.abs(exact).max(), abs=1e-12)


def test_left_limits_capture_pre_jump_extreme():
    # One sampled unit with a large weight: the process dips to its
    # extreme just left of the second jump.
    pop = PopulationFrame(y=np.array([0.0, 1.0]), x=np.ones(2))
    incl = InclusionProbabilities(pi=np.array([0.2, 0.8]), n=1)
    s = SampleIndicators.from_array(np.array([0, 1]))
    _, values, _ = processes_of(pop, incl, s)
    # value at t=0 is -1/sqrt(2); left of t=1 it is still -1/sqrt(2),
    # the value at the previous jump, and at t=1 it jumps to
    # (1/0.8 - 1 - 1)/sqrt(2).
    np.testing.assert_allclose(values[0], -1 / np.sqrt(2), atol=1e-12)
    np.testing.assert_allclose(values[1], -0.75 / np.sqrt(2), atol=1e-12)
    assert sups(pop, incl, s)[0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_census_process_vanishes():
    pop = PopulationFrame(y=np.array([3.0, 1.0, 2.0]), x=np.ones(3))
    incl = InclusionProbabilities(pi=np.ones(3), n=3)
    s = SampleIndicators.from_array(np.array([1, 1, 1]))
    assert sups(pop, incl, s) == (0.0, 0.0)


def test_cdf_estimates_merge_ties():
    # Sorted, y = 1 is not sampled and the two units at y = 2 carry
    # weights 1/π = 4 and 1; each CDF is read once per distinct y, after
    # the last unit of each tie group, so the y = 2 row holds both.
    pop = PopulationFrame(y=np.array([2.0, 1.0, 2.0]), x=np.ones(3))
    incl = InclusionProbabilities(pi=np.array([0.25, 0.75, 1.0]), n=2)
    s = SampleIndicators.from_array(np.array([1, 0, 1]))
    t, cdf, cdf_ht, cdf_hajek = cdf_estimates(pop, incl, s)
    np.testing.assert_array_equal(t, [1.0, 2.0])
    np.testing.assert_allclose(cdf, [1 / 3, 1.0], rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(cdf_ht, [0.0, 5 / 3], rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(cdf_hajek, [0.0, 1.0], rtol=0.0, atol=1e-15)


def test_non_finite_sup_is_rejected():
    # A subnormal π on a sampled unit overflows its weight 1/π.
    pop = PopulationFrame(y=np.array([0.0, 1.0, 2.0]), x=np.ones(3))
    incl = InclusionProbabilities(pi=np.array([1e-320, 1.0, 1.0 - 1e-320]), n=2)
    s = SampleIndicators.from_array(np.array([1, 1, 0]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        ValueError, match="finite"
    ):
        sups(pop, incl, s)

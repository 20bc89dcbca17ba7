"""Empirical-process evaluations against direct double-loop references."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpsband import (
    InclusionProbabilities,
    PopulationFrame,
    SampleIndicators,
    ThresholdGrid,
    cps_sample_sequential,
    hajek_evaluate,
    htep_evaluate,
    sup_norm_cdf,
)
from cpsband.samplers import RngStream

from conftest import design_with_population
from helpers import weighted_cdf_counts_brute


def brute_htep(pop, pi, s, t):
    weights = s.s / pi.pi - 1.0
    n = pop.size
    return weighted_cdf_counts_brute(pop.y, weights, t) / np.sqrt(n)


def brute_hajek(pop, pi, s, t):
    n = pop.size
    n_hat = float((s.s / pi.pi).sum())
    ht = weighted_cdf_counts_brute(pop.y, s.s / pi.pi, t)
    f_n = weighted_cdf_counts_brute(pop.y, np.ones(n), t) / n
    return np.sqrt(n) * (ht / n_hat - f_n)


def draw_sample(params, seed):
    return cps_sample_sequential(params, RngStream(seed))


@given(design_with_population(), st.integers(0, 1000))
@settings(max_examples=60)
def test_htep_matches_brute_force(args, seed):
    pop, params, incl = args
    s = draw_sample(params, seed)
    grid = ThresholdGrid.from_population(pop.y)
    ev = htep_evaluate(pop, incl, s, grid)
    np.testing.assert_allclose(
        ev.values, brute_htep(pop, incl, s, grid.t), atol=1e-12
    )


@given(design_with_population(), st.integers(0, 1000))
@settings(max_examples=60)
def test_hajek_matches_brute_force(args, seed):
    pop, params, incl = args
    s = draw_sample(params, seed)
    grid = ThresholdGrid.from_population(pop.y)
    ev = hajek_evaluate(pop, incl, s, grid)
    np.testing.assert_allclose(
        ev.values, brute_hajek(pop, incl, s, grid.t), atol=1e-12
    )


@given(design_with_population(), st.integers(0, 1000))
@settings(max_examples=40)
def test_sup_norm_beats_dense_grid(args, seed):
    pop, params, incl = args
    s = draw_sample(params, seed)
    grid = ThresholdGrid.from_population(pop.y)
    ev = htep_evaluate(pop, incl, s, grid)
    sup = sup_norm_cdf(ev)
    dense = np.linspace(pop.y.min() - 1.0, pop.y.max() + 1.0, 100_001)
    brute = np.abs(brute_htep(pop, incl, s, dense)).max()
    assert sup >= brute - 1e-12
    # The sup is attained at a jump, so the dense grid comes within the
    # brute evaluation at the exact thresholds.
    assert sup == pytest.approx(
        np.abs(brute_htep(pop, incl, s, grid.t)).max()
        if np.abs(brute_htep(pop, incl, s, grid.t)).max() >= np.abs(ev.values_left).max()
        else np.abs(ev.values_left).max(),
        abs=1e-12,
    )


def test_left_limits_capture_pre_jump_extreme():
    # One sampled unit with a large weight: the process dips to its
    # extreme just left of the second jump.
    pop = PopulationFrame(y=np.array([0.0, 1.0]), x=np.ones(2))
    incl = InclusionProbabilities(pi=np.array([0.2, 0.8]), n=1)
    s = SampleIndicators.from_array(np.array([0, 1]))
    grid = ThresholdGrid.from_population(pop.y)
    ev = htep_evaluate(pop, incl, s, grid)
    # value at t=0 is -1/sqrt(2); left of t=1 it is still -1/sqrt(2),
    # at t=1 it jumps to (1/0.8 - 1 - 1)/sqrt(2).
    np.testing.assert_allclose(ev.values_left[1], -1 / np.sqrt(2), atol=1e-12)
    assert sup_norm_cdf(ev) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_census_process_vanishes():
    pop = PopulationFrame(y=np.array([3.0, 1.0, 2.0]), x=np.ones(3))
    incl = InclusionProbabilities(pi=np.ones(3), n=3)
    s = SampleIndicators.from_array(np.array([1, 1, 1]))
    grid = ThresholdGrid.from_population(pop.y)
    assert sup_norm_cdf(htep_evaluate(pop, incl, s, grid)) == 0.0
    assert sup_norm_cdf(hajek_evaluate(pop, incl, s, grid)) == 0.0


def test_threshold_grid_requires_increasing_finite():
    with pytest.raises(ValueError):
        ThresholdGrid(t=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        ThresholdGrid(t=np.array([np.nan]))
    grid = ThresholdGrid.from_population(np.array([2.0, 1.0, 2.0]))
    np.testing.assert_array_equal(grid.t, [1.0, 2.0])

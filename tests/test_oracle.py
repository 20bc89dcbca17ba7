"""Enumeration oracles: these must be right before anything else is."""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cpsband import CalibrationError, SampleIndicators
from cpsband.oracle import (
    DesignDistribution,
    empirical_cps_distribution,
    enumerate_cps_distribution,
    exact_design_moments,
    exact_inclusion_orders,
    total_variation,
)

from conftest import design_params
from helpers import conditioned_law, poisson_law


def test_three_unit_law_by_hand():
    # p = (0.2, 0.5, 0.8), n = 2: unnormalised masses 0.02, 0.08, 0.32
    # for {0,1}, {0,2}, {1,2}, so the law is (1, 4, 16) / 21.
    d = enumerate_cps_distribution(np.array([0.2, 0.5, 0.8]), 2)
    np.testing.assert_allclose(d.probability, [1 / 21, 4 / 21, 16 / 21], atol=1e-15)
    np.testing.assert_array_equal(
        d.indicators, [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    )


def test_universe_is_lexicographic_and_complete():
    d = enumerate_cps_distribution(np.full(5, 2 / 5), 2)
    assert d.indicators.shape == (comb(5, 2), 5)
    combos = [
        tuple(sorted(np.flatnonzero(row))) for row in d.indicators
    ]
    assert combos == sorted(combinations(range(5), 2))


@given(design_params(max_units=8))
def test_enumerated_law_normalises_and_fixes_size(params):
    d = enumerate_cps_distribution(params.p, params.n)
    assert d.probability.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(d.indicators.sum(axis=1) == params.n)


@given(design_params(max_units=8))
def test_inclusion_orders_match_direct_sums(params):
    d = enumerate_cps_distribution(params.p, params.n)
    pi, pi2 = exact_inclusion_orders(d)
    assert pi.sum() == pytest.approx(params.n, abs=1e-10)
    np.testing.assert_allclose(np.diag(pi2), pi, atol=1e-12)
    # second-order sums: sum_j pi_ij = n * pi_i for a fixed-size design
    np.testing.assert_allclose(pi2.sum(axis=1), params.n * pi, atol=1e-10)


def test_poisson_enumeration_matches_independence():
    p = np.array([0.3, 0.6, 0.9])
    indicators, probability = poisson_law(p)
    assert indicators.shape == (8, 3)
    for row, prob in zip(indicators, probability):
        want = np.prod(np.where(row == 1, p, 1 - p))
        assert prob == pytest.approx(want, abs=1e-15)
    # Conditioned on its size, the independent law is the fixed-size one.
    law = conditioned_law(p, 2)
    assert total_variation(law, enumerate_cps_distribution(p, 2)) < 1e-15


def test_certain_unit_carries_full_mass():
    d = enumerate_cps_distribution(np.array([0.5, 1.0, 0.5]), 2)
    without = d.indicators[:, 1] == 0
    assert np.all(d.probability[without] == 0.0)
    assert d.probability[~without].sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "n, message",
    [
        (True, "n must be an integer, got True"),
        (2.5, "n must be an integer, got 2.5"),
        (0, r"n = 0 outside \[1, 4\]"),
        (5, r"n = 5 outside \[1, 4\]"),
    ],
    ids=["bool", "float", "zero", "above-N"],
)
def test_enumeration_rejects_a_sample_size_outside_the_designs(n, message):
    # The same check as every design entry point: n is an integer in
    # [1, N], and a bool is not taken for one.
    with pytest.raises(CalibrationError, match=message):
        enumerate_cps_distribution(np.array([0.2, 0.5, 0.8, 0.5]), n)


def test_enumeration_takes_numpy_and_edge_sample_sizes():
    p = np.array([0.2, 0.5, 0.8, 0.5])
    assert enumerate_cps_distribution(p, np.int64(2)).indicators.shape == (6, 4)
    assert enumerate_cps_distribution(p, 1).indicators.shape == (4, 4)
    np.testing.assert_array_equal(enumerate_cps_distribution(p, 4).probability, [1.0])


def test_total_variation_extremes():
    d1 = enumerate_cps_distribution(np.array([0.2, 0.5, 0.8]), 2)
    assert total_variation(d1, d1) == 0.0
    # Same universe, all mass forced onto disjoint cells via certain units.
    a = enumerate_cps_distribution(np.array([1.0, 1.0, 1e-9 / 3, 1e-9 / 3, 1e-9 / 3]), 2)
    b = enumerate_cps_distribution(np.array([1e-9 / 3, 1e-9 / 3, 1e-9 / 3, 1.0, 1.0]), 2)
    assert total_variation(a, b) == pytest.approx(2.0, abs=1e-8)


def test_empirical_distribution_counts():
    draws = np.array(
        [[1, 1, 0], [1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.int8
    )
    d = empirical_cps_distribution(draws)
    assert d.probability.sum() == pytest.approx(1.0)
    law = {tuple(row): p for row, p in zip(d.indicators, d.probability)}
    assert law[(1, 1, 0)] == pytest.approx(0.5)
    assert law[(0, 1, 1)] == pytest.approx(0.25)
    assert law[(1, 0, 1)] == pytest.approx(0.25)


def test_exact_design_moments_on_known_law():
    d = enumerate_cps_distribution(np.array([0.2, 0.5, 0.8]), 2)
    y = np.array([1.0, 2.0, 4.0])
    mean, var = exact_design_moments(d, lambda s: float((s * y).sum()))
    # E = (3 + 20 + 96) / 21, E2 = (9 + 100 + 576) / 21
    want_mean = (3 + 4 * 5 + 16 * 6) / 21
    want_var = (9 + 4 * 25 + 16 * 36) / 21 - want_mean**2
    assert mean == pytest.approx(want_mean, abs=1e-12)
    assert var == pytest.approx(want_var, abs=1e-12)


def test_distribution_validates_mass_and_size():
    ind = np.array([[1, 0], [0, 1]], dtype=np.int8)
    with pytest.raises(ValueError):
        DesignDistribution(indicators=ind, probability=np.array([0.7, 0.7]))


def test_sample_indicators_round_trip():
    s = SampleIndicators.from_array(np.array([1, 0, 1, 0]))
    assert s.count == 2
    with pytest.raises(ValueError):
        SampleIndicators.from_array(np.array([2, 0]))

"""Covariance estimation, Gaussian quantiles, and band assembly."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpsband import (
    CanonicalPoissonParams,
    ConfidenceBand,
    CovarianceEstimate,
    InclusionProbabilities,
    PopulationFrame,
    QuantileEstimate,
    RngStream,
    SampleIndicators,
    ThresholdGrid,
    build_band,
    coverage_check,
    cps_sample_sequential,
    enumerate_cps_distribution,
    estimate_cov_hajek,
    estimate_cov_ht,
    exact_design_moments,
    exact_inclusion_orders,
    generate_population,
    htep_evaluate,
    limit_cov_hajek,
    limit_cov_ht,
    pips_probabilities,
    poisson_from_cps_inclusion,
    simulate_sup_norms,
    simulate_sup_quantile,
    sup_quantile,
)
from cpsband.inference import _gaussian_paths, _z_scores

from conftest import design_with_population

# Enumerated pins for p = (0.25, 0.35, 0.45, 0.55, 0.65, 0.75), n = 3,
# y = (0.8, 0.1, 1.4, 0.5, 2.0, 1.1), threshold 0.8: the exact design
# variance of the weighted process and the exact expectation of the
# plug-in estimate over all 20 samples.  Both were computed with the
# enumeration oracle; the estimator targets the projected limit, so the
# two differ at this tiny scale.
PIN_P = np.array([0.25, 0.35, 0.45, 0.55, 0.65, 0.75])
PIN_Y = np.array([0.8, 0.1, 1.4, 0.5, 2.0, 1.1])
PIN_EXACT_VAR = 0.7553337768182211
PIN_MEAN_ESTIMATE = 0.44726862006494955


def pin_design():
    params = CanonicalPoissonParams(p=PIN_P, n=3)
    d = enumerate_cps_distribution(PIN_P, 3)
    pi_exact, _ = exact_inclusion_orders(d)
    incl = InclusionProbabilities(pi=pi_exact, n=3)
    pop = PopulationFrame(y=PIN_Y, x=np.ones(6))
    return params, d, incl, pop


class TestCovarianceEstimators:
    def test_pinned_exact_variance(self):
        _, d, incl, pop = pin_design()
        grid = ThresholdGrid.from_population(PIN_Y)
        k = int(np.searchsorted(grid.t, 0.8))

        def g_at(s_row):
            s = SampleIndicators.from_array(s_row)
            return float(htep_evaluate(pop, incl, s, grid).values[k])

        mean, var = exact_design_moments(d, g_at)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(PIN_EXACT_VAR, abs=1e-12)

    def test_pinned_mean_of_plug_in_estimate(self):
        _, d, incl, pop = pin_design()
        acc = 0.0
        for row, prob in zip(d.indicators, d.probability):
            s = SampleIndicators.from_array(row)
            est = estimate_cov_ht(pop, incl, s, np.array([0.8]))
            acc += prob * est.matrix[0, 0]
        assert acc == pytest.approx(PIN_MEAN_ESTIMATE, abs=1e-12)

    @given(design_with_population(min_units=4), st.integers(0, 500))
    @settings(max_examples=40)
    def test_symmetry_and_diagonal_nonnegative(self, args, seed):
        pop, params, incl = args
        s = cps_sample_sequential(params, RngStream(seed))
        thresholds = np.sort(pop.y[s.s == 1])
        if float((incl.pi * (1 - incl.pi)).sum()) == 0.0:
            return
        for estimate in (
            estimate_cov_ht(pop, incl, s, thresholds),
            estimate_cov_hajek(pop, incl, s, thresholds),
        ):
            np.testing.assert_allclose(
                estimate.matrix, estimate.matrix.T, atol=1e-12
            )
            assert np.all(np.diag(estimate.matrix) >= -1e-12)

    def test_equal_inclusion_makes_both_estimators_coincide(self):
        # With constant pi the weighted z-mean vanishes and N-hat = N,
        # so the two plug-in covariances agree exactly.
        rng = RngStream(41)
        n_units, n = 60, 12
        gen = rng.generator()
        y = gen.normal(size=n_units)
        pop = PopulationFrame(y=y, x=np.ones(n_units))
        incl = InclusionProbabilities(pi=np.full(n_units, n / n_units), n=n)
        params = CanonicalPoissonParams(p=np.full(n_units, n / n_units), n=n)
        s = cps_sample_sequential(params, rng.substream(1))
        thresholds = np.sort(y[s.s == 1])
        ht = estimate_cov_ht(pop, incl, s, thresholds)
        hj = estimate_cov_hajek(pop, incl, s, thresholds)
        np.testing.assert_allclose(ht.matrix, hj.matrix, atol=1e-12)

    def test_zero_size_variance_is_rejected(self):
        pop = PopulationFrame(y=np.array([1.0, 2.0]), x=np.ones(2))
        incl = InclusionProbabilities(pi=np.ones(2), n=2)
        s = SampleIndicators.from_array(np.array([1, 1]))
        with pytest.raises(ValueError, match="size variance"):
            estimate_cov_ht(pop, incl, s, np.array([1.0]))


class TestLimitCovariance:
    @staticmethod
    def constant_size_model(gen, m):
        y = gen.normal(size=m)
        return y, np.ones(m)

    def test_ht_limit_under_constant_weights(self):
        # kappa = alpha everywhere gives ((1-a)/a) F(1-F) at any t.
        f = lambda y: (y <= 0.0).astype(float)
        got = limit_cov_ht(
            f, f, self.constant_size_model, theta=0.1,
            mc_n=400_000, rng=RngStream(17),
        )
        want = (0.9 / 0.1) * 0.25
        assert got.value == pytest.approx(want, abs=4 * got.stderr + 1e-3)

    def test_hajek_limit_matches_ht_under_constant_weights(self):
        f = lambda y: (y <= 0.5).astype(float)
        ht = limit_cov_ht(
            f, f, self.constant_size_model, theta=0.2,
            mc_n=200_000, rng=RngStream(18),
        )
        hj = limit_cov_hajek(
            f, f, self.constant_size_model, theta=0.2,
            mc_n=200_000, rng=RngStream(18),
        )
        assert hj.value == pytest.approx(ht.value, abs=4 * ht.stderr + 1e-3)


class TestCholesky:
    def test_asymmetric_matrix_rejected_at_construction(self):
        bad = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            CovarianceEstimate(matrix=bad, kind="HT", thresholds=np.arange(2.0))


class TestSupQuantile:
    def test_univariate_matches_normal_quantile(self):
        lower = np.array([[1.0]])
        q = simulate_sup_quantile(lower, 0.95, 50_000, RngStream(5))
        assert q.q_hat == pytest.approx(1.959964, rel=0.02)

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(5, 5))
        lower = np.linalg.cholesky(a @ a.T + np.eye(5))
        qs = [
            simulate_sup_quantile(lower, g, 4000, RngStream(9)).q_hat
            for g in (0.5, 0.8, 0.9, 0.99)
        ]
        assert qs == sorted(qs)

    def test_deterministic_for_fixed_stream(self):
        lower = np.eye(3)
        a = simulate_sup_quantile(lower, 0.9, 2000, RngStream(2))
        b = simulate_sup_quantile(lower, 0.9, 2000, RngStream(2))
        assert a.q_hat == b.q_hat

    def test_rejects_tiny_monte_carlo(self):
        with pytest.raises(ValueError):
            simulate_sup_quantile(np.eye(2), 0.9, 50, RngStream(0))
        with pytest.raises(ValueError):
            simulate_sup_norms(
                np.arange(2.0), np.full(2, 0.5), 1.0, 4, 50, RngStream(0)
            )

    def test_order_statistic_rule(self):
        # Index ceil(gamma·B') − 1 of the sorted sups.
        sups = np.arange(1.0, 101.0)
        assert sup_quantile(sups, 0.95).q_hat == 95.0
        assert sup_quantile(sups, 0.951).q_hat == 96.0
        assert sup_quantile(sups, 0.95).mc_draws == 100
        with pytest.raises(ValueError):
            sup_quantile(sups, 1.0)


def sampled_design(pop, params, incl, seed):
    """One drawn sample, its sampled y and π, and the size variance d_N."""
    s = cps_sample_sequential(params, RngStream(seed))
    sampled = s.s == 1
    d_n = float((incl.pi * (1.0 - incl.pi)).sum())
    return s, pop.y[sampled], incl.pi[sampled], d_n


class TestFactorFreeDraws:
    """The Gaussian paths ξA behind simulate_sup_norms, checked through
    ξ = I, where they are A itself."""

    @given(
        design_with_population(min_units=4),
        st.integers(0, 500),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=60)
    def test_square_root_reproduces_plug_in_covariances(
        self, args, seed, proportional, tie
    ):
        pop, params, incl = args
        if proportional:
            incl = pips_probabilities(pop.x, params.n)
            params = poisson_from_cps_inclusion(incl)
        s, y_s, pi_s, d_n = sampled_design(pop, params, incl, seed)
        if tie:
            # Each odd-placed sampled unit takes the y of the one before.
            sampled = np.flatnonzero(s.s == 1)
            y = pop.y.copy()
            y[sampled[1::2]] = y[sampled[:-1:2]]
            pop = PopulationFrame(y=y, x=pop.x)
            y_s = y[sampled]
        a_ht, a_hajek = _gaussian_paths(
            np.eye(y_s.shape[0]), y_s, pi_s, d_n, pop.size
        )
        thresholds = np.sort(y_s)
        # Relative to the size of the terms before they cancel: Σ_k w_k Z²
        # with Z = I − π·slope replaced by I + π·slope.  Some designs
        # (n = 1) give an estimate of exactly 0.
        z, weight = _z_scores(pop, incl, s, thresholds)
        ind = y_s[:, None] <= thresholds[None, :]
        size_ht = ind + np.abs(ind - z)
        n_hat = float((1.0 / pi_s).sum())
        size_hajek = size_ht + (1.0 / pi_s) @ size_ht / n_hat
        for a, est, size, norm in (
            (a_ht, estimate_cov_ht(pop, incl, s, thresholds), size_ht, pop.size),
            (a_hajek, estimate_cov_hajek(pop, incl, s, thresholds), size_hajek, n_hat),
        ):
            scale = (weight @ size**2).max() / norm
            assert np.abs(a.T @ a - est.matrix).max() <= 1e-12 * scale

    def test_equal_inclusion_makes_both_sups_coincide(self):
        n_units, n = 300, 30
        y = RngStream(43).generator().normal(size=n_units)
        pop = PopulationFrame(y=y, x=np.ones(n_units))
        pi = np.full(n_units, n / n_units)
        params = CanonicalPoissonParams(p=pi, n=n)
        incl = InclusionProbabilities(pi=pi, n=n)
        _, y_s, pi_s, d_n = sampled_design(pop, params, incl, 3)
        ht, hajek = simulate_sup_norms(y_s, pi_s, d_n, n_units, 500, RngStream(8))
        assert np.all(ht > 0.0)
        np.testing.assert_allclose(ht, hajek, rtol=0.0, atol=1e-12)

    def test_same_stream_gives_identical_sups(self):
        pop = generate_population(80, RngStream(44))
        incl = pips_probabilities(pop.x, 12)
        params = poisson_from_cps_inclusion(incl)
        _, y_s, pi_s, d_n = sampled_design(pop, params, incl, 5)
        first = simulate_sup_norms(y_s, pi_s, d_n, 80, 300, RngStream(2))
        second = simulate_sup_norms(y_s, pi_s, d_n, 80, 300, RngStream(2))
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
            assert np.all(np.diff(a) >= 0.0)
        assert not np.array_equal(first[0], first[1])

    def test_no_quadratic_memory(self):
        # An n×n float64 array at n = 4000 takes 128 MB; the B'×n draws
        # take 3.2 MB.
        n, n_units = 4000, 100_000
        y = RngStream(45).generator().normal(size=n)
        pi = np.full(n, n / n_units)
        d_n = n_units * (n / n_units) * (1.0 - n / n_units)
        tracemalloc.start()
        try:
            simulate_sup_norms(y, pi, d_n, n_units, 100, RngStream(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


def test_band_construction_and_closed_coverage():
    center = np.array([0.1, 0.4, 0.9])
    q = QuantileEstimate(gamma=0.95, q_hat=1.2, mc_draws=1000)
    band = build_band(center, q, n_units=100)
    assert band.halfwidth == pytest.approx(0.12)
    np.testing.assert_allclose(band.lower, np.maximum(center - 0.12, 0.0))
    np.testing.assert_allclose(band.upper, np.minimum(center + 0.12, 1.0))
    # Coverage uses <=, so a sup exactly at the quantile still covers.
    assert coverage_check(1.2, q)
    assert not coverage_check(1.2000001, q)


def test_zero_quantile_band_is_degenerate():
    q = QuantileEstimate(gamma=0.9, q_hat=0.0, mc_draws=1000)
    band = build_band(np.array([0.5]), q, n_units=10)
    assert band.halfwidth == 0.0
    assert coverage_check(0.0, q)

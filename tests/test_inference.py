"""Covariance references, Gaussian quantiles, and band assembly."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cpsband
from cpsband import (
    BandStatistics,
    CanonicalPoissonParams,
    InclusionProbabilities,
    PopulationFrame,
    RngStream,
    SampleIndicators,
    band_pipeline,
    cdf_estimates,
    cps_sample_rejection_batch,
    cps_sample_sequential,
    generate_population,
    pips_probabilities,
    poisson_from_cps_inclusion,
    simulate_sup_norms,
    sup_quantile,
)
from cpsband.inference import _gaussian_paths, _path_constants
from cpsband.oracle import (
    enumerate_cps_distribution,
    exact_design_moments,
    exact_inclusion_orders,
)

from conftest import design_with_population
from helpers import (
    _kappa,
    _sampled_indicators,
    _sigma_prime_terms,
    _z_scores,
    bounded_size_model,
    estimate_cov_hajek,
    estimate_cov_ht,
    limit_cov_hajek,
    limit_cov_ht,
    solve_truncation_constant,
)

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
        k = int(np.searchsorted(np.unique(PIN_Y), 0.8))

        def g_at(s_row):
            s = SampleIndicators.from_array(s_row)
            t, cdf, cdf_ht, _ = cdf_estimates(pop, incl, s)
            assert t[k] == 0.8
            return float(np.sqrt(pop.size) * (cdf_ht[k] - cdf[k]))

        mean, var = exact_design_moments(d, g_at)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(PIN_EXACT_VAR, abs=1e-12)

    def test_pinned_mean_of_plug_in_estimate(self):
        _, d, incl, pop = pin_design()
        acc = 0.0
        for row, prob in zip(d.indicators, d.probability):
            s = SampleIndicators.from_array(row)
            est = estimate_cov_ht(pop, incl, s, np.array([0.8]))
            acc += prob * est[0, 0]
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
            np.testing.assert_allclose(estimate, estimate.T, atol=1e-12)
            assert np.all(np.diag(estimate) >= -1e-12)

    def test_equal_inclusion_makes_both_estimators_coincide(self):
        # With constant pi the projection of the constant, 1 − π·c,
        # vanishes and N-hat = N, so the two plug-in covariances agree.
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
        np.testing.assert_allclose(ht, hj, atol=1e-12)

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

    def test_hajek_limit_is_the_four_term_correction(self):
        # Σ'(f − f̄, g − ḡ) expands by bilinearity into the HT integrand
        # corrected by the constant function, on the same draw.
        f = lambda y: (y <= 0.3).astype(float)
        g = lambda y: (y <= 1.0).astype(float)
        got = limit_cov_hajek(f, g, bounded_size_model, 0.2, 20_000, RngStream(19))
        y, x = bounded_size_model(RngStream(19).generator(), 20_000)
        kappa = _kappa(x, 0.2)
        f_vals, g_vals, ones = f(y), g(y), np.ones_like(y)
        terms = (
            _sigma_prime_terms(f_vals, g_vals, kappa)
            - f_vals.mean() * _sigma_prime_terms(ones, g_vals, kappa)
            - g_vals.mean() * _sigma_prime_terms(f_vals, ones, kappa)
            + f_vals.mean() * g_vals.mean() * _sigma_prime_terms(ones, ones, kappa)
        )
        assert got.value == pytest.approx(terms.mean(), rel=0.0, abs=1e-12)

    def test_plug_in_converges_to_limit(self):
        # The mean plug-in variance over CPS samples of proportional
        # designs at N = 4000, alpha = 0.1 against the analytic limit with
        # θ solved from the size law; 8 populations × 25 samples, within
        # 4 standard errors of the between-population spread and the
        # limit's own Monte Carlo error.  Bounded sizes keep the design
        # weights 1/π within a factor 4, so the plug-in's design law is
        # not too skewed for 25 draws a population; the harness's
        # lognormal sizes reach weights ~10⁵/N.
        n_units, alpha, populations, draws = 4000, 0.1, 8, 25
        thresholds = np.array([0.5, 1.0, 2.5])
        root = RngStream(2026)
        _, sizes = bounded_size_model(root.substream(0).generator(), 200_000)
        theta = solve_truncation_constant(alpha, sizes)
        pairs = ((estimate_cov_ht, limit_cov_ht), (estimate_cov_hajek, limit_cov_hajek))
        means = np.empty((len(pairs), populations, thresholds.shape[0]))
        for k in range(populations):
            y, x = bounded_size_model(root.substream(1, k).generator(), n_units)
            pop = PopulationFrame(y=y, x=x)
            incl = pips_probabilities(x, round(alpha * n_units))
            params = poisson_from_cps_inclusion(incl)
            samples = cps_sample_rejection_batch(params, root.substream(2, k), draws)
            for i, (estimate, _) in enumerate(pairs):
                means[i, k] = np.mean([
                    np.diag(estimate(pop, incl, SampleIndicators.from_array(s), thresholds))
                    for s in samples
                ], axis=0)
        for i, (_, limit_cov) in enumerate(pairs):
            for j, t in enumerate(thresholds):
                f = lambda y, t=t: (y <= t).astype(float)
                limit = limit_cov(
                    f, f, bounded_size_model, theta, 200_000, root.substream(3)
                )
                spread = means[i, :, j].std(ddof=1) / np.sqrt(populations)
                gap = means[i, :, j].mean() - limit.value
                assert abs(gap) <= 4 * np.hypot(spread, limit.stderr), (limit_cov, t)


def one_unit_abs_normals(b_prime, rng):
    """|ξ| for B' standard normals ξ, sorted, through simulate_sup_norms:
    one sampled unit with y = 0, π = ½, d_N = 1 and N = 4 has Z = ½ and
    the HT path ξ·(√½/½)·½/√4 = ξ·√2/4."""
    sups_ht, _ = simulate_sup_norms(
        np.zeros(1), np.full(1, 0.5), 1.0, 4, b_prime, rng
    )
    return sups_ht / (np.sqrt(2.0) / 4.0)


class TestSupQuantile:
    def test_univariate_matches_normal_quantile(self):
        q = sup_quantile(one_unit_abs_normals(50_000, RngStream(5)), 0.95)
        assert q == pytest.approx(1.959964, rel=0.02)

    def test_monotone_in_gamma(self):
        pop = generate_population(60, RngStream(12))
        incl = pips_probabilities(pop.x, 5)
        params = poisson_from_cps_inclusion(incl)
        _, y_s, pi_s, d_n = sampled_design(pop, params, incl, 9)
        for sups in simulate_sup_norms(y_s, pi_s, d_n, 60, 4000, RngStream(9)):
            qs = [sup_quantile(sups, g) for g in (0.5, 0.8, 0.9, 0.99)]
            assert qs == sorted(qs)

    def test_rejects_tiny_monte_carlo(self):
        with pytest.raises(ValueError):
            simulate_sup_norms(
                np.arange(2.0), np.full(2, 0.5), 1.0, 4, 50, RngStream(0)
            )

    def test_rejects_an_empty_sample(self):
        with pytest.raises(ValueError, match="sample is empty"):
            simulate_sup_norms(np.empty(0), np.empty(0), 1.0, 10, 100, RngStream(0))

    def test_order_statistic_rule(self):
        # Index ceil(gamma·B') − 1 of the sorted sups.
        sups = np.arange(1.0, 101.0)
        assert sup_quantile(sups, 0.95) == 95.0
        assert sup_quantile(sups, 0.951) == 96.0
        # 0.55·100 and 0.07·100 are 55.00000000000001 and 7.000000000000001
        # in floating point; the rule reads the whole numbers 55 and 7.
        assert sup_quantile(sups, 0.55) == 55.0
        assert sup_quantile(sups, 0.07) == 7.0
        with pytest.raises(ValueError):
            sup_quantile(sups, 1.0)


def unit_paths(y_s, pi_s, d_n, n_units):
    """The HT and Hájek Gaussian paths at ξ = I, that is A itself, from
    the block kernel of simulate_sup_norms run on one n-row block."""
    c = _path_constants(y_s, pi_s, d_n, n_units)
    shape = (y_s.shape[0], c.last.shape[0])
    ht, hajek = np.empty(shape), np.empty(shape)
    _gaussian_paths(np.eye(y_s.shape[0]), c, ht, hajek)
    return ht / c.norm_ht, hajek / c.norm_hajek


def sampled_design(pop, params, incl, seed):
    """One drawn sample, its sampled y and π, and the size variance d_N."""
    s = cps_sample_sequential(params, RngStream(seed))
    sampled = s.s == 1
    d_n = float((incl.pi * (1.0 - incl.pi)).sum())
    return s, pop.y[sampled], incl.pi[sampled], d_n


class TestHajekCentering:
    @given(st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_variance_vanishes_at_top_threshold(self, seed):
        # At t >= every sampled y the Hájek CDF estimate is 1 in every
        # sample, so its plug-in variance and its Gaussian path are 0
        # there, relative to Σ_s (1−π)/π².
        pop = generate_population(40, RngStream(seed))
        incl = pips_probabilities(pop.x, 8)
        params = poisson_from_cps_inclusion(incl)
        s, y_s, pi_s, d_n = sampled_design(pop, params, incl, seed)
        scale = float(((1.0 - pi_s) / pi_s**2).sum())
        variance = estimate_cov_hajek(pop, incl, s, np.sort(y_s))[-1, -1]
        assert abs(variance) <= 1e-12 * scale
        _, path = unit_paths(y_s, pi_s, d_n, pop.size)
        assert np.abs(path[:, -1]).max() <= 1e-12 * np.sqrt(scale)


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
        a_ht, a_hajek = unit_paths(y_s, pi_s, d_n, pop.size)
        thresholds = np.unique(y_s)
        # Relative to the size of the terms before they cancel: Σ_k w_k Z²
        # with every difference in Z replaced by a sum, so HT's
        # Z = I − π·slope by I + π·slope and Hájek's Z − F̂ (1 − π c) by
        # that plus F̂ (1 + π c).  Some designs (n = 1) give an estimate of
        # exactly 0.
        ind, _, _ = _sampled_indicators(pop, incl, s, thresholds)
        size_ht = ind + np.abs(ind - _z_scores(ind, pi_s, d_n))
        n_hat = float((1.0 / pi_s).sum())
        one = np.ones((pi_s.shape[0], 1))
        size_one = one + np.abs(one - _z_scores(one, pi_s, d_n))
        size_hajek = size_ht + size_one * ((1.0 / pi_s) @ ind / n_hat)
        weight = (1.0 - pi_s) / pi_s**2
        for a, est, size, norm in (
            (a_ht, estimate_cov_ht(pop, incl, s, thresholds), size_ht, pop.size),
            (a_hajek, estimate_cov_hajek(pop, incl, s, thresholds), size_hajek, n_hat),
        ):
            scale = (weight @ size**2).max() / norm
            assert np.abs(a.T @ a - est).max() <= 1e-12 * scale

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
        # An n×n float64 array at n = 4000 takes 128 MB; the draw holds
        # ξ and two path arrays of 12 rows each, about 1.2 MB.
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

    @pytest.mark.parametrize("b_prime", [1000, 4000])
    def test_memory_does_not_grow_with_draws(self, b_prime):
        # One B'×n array at n = 2000 takes 16 MB at B' = 1000 and 64 MB
        # at B' = 4000; the blocked draw holds ξ and two path arrays of at
        # most 31 rows each (about 1.5 MB) and two B'-vectors of sups.
        n, n_units = 2000, 20_000
        y = RngStream(46).generator().normal(size=n)
        pi = np.full(n, n / n_units)
        d_n = n_units * (n / n_units) * (1.0 - n / n_units)
        tracemalloc.start()
        try:
            simulate_sup_norms(y, pi, d_n, n_units, b_prime, RngStream(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


# Runs in a child process with BLAS on one thread: OpenBLAS splits ξ @ π
# between its threads by row count, so with more than one thread a
# B'×n product and its row blocks can round a row differently.
BLOCKED_EQUALS_UNBLOCKED = """
import numpy as np
from cpsband import RngStream, simulate_sup_norms
from helpers import unblocked_sup_norms

for n in (1, 2, 17, 200, 333, 2000, 4097):
    for b_prime in (100, 101, 1000, 1001, 1537):
        gen = np.random.default_rng([n, b_prime])
        # One decimal gives tie groups at every n above ~30.
        y = np.round(gen.normal(size=n), 1)
        pi = gen.uniform(0.05, 0.9, size=n)
        d_n = 3.0 * float((pi * (1.0 - pi)).sum())
        args = (y, pi, d_n, 5 * n, b_prime, RngStream(n).substream(b_prime))
        pairs = zip(simulate_sup_norms(*args), unblocked_sup_norms(*args))
        if not all(np.array_equal(blocked, whole) for blocked, whole in pairs):
            print(f"n={n} b_prime={b_prime}")
"""


def run_with_blas_threads(script: str, threads: int) -> str:
    """Stdout of ``script`` run in a child process with BLAS on
    ``threads`` threads; the child fails the test if it fails."""
    paths = [str(Path(cpsband.__file__).resolve().parent.parent),
             str(Path(__file__).resolve().parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_blocked_draw_equals_one_whole_draw_bit_for_bit():
    out = run_with_blas_threads(BLOCKED_EQUALS_UNBLOCKED, 1)
    assert out == "", "blocked sups differ at:\n" + out


# One digest per line: the sups of several (n, B') cases, with y on a
# coarse grid so that tie groups occur, and one small report per design.
DIGESTS = """
import hashlib
import numpy as np
from cpsband import (
    RngStream, SimConfig, format_report, run_experiment, simulate_sup_norms,
)

for n, b_prime in ((17, 101), (200, 1000), (333, 1001), (1000, 1001), (2000, 1000)):
    gen = np.random.default_rng([n, b_prime])
    y = np.round(gen.normal(size=n), 1)
    pi = gen.uniform(0.05, 0.9, size=n)
    d_n = 3.0 * float((pi * (1.0 - pi)).sum())
    sups = simulate_sup_norms(y, pi, d_n, 5 * n, b_prime, RngStream(n))
    print(f"sups n={n} b_prime={b_prime}", hashlib.sha256(np.concatenate(sups)).hexdigest())
for design, n_units in (("equal", 2000), ("proportional", 500)):
    config = SimConfig(
        population_size=n_units, sampling_fraction=0.1, replications=5,
        master_seed=3, design=design,
    )
    text, csv_text = format_report(run_experiment(config))
    print(f"report {design}", hashlib.sha256((text + csv_text).encode()).hexdigest())
"""


def test_reports_are_byte_identical_across_blas_threads():
    # u_π = ξ @ π goes through BLAS, which splits its rows between threads.
    one = run_with_blas_threads(DIGESTS, 1)
    assert len(one.splitlines()) == 7
    assert run_with_blas_threads(DIGESTS, 4) == one


def test_band_construction_and_closed_coverage():
    # Coverage uses <=, so a sup exactly at the quantile still covers and
    # a hair above does not.
    q = (1.2,)
    stats = BandStatistics(sup_ht=1.2, sup_hajek=1.2000001, q_ht=q, q_hajek=q)
    assert stats.covered("HT", 0)
    assert not stats.covered("HAJEK", 0)


def test_zero_quantile_band_is_degenerate():
    # On a census π ≡ 1, so both estimated CDFs are F_N bit for bit, both
    # sups and both simulated quantiles are exactly 0, the band has zero
    # half-width and it covers.
    pop = generate_population(30, RngStream(8))
    incl = pips_probabilities(pop.x, pop.size)
    sample = SampleIndicators(np.ones(pop.size, dtype=np.int8), pop.size)
    stats, _, centers = band_pipeline(pop, incl, sample, (0.9,), 1000, RngStream(9))
    _, cdf, _, _ = cdf_estimates(pop, incl, sample)
    for estimator in ("HT", "HAJEK"):
        assert np.array_equal(centers[estimator], cdf)
        assert stats.sup(estimator) == 0.0
        assert stats.quantile(estimator, 0) == 0.0
        assert stats.covered(estimator, 0)


def test_band_pipeline_is_the_band_chain():
    # The pipeline's statistics equal the chain written out step by step
    # from the same stream, and its coverage rule is sup <= q_hat.
    pop = generate_population(120, RngStream(21))
    incl = pips_probabilities(pop.x, 15)
    sample = cps_sample_sequential(poisson_from_cps_inclusion(incl), RngStream(22))
    levels = (0.5, 0.9, 0.99)
    stats, t, centers = band_pipeline(pop, incl, sample, levels, 300, RngStream(23))

    sampled = sample.s == 1
    sups = simulate_sup_norms(
        pop.y[sampled], incl.pi[sampled], float((incl.pi * (1 - incl.pi)).sum()),
        pop.size, 300, RngStream(23),
    )
    t_n, cdf, cdf_ht, cdf_hajek = cdf_estimates(pop, incl, sample)
    assert np.array_equal(t, t_n)
    for estimator, f_hat, sorted_sups in (
        ("HT", cdf_ht, sups[0]), ("HAJEK", cdf_hajek, sups[1])
    ):
        assert np.array_equal(centers[estimator], f_hat)
        sup = np.sqrt(pop.size) * float(np.abs(f_hat - cdf).max())
        assert stats.sup(estimator) == sup
        for j, gamma in enumerate(levels):
            q = stats.quantile(estimator, j)
            assert q == sup_quantile(sorted_sups, gamma)
            assert stats.covered(estimator, j) == (sup <= q)
    assert (stats.sup_ht, stats.sup_hajek) == (stats.sup("HT"), stats.sup("HAJEK"))
    assert stats.q_ht[1] == stats.quantile("HT", 1)
    assert stats.q_hajek[2] == stats.quantile("HAJEK", 2)
    # Over three levels from 0.5 to 0.99 at least one band covers and,
    # with these seeds, at least one misses, so both branches are read.
    flags = {stats.covered(e, j) for e in ("HT", "HAJEK") for j in range(3)}
    assert flags == {True, False}

"""Samplers against the enumeration oracle, plus stream plumbing."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpsband import (
    CanonicalPoissonParams,
    DesignDistribution,
    RngStream,
    SamplingError,
    SimConfig,
    calibration,
    canonicalize_poisson,
    cps_sample_rejection_batch,
    cps_sample_sequential,
    cps_sample_sequential_batch,
    empirical_cps_distribution,
    enumerate_cps_distribution,
    enumerate_poisson_distribution,
    exact_inclusion_orders,
    generate_population,
    pips_probabilities,
    poisson_from_cps_inclusion,
    total_variation,
)

from conftest import design_params

FIXED = CanonicalPoissonParams(
    p=np.array([0.15, 0.35, 0.55, 0.95]), n=2
)


class TestRngStream:
    def test_same_key_same_draws(self):
        a = RngStream(123).substream(4, 2).generator().random(5)
        b = RngStream(123).substream(4, 2).generator().random(5)
        np.testing.assert_array_equal(a, b)

    def test_substreams_differ(self):
        a = RngStream(123).substream(0).generator().random(5)
        b = RngStream(123).substream(1).generator().random(5)
        assert not np.array_equal(a, b)

    def test_chained_and_flat_keys_agree(self):
        a = RngStream(9).substream(1).substream(2)
        b = RngStream(9).substream(1, 2)
        np.testing.assert_array_equal(
            a.generator().random(3), b.generator().random(3)
        )


@given(design_params(max_units=12), st.integers(0, 2**32))
@settings(max_examples=60)
def test_sequential_sample_size_is_always_n(params, seed):
    s = cps_sample_sequential(params, RngStream(seed))
    assert int(s.s.sum()) == params.n


@given(design_params(max_units=12), st.integers(0, 2**32), st.integers(1, 5))
@settings(max_examples=30)
def test_rejection_sample_size_is_always_n(params, seed, draws):
    rows = cps_sample_rejection_batch(params, RngStream(seed), draws)
    assert rows.shape == (draws, params.p.shape[0])
    assert np.all(rows.sum(axis=1) == params.n)


def test_samplers_are_deterministic_given_stream():
    rng = RngStream(77)
    first = cps_sample_sequential(FIXED, rng)
    second = cps_sample_sequential(FIXED, rng)
    np.testing.assert_array_equal(first.s, second.s)


def run_replication_params(design, n_units):
    """The design run_replication calibrates for replication 0."""
    config = SimConfig(population_size=n_units, sampling_fraction=0.1,
                       replications=1, design=design)
    rng = RngStream(config.master_seed).substream(0)
    sizes = (generate_population(n_units, rng.substream(0)).x
             if design == "proportional" else np.ones(n_units))
    return poisson_from_cps_inclusion(
        pips_probabilities(sizes, config.sample_size)
    )


def test_batch_matches_repeated_single_draws():
    batch = cps_sample_sequential_batch(FIXED, RngStream(5), 4)
    single = cps_sample_sequential(FIXED, RngStream(5))
    # One batched draw row consumes the same uniforms as a lone draw.
    np.testing.assert_array_equal(batch[0], single.s)
    # Under "equal" the lone draw takes the closed form r / (N - j) and
    # the batch reads the kernel's table; the two agree unless a uniform
    # lands within a few ulps of r / (N - j).  Each flip is listed.
    flips = []
    for design in ("equal", "proportional"):
        for n_units in (50, 500, 2000):
            params = run_replication_params(design, n_units)
            assert bool(np.all(params.p == params.p[0])) == (design == "equal")
            for seed in range(5):
                single = cps_sample_sequential(params, RngStream(seed))
                row = cps_sample_sequential_batch(params, RngStream(seed), 1)[0]
                if not np.array_equal(single.s, row):
                    flips.append((design, n_units, seed))
    assert flips == [], f"single and batch draws differ at {flips}"


def no_kernel(*args, **kwargs):
    raise AssertionError("the equal design must not build a design kernel")


def test_closed_form_single_draws_follow_the_conditioned_law(monkeypatch):
    monkeypatch.setattr(calibration, "design_kernel", no_kernel)
    # N = 7, n = 3: unit 2 is certain and the six free units share
    # p = 1/3, so the law is SRSWOR of two of them.
    p = np.full(7, 1.0 / 3.0)
    p[2] = 1.0
    params = CanonicalPoissonParams(p=p, n=3)
    poisson = enumerate_poisson_distribution(params.p)
    size_n = poisson.indicators.sum(axis=1) == params.n
    exact = DesignDistribution(
        indicators=poisson.indicators[size_n],
        probability=poisson.probability[size_n] / poisson.probability[size_n].sum(),
        kind="CPS",
    )
    draws = 20_000
    rng = RngStream(4040)
    rows = np.array([
        cps_sample_sequential(params, rng.substream(i)).s for i in range(draws)
    ])
    assert np.all(rows[:, 2] == 1)
    # 15 equally likely samples: the TV noise floor at 2e4 draws is
    # ~0.021 with a spread of ~0.004, well under the 0.05 budget.
    assert total_variation(exact, empirical_cps_distribution(rows)) < 0.05


def test_equal_draw_builds_no_kernel(monkeypatch):
    # At N = 1e4, n = 5000 the kernel's table alone would take 400 MB.
    monkeypatch.setattr(calibration, "design_kernel", no_kernel)
    params = CanonicalPoissonParams(p=np.full(10_000, 0.5), n=5_000)
    sample = cps_sample_sequential(params, RngStream(1))
    assert sample.s.shape == (10_000,) and sample.count == 5_000


def test_sequential_law_matches_enumeration():
    exact = enumerate_cps_distribution(FIXED.p, FIXED.n)
    draws = cps_sample_sequential_batch(FIXED, RngStream(2024), 60_000)
    assert total_variation(exact, empirical_cps_distribution(draws)) < 0.02


def test_rejection_law_matches_enumeration():
    exact = enumerate_cps_distribution(FIXED.p, FIXED.n)
    draws = cps_sample_rejection_batch(FIXED, RngStream(2025), 60_000)
    assert total_variation(exact, empirical_cps_distribution(draws)) < 0.02


def test_two_samplers_share_one_law():
    seq = empirical_cps_distribution(
        cps_sample_sequential_batch(FIXED, RngStream(31), 60_000)
    )
    rej = empirical_cps_distribution(
        cps_sample_rejection_batch(FIXED, RngStream(32), 60_000)
    )
    assert total_variation(seq, rej) < 0.03


def test_inclusion_frequencies_agree_with_exact_marginals():
    exact_pi, _ = exact_inclusion_orders(
        enumerate_cps_distribution(FIXED.p, FIXED.n)
    )
    reps = 40_000
    freq = cps_sample_sequential_batch(FIXED, RngStream(99), reps).mean(axis=0)
    stderr = np.sqrt(freq * (1.0 - freq) / reps)
    assert np.all(np.abs(freq - exact_pi) < 4 * stderr + 1e-3)


def test_rejection_budget_error_reports_expected_attempts():
    # Acceptance at N=400 equal odds is ~6%, so seed 0's first (and
    # only allowed) proposal misses n and the budget error fires.
    params = CanonicalPoissonParams(p=np.full(400, 0.5), n=200)
    with pytest.raises(SamplingError, match="expected attempts"):
        cps_sample_rejection_batch(params, RngStream(0), draws=1, max_attempts=1)
    # A small design with a certain unit, where seed 4's one proposal
    # misses n: the reported figure is 1 / P(|S| = n) under the
    # independent design.
    params = canonicalize_poisson(np.array([0.05, 0.3, 0.6, 0.95, 0.5, 0.2, 1.0]), 4)
    with pytest.raises(SamplingError) as failure:
        cps_sample_rejection_batch(params, RngStream(4), draws=1, max_attempts=1)
    reported = float(re.search(r"expected attempts per draw is (\S+)", str(failure.value))[1])
    law = enumerate_poisson_distribution(params.p)
    acceptance = law.probability[law.indicators.sum(axis=1) == params.n].sum()
    assert reported == pytest.approx(1.0 / acceptance, rel=1e-9)


def test_certain_units_always_sampled():
    params = CanonicalPoissonParams(p=np.array([1.0, 0.25, 0.5, 0.25]), n=2)
    draws = cps_sample_sequential_batch(params, RngStream(3), 500)
    assert np.all(draws[:, 0] == 1)
    assert np.all(draws.sum(axis=1) == 2)

"""Samplers against the enumeration oracle, plus stream plumbing."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpsband import (
    CanonicalPoissonParams,
    RngStream,
    SamplingError,
    canonicalize_poisson,
    cps_sample_rejection_batch,
    cps_sample_sequential,
    cps_sample_sequential_batch,
    empirical_cps_distribution,
    enumerate_cps_distribution,
    enumerate_poisson_distribution,
    exact_inclusion_orders,
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


def test_batch_matches_repeated_single_draws():
    batch = cps_sample_sequential_batch(FIXED, RngStream(5), 4)
    single = cps_sample_sequential(FIXED, RngStream(5))
    # One batched draw row consumes the same uniforms as a lone draw.
    np.testing.assert_array_equal(batch[0], single.s)


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

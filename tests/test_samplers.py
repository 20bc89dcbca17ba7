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
    SimConfig,
    calibration,
    cps_sample_rejection_batch,
    cps_sample_sequential,
    generate_population,
    pips_probabilities,
    poisson_from_cps_inclusion,
    samplers,
)
from cpsband.oracle import (
    empirical_cps_distribution,
    enumerate_cps_distribution,
    exact_inclusion_orders,
    total_variation,
)

from conftest import design_params
from helpers import canonicalize_poisson, conditioned_law, poisson_law

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
    # An unequal lone draw is row 0 of the rejection batch on the same
    # stream, bit for bit, at FIXED and at the proportional designs
    # run_replication calibrates.
    designs = [FIXED] + [
        run_replication_params("proportional", n_units) for n_units in (50, 500, 2000)
    ]
    for params in designs:
        assert not np.all(params.p[params.free] == params.p[params.free][0])
        for seed in range(5):
            single = cps_sample_sequential(params, RngStream(seed))
            batch = cps_sample_rejection_batch(params, RngStream(seed), 4)
            np.testing.assert_array_equal(single.s, batch[0])


def no_kernel(*args, **kwargs):
    raise AssertionError("a draw must not build a design kernel")


def closed_form_design(kind):
    if kind == "equal":
        # N = 7, n = 3: unit 2 is certain and the six free units share
        # p = 1/3, so the law is SRSWOR of two of them.
        p = np.full(7, 1.0 / 3.0)
        p[2] = 1.0
        return CanonicalPoissonParams(p=p, n=3), 2
    # N = 8, n = 4: unit 5 is certain and seven skewed free units share
    # three slots, so the draw takes the rejection path.
    p = np.array([0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 0.7, 0.9])
    return canonicalize_poisson(p, 4), 5


@pytest.mark.parametrize("kind", ["equal", "unequal"])
def test_closed_form_single_draws_follow_the_conditioned_law(monkeypatch, kind):
    monkeypatch.setattr(calibration, "_forward_map", no_kernel)
    params, certain = closed_form_design(kind)
    draws = 20_000
    rng = RngStream(4040)
    rows = np.array([
        cps_sample_sequential(params, rng.substream(i)).s for i in range(draws)
    ])
    assert np.all(rows[:, certain] == 1)
    # The TV noise floor at 2e4 draws is ~0.021 (spread ~0.004) over the
    # 15 equally likely samples of "equal", and 0.019 (spread 0.004, at
    # most 0.036 in 2000 multinomial trials) over the 35 of "unequal";
    # 0.05 is over twice either mean.
    law = conditioned_law(params.p, params.n)
    assert total_variation(law, empirical_cps_distribution(rows)) < 0.05


def test_equal_draw_builds_no_kernel(monkeypatch):
    monkeypatch.setattr(calibration, "_forward_map", no_kernel)
    # At N = 1e4, n = 5000 the kernel's table alone would take 400 MB.
    params = CanonicalPoissonParams(p=np.full(10_000, 0.5), n=5_000)
    sample = cps_sample_sequential(params, RngStream(1))
    assert sample.s.shape == (10_000,) and sample.count == 5_000
    # An unequal design at N = 1e5, alpha = 0.1 draws by rejection; the
    # table would take 8 GB there.
    p = np.random.default_rng(1).lognormal(0.0, 1.0, 100_000)
    params = canonicalize_poisson(p / (2.0 * p.max()), 10_000)
    assert not np.all(params.p == params.p[0])
    sample = cps_sample_sequential(params, RngStream(1))
    assert sample.s.shape == (100_000,) and sample.count == 10_000


def test_rejection_law_matches_enumeration():
    exact = enumerate_cps_distribution(FIXED.p, FIXED.n)
    draws = cps_sample_rejection_batch(FIXED, RngStream(2025), 60_000)
    assert total_variation(exact, empirical_cps_distribution(draws)) < 0.02


def test_inclusion_frequencies_agree_with_exact_marginals():
    exact_pi, _ = exact_inclusion_orders(
        enumerate_cps_distribution(FIXED.p, FIXED.n)
    )
    reps = 40_000
    freq = cps_sample_rejection_batch(FIXED, RngStream(99), reps).mean(axis=0)
    stderr = np.sqrt(freq * (1.0 - freq) / reps)
    assert np.all(np.abs(freq - exact_pi) < 4 * stderr + 1e-3)


def test_rejection_budget_error_reports_expected_attempts(monkeypatch):
    # With no proposals allowed the budget error fires at once, through
    # a single draw too.  It reports the bound N + 1 on the expected
    # attempts per draw, 1 / P(|S| = n) under the independent design,
    # which on a small design with a certain unit enumeration gives.
    monkeypatch.setattr(samplers, "_ATTEMPTS_PER_SIZE", 0)
    params = canonicalize_poisson(np.array([0.05, 0.3, 0.6, 0.95, 0.5, 0.2, 1.0]), 4)
    with pytest.raises(SamplingError, match="0 of 1 samples after 0 proposals") as failure:
        cps_sample_sequential(params, RngStream(4))
    reported = int(re.search(r"at most N \+ 1 = (\d+) proposals", str(failure.value))[1])
    assert reported == params.size + 1
    ind, prob = poisson_law(params.p)
    acceptance = prob[ind.sum(axis=1) == params.n].sum()
    assert 1.0 / acceptance <= reported


def test_budget_error_builds_no_kernel(monkeypatch):
    # An unequal design at N = 1e5, n = 1e4, where the kernel's table
    # would take 8 GB: the budget error states a constant bound instead.
    monkeypatch.setattr(calibration, "_forward_map", no_kernel)
    monkeypatch.setattr(samplers, "_ATTEMPTS_PER_SIZE", 0)
    p = np.random.default_rng(1).lognormal(0.0, 1.0, 100_000)
    params = canonicalize_poisson(p / (2.0 * p.max()), 10_000)
    with pytest.raises(SamplingError, match=r"at most N \+ 1 = 100001 proposals"):
        cps_sample_sequential(params, RngStream(1))


def test_certain_units_always_sampled():
    params = CanonicalPoissonParams(p=np.array([1.0, 0.25, 0.5, 0.25]), n=2)
    draws = cps_sample_rejection_batch(params, RngStream(3), 500)
    assert np.all(draws[:, 0] == 1)
    assert np.all(draws.sum(axis=1) == 2)

"""Design calibration: pips clipping, the Poisson/fixed-size maps, and
the truncation constant."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpsband import calibration
from cpsband import (
    CalibrationError,
    CanonicalPoissonParams,
    InclusionProbabilities,
    PopulationFrame,
    RngStream,
    cps_inclusion_from_poisson,
    cps_sample_rejection_batch,
    cps_sample_sequential,
    generate_population,
    pips_probabilities,
    poisson_from_cps_inclusion,
)
from cpsband.oracle import (
    enumerate_cps_distribution,
    exact_inclusion_orders,
    total_variation,
)

from conftest import design_params
from helpers import (
    canonicalize_poisson,
    pips_exact,
    renormalize_logodds,
    solve_truncation_constant,
)


def ulps(actual, expected) -> float:
    """Largest distance of ``actual`` from ``expected`` in units in the
    last place of ``expected``."""
    expected = np.asarray(expected, dtype=float)
    return float(np.max(np.abs(actual - expected) / np.spacing(np.abs(expected))))


class TestPipsProbabilities:
    def test_matches_hand_example_with_clipping(self):
        # One unit large enough to clip at 1; the rest share the remainder.
        incl = pips_probabilities(np.array([1.0, 1.0, 1.0, 10.0]), 2)
        np.testing.assert_allclose(incl.pi, [1 / 3, 1 / 3, 1 / 3, 1.0], atol=1e-12)

    def test_unclipped_case_is_plain_proportionality(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        incl = pips_probabilities(x, 2)
        np.testing.assert_allclose(incl.pi, 2 * x / x.sum(), atol=1e-12)

    def test_census_returns_ones(self):
        incl = pips_probabilities(np.array([5.0, 1.0, 3.0]), 3)
        np.testing.assert_allclose(incl.pi, 1.0)

    @given(
        st.lists(st.floats(0.01, 100.0), min_size=2, max_size=60),
        st.data(),
    )
    def test_sum_and_monotonicity(self, x, data):
        x = np.asarray(x)
        n = data.draw(st.integers(1, len(x)))
        incl = pips_probabilities(x, n)
        assert incl.pi.sum() == pytest.approx(n, abs=1e-9)
        assert np.all(incl.pi > 0) and np.all(incl.pi <= 1.0)
        order = np.argsort(x)
        assert np.all(np.diff(incl.pi[order]) >= -1e-12)

    def test_equal_sizes_give_n_over_N_exactly(self):
        cells = [(2000, 240), (50_000, 2000), (50_000, 2500)]
        for n_units in range(1, 301):
            sizes = {1, n_units - 1}
            sizes |= {round(f * n_units) for f in (0.05, 0.10, 0.12, 0.50)}
            cells += [(n_units, n) for n in sorted(sizes) if 1 <= n <= n_units]
        for n_units, n in cells:
            pi = pips_probabilities(np.ones(n_units), n).pi
            assert np.array_equal(pi, np.full(n_units, n / n_units)), (n_units, n)

    @given(st.lists(st.integers(1, 30), min_size=2, max_size=40), st.data())
    def test_matches_exact_water_filling(self, x, data):
        n = data.draw(st.integers(1, len(x) - 1))
        expected = pips_exact(x, n)
        pi = pips_probabilities(np.array(x, dtype=float), n).pi
        assert ulps(pi, expected) <= 4
        assert np.all(pi[expected == 1.0] == 1.0)

    def test_heavy_tailed_sizes_at_a_million_units(self):
        x = np.random.default_rng(7).lognormal(0.0, 2.0, 1_000_000)
        pi = pips_probabilities(x, 100_000).pi
        assert abs(float(pi.sum()) - 100_000) <= calibration.SUM_TOL
        assert np.all(pi > 0.0) and np.all(pi <= 1.0)
        # The unclipped units share one scale; every unit that scale puts
        # above 1 must be clipped to exactly 1.0.
        unclipped = pi < 1.0
        scale = float(np.median(pi[unclipped] / x[unclipped]))
        must_clip = scale * x > 1.0 + 1e-9
        assert must_clip.sum() > 1000
        assert np.all(pi[must_clip] == 1.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(CalibrationError):
            pips_probabilities(np.array([1.0, -1.0]), 1)
        with pytest.raises(CalibrationError):
            pips_probabilities(np.array([1.0, 2.0]), 3)


class TestCanonicalize:
    def test_known_shift(self):
        params = canonicalize_poisson(np.array([0.2, 0.5, 0.8]), 2)
        assert params.p.sum() == pytest.approx(2.0, abs=1e-9)
        # A common log-odds shift preserves the odds ordering.
        assert np.all(np.diff(params.p) > 0)

    @given(design_params(max_units=9))
    def test_law_invariant_under_canonicalization(self, params):
        # The fixed-size law only depends on odds ratios, so any
        # representative of the equivalence class enumerates identically.
        shifted = 1 / (1 + np.exp(-(np.log(params.p / (1 - params.p)) + 0.7)))
        d_canon = enumerate_cps_distribution(params.p, params.n)
        d_shift = enumerate_cps_distribution(shifted, params.n)
        assert total_variation(d_canon, d_shift) == pytest.approx(0.0, abs=1e-10)

    def test_rejects_infeasible_target(self):
        with pytest.raises(CalibrationError):
            canonicalize_poisson(np.array([0.5, 0.5]), 3)


class TestPoissonFixedSizeMaps:
    @given(design_params(max_units=9))
    def test_forward_map_matches_enumeration(self, params):
        d = enumerate_cps_distribution(params.p, params.n)
        pi_exact, _ = exact_inclusion_orders(d)
        incl = cps_inclusion_from_poisson(params)
        np.testing.assert_allclose(incl.pi, pi_exact, atol=1e-12)

    @given(design_params(min_units=3, max_units=40))
    @settings(max_examples=40)
    def test_round_trip_from_poisson_side(self, params):
        incl = cps_inclusion_from_poisson(params)
        back = poisson_from_cps_inclusion(incl)
        np.testing.assert_allclose(back.p, params.p, atol=1e-9)

    def test_round_trip_from_inclusion_side(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            n_units = int(rng.integers(5, 120))
            n = int(rng.integers(1, n_units))
            pi = pips_probabilities(rng.lognormal(0, 1, n_units), n)
            params = poisson_from_cps_inclusion(pi)
            again = cps_inclusion_from_poisson(params)
            np.testing.assert_allclose(again.pi, pi.pi, atol=1e-10)

    def test_clipped_units_stay_certain(self):
        pi = pips_probabilities(np.array([1.0, 1.0, 1.0, 50.0]), 2)
        params = poisson_from_cps_inclusion(pi)
        assert params.p[3] == 1.0
        incl = cps_inclusion_from_poisson(params)
        assert incl.pi[3] == 1.0

    def test_near_uniform_inclusion_maps_to_near_uniform_p(self):
        pi = InclusionProbabilities(pi=np.full(10, 0.3), n=3)
        params = poisson_from_cps_inclusion(pi)
        np.testing.assert_allclose(params.p, 0.3, atol=1e-12)


def _count_forward_maps(monkeypatch) -> list[int]:
    calls = [0]
    forward_map = calibration._forward_map

    def counting(odds, m):
        calls[0] += 1
        return forward_map(odds, m)

    monkeypatch.setattr(calibration, "_forward_map", counting)
    return calls


def _round_trip_error(incl: InclusionProbabilities) -> float:
    params = poisson_from_cps_inclusion(incl)
    again = cps_inclusion_from_poisson(params)
    return float(np.max(np.abs(again.pi - incl.pi)))


class TestInverseCalibrationSolver:
    def test_saturating_diagonal_step_design(self):
        # An undamped diagonal step drives expit to 1 by its third step.
        params = canonicalize_poisson(np.array([0.19, 0.19, 0.62]), 1)
        incl = cps_inclusion_from_poisson(params)
        assert _round_trip_error(incl) < 1e-10
        np.testing.assert_allclose(
            poisson_from_cps_inclusion(incl).p, params.p, atol=1e-9
        )

    @pytest.mark.parametrize(
        "pi, n",
        [([0.0072, 0.9928], 1), ([0.9856, 0.9037, 0.1107], 2)],
    )
    def test_stalling_diagonal_step_designs(self, pi, n):
        incl = InclusionProbabilities(pi=np.array(pi), n=n)
        assert _round_trip_error(incl) < 1e-10

    @given(st.data())
    @settings(max_examples=200)
    def test_round_trip_on_extreme_designs(self, data):
        n_units = data.draw(st.integers(2, 12))
        n = data.draw(st.integers(1, n_units - 1))
        raw = data.draw(
            st.lists(st.floats(0.001, 0.999), min_size=n_units, max_size=n_units)
        )
        params = canonicalize_poisson(np.asarray(raw), n)
        assert _round_trip_error(cps_inclusion_from_poisson(params)) < 1e-10

    @pytest.mark.parametrize("x, n", [(np.ones(2000), 200), ([1.0, 1.0, 1.0, 50.0], 2)])
    def test_constant_inclusion_is_returned_without_a_solve(self, monkeypatch, x, n):
        incl = pips_probabilities(np.asarray(x), n)
        calls = _count_forward_maps(monkeypatch)
        params = poisson_from_cps_inclusion(incl)
        assert np.array_equal(params.p, incl.pi)
        assert calls[0] == 0

    @pytest.mark.parametrize("n_units", [500, 2000])
    def test_forward_map_budget_on_proportional_design(self, monkeypatch, n_units):
        budget = {500: 4, 2000: 3}[n_units]
        population = generate_population(n_units, RngStream(1).substream(0))
        incl = pips_probabilities(population.x, n_units // 10)
        calls = _count_forward_maps(monkeypatch)
        params = poisson_from_cps_inclusion(incl)
        assert calls[0] <= budget
        again = cps_inclusion_from_poisson(params).pi
        assert np.max(np.abs(again - incl.pi)) < 1e-10

    def test_gives_up_with_calibration_error(self, monkeypatch):
        incl = pips_probabilities(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 2)
        with monkeypatch.context() as patch:
            patch.setattr(calibration, "_MAX_FORWARD_MAPS", 2)
            with pytest.raises(CalibrationError, match="within 2 forward-map"):
                poisson_from_cps_inclusion(incl)
        # No point meets a zero tolerance, so the safeguard runs out of step.
        monkeypatch.setattr(calibration, "_TOL", 0.0)
        with pytest.raises(CalibrationError, match="stalled"):
            poisson_from_cps_inclusion(incl)

    @pytest.mark.parametrize("tiny", [1e-20, 1e-100, 1e-200])
    def test_lost_free_probability_is_a_calibration_error(self, tiny):
        # Units 0 and 4 have the same odds, yet the forward map gives
        # unit 4 a probability of exactly 0, where Hajek's step would
        # divide 0 by 0.
        raw = np.array([tiny, 0.6, 0.7, 0.7, tiny])
        incl = InclusionProbabilities(pi=2.0 * raw / raw.sum(), n=2)
        with pytest.raises(CalibrationError, match="lost a free unit's probability"):
            poisson_from_cps_inclusion(incl)

    def test_has_no_damping_knob(self):
        # Neither damping nor the iteration limits are keywords.
        incl = InclusionProbabilities(pi=np.array([0.2, 0.8]), n=1)
        for keyword in ({"damping": 0.8}, {"max_iter": 2}, {"tol": 0.0}):
            with pytest.raises(TypeError):
                poisson_from_cps_inclusion(incl, **keyword)


class TestLargeDesigns:
    """Sizes where e_0..e_m of one column span more than a single
    floating-point scale can hold, even with equal odds."""

    @pytest.mark.parametrize("alpha", [0.1, 0.5])
    def test_equal_design_calibrates_and_samples(self, alpha):
        n_units = 10_000
        n = round(alpha * n_units)
        params = poisson_from_cps_inclusion(pips_probabilities(np.ones(n_units), n))
        assert cps_sample_sequential(params, RngStream(3)).count == n
        achieved = cps_inclusion_from_poisson(params).pi
        assert np.max(np.abs(achieved - n / n_units)) < 1e-12

    @pytest.mark.parametrize("n_units, alpha", [(2000, 0.5), (4000, 0.1)])
    def test_proportional_round_trip(self, n_units, alpha):
        population = generate_population(n_units, RngStream(1))
        incl = pips_probabilities(population.x, round(alpha * n_units))
        assert _round_trip_error(incl) < 1e-10


@pytest.mark.parametrize(
    "n_units, sigma",
    [(500, None), (2000, None), (8000, None), (60, 4.0)],
    ids=["proportional-500", "proportional-2000", "proportional-8000", "lognormal4-60"],
)
def test_canonical_shift_matches_the_bisection(monkeypatch, n_units, sigma):
    # The solve ends on a Newton shift of its converged log-odds; the
    # bisection over a closed-form bracket is the reference.
    if sigma is None:
        x = generate_population(n_units, RngStream(1).substream(0)).x
    else:
        x = np.random.default_rng(0).lognormal(0.0, sigma, n_units)
    incl = pips_probabilities(x, n_units // 10)
    converged = []
    shift = calibration._canonical_free_p

    def recording(logit_p, m):
        converged.append((logit_p.copy(), m))
        return shift(logit_p, m)

    monkeypatch.setattr(calibration, "_canonical_free_p", recording)
    params = poisson_from_cps_inclusion(incl)
    [(logit_p, m)] = converged
    reference = calibration._expit(renormalize_logodds(logit_p, m))
    assert ulps(params.p[params.free], reference) <= 16
    assert abs(float(params.p.sum()) - incl.n) <= 1e-12 * incl.n


def test_canonical_shift_gives_up_with_calibration_error(monkeypatch):
    # One evaluation at s = 0 is not the root.
    monkeypatch.setattr(calibration, "_SHIFT_STEPS", 1)
    with pytest.raises(CalibrationError, match="missed sum p = 1"):
        calibration._canonical_free_p(np.array([-1.0, 0.0, 2.0]), 1)
    # Every p rounds to 0 or 1, so d = 0 and there is no Newton step.
    with pytest.raises(CalibrationError, match="missed sum p = 1"):
        calibration._canonical_free_p(np.array([800.0, 800.0, -800.0]), 1)


class TestTruncationConstant:
    def test_constant_weights_recover_alpha(self):
        w = np.ones(1000)
        assert ulps(solve_truncation_constant(0.25, w), 0.25) <= 4

    def test_two_point_weights_hand_solution(self):
        # mean w = 2; for alpha = 0.9 the larger weight clips at 1 and
        # 0.5 (theta/2 + 1) = 0.9 gives theta = 1.6.
        w = np.array([1.0, 3.0])
        assert ulps(solve_truncation_constant(0.9, w), 1.6) <= 4
        assert ulps(solve_truncation_constant(0.5, w), 0.5) <= 4

    def test_agrees_with_pips_on_the_same_sample(self):
        # Both solve sum(min(c w, 1)) = n, so kappa equals the pips
        # probabilities when alpha = n / N.
        rng = np.random.default_rng(11)
        w = rng.lognormal(0, 1, 200)
        theta = solve_truncation_constant(0.1, w)
        mean_w = float(w.mean())
        kappa = np.minimum(theta * w / mean_w, 1.0)
        assert ulps(kappa, pips_probabilities(w, 20).pi) <= 4


def test_population_frame_validation():
    with pytest.raises(ValueError):
        PopulationFrame(y=np.array([1.0, 2.0]), x=np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        PopulationFrame(y=np.array([1.0]), x=np.array([1.0, 2.0]))


def test_canonical_params_validation():
    with pytest.raises(CalibrationError):
        CanonicalPoissonParams(p=np.array([0.2, 0.5, 0.8]), n=2)
    params = CanonicalPoissonParams(p=np.array([0.5, 0.5, 1.0]), n=2)
    p_free = params.p[params.free]
    np.testing.assert_allclose(p_free / (1 - p_free), 1.0)


@pytest.mark.parametrize("n", [2.5, 2.0, True])
def test_sample_size_must_be_an_integer(n):
    # Each vector sums to n, so only the type of n is at fault.
    values = np.full(5, n / 5)
    for build in (
        lambda: pips_probabilities(np.arange(1.0, 6.0), n),
        lambda: InclusionProbabilities(pi=values, n=n),
        lambda: CanonicalPoissonParams(p=values, n=n),
    ):
        with pytest.raises(CalibrationError, match=f"n must be an integer, got {n!r}"):
            build()
    assert pips_probabilities(np.arange(1.0, 6.0), np.int64(2)).n == 2
    assert InclusionProbabilities(pi=np.full(5, 0.4), n=np.int64(2)).n == 2


def test_params_carry_the_reduced_design():
    # Unit 6 is certain, so the six free units share 4 - 1 = 3 slots.
    params = canonicalize_poisson(
        np.array([0.05, 0.3, 0.6, 0.95, 0.5, 0.2, 1.0]), 4
    )
    np.testing.assert_array_equal(params.free, np.arange(6))
    assert params.slots == 3
    pi_exact, _ = exact_inclusion_orders(enumerate_cps_distribution(params.p[:6], 3))
    pi = cps_inclusion_from_poisson(params).pi
    np.testing.assert_allclose(pi[:6], pi_exact, rtol=0.0, atol=1e-14)
    assert pi[6] == 1.0


UNEQUAL = canonicalize_poisson(np.array([0.2, 0.7, 1.0, 0.4, 0.9, 0.3]), 3)
EQUAL = CanonicalPoissonParams(p=np.array([0.4, 1.0, 0.4, 0.4, 0.4, 0.4]), n=3)


@pytest.mark.parametrize(
    "call, builds",
    [
        (lambda: cps_inclusion_from_poisson(UNEQUAL), 1),
        (lambda: cps_sample_rejection_batch(UNEQUAL, RngStream(1), 5), 0),
        (lambda: cps_sample_sequential(UNEQUAL, RngStream(1)), 0),
        (lambda: cps_sample_sequential(EQUAL, RngStream(1)), 0),
    ],
    ids=["forward-map", "batch-draw", "unequal-draw", "equal-draw"],
)
def test_each_caller_builds_the_kernel_once(monkeypatch, call, builds):
    # Every forward map builds its kernel in calibration._forward_map, so
    # counting its calls counts kernels.
    calls = _count_forward_maps(monkeypatch)
    call()
    assert calls[0] == builds

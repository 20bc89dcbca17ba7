"""The design kernel against exact rational enumeration."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cpsband.esp import design_kernel

from helpers import esp_exact

# Integer odds <= 8 on <= 12 units, so Fractions give exact references.
int_odds = st.lists(st.integers(1, 8), min_size=1, max_size=12)


@st.composite
def odds_and_slots(draw, odds_strategy=int_odds):
    odds = draw(odds_strategy)
    return odds, draw(st.integers(0, len(odds)))


@given(int_odds)
def test_suffix_table_is_exact_on_integers(odds):
    # Every suffix sum e_k(o_j..) the backward recursion passes through,
    # read back as log e_k of the kernel run on that suffix.
    for j in range(len(odds)):
        for k in range(len(odds) - j + 1):
            kernel = design_kernel(np.array(odds[j:], dtype=float), k)
            want = math.log(esp_exact(odds[j:], k))
            assert kernel.log_esp == pytest.approx(want, abs=1e-13)


@given(odds_and_slots())
def test_include_probability_matches_fractions(case):
    odds, m = case
    q = design_kernel(np.array(odds, dtype=float), m).q
    assert q.shape == (m + 1, len(odds))
    # P(unit j enters | r slots among units j..N-1) = odds_j e_{r-1}(j+1:) / e_r(j:)
    for j in range(len(odds)):
        for r in range(1, min(m, len(odds) - j) + 1):
            want = odds[j] * esp_exact(odds[j + 1 :], r - 1) / esp_exact(odds[j:], r)
            assert q[r, j] == pytest.approx(float(want), rel=1e-14)


@given(odds_and_slots())
def test_first_order_matches_fractions(case):
    odds, m = case
    pi = design_kernel(np.array(odds, dtype=float), m).first_order()
    e_m = esp_exact(odds, m)
    for j, o in enumerate(odds):
        want = o * esp_exact(odds[:j] + odds[j + 1 :], m - 1) / e_m if m else 0
        assert pi[j] == pytest.approx(float(want), rel=1e-14, abs=1e-15)


@given(odds_and_slots())
def test_log_esp_matches_fractions(case):
    odds, m = case
    kernel = design_kernel(np.array(odds, dtype=float), m)
    assert kernel.log_esp == pytest.approx(math.log(esp_exact(odds, m)), abs=1e-13)


@given(odds_and_slots(st.lists(st.floats(0.01, 50.0), min_size=1, max_size=15)))
def test_include_probability_forced_and_spent_states(case):
    odds, m = case
    q = design_kernel(np.array(odds), m).q
    n_units = len(odds)
    assert np.all(q[0] == 0.0)
    for j in range(n_units):
        if 1 <= n_units - j <= m:
            assert q[n_units - j, j] == 1.0


@given(int_odds)
def test_structural_zeros(odds):
    # e_k(o_j..) = 0 for k > N - j: no design draws more units than the
    # suffix holds, and with m = N every unit is forced, e_N = prod o_j.
    n_units = len(odds)
    for j in range(n_units):
        for k in range(n_units - j + 1, n_units + 1):
            with pytest.raises(ValueError):
                design_kernel(np.array(odds[j:], dtype=float), k)
    kernel = design_kernel(np.array(odds, dtype=float), n_units)
    assert np.all(kernel.first_order() == 1.0)
    want = math.log(esp_exact(odds, n_units))
    assert kernel.log_esp == pytest.approx(want, abs=1e-13)


@given(st.lists(st.floats(0.01, 50.0), min_size=2, max_size=15))
def test_probability_matrix_rows_lie_in_unit_interval(odds):
    q = design_kernel(np.array(odds), min(5, len(odds))).q
    assert np.all(q >= 0.0)
    assert np.all(q <= 1.0)


@pytest.mark.parametrize("odds", [2.0, 1e6], ids=["odds2", "odds1e6"])
def test_equal_odds_closed_form(odds):
    # e_0..e_200 of 400 units with odds 1e6 span ~2**4200, more than one
    # floating-point scale can hold; the ratios stay of order one.
    n_units, m = 400, 200
    kernel = design_kernel(np.full(n_units, odds), m)
    for j in range(n_units):
        r = np.arange(1, min(m, n_units - j) + 1)
        np.testing.assert_allclose(kernel.q[r, j], r / (n_units - j), rtol=1e-12)
    np.testing.assert_allclose(kernel.first_order(), m / n_units, rtol=1e-12)
    log_binom = math.lgamma(n_units + 1) - 2 * math.lgamma(m + 1)
    assert kernel.log_esp == pytest.approx(log_binom + m * math.log(odds), rel=1e-12)


def test_extreme_odds_mix_raises_arithmetic_error():
    # The products o_j R[r-1, j+1] reach 1e200 * 5e199 and overflow.
    odds = np.array([1e200, 1e200, 1e-200, 1e-200])
    with pytest.raises(ArithmeticError):
        design_kernel(odds, 2)


def test_rejects_negative_and_non_finite_odds():
    for odds in ([1.0, -0.5], [np.inf, 1.0], [np.nan, 1.0], [0.0, 1.0]):
        with pytest.raises(ValueError):
            design_kernel(np.array(odds), 1)
    with pytest.raises(ValueError):
        design_kernel(np.ones((2, 2)), 1)


def test_rejects_slot_count_beyond_units():
    for m in (-1, 3):
        with pytest.raises(ValueError):
            design_kernel(np.ones(2), m)

"""First-order inclusion probabilities against exact rational enumeration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cpsband.esp import first_order

from helpers import esp_exact, reference_first_order

# Integer odds <= 8 on <= 12 units, so Fractions give exact references.
int_odds = st.lists(st.integers(1, 8), min_size=1, max_size=12)


@st.composite
def odds_and_slots(draw, odds_strategy=int_odds):
    odds = draw(odds_strategy)
    return odds, draw(st.integers(0, len(odds)))


@given(odds_and_slots())
def test_first_order_matches_fractions(case):
    odds, m = case
    pi = first_order(np.array(odds, dtype=float), m)
    e_m = esp_exact(odds, m)
    for j, o in enumerate(odds):
        want = o * esp_exact(odds[:j] + odds[j + 1 :], m - 1) / e_m if m else 0
        assert pi[j] == pytest.approx(float(want), rel=1e-14, abs=1e-15)


@given(odds_and_slots(st.lists(st.floats(0.01, 50.0), min_size=1, max_size=15)))
def test_include_probability_forced_and_spent_states(case):
    # With no slot open every unit is left out and with every slot open
    # every unit is forced in, exactly; in between pi lies in [0, 1] and
    # sums to m.
    odds, m = case
    odds = np.array(odds)
    assert np.all(first_order(odds, 0) == 0.0)
    assert np.all(first_order(odds, len(odds)) == 1.0)
    pi = first_order(odds, m)
    assert np.all((pi >= 0.0) & (pi <= 1.0))
    assert pi.sum() == pytest.approx(m, abs=1e-12)


@given(int_odds)
def test_structural_zeros(odds):
    # e_k(o_j..) = 0 for k > N - j: no design draws more units than the
    # suffix holds, and with m = N every unit is forced.
    n_units = len(odds)
    for j in range(n_units):
        for k in range(n_units - j + 1, n_units + 1):
            with pytest.raises(ValueError):
                first_order(np.array(odds[j:], dtype=float), k)
    assert np.all(first_order(np.array(odds, dtype=float), n_units) == 1.0)


@pytest.mark.parametrize("odds", [2.0, 1e6], ids=["odds2", "odds1e6"])
def test_equal_odds_closed_form(odds):
    # e_0..e_200 of 400 units with odds 1e6 span ~2**4200, more than one
    # floating-point scale can hold; the ratios stay of order one.
    n_units, m = 400, 200
    pi = first_order(np.full(n_units, odds), m)
    np.testing.assert_allclose(pi, m / n_units, rtol=1e-12)


def test_extreme_odds_mix_raises_arithmetic_error():
    # The products o_j R[r-1, j+1] reach 1e200 * 5e199 and overflow.
    odds = np.array([1e200, 1e200, 1e-200, 1e-200])
    with pytest.raises(ArithmeticError):
        first_order(odds, 2)


def test_rejects_negative_and_non_finite_odds():
    for odds in ([1.0, -0.5], [np.inf, 1.0], [np.nan, 1.0], [0.0, 1.0]):
        with pytest.raises(ValueError):
            first_order(np.array(odds), 1)
    with pytest.raises(ValueError):
        first_order(np.ones((2, 2)), 1)


def test_rejects_slot_count_beyond_units():
    for m in (-1, 3):
        with pytest.raises(ValueError):
            first_order(np.ones(2), m)


def _first_order_or_error(kernel, odds, m):
    try:
        return kernel(odds, m)
    except ArithmeticError as exc:
        return str(exc)


def test_kernel_matches_the_allocating_reference_bit_for_bit():
    # Every fourth design spreads its log-odds over hundreds, where the
    # symmetric-function ratios leave double precision.
    rng = np.random.default_rng(19)
    designs = []
    for i in range(300):
        n_units = int(rng.integers(1, 600))
        spread = rng.uniform(0.1, 5.0) if i % 4 else rng.uniform(350.0, 700.0)
        odds = np.exp(rng.uniform(-spread, spread, n_units))
        designs.append((odds, int(rng.integers(0, n_units + 1))))
    for n_units in (500, 2000):
        designs.append((rng.lognormal(0.0, 1.0, n_units), n_units // 10))
    raised = 0
    for odds, m in designs:
        got = _first_order_or_error(first_order, odds, m)
        want = _first_order_or_error(reference_first_order, odds, m)
        if isinstance(want, str):
            raised += 1
            assert got == want
        else:
            assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()
    assert 0 < raised < len(designs)

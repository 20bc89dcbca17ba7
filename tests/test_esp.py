"""The conditional Poisson kernel, ``calibration._forward_map``: first-order
inclusion probabilities against exact rational enumeration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cpsband.calibration import _expit, _forward_map, _logit

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
    pi = _forward_map(np.array(odds, dtype=float), m)
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
    assert np.all(_forward_map(odds, 0) == 0.0)
    assert np.all(_forward_map(odds, len(odds)) == 1.0)
    pi = _forward_map(odds, m)
    assert np.all((pi >= 0.0) & (pi <= 1.0))
    assert pi.sum() == pytest.approx(m, abs=1e-12)


@pytest.mark.parametrize("odds", [2.0, 1e6], ids=["odds2", "odds1e6"])
def test_equal_odds_closed_form(odds):
    # e_0..e_200 of 400 units with odds 1e6 span ~2**4200, more than one
    # floating-point scale can hold; the ratios stay of order one.
    n_units, m = 400, 200
    pi = _forward_map(np.full(n_units, odds), m)
    np.testing.assert_allclose(pi, m / n_units, rtol=1e-12)


def test_extreme_odds_mix_raises_arithmetic_error():
    # The products o_j R[r-1, j+1] reach 1e200 * 5e199 and overflow.
    odds = np.array([1e200, 1e200, 1e-200, 1e-200])
    with pytest.raises(ArithmeticError):
        _forward_map(odds, 2)


def test_newton_start_reaches_the_kernel_inside_the_unit_interval():
    # The kernel checks none of its odds.  The inverse solve hands it
    # expit(logit(q)) for a start q in (0, 1) through the screen that
    # every trial point passes, so the round trip must stay strictly
    # inside (0, 1), where the odds are finite and positive, for a start
    # never to be rejected for rounding.
    q = np.array([5e-324, 1e-300, 0.5, 1.0 - 2.0**-52, np.nextafter(1.0, 0.0)])
    with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
        p = _expit(_logit(q))
    assert np.all((p > 0.0) & (p < 1.0))
    odds = p / (1.0 - p)
    assert np.all(np.isfinite(odds) & (odds > 0.0))


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
        got = _first_order_or_error(_forward_map, odds, m)
        want = _first_order_or_error(reference_first_order, odds, m)
        if isinstance(want, str):
            raised += 1
            assert got == want
        else:
            assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()
    assert 0 < raised < len(designs)

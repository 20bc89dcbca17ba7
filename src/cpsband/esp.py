"""First-order inclusion probabilities of a conditional Poisson design,
from ratios of elementary symmetric polynomials kept in the probability
domain.

Fixed-size (conditional Poisson) designs are governed by the elementary
symmetric polynomials e_r of the odds o_j = p_j / (1 - p_j).  The raw
polynomials overflow float64 long before N = 100, and their spread over
r outgrows any single scale factor, so they are never formed.
``first_order`` runs the backward recursion of Chen, Dempster & Liu
(1994, Biometrika 81) on the ratios R[r, j] = e_{r-1}(o_j..) / e_r(o_j..),

    R[r, j] = (1 + o_j R[r-1, j+1]) / (1 / R[r, j+1] + o_j),
    R[0, .] = 0,   R[r >= 1, N] = inf,

which follows from e_r(o_j..) = e_r(o_{j+1}..) + o_j e_{r-1}(o_{j+1}..)
and uses only additions, multiplications and divisions of positive
numbers.  The same pass yields the conditional inclusion probabilities
q[r, j] = o_j / (1 / R[r, j+1] + o_j): the chance that unit j enters
when r slots are open for units j..N-1 (Tille 2006, Sampling
Algorithms, ch. 5).  A forward pass over the distribution of open slots
then gives the exact first-order inclusion probabilities
pi_j = sum_r P(r open at j) q[r, j].  The q table is local to the call,
and both loops write into buffers and views made once per call.
"""

from __future__ import annotations

import numpy as np

__all__ = ["first_order"]


def first_order(odds: np.ndarray, m: int) -> np.ndarray:
    """Exact first-order inclusion probabilities of the size-m
    conditional Poisson design on the odds.

    Precondition, not checked here: ``odds`` is a 1-d float array of
    finite, strictly positive values and 0 <= m <= N.  The one caller,
    ``calibration._forward_map``, passes p / (1 - p) for p in (0, 1):
    the free p of validated ``CanonicalPoissonParams``, a trial point
    ``_forward_at_trial`` has screened, or the Newton start, built
    inside (0, 1).  Raises ArithmeticError when the odds spread so far
    that a ratio leaves double precision; the table then never holds a
    NaN or a wrong infinity.
    """
    n_units = odds.shape[0]
    # Row j holds q[:, j], so each step writes contiguous memory.
    table = np.zeros((n_units, m + 1))
    ratio = np.full(m + 1, np.inf)
    ratio[0] = 0.0
    q_open, ratio_open, ratio_less = table[:, 1:], ratio[1:], ratio[:-1]
    denom, numer = np.empty(m), np.empty(m)
    # ratio[r] is inf wherever e_r = 0 (r > N - j), and 1 / inf = 0 makes
    # the forced state r = N - j give q = 1 exactly; no operation on those
    # entries sets a floating-point flag.  A flag therefore means a finite
    # ratio overflowed or underflowed to zero.
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            for j in range(n_units - 1, -1, -1):
                o = odds[j]
                np.add(np.divide(1.0, ratio_open, out=denom), o, out=denom)
                np.divide(o, denom, out=q_open[j])
                np.add(np.multiply(o, ratio_less, out=numer), 1.0, out=numer)
                np.divide(numer, denom, out=ratio_open)
    except FloatingPointError as exc:
        raise ArithmeticError(
            f"symmetric-function ratios left double precision (N = {n_units}, "
            f"m = {m}, odds in [{odds.min():.3g}, {odds.max():.3g}])"
        ) from exc
    # Push the distribution of open slots through the units in order.
    open_slots = np.zeros(m + 1)
    open_slots[-1] = 1.0
    take = np.empty(m + 1)
    open_less, take_open = open_slots[:-1], take[1:]
    pi = np.empty(n_units)
    for j, row in enumerate(table):
        np.multiply(open_slots, row, out=take)
        pi[j] = take.sum()
        open_slots -= take
        open_less += take_open
    return np.minimum(pi, 1.0)

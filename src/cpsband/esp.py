"""The conditional-Poisson design kernel: ratios of elementary symmetric
polynomials, kept in the probability domain.

Fixed-size (conditional Poisson) designs are governed by the elementary
symmetric polynomials e_r of the odds o_j = p_j / (1 - p_j).  The raw
polynomials overflow float64 long before N = 100, and their spread over
r outgrows any single scale factor, so the kernel never forms them.  It
runs the backward recursion of Chen, Dempster & Liu (1994, Biometrika
81) on the ratios R[r, j] = e_{r-1}(o_j..) / e_r(o_j..),

    R[r, j] = (1 + o_j R[r-1, j+1]) / (1 / R[r, j+1] + o_j),
    R[0, .] = 0,   R[r >= 1, N] = inf,

which follows from e_r(o_j..) = e_r(o_{j+1}..) + o_j e_{r-1}(o_{j+1}..)
and uses only additions, multiplications and divisions of positive
numbers.  The same pass yields the conditional inclusion probabilities
q[r, j] = o_j / (1 / R[r, j+1] + o_j): the chance that unit j enters
when r slots are open for units j..N-1 (Tille 2006, Sampling
Algorithms, ch. 5).  A forward pass over the distribution of open slots
then gives the exact first-order inclusion probabilities
pi_j = sum_r P(r open at j) q[r, j], and the last ratios give
log e_m(o), from which the rejection sampler's budget error states its
acceptance probability.  No sampler reads the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DesignKernel", "design_kernel"]


@dataclass(frozen=True)
class DesignKernel:
    """The conditional inclusion table of a size-m conditional Poisson
    design on N units with odds o.

    ``q[r, j]`` is P(unit j enters | r slots open for units j..N-1) for
    r = 0..m; states with r > N - j cannot occur.  ``log_esp`` is
    log e_m(o).
    """

    q: np.ndarray
    log_esp: float

    def first_order(self) -> np.ndarray:
        """Exact first-order inclusion probabilities, by pushing the
        distribution of open slots through the units in order."""
        table = self.q.T
        open_slots = np.zeros(table.shape[1])
        open_slots[-1] = 1.0
        pi = np.empty(table.shape[0])
        for j, row in enumerate(table):
            take = open_slots * row
            pi[j] = take.sum()
            open_slots -= take
            open_slots[:-1] += take[1:]
        return np.minimum(pi, 1.0)


def design_kernel(odds: np.ndarray, m: int) -> DesignKernel:
    """Run the ratio recursion over strictly positive odds for m slots.

    Raises ValueError for malformed odds or m outside [0, N], and
    ArithmeticError when the odds spread so far that a ratio leaves
    double precision; the table then never holds a NaN or a wrong
    infinity.
    """
    odds = np.asarray(odds, dtype=float)
    if odds.ndim != 1:
        raise ValueError("odds must be a 1-d array")
    if not np.all(np.isfinite(odds)) or np.any(odds <= 0):
        raise ValueError("odds must be finite and positive")
    n_units = odds.shape[0]
    if not 0 <= m <= n_units:
        raise ValueError(f"slot count {m} outside [0, {n_units}]")
    # Row j holds q[:, j], so each step writes contiguous memory.
    table = np.zeros((n_units, m + 1))
    ratio = np.full(m + 1, np.inf)
    ratio[0] = 0.0
    # ratio[r] is inf wherever e_r = 0 (r > N - j), and 1 / inf = 0 makes
    # the forced state r = N - j give q = 1 exactly; no operation on those
    # entries sets a floating-point flag.  A flag therefore means a finite
    # ratio overflowed or underflowed to zero.
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            for j in range(n_units - 1, -1, -1):
                o = odds[j]
                denom = 1.0 / ratio[1:] + o
                table[j, 1:] = o / denom
                ratio[1:] = (1.0 + o * ratio[:-1]) / denom
            log_esp = -float(np.log(ratio[1:]).sum())
    except FloatingPointError as exc:
        raise ArithmeticError(
            f"symmetric-function ratios left double precision (N = {n_units}, "
            f"m = {m}, odds in [{odds.min():.3g}, {odds.max():.3g}])"
        ) from exc
    return DesignKernel(q=table.T, log_esp=log_esp)

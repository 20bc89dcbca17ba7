"""Scaled elementary symmetric polynomial tables.

Fixed-size sampling designs need ratios of elementary symmetric
polynomials of the odds o_i = p_i / (1 - p_i), such as
e_{n-1}(odds without unit i) / e_n(all odds).  The raw polynomials
overflow float64 long before N = 100, so the tables below keep every
column rescaled by a power of two, with the exponent stored separately.
Power-of-two rescaling is exact in binary floating point, and all
recurrences are addition-only, so no catastrophic cancellation can
occur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SymmetricFunctionTable", "suffix_table", "prefix_table"]

# Columns are renormalized whenever their largest entry leaves this
# range; the bounds are generous because a single update step can only
# grow entries by a factor ~ (1 + max odds).
_RESCALE_HI = 2.0 ** 256
_RESCALE_LO = 2.0 ** -256


def _rescale_column(col: np.ndarray, exponent: int) -> int:
    """Scale ``col`` in place by a power of two; return the new exponent."""
    top = col.max()
    if top == 0.0 or _RESCALE_LO <= top <= _RESCALE_HI:
        return exponent
    shift = int(math.floor(math.log2(top)))
    col *= 2.0 ** float(-shift)
    return exponent + shift


@dataclass(frozen=True)
class SymmetricFunctionTable:
    """Elementary symmetric polynomials of all suffixes of an odds vector.

    ``value[k, j] * 2**exponent[j]`` equals e_k(odds[j:]) for
    k = 0..kmax and j = 0..N.  Entries with k > N - j are structurally
    zero (no size-k subset exists).
    """

    odds: np.ndarray
    value: np.ndarray
    exponent: np.ndarray

    @property
    def kmax(self) -> int:
        return self.value.shape[0] - 1

    @property
    def n_units(self) -> int:
        return self.value.shape[1] - 1

    def ratio(self, k: int, j: int, k_den: int, j_den: int) -> float:
        """e_k(odds[j:]) / e_{k_den}(odds[j_den:]) without overflow."""
        num = self.value[k, j]
        den = self.value[k_den, j_den]
        if den == 0.0:
            raise ZeroDivisionError("denominator symmetric function is zero")
        shift = int(self.exponent[j] - self.exponent[j_den])
        return math.ldexp(num / den, shift)

    def include_probability(self, j: int, r: int) -> float:
        """P(unit j enters | r slots left for units j..N-1) under the
        fixed-size law: odds_j * e_{r-1}(odds[j+1:]) / e_r(odds[j:])."""
        if r <= 0:
            return 0.0
        if self.n_units - j == r:
            return 1.0
        return self.odds[j] * self.ratio(r - 1, j + 1, r, j)

    def include_probability_matrix(self) -> np.ndarray:
        """All conditional inclusion probabilities at once.

        Returns ``prob`` of shape (kmax+1, N) with
        prob[r, j] = P(unit j enters | r slots left for units j..N-1).
        States with r > N - j cannot occur; those entries are 0.
        Rows must apply to a suffix table.
        """
        kmax, n_units = self.kmax, self.n_units
        prob = np.zeros((kmax + 1, n_units))
        shift = (self.exponent[1:] - self.exponent[:-1]).astype(np.int32)
        for r in range(1, kmax + 1):
            num = self.value[r - 1, 1:]
            den = self.value[r, :-1]
            ratio = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
            prob[r] = np.ldexp(self.odds * ratio, shift)
        js = np.arange(n_units)
        for r in range(1, kmax + 1):
            prob[r, n_units - js == r] = 1.0
            prob[r, n_units - js < r] = 0.0
        bad = (prob < 0.0) | (prob > 1.0 + 1e-12)
        if bad.any():
            raise ArithmeticError("conditional inclusion probability outside [0, 1]")
        return np.minimum(prob, 1.0)


def _check_support(table: SymmetricFunctionTable, structural: np.ndarray) -> None:
    """With strictly positive odds every structurally supported e_k is
    positive; a stored zero there means e_0..e_kmax of one column span
    more than one shared power-of-two exponent can absorb.  Equal odds
    reach that at moderate N, since e_k grows like binomial(N, k)."""
    if np.all(table.odds > 0) and np.any(table.value[structural] == 0.0):
        raise ArithmeticError(
            f"symmetric functions underflowed (N = {table.n_units}, "
            f"kmax = {table.kmax}): e_0..e_kmax of one column span more "
            "than one shared power-of-two exponent can hold in double precision"
        )


def suffix_table(odds: np.ndarray, kmax: int) -> SymmetricFunctionTable:
    """Build e_k(odds[j:]) for k = 0..kmax, j = N..0 by the
    addition-only recurrence e_k(j:) = e_k(j+1:) + odds_j * e_{k-1}(j+1:)."""
    odds = np.asarray(odds, dtype=float)
    if odds.ndim != 1:
        raise ValueError("odds must be a 1-d array")
    if np.any(odds < 0) or not np.all(np.isfinite(odds)):
        raise ValueError("odds must be finite and nonnegative")
    n_units = odds.shape[0]
    kmax = min(kmax, n_units)
    value = np.zeros((kmax + 1, n_units + 1))
    exponent = np.zeros(n_units + 1, dtype=np.int64)
    value[0, n_units] = 1.0
    col = value[:, n_units].copy()
    exp_j = 0
    for j in range(n_units - 1, -1, -1):
        new = col.copy()
        new[1:] += odds[j] * col[:-1]
        exp_j = _rescale_column(new, exp_j)
        value[:, j] = new
        exponent[j] = exp_j
        col = new
    table = SymmetricFunctionTable(odds=odds, value=value, exponent=exponent)
    ks = np.arange(kmax + 1)[:, None]
    js = np.arange(n_units + 1)[None, :]
    _check_support(table, ks <= n_units - js)
    return table


def prefix_table(odds: np.ndarray, kmax: int) -> SymmetricFunctionTable:
    """Build e_k(odds[:i]) for k = 0..kmax, i = 0..N.

    ``value[k, i] * 2**exponent[i]`` equals e_k(odds[:i]).
    """
    odds = np.asarray(odds, dtype=float)
    if odds.ndim != 1:
        raise ValueError("odds must be a 1-d array")
    if np.any(odds < 0) or not np.all(np.isfinite(odds)):
        raise ValueError("odds must be finite and nonnegative")
    n_units = odds.shape[0]
    kmax = min(kmax, n_units)
    value = np.zeros((kmax + 1, n_units + 1))
    exponent = np.zeros(n_units + 1, dtype=np.int64)
    value[0, 0] = 1.0
    col = value[:, 0].copy()
    exp_i = 0
    for i in range(1, n_units + 1):
        new = col.copy()
        new[1:] += odds[i - 1] * col[:-1]
        exp_i = _rescale_column(new, exp_i)
        value[:, i] = new
        exponent[i] = exp_i
        col = new
    table = SymmetricFunctionTable(odds=odds, value=value, exponent=exponent)
    ks = np.arange(kmax + 1)[:, None]
    js = np.arange(n_units + 1)[None, :]
    _check_support(table, ks <= js)
    return table

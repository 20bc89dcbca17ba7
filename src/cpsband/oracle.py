"""Brute-force enumeration of tiny designs.

Everything here is an independent ground truth for the analytic code
paths: the fixed-size law is written out sample by sample, first and
second order inclusion probabilities and design moments come from the
full enumeration, and distances between laws are computed exactly.
Every law here is a fixed-size one, over all size-n samples.
Population sizes are capped so the enumeration stays exhaustive.  The
module holds no sampler: the shipped one is checked against these laws.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Callable

import numpy as np

from .calibration import _check_sample_size, _frozen_array

__all__ = [
    "DesignDistribution",
    "MAX_CPS_UNITS",
    "empirical_cps_distribution",
    "enumerate_cps_distribution",
    "exact_design_moments",
    "exact_inclusion_orders",
    "total_variation",
]

# C(20, 10) ≈ 184k rows is the practical ceiling for exhaustive
# property tests.
MAX_CPS_UNITS = 20


class DesignDistribution:
    """A fixed-size sampling design written out as (indicator row,
    probability) pairs, one per size-n sample."""

    __slots__ = ("indicators", "probability")
    indicators: np.ndarray
    probability: np.ndarray

    def __init__(self, indicators, probability) -> None:
        ind = np.asarray(indicators)
        prob = np.asarray(probability, dtype=float)
        if ind.ndim != 2 or prob.ndim != 1 or ind.shape[0] != prob.shape[0]:
            raise ValueError("indicators must be (M, N) with M probabilities")
        if not np.all((ind == 0) | (ind == 1)):
            raise ValueError("indicators must be 0 or 1")
        if np.any(prob < 0) or abs(prob.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        sizes = ind.sum(axis=1)
        n = int(sizes[0])
        if np.any(sizes != n):
            raise ValueError("samples must share one size")
        if ind.shape[0] != comb(ind.shape[1], n):
            raise ValueError("the support must list every size-n sample")
        self.indicators = _frozen_array(ind, np.int8)
        self.probability = _frozen_array(prob, float)

    @property
    def n_units(self) -> int:
        return self.indicators.shape[1]


def _size_n_universe(n_units: int, n: int) -> np.ndarray:
    """All size-n indicator rows over n_units units, lexicographic."""
    rows = np.zeros((comb(n_units, n), n_units), dtype=np.int8)
    for i, chosen in enumerate(combinations(range(n_units), n)):
        rows[i, list(chosen)] = 1
    return rows


def enumerate_cps_distribution(p: np.ndarray, n: int) -> DesignDistribution:
    """The exact fixed-size law: P(s) ∝ Π p_i^{s_i} (1-p_i)^{1-s_i}
    over all size-n samples, for an integer n in [1, N]."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError("p must be a 1-d array")
    n_units = p.shape[0]
    if n_units > MAX_CPS_UNITS:
        raise ValueError(f"enumeration is limited to N <= {MAX_CPS_UNITS}")
    _check_sample_size(n, n_units)
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("p must lie in [0, 1]")
    ind = _size_n_universe(n_units, n)
    weight = np.prod(np.where(ind == 1, p, 1.0 - p), axis=1)
    total = weight.sum()
    if total <= 0.0:
        raise ValueError("every size-n sample has zero probability")
    return DesignDistribution(indicators=ind, probability=weight / total)


def empirical_cps_distribution(draws: np.ndarray) -> DesignDistribution:
    """Frequencies of drawn fixed-size samples over the full size-n
    universe, so empirical and exact laws share a support."""
    draws = np.asarray(draws)
    if draws.ndim != 2:
        raise ValueError("draws must be a (draws, N) array")
    n_units = draws.shape[1]
    if n_units > MAX_CPS_UNITS:
        raise ValueError(f"enumeration is limited to N <= {MAX_CPS_UNITS}")
    sizes = draws.sum(axis=1)
    n = int(sizes[0])
    if np.any(sizes != n):
        raise ValueError("draws must share one sample size")
    ind = _size_n_universe(n_units, n)
    bits = np.int64(1) << np.arange(n_units, dtype=np.int64)
    codes = ind.astype(np.int64) @ bits
    drawn = draws.astype(np.int64) @ bits
    order = np.argsort(codes)
    slot = order[np.searchsorted(codes[order], drawn)]
    counts = np.bincount(slot, minlength=ind.shape[0]).astype(float)
    return DesignDistribution(indicators=ind, probability=counts / draws.shape[0])


def exact_inclusion_orders(d: DesignDistribution) -> tuple[np.ndarray, np.ndarray]:
    """First-order probabilities π_i = Σ_{s: s_i=1} P(s) and the matrix
    of second-order π_ij (diagonal π_ii = π_i)."""
    ind = d.indicators.astype(float)
    pi = d.probability @ ind
    pi2 = (ind * d.probability[:, None]).T @ ind
    return pi, pi2


def exact_design_moments(
    d: DesignDistribution, statistic: Callable[[np.ndarray], float]
) -> tuple[float, float]:
    """Exact mean and variance of a per-sample statistic under the design."""
    values = np.array([float(statistic(row)) for row in d.indicators])
    mean = float(d.probability @ values)
    var = float(d.probability @ (values - mean) ** 2)
    return mean, var


def total_variation(d1: DesignDistribution, d2: DesignDistribution) -> float:
    """Σ_s |P₁(s) − P₂(s)| over the union of supports.

    The unhalved convention is used throughout, so disjoint supports
    give 2, not 1.
    """
    if d1.n_units != d2.n_units:
        raise ValueError("designs must share a universe of units")
    bits = np.int64(1) << np.arange(d1.n_units, dtype=np.int64)
    acc: dict[int, float] = {}
    for d, sign in ((d1, 1.0), (d2, -1.0)):
        codes = d.indicators.astype(np.int64) @ bits
        for code, prob in zip(codes.tolist(), d.probability.tolist()):
            acc[code] = acc.get(code, 0.0) + sign * prob
    return float(sum(abs(v) for v in acc.values()))

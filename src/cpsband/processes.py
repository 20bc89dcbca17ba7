"""Design-based empirical processes over the CDF indicator class.

Every path built from the class I(y <= t) is a right-continuous step in
t that is 0 below the smallest y and jumps only at the y, so its values
at the distinct y determine it, and the largest of their absolute values
(or 0) is its exact sup over the real line.  ``step_values`` reads such
a path from y and per-unit weights; the Gaussian paths of ``inference``
take its sort order and tie-group ends from ``tie_groups``.
"""

from __future__ import annotations

import math

import numpy as np

from .calibration import InclusionProbabilities, PopulationFrame
from .samplers import SampleIndicators

__all__ = [
    "hajek_evaluate",
    "htep_evaluate",
    "step_values",
    "tie_groups",
]


def tie_groups(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable sort order of y, and the positions in that order of
    the last unit of each group of equal y."""
    order = np.argsort(y, kind="stable")
    y_sorted = y[order]
    ends = np.ones(y_sorted.shape, dtype=bool)
    ends[:-1] = y_sorted[1:] != y_sorted[:-1]
    return order, np.flatnonzero(ends)


def step_values(y: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct y in increasing order, and Σ_i w_i I(y_i <= t) at each
    of them: the cumulative weight at the last unit of each tie group."""
    order, last = tie_groups(y)
    return y[order[last]], np.cumsum(weights[order])[last]


def _check_lengths(
    pop: PopulationFrame, pi: InclusionProbabilities, s: SampleIndicators
) -> None:
    if not pop.size == pi.pi.shape[0] == s.s.shape[0]:
        raise ValueError("population, probabilities, and sample lengths differ")


def _weighted_process(
    pop: PopulationFrame,
    pi: InclusionProbabilities,
    s: SampleIndicators,
    c: float,
) -> tuple[np.ndarray, np.ndarray]:
    """N^{-1/2} Σ_i (c S_i/π_i − 1) I(y_i <= t) at the distinct population
    y t in increasing order."""
    weights = c * (s.s / pi.pi) - 1.0
    scale = 1.0 / math.sqrt(pop.size)
    t, counts = step_values(pop.y, weights)
    return t, scale * counts


def htep_evaluate(
    pop: PopulationFrame,
    pi: InclusionProbabilities,
    s: SampleIndicators,
) -> tuple[np.ndarray, np.ndarray]:
    """Horvitz-Thompson empirical process
    N^{-1/2} Σ_i (S_i/π_i − 1) I(y_i <= t), as the distinct population y t
    in increasing order and the process at each."""
    _check_lengths(pop, pi, s)
    return _weighted_process(pop, pi, s, 1.0)


def hajek_evaluate(
    pop: PopulationFrame,
    pi: InclusionProbabilities,
    s: SampleIndicators,
) -> tuple[np.ndarray, np.ndarray]:
    """Hájek empirical process, the HT estimator of the CDF recentered by
    the estimated population size N̂ = Σ S_i/π_i:
    √N (N̂^{-1} Σ (S_i/π_i) I(y_i <= t) − N^{-1} Σ I(y_i <= t)), as the
    distinct population y t in increasing order and the process at each."""
    _check_lengths(pop, pi, s)
    n_hat = float((s.s / pi.pi).sum())
    if n_hat == 0.0:
        raise ValueError("estimated population size is zero (empty sample)")
    return _weighted_process(pop, pi, s, pop.size / n_hat)

"""Design-based empirical processes over the CDF indicator class.

Every path built from the class I(y <= t) is a right-continuous step in
t that is 0 below the smallest y and jumps only at the y, so its values
at the distinct y determine it, and the largest of their absolute values
(or 0) is its exact sup over the real line.  ``empirical_processes``
reads the HT and Hájek processes from one sort of the population y,
``step_values`` reads any such path from y and per-unit weights, and the
Gaussian paths of ``inference`` take their sort order and tie-group ends
from ``tie_groups``.
"""

from __future__ import annotations

import math

import numpy as np

from .calibration import InclusionProbabilities, PopulationFrame
from .samplers import SampleIndicators

__all__ = [
    "empirical_processes",
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


def empirical_processes(
    pop: PopulationFrame,
    pi: InclusionProbabilities,
    s: SampleIndicators,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct population y t in increasing order, and the
    Horvitz-Thompson and Hájek empirical processes at each of them.

    Both are N^{-1/2} Σ_i (c S_i/π_i − 1) I(y_i <= t): c = 1 gives the HT
    process, and c = N/N̂ with N̂ = Σ S_i/π_i gives the Hájek one,
    √N (N̂^{-1} Σ (S_i/π_i) I(y_i <= t) − N^{-1} Σ I(y_i <= t)).  The two
    share one sort of y."""
    if not pop.size == pi.pi.shape[0] == s.s.shape[0]:
        raise ValueError("population, probabilities, and sample lengths differ")
    r = s.s / pi.pi
    n_hat = float(r.sum())
    if n_hat == 0.0:
        raise ValueError("estimated population size is zero (empty sample)")
    order, last = tie_groups(pop.y)
    scale = 1.0 / math.sqrt(pop.size)
    ht, hajek = (
        scale * np.cumsum((c * r - 1.0)[order])[last]
        for c in (1.0, pop.size / n_hat)
    )
    return pop.y[order[last]], ht, hajek

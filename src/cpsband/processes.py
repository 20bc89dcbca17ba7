"""Design-based CDF estimates over the indicator class I(y <= t).

Every CDF built from the class is a right-continuous step in t that is 0
below the smallest y and jumps only at the y, so its values at the
distinct y determine it, and the largest absolute difference of two of
them there (or 0) is their exact sup distance over the real line.
``cdf_estimates`` reads the population CDF F_N and its Horvitz-Thompson
and Hájek estimates from one sort of the population y; the empirical
processes are √N (F̂ − F_N).  The Gaussian paths of ``inference`` take
their sort order and tie-group ends from ``tie_groups``.
"""

from __future__ import annotations

import numpy as np

from .calibration import InclusionProbabilities, PopulationFrame
from .samplers import SampleIndicators

__all__ = [
    "cdf_estimates",
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


def cdf_estimates(
    pop: PopulationFrame,
    pi: InclusionProbabilities,
    s: SampleIndicators,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct population y t in increasing order, and there the
    population CDF F_N = N^{-1} Σ I(y_i <= t) and its Horvitz-Thompson and
    Hájek estimates Σ (S_i/π_i) I(y_i <= t) over N and over N̂ = Σ S_i/π_i.
    Each is a cumulative sum of w/total in y order, so a census gives
    F̂ ≡ F_N bit for bit."""
    if not pop.size == pi.pi.shape[0] == s.s.shape[0]:
        raise ValueError("population, probabilities, and sample lengths differ")
    r = s.s / pi.pi
    n_hat = float(r.sum())
    if n_hat == 0.0:
        raise ValueError("estimated population size is zero (empty sample)")
    order, last = tie_groups(pop.y)
    cdf, cdf_ht, cdf_hajek = (
        np.cumsum((w / total)[order])[last]
        for w, total in ((np.ones(pop.size), pop.size), (r, pop.size), (r, n_hat))
    )
    return pop.y[order[last]], cdf, cdf_ht, cdf_hajek

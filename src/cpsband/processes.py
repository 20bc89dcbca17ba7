"""Design-based empirical processes over the CDF indicator class.

All evaluations are step functions of the threshold t that jump only
where the population outcomes sit, so holding the values and the left
limits at each population point captures the entire path.  Sup norms
taken over those two arrays are exact sups over the whole real line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import InclusionProbabilities, PopulationFrame, _frozen_array
from .samplers import SampleIndicators

__all__ = [
    "ProcessEvaluation",
    "ThresholdGrid",
    "hajek_evaluate",
    "htep_evaluate",
    "sup_norm_cdf",
]


@dataclass(frozen=True)
class ThresholdGrid:
    """Strictly increasing thresholds t for the indicators I(y <= t)."""

    t: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        if t.ndim != 1 or t.shape[0] < 1:
            raise ValueError("grid must be a nonempty 1-d array")
        if not np.all(np.isfinite(t)):
            raise ValueError("grid must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "t", _frozen_array(t, float))

    @classmethod
    def from_population(cls, y: np.ndarray) -> "ThresholdGrid":
        """Deduplicated sorted outcomes; the exact-sup grid for step paths."""
        return cls(t=np.unique(np.asarray(y, dtype=float)))

    @property
    def size(self) -> int:
        return self.t.shape[0]


@dataclass(frozen=True)
class ProcessEvaluation:
    """Process values and left limits on a threshold grid."""

    grid: ThresholdGrid
    values: np.ndarray
    values_left: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        left = np.asarray(self.values_left, dtype=float)
        if values.shape != (self.grid.size,) or left.shape != values.shape:
            raise ValueError("evaluation arrays must align with the grid")
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(left))):
            raise ValueError("evaluation must be finite")
        object.__setattr__(self, "values", _frozen_array(values, float))
        object.__setattr__(self, "values_left", _frozen_array(left, float))


def _weighted_counts(
    y: np.ndarray, weights: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Σ_i w_i I(y_i <= t) and the strict (< t) version, per threshold."""
    order = np.argsort(y, kind="stable")
    cum = np.concatenate(([0.0], np.cumsum(weights[order])))
    y_sorted = y[order]
    right = cum[np.searchsorted(y_sorted, t, side="right")]
    left = cum[np.searchsorted(y_sorted, t, side="left")]
    return right, left


def _check_lengths(
    pop: PopulationFrame, pi: InclusionProbabilities, s: SampleIndicators
) -> None:
    if not pop.size == pi.pi.shape[0] == s.s.shape[0]:
        raise ValueError("population, probabilities, and sample lengths differ")


def htep_evaluate(
    pop: PopulationFrame,
    pi: InclusionProbabilities,
    s: SampleIndicators,
    grid: ThresholdGrid,
) -> ProcessEvaluation:
    """Horvitz-Thompson empirical process
    N^{-1/2} Σ_i (S_i/π_i − 1) I(y_i <= t)."""
    _check_lengths(pop, pi, s)
    weights = s.s / pi.pi - 1.0
    scale = 1.0 / math.sqrt(pop.size)
    right, left = _weighted_counts(pop.y, weights, grid.t)
    return ProcessEvaluation(grid=grid, values=scale * right, values_left=scale * left)


def hajek_evaluate(
    pop: PopulationFrame,
    pi: InclusionProbabilities,
    s: SampleIndicators,
    grid: ThresholdGrid,
) -> ProcessEvaluation:
    """Hájek empirical process, the HT estimator of the CDF recentered by
    the estimated population size N̂ = Σ S_i/π_i:
    √N (N̂^{-1} Σ (S_i/π_i) I(y_i <= t) − N^{-1} Σ I(y_i <= t))."""
    _check_lengths(pop, pi, s)
    n_hat = float((s.s / pi.pi).sum())
    if n_hat == 0.0:
        raise ValueError("estimated population size is zero (empty sample)")
    weights = (pop.size / n_hat) * (s.s / pi.pi) - 1.0
    scale = 1.0 / math.sqrt(pop.size)
    right, left = _weighted_counts(pop.y, weights, grid.t)
    return ProcessEvaluation(grid=grid, values=scale * right, values_left=scale * left)


def sup_norm_cdf(ev: ProcessEvaluation) -> float:
    """Exact sup_t of the absolute process over all of ℝ.

    The path is a step function jumping only at grid points and zero
    below the first one, so the sup is attained among the stored values
    and left limits.
    """
    return float(
        max(np.abs(ev.values).max(initial=0.0), np.abs(ev.values_left).max(initial=0.0))
    )

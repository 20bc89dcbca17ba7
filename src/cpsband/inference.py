"""Gaussian sup-norm quantiles and confidence bands.

``band_pipeline`` is the one band chain that the coverage experiment
and the ``band`` command share: the sup statistics √N·max|F̂ − F_N| of
both processes from the CDFs of ``processes.cdf_estimates``, one
Gaussian draw, sup quantiles and the coverage rule.  Every path is a
step function read at its jumps (see ``processes``), so each sup is the
largest absolute value there.  The plug-in
covariance of either empirical process on the sampled thresholds is
AᵀA for an n×n matrix A with one row per sampled unit, so the pipeline
draws its Gaussian paths as ξA, with no covariance to form or
factorize.  It draws ξ in blocks of rows that fit in cache and keeps
only each path's sup, so the draw takes O(B'·n) time and
O(block·n + B') memory.  The simulated sup quantile gives a
uniform band of half-width q_hat / sqrt(N) around the estimated CDF
that the pipeline hands back, which ``cpsband band`` writes out
clipped to [0, 1]; the coverage experiment keeps only the statistics.
Both process variants share one set of Gaussian draws, which keeps
their quantiles comparable replication by replication.  The n×n
plug-in estimates that AᵀA is tested against, and the analytic limit
covariance of the functional CLT that they converge to, live in
tests/helpers.py.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .calibration import InclusionProbabilities, PopulationFrame
from .processes import cdf_estimates, tie_groups
from .samplers import RngStream, SampleIndicators

__all__ = [
    "BandStatistics",
    "band_pipeline",
    "simulate_sup_norms",
    "sup_quantile",
]

# A block of ξ holds about 2^18 bytes (256 KiB) of rows, so the passes
# over it run in cache and the draw's memory does not grow with B'.  A
# block is a multiple of 8 rows, at least 8, and the last one takes the
# remainder.  OpenBLAS dgemv computes ξ @ π for groups of rows and rounds
# a row that falls in a short tail group differently (163-row blocks
# changed 15 of 1000 rows at n = 200); with this rule every row falls in
# the kind of group it would in one B'×n product, so with BLAS on one
# thread the sups keep the bits of an unblocked draw.
_BLOCK_BYTES = 2**18


class _PathConstants(NamedTuple):
    """The per-sample part of the Gaussian paths ξA, in y order."""

    last: np.ndarray  # position of the last unit of each tie group
    pi: np.ndarray
    scale: np.ndarray  # √(1−π)/π
    slope: np.ndarray  # Σ ((1−π)/π) / d_N up to each tie group's end
    f_hat: np.ndarray  # F̂ at each tie group's end
    norm_ht: float  # √N
    norm_hajek: float  # √N̂


def _path_constants(
    y_s: np.ndarray, pi_s: np.ndarray, d_n: float, n_units: int
) -> _PathConstants:
    order, last = tie_groups(y_s)
    pi = pi_s[order]
    # d_N = 0 only when every π is 0 or 1, so then every sampled odds is 0.
    slope = np.cumsum((1.0 - pi) / pi) / (d_n or 1.0)
    inv_pi = 1.0 / pi
    n_hat = float(inv_pi.sum())
    f_hat = np.cumsum(inv_pi) / n_hat
    return _PathConstants(
        last=last,
        pi=pi,
        scale=np.sqrt(1.0 - pi) / pi,
        slope=slope[last],
        f_hat=f_hat[last],
        norm_ht=math.sqrt(n_units),
        norm_hajek=math.sqrt(n_hat),
    )


def _gaussian_paths(
    xi: np.ndarray, c: _PathConstants, ht: np.ndarray, hajek: np.ndarray
) -> None:
    """Rows ξA of the HT and Hájek Gaussian paths on the distinct sampled
    y in increasing order, times √N and √N̂, written to ``ht`` and
    ``hajek``; ξ is overwritten.

    Column j of ξ weights the j-th sampled unit in y order.  With
    w = (1−π)/π² and Z the Z scores of the n×n HT plug-in estimate
    (estimate_cov_ht in tests/helpers.py), A = diag(√w) Z/√N has AᵀA
    equal to that estimate.  The Hájek A takes the Z scores of the
    indicators centered at F̂_r = Σ_s (1/π) I(y <= t_r) / N̂, that is
    Z_{k,r} − F̂_r (1 − π_k c) with c = Σ_s ((1−π)/π) / d_N the last HT
    slope, and N̂ in place of N; its AᵀA is estimate_cov_hajek there.
    I(y_k <= t_r) selects a prefix of the sorted units, so ξA is a
    cumulative sum read at the last unit of each tie group minus
    rank-one terms.
    """
    xi *= c.scale
    u_pi = xi @ c.pi
    u_one = xi.sum(axis=1) - c.slope[-1] * u_pi
    np.cumsum(xi, axis=1, out=xi)
    # Every index is in range; mode="clip" lets take write to ``ht``
    # without an intermediate copy.
    np.take(xi, c.last, axis=1, out=ht, mode="clip")
    # ``hajek`` holds each rank-one term before it takes the Hájek path.
    np.multiply.outer(u_pi, c.slope, out=hajek)
    ht -= hajek
    np.multiply.outer(u_one, c.f_hat, out=hajek)
    np.subtract(ht, hajek, out=hajek)


def simulate_sup_norms(
    y_s: np.ndarray,
    pi_s: np.ndarray,
    d_n: float,
    n_units: int,
    b_prime: int,
    rng: RngStream,
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted sup norms of B' Gaussian paths with the HT and the Hájek
    plug-in covariance on the sampled thresholds, from the sampled y and
    π, the size variance d_N = Σ_U π(1−π) and the population size N.

    Both share one B'×n standard normal draw, which depends only on the
    stream and n.  It is drawn in blocks of rows, which continue one
    stream, so the blocks together are that one draw.  Time is O(B'·n)
    and memory O(block·n + B'); a census gives zero sups.
    """
    if b_prime < 100:
        raise ValueError("b_prime must be at least 100")
    if y_s.shape[0] == 0:
        raise ValueError("the sample is empty; there are no paths to draw")
    c = _path_constants(y_s, pi_s, d_n, n_units)
    n, groups = c.pi.shape[0], c.last.shape[0]
    rows = max(8, _BLOCK_BYTES // (8 * n) // 8 * 8)
    bounds = [k * rows for k in range(max(b_prime // rows, 1))] + [b_prime]
    most = b_prime - bounds[-2]
    xi = np.empty((most, n))
    ht, hajek = np.empty((most, groups)), np.empty((most, groups))
    sups = np.empty((2, b_prime))
    gen = rng.generator()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        k = hi - lo
        _gaussian_paths(gen.standard_normal(out=xi[:k]), c, ht[:k], hajek[:k])
        for sup, g in zip(sups[:, lo:hi], (ht[:k], hajek[:k])):
            np.abs(g, out=g).max(axis=1, out=sup)
    sups.sort(axis=1)
    # Rounded division by a positive number is monotone and commutes with
    # |·|, so dividing the sorted maxima gives the sorted sups of the
    # divided paths bit for bit.
    sups[0] /= c.norm_ht
    sups[1] /= c.norm_hajek
    return sups[0], sups[1]


def sup_quantile(sorted_sups: np.ndarray, gamma: float) -> float:
    """The gamma-quantile of B' sorted simulated sup norms, taken as the
    order statistic at index ceil(gamma·B'), which never falls below the
    true empirical quantile."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    rank = gamma * sorted_sups.shape[0]
    # The product carries rounding error (0.55·100 evaluates to
    # 55.00000000000001), so one within a few ulps of a whole number is
    # taken as that number.
    nearest = round(rank)
    if abs(rank - nearest) <= 4 * math.ulp(rank):
        rank = nearest
    return float(sorted_sups[math.ceil(rank) - 1])


class BandStatistics(NamedTuple):
    """Sup statistics of the HT and Hájek processes on one sample, and
    their simulated sup quantiles, one per confidence level."""

    sup_ht: float
    sup_hajek: float
    q_ht: tuple[float, ...]
    q_hajek: tuple[float, ...]

    def sup(self, estimator: str) -> float:
        """The "HT" or "HAJEK" sup statistic."""
        return {"HT": self.sup_ht, "HAJEK": self.sup_hajek}[estimator]

    def quantile(self, estimator: str, level_index: int) -> float:
        """The "HT" or "HAJEK" sup quantile at one level."""
        return {"HT": self.q_ht, "HAJEK": self.q_hajek}[estimator][level_index]

    def covered(self, estimator: str, level_index: int) -> bool:
        """Whether that estimator's band at that level covers the
        population CDF: sup <= q_hat, a closed inequality, so a sup that
        hits the quantile counts as covered."""
        return self.sup(estimator) <= self.quantile(estimator, level_index)


def band_pipeline(
    population: PopulationFrame,
    incl: InclusionProbabilities,
    sample: SampleIndicators,
    levels: tuple[float, ...],
    b_prime: int,
    stream: RngStream,
) -> tuple[BandStatistics, np.ndarray, dict[str, np.ndarray]]:
    """Both processes' exact sup statistics √N·max|F̂ − F_N| over the real
    line, and their sup quantiles at every level from one set of B'
    Gaussian paths drawn from ``stream`` on the sampled thresholds; with
    them the distinct population y and the "HT" and "HAJEK" estimated
    CDFs there, the centers of the bands."""
    t, cdf, cdf_ht, cdf_hajek = cdf_estimates(population, incl, sample)
    sup_ht, sup_hajek = (
        math.sqrt(population.size) * float(np.abs(f_hat - cdf).max(initial=0.0))
        for f_hat in (cdf_ht, cdf_hajek)
    )
    if not (math.isfinite(sup_ht) and math.isfinite(sup_hajek)):
        raise ValueError("sup statistic is not finite")
    sampled = sample.s == 1
    sups_ht, sups_hajek = simulate_sup_norms(
        population.y[sampled],
        incl.pi[sampled],
        float((incl.pi * (1.0 - incl.pi)).sum()),
        population.size,
        b_prime,
        stream,
    )
    stats = BandStatistics(
        sup_ht=sup_ht,
        sup_hajek=sup_hajek,
        q_ht=tuple(sup_quantile(sups_ht, g) for g in levels),
        q_hajek=tuple(sup_quantile(sups_hajek, g) for g in levels),
    )
    return stats, t, {"HT": cdf_ht, "HAJEK": cdf_hajek}

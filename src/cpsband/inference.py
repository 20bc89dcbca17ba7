"""Covariance estimation, sup-norm quantiles, and confidence bands.

``band_pipeline`` is the one band chain that the coverage experiment
and the ``band`` command share: sup statistics of both processes, one
Gaussian draw, sup quantiles and the coverage rule.  Every path is a
step function read at its jumps (see ``processes``), so each sup is the
largest absolute value there.  The plug-in
covariance of either empirical process on the sampled thresholds is
AᵀA for an n×n matrix A with one row per sampled unit, so the pipeline
draws its Gaussian paths as ξA, in O(B'·n), with no covariance to form
or factorize.  The simulated sup quantile gives a
uniform band of half-width q_hat / sqrt(N) around the estimated CDF,
which ``cpsband band`` writes out clipped to [0, 1].
Both process variants share one set of Gaussian draws, which keeps
their quantiles comparable replication by replication.  The n×n
estimates are the reference that AᵀA is tested against, and the
analytic limit covariance of the functional CLT is what they converge to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .calibration import InclusionProbabilities, PopulationFrame
from .processes import hajek_evaluate, htep_evaluate, tie_groups
from .samplers import RngStream, SampleIndicators

__all__ = [
    "BandStatistics",
    "LimitCovariance",
    "QuantileEstimate",
    "band_pipeline",
    "estimate_cov_hajek",
    "estimate_cov_ht",
    "limit_cov_hajek",
    "limit_cov_ht",
    "simulate_sup_norms",
    "sup_quantile",
]

# A population model draws (y, x) pairs; the bounded-size model in
# tests/test_inference.py is one.
PopulationModel = Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class QuantileEstimate:
    """Simulated gamma-quantile of a Gaussian sup norm."""

    gamma: float
    q_hat: float
    mc_draws: int

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.q_hat < 0.0:
            raise ValueError("quantile must be nonnegative")
        if self.mc_draws < 1:
            raise ValueError("mc_draws must be positive")


def _sampled_indicators(
    pop: PopulationFrame,
    pi: InclusionProbabilities,
    s: SampleIndicators,
    thresholds: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """I(Y_k <= t_r) of the sampled units k, their π, and d_N = Σ_U π(1−π)."""
    thr = np.asarray(thresholds, dtype=float)
    if thr.ndim != 1 or thr.shape[0] < 1:
        raise ValueError("thresholds must be a nonempty 1-d array")
    d_n = float((pi.pi * (1.0 - pi.pi)).sum())
    if d_n == 0.0:
        raise ValueError("design has zero size variance; no covariance to estimate")
    sampled = np.flatnonzero(s.s == 1)
    ind = (pop.y[sampled, None] <= thr[None, :]).astype(float)
    return ind, pi.pi[sampled], d_n


def _z_scores(values: np.ndarray, pi_s: np.ndarray, d_n: float) -> np.ndarray:
    """Z = v − π·slope, slope = Σ_s ((1−π)/π) v / d_N: the sampled values v
    with their projection on the sample-size overshoot removed."""
    slope = ((1.0 - pi_s) / pi_s) @ values / d_n
    return values - pi_s[:, None] * slope[None, :]


def _plug_in(z: np.ndarray, pi_s: np.ndarray, norm: float) -> np.ndarray:
    """norm^{-1} Σ_k ((1−π_k)/π_k²) Z_{k,r} Z_{k,c}, symmetrized."""
    weight = (1.0 - pi_s) / pi_s**2
    matrix = (z * weight[:, None]).T @ z / norm
    return (matrix + matrix.T) / 2.0


def estimate_cov_ht(
    pop: PopulationFrame,
    pi: InclusionProbabilities,
    s: SampleIndicators,
    sampled_thresholds: np.ndarray,
) -> np.ndarray:
    """Plug-in covariance of the Horvitz-Thompson process on the sampled
    thresholds: N^{-1} Σ_k s_k ((1−π_k)/π_k²) Z_{k,r} Z_{k,c}."""
    ind, pi_s, d_n = _sampled_indicators(pop, pi, s, sampled_thresholds)
    return _plug_in(_z_scores(ind, pi_s, d_n), pi_s, pop.size)


def estimate_cov_hajek(
    pop: PopulationFrame,
    pi: InclusionProbabilities,
    s: SampleIndicators,
    sampled_thresholds: np.ndarray,
) -> np.ndarray:
    """As estimate_cov_ht, normalized by N̂ = Σ s_k/π_k, with the indicators
    centered at the Hájek CDF F̂_r = Σ_s (1/π) I(y <= t_r) / N̂ before the
    projection: the fixed-size variance ignores multiples of π but not
    constants, and the projection of 1, 1 − π_k c with
    c = Σ_s ((1−π)/π) / d_N, vanishes only under equal π."""
    ind, pi_s, d_n = _sampled_indicators(pop, pi, s, sampled_thresholds)
    inv_pi = 1.0 / pi_s
    n_hat = float(inv_pi.sum())
    if n_hat == 0.0:
        raise ValueError("estimated population size is zero (empty sample)")
    z = _z_scores(ind - inv_pi @ ind / n_hat, pi_s, d_n)
    return _plug_in(z, pi_s, n_hat)


class LimitCovariance(NamedTuple):
    value: float
    stderr: float


def _kappa(x: np.ndarray, theta: float) -> np.ndarray:
    """Limit inclusion fraction κ(X) = θ·min(w, E w/θ)/E w with w = X."""
    mean_w = float(x.mean())
    w_theta = np.minimum(x, mean_w / theta)
    return theta * w_theta / mean_w


def _sigma_prime_terms(
    f_vals: np.ndarray, g_vals: np.ndarray, kappa: np.ndarray
) -> np.ndarray:
    """Per-draw integrands of the limit covariance of the HT process."""
    weight = (1.0 - kappa) / kappa
    denom = float((kappa * (1.0 - kappa)).mean())
    r_f = float((f_vals * (1.0 - kappa)).mean()) / denom
    r_g = float((g_vals * (1.0 - kappa)).mean()) / denom
    return weight * (f_vals - r_f * kappa) * (g_vals - r_g * kappa)


def limit_cov_ht(
    f: Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    model: PopulationModel,
    theta: float,
    mc_n: int,
    rng: RngStream,
) -> LimitCovariance:
    """Monte Carlo estimate of the analytic limit covariance of the
    Horvitz-Thompson process at functions f and g:
    E[((1−κ)/κ)(f(Y) − R(f)κ)(g(Y) − R(g)κ)]."""
    if mc_n < 10_000:
        raise ValueError("mc_n must be at least 10^4")
    gen = rng.generator()
    y, x = model(gen, mc_n)
    kappa = _kappa(x, theta)
    terms = _sigma_prime_terms(f(y), g(y), kappa)
    return LimitCovariance(
        value=float(terms.mean()),
        stderr=float(terms.std(ddof=1) / math.sqrt(mc_n)),
    )


def limit_cov_hajek(
    f: Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    model: PopulationModel,
    theta: float,
    mc_n: int,
    rng: RngStream,
) -> LimitCovariance:
    """Limit covariance of the Hájek process, the four-term correction of
    the Horvitz-Thompson one by the constant function; all four terms
    share one Monte Carlo draw so constants cancel exactly."""
    if mc_n < 10_000:
        raise ValueError("mc_n must be at least 10^4")
    gen = rng.generator()
    y, x = model(gen, mc_n)
    kappa = _kappa(x, theta)
    f_vals, g_vals = f(y), g(y)
    ones = np.ones_like(y, dtype=float)
    mean_f = float(f_vals.mean())
    mean_g = float(g_vals.mean())
    terms = (
        _sigma_prime_terms(f_vals, g_vals, kappa)
        - mean_f * _sigma_prime_terms(ones, g_vals, kappa)
        - mean_g * _sigma_prime_terms(f_vals, ones, kappa)
        + mean_f * mean_g * _sigma_prime_terms(ones, ones, kappa)
    )
    return LimitCovariance(
        value=float(terms.mean()),
        stderr=float(terms.std(ddof=1) / math.sqrt(mc_n)),
    )


def _gaussian_paths(
    xi: np.ndarray, y_s: np.ndarray, pi_s: np.ndarray, d_n: float, n_units: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ξA of the HT and Hájek Gaussian paths on the distinct sampled
    y in increasing order; ξ is overwritten.

    Column j of ξ weights the j-th sampled unit in y order.  With
    w = (1−π)/π² and Z the Z scores of estimate_cov_ht, A = diag(√w) Z/√N
    has AᵀA = estimate_cov_ht.  The Hájek A takes the Z scores of the
    indicators centered at F̂_r = Σ_s (1/π) I(y <= t_r) / N̂, that is
    Z_{k,r} − F̂_r (1 − π_k c) with c = Σ_s ((1−π)/π) / d_N the last HT
    slope, and N̂ in place of N; its AᵀA is estimate_cov_hajek.
    I(y_k <= t_r) selects a prefix of the sorted units, so ξA is a
    cumulative sum minus rank-one terms, read at the last unit of each
    tie group.
    """
    order, last = tie_groups(y_s)
    pi = pi_s[order]
    # d_N = 0 only when every π is 0 or 1, so then every sampled odds is 0.
    slope = np.cumsum((1.0 - pi) / pi) / (d_n or 1.0)
    inv_pi = 1.0 / pi
    n_hat = float(inv_pi.sum())
    f_hat = np.cumsum(inv_pi) / n_hat
    xi *= np.sqrt(1.0 - pi) / pi
    u_pi = xi @ pi
    u_one = xi.sum(axis=1) - slope[-1] * u_pi
    np.cumsum(xi, axis=1, out=xi)
    rank_one = np.multiply.outer(u_pi, slope)
    xi -= rank_one
    g_ht = xi[:, last]
    g_ht /= math.sqrt(n_units)
    np.multiply.outer(u_one, f_hat, out=rank_one)
    xi -= rank_one
    g_hajek = xi[:, last]
    g_hajek /= math.sqrt(n_hat)
    return g_ht, g_hajek


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
    stream and n.  Time and memory are O(B'·n); a census gives zero sups.
    """
    if b_prime < 100:
        raise ValueError("b_prime must be at least 100")
    xi = rng.generator().standard_normal((b_prime, y_s.shape[0]))
    paths = _gaussian_paths(xi, y_s, pi_s, d_n, n_units)
    return tuple(np.sort(np.abs(g, out=g).max(axis=1)) for g in paths)


def sup_quantile(sorted_sups: np.ndarray, gamma: float) -> QuantileEstimate:
    """The gamma-quantile of B' sorted simulated sup norms, taken as the
    order statistic at index ceil(gamma·B'), which never falls below the
    true empirical quantile."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    b_prime = sorted_sups.shape[0]
    rank = gamma * b_prime
    # The product carries rounding error (0.55·100 evaluates to
    # 55.00000000000001), so one within a few ulps of a whole number is
    # taken as that number.
    nearest = round(rank)
    if abs(rank - nearest) <= 4 * math.ulp(rank):
        rank = nearest
    index = math.ceil(rank) - 1
    return QuantileEstimate(
        gamma=gamma, q_hat=float(sorted_sups[index]), mc_draws=b_prime
    )


@dataclass(frozen=True)
class BandStatistics:
    """Sup statistics of the HT and Hájek processes on one sample, and
    their simulated sup quantiles, one per confidence level."""

    sup_ht: float
    sup_hajek: float
    q_ht: tuple[QuantileEstimate, ...]
    q_hajek: tuple[QuantileEstimate, ...]

    def sup(self, estimator: str) -> float:
        """The "HT" or "HAJEK" sup statistic."""
        return {"HT": self.sup_ht, "HAJEK": self.sup_hajek}[estimator]

    def quantile(self, estimator: str, level_index: int) -> QuantileEstimate:
        """The "HT" or "HAJEK" sup quantile at one level."""
        return {"HT": self.q_ht, "HAJEK": self.q_hajek}[estimator][level_index]

    def covered(self, estimator: str, level_index: int) -> bool:
        """Whether that estimator's band at that level covers the
        population CDF: sup <= q_hat, a closed inequality, so a sup that
        hits the quantile counts as covered."""
        return self.sup(estimator) <= self.quantile(estimator, level_index).q_hat


def band_pipeline(
    population: PopulationFrame,
    incl: InclusionProbabilities,
    sample: SampleIndicators,
    levels: tuple[float, ...],
    b_prime: int,
    stream: RngStream,
) -> BandStatistics:
    """Both processes' exact sup statistics over the real line, and
    their sup quantiles at every level from one set of B' Gaussian paths
    drawn from ``stream`` on the sampled thresholds."""
    _, ht = htep_evaluate(population, incl, sample)
    _, hajek = hajek_evaluate(population, incl, sample)
    sup_ht, sup_hajek = (float(np.abs(v).max(initial=0.0)) for v in (ht, hajek))
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
    return BandStatistics(
        sup_ht=sup_ht,
        sup_hajek=sup_hajek,
        q_ht=tuple(sup_quantile(sups_ht, g) for g in levels),
        q_hajek=tuple(sup_quantile(sups_hajek, g) for g in levels),
    )

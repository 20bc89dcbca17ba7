"""Reference implementations the tests trust over the package: brute-force
sums and exact solves, the n×n plug-in covariances that the Gaussian
draws must reproduce, the paper's analytic limit covariance of both
processes and its truncation constant θ, which the plug-in estimates
converge to, the earlier design kernel that the shipped one must match
bit for bit, the independent (Poisson) design's law and its size-n
conditioning, and the canonical representative of a parameter vector
that the design strategies build on, by a bisection for the common
log-odds shift that the package's Newton shift must match."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from cpsband import (
    CalibrationError,
    CanonicalPoissonParams,
    InclusionProbabilities,
    PopulationFrame,
    RngStream,
    SampleIndicators,
)
from cpsband.calibration import _clipped_scale, _expit, _logit
from cpsband.oracle import DesignDistribution
from cpsband.processes import tie_groups


def esp_exact(odds: list[Fraction | int], k: int) -> Fraction:
    """e_k by direct summation over all size-k subsets."""
    if k == 0:
        return Fraction(1)
    if k > len(odds):
        return Fraction(0)
    total = Fraction(0)
    for combo in combinations(odds, k):
        prod = Fraction(1)
        for value in combo:
            prod *= value
        total += prod
    return total


def poisson_law(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The independent-indicator law over all 2^N samples: one indicator
    row per sample, unit i in bit i of the row's index, and its
    probability."""
    n_units = p.shape[0]
    codes = np.arange(2**n_units, dtype=np.int64)
    ind = ((codes[:, None] >> np.arange(n_units)) & 1).astype(np.int8)
    return ind, np.prod(np.where(ind == 1, p, 1.0 - p), axis=1)


def conditioned_law(p: np.ndarray, n: int) -> DesignDistribution:
    """The size-n law of the independent design on p, by conditioning
    its enumeration on the sample size."""
    ind, prob = poisson_law(p)
    size_n = ind.sum(axis=1) == n
    return DesignDistribution(
        indicators=ind[size_n], probability=prob[size_n] / prob[size_n].sum()
    )


def weighted_cdf_counts_brute(
    y: np.ndarray, weights: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """Direct sums the vectorised counting code must reproduce; a 2-d
    ``weights`` holds one weight vector per row and gives one column per
    row.  Each chunk of thresholds forms the full (chunk x n) matrix of
    y <= t and sums the weights it selects, with no sort."""
    chunk = 4096
    out = []
    for start in range(0, t.shape[0], chunk):
        below = y <= t[start:start + chunk, None]
        out.append(np.where(below, weights[..., None, :], 0.0).sum(axis=-1).T)
    return np.concatenate(out)


def bounded_size_model(gen: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(y, x) for m units: sizes x ~ U(0.5, 2) and outcomes
    y = x + N(0, x²), so size-proportional weights 1/π stay within a
    factor 4 of each other."""
    x = gen.uniform(0.5, 2.0, size=m)
    return x + gen.normal(0.0, x), x


# A population model draws (y, x) pairs; bounded_size_model above
# is one.
PopulationModel = Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]


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
    """Limit covariance of the Hájek process: the Horvitz-Thompson one at
    the centered functions f − f̄ and g − ḡ.  ``limit_cov_ht`` applies
    each function once to its whole Monte Carlo draw, so the means are
    taken on that same draw.  The integrand is bilinear in (f, g), so
    this is the four-term correction of the HT covariance by the
    constant function, and constants cancel exactly."""
    return limit_cov_ht(
        lambda y: f(y) - f(y).mean(),
        lambda y: g(y) - g(y).mean(),
        model, theta, mc_n, rng,
    )


def solve_truncation_constant(alpha: float, w_samples: np.ndarray) -> float:
    """The unique positive constant theta with
    mean_i min(theta * w_i / mean(w), 1) = alpha.

    That is sum_i min(c w_i, 1) = alpha N with c = theta / mean(w), the
    equation ``pips_probabilities`` solves, so theta comes from the same
    exact solve.
    """
    if not 0.0 < alpha < 1.0:
        raise CalibrationError("alpha must lie in (0, 1)")
    w = np.asarray(w_samples, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise CalibrationError("w_samples must be a nonempty 1-d array")
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise CalibrationError("weights must be finite and positive")
    c, _ = _clipped_scale(w, alpha * w.shape[0])
    return c * float(w.mean())


def renormalize_logodds(logit_p: np.ndarray, n: int) -> np.ndarray:
    """Shift log-odds z by a common constant so the probabilities sum to
    n, for 0 < n < N.

    A common shift stays inside the odds-equivalence class of the
    fixed-size design, so this is exactly the canonical representative.
    With L = logit(n / N), every unit is at most n / N at the shift
    L - max z and at least n / N at L - min z, so those two shifts
    bracket the root.  Bisection closes the bracket widened by 1 on
    each side, so that rounding in the sum cannot put the root outside
    it when the z nearly coincide.
    """

    def total(shift: float) -> float:
        return float(_expit(logit_p + shift).sum())

    target = float(_logit(np.float64(n / logit_p.shape[0])))
    lo, hi = target - float(logit_p.max()) - 1.0, target - float(logit_p.min()) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        # Once lo and hi are adjacent doubles the midpoint rounds onto one
        # of them and further steps leave the bracket as it is.
        if not lo < mid < hi:
            break
        if total(mid) < n:
            lo = mid
        else:
            hi = mid
    return logit_p + 0.5 * (lo + hi)


def canonicalize_poisson(p, n: int) -> CanonicalPoissonParams:
    """The odds-equivalent representative whose parameters sum to n.

    Conditioning two independent designs on the same size yields the
    same fixed-size law whenever their odds are proportional, so any
    parameter vector can be traded for the one representative with
    sum p = n by a common log-odds shift.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise CalibrationError("p must be a 1-d array")
    if np.any(p <= 0) or np.any(p > 1):
        raise CalibrationError("p must lie in (0, 1]")
    out = np.ones(p.shape[0])
    free = p < 1.0
    count = int(free.sum())
    m = n - (p.shape[0] - count)
    if m < 0:
        raise CalibrationError("more deterministic units than sample slots")
    if count and m == 0:
        raise CalibrationError(
            "size-n law excludes every non-deterministic unit; "
            "no positive-parameter representative exists"
        )
    if 0 < m < count:
        out[free] = _expit(renormalize_logodds(_logit(p[free]), m))
    return CanonicalPoissonParams(p=out, n=n)


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


def unblocked_sup_norms(
    y_s: np.ndarray,
    pi_s: np.ndarray,
    d_n: float,
    n_units: int,
    b_prime: int,
    rng,
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted HT and Hájek Gaussian sup norms from one whole B'×n draw of
    ξ, as ``inference.simulate_sup_norms`` computed them before it drew
    in blocks of rows: ξA over the full matrix, then |·| and the row
    maxima."""
    xi = rng.generator().standard_normal((b_prime, y_s.shape[0]))
    order, last = tie_groups(y_s)
    pi = pi_s[order]
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
    return tuple(np.sort(np.abs(g, out=g).max(axis=1)) for g in (g_ht, g_hajek))


def reference_first_order(odds: np.ndarray, m: int) -> np.ndarray:
    """``esp.first_order`` as it stood before its loops wrote into
    buffers made once per call: every step allocates its temporaries.
    The shipped kernel must equal it bit for bit, ``ArithmeticError``
    included."""
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
    except FloatingPointError as exc:
        raise ArithmeticError(
            f"symmetric-function ratios left double precision (N = {n_units}, "
            f"m = {m}, odds in [{odds.min():.3g}, {odds.max():.3g}])"
        ) from exc
    # Push the distribution of open slots through the units in order.
    open_slots = np.zeros(m + 1)
    open_slots[-1] = 1.0
    pi = np.empty(n_units)
    for j, row in enumerate(table):
        take = open_slots * row
        pi[j] = take.sum()
        open_slots -= take
        open_slots[:-1] += take[1:]
    return np.minimum(pi, 1.0)


def binomial_central_interval(
    trials: int, prob: float, confidence: float
) -> tuple[int, int]:
    """Smallest central interval [lo, hi] with P(lo <= K <= hi) >= confidence."""
    log_q = math.log1p(-prob)
    log_p = math.log(prob)
    pmf = np.array(
        [
            math.exp(
                math.lgamma(trials + 1)
                - math.lgamma(k + 1)
                - math.lgamma(trials - k + 1)
                + k * log_p
                + (trials - k) * log_q
            )
            for k in range(trials + 1)
        ]
    )
    cdf = np.cumsum(pmf)
    tail = (1.0 - confidence) / 2.0
    lo = int(np.searchsorted(cdf, tail, side="left"))
    hi = int(np.searchsorted(cdf, 1.0 - tail, side="left"))
    return lo, hi


def pips_exact(x: list[int], n: int) -> np.ndarray:
    """Clipped size-proportional probabilities min(c x_i, 1) with
    sum = n, by water-filling in exact rational arithmetic: clip every
    unit with c x_i >= 1 and solve c again until the clipped set stays
    the same.  Each entry is the exact value rounded once to a float."""
    clipped: set[int] = set()
    while True:
        free = [i for i in range(len(x)) if i not in clipped]
        c = Fraction(n - len(clipped), sum(x[i] for i in free))
        again = {i for i in range(len(x)) if c * x[i] >= 1}
        if again == clipped:
            break
        clipped = again
    return np.array([1.0 if i in clipped else float(c * x[i]) for i in range(len(x))])

"""Brute-force reference implementations the tests trust over the package."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

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

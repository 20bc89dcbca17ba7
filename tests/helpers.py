"""Brute-force reference implementations the tests trust over the package."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np


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

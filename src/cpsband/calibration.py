"""Inclusion-probability calibration for fixed-size unequal-probability designs.

Covers three distinct conversions:

* size variable -> clipped proportional-to-size inclusion probabilities
  with an exact expected-sample-size constraint;
* independent-Bernoulli parameters -> the exact first-order inclusion
  probabilities of the size-conditioned (fixed n) design;
* the inverse of that map, recovering the canonical Bernoulli
  parameters (sum p = n) that induce given fixed-size inclusion
  probabilities.

A parameter vector fixes its fixed-size law together with n: units
with p = 1 are always sampled, and the free units (p < 1) share the
n - #certain open slots through one design kernel over their odds
p / (1 - p).  ``CanonicalPoissonParams`` carries that reduction once
(``free``, ``slots``, ``kernel``): the forward map reads the kernel, and
the sampler reads the certain units and the open slots.

Plus the weight-truncation constant θ of the large-sample covariance
formulas, which inference.limit_cov_ht and limit_cov_hajek take.  It
solves the same clipped-proportional equation as the first conversion,
sum_i min(c x_i, 1) = total, and both take c from one exact
water-filling solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .esp import DesignKernel, design_kernel

__all__ = [
    "PopulationFrame",
    "InclusionProbabilities",
    "CanonicalPoissonParams",
    "CalibrationError",
    "canonicalize_poisson",
    "pips_probabilities",
    "cps_inclusion_from_poisson",
    "poisson_from_cps_inclusion",
    "solve_truncation_constant",
]

SUM_TOL = 1e-9


class CalibrationError(ValueError):
    """Raised when a calibration problem is infeasible or fails to converge."""


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PopulationFrame:
    """Study values y and strictly positive auxiliary sizes x for N units."""

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", _frozen_array(self.y))
        object.__setattr__(self, "x", _frozen_array(self.x))
        if self.y.ndim != 1 or self.x.ndim != 1:
            raise ValueError("y and x must be 1-d arrays")
        if self.y.shape != self.x.shape:
            raise ValueError("y and x must have equal length")
        if self.size < 1:
            raise ValueError("population must contain at least one unit")
        if not np.all(np.isfinite(self.y)) or not np.all(np.isfinite(self.x)):
            raise ValueError("population values must be finite")
        if np.any(self.x <= 0):
            raise ValueError("every auxiliary size must be strictly positive")

    @property
    def size(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class InclusionProbabilities:
    """First-order inclusion probabilities of a fixed-size design.

    Entries lie in (0, 1] and sum to the target sample size n.
    """

    pi: np.ndarray
    n: int

    def __post_init__(self):
        object.__setattr__(self, "pi", _frozen_array(self.pi))
        if self.pi.ndim != 1:
            raise ValueError("pi must be a 1-d array")
        if not 1 <= self.n <= self.pi.shape[0]:
            raise CalibrationError("n must lie in [1, N]")
        if np.any(self.pi <= 0) or np.any(self.pi > 1):
            raise CalibrationError("inclusion probabilities must lie in (0, 1]")
        if abs(float(self.pi.sum()) - self.n) > SUM_TOL:
            raise CalibrationError("inclusion probabilities must sum to n")

    @property
    def size(self) -> int:
        return self.pi.shape[0]


@dataclass(frozen=True)
class CanonicalPoissonParams:
    """Bernoulli parameters of the canonical independent design, sum p = n.

    Units with p_i = 1 are deterministic inclusions; the ``free`` units
    share the ``slots`` left open through their design ``kernel``.
    """

    p: np.ndarray
    n: int

    def __post_init__(self):
        object.__setattr__(self, "p", _frozen_array(self.p))
        if self.p.ndim != 1:
            raise ValueError("p must be a 1-d array")
        if not 1 <= self.n <= self.p.shape[0]:
            raise CalibrationError("n must lie in [1, N]")
        if np.any(self.p <= 0) or np.any(self.p > 1):
            raise CalibrationError("parameters must lie in (0, 1]")
        if abs(float(self.p.sum()) - self.n) > SUM_TOL:
            raise CalibrationError("parameters must sum to n")

    @property
    def size(self) -> int:
        return self.p.shape[0]

    @property
    def free(self) -> np.ndarray:
        """Indices of the units with p < 1, in increasing order."""
        return np.flatnonzero(self.p < 1.0)

    @property
    def slots(self) -> int:
        """Sample slots open to the free units: n minus the certain units."""
        return self.n - int((self.p == 1.0).sum())

    def kernel(self) -> DesignKernel:
        """The design kernel of the free units' odds for the open slots.

        Built afresh on every call and not kept, so the O(N n) table
        lives only as long as its caller holds it.
        """
        p_free = self.p[self.free]
        return design_kernel(p_free / (1.0 - p_free), self.slots)


def _clipped_scale(x: np.ndarray, total: float) -> tuple[float, np.ndarray]:
    """The scale c with sum_i min(c x_i, 1) = total, for positive x and
    0 < total < len(x), and the indices of the units it clips.

    Water-filling: with x sorted in decreasing order and S_k the sum of
    x_(k), x_(k+1), ..., the clipped units are the k largest for the
    smallest k with (total - k) x_(k) <= S_k, and c = (total - k) / S_k.
    """
    order = np.argsort(-x, kind="stable")
    desc = x[order]
    tail_sums = np.cumsum(desc[::-1])[::-1]
    k = int(np.argmax((total - np.arange(desc.shape[0])) * desc <= tail_sums))
    return (total - k) / float(desc[k:].sum()), order[:k]


def pips_probabilities(x: np.ndarray, n: int) -> InclusionProbabilities:
    """Clipped proportional-to-size probabilities pi_i = min(c x_i, 1)
    with the constant c solved so that sum pi = n.

    The solve is exact (``_clipped_scale``), so the clipped units get
    pi = 1.0 and equal sizes give pi = n / N.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be a 1-d array")
    n_units = x.shape[0]
    if not 1 <= n <= n_units:
        raise CalibrationError(f"n = {n} outside [1, {n_units}]")
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise CalibrationError("auxiliary sizes must be finite and positive")
    if n == n_units:
        return InclusionProbabilities(pi=np.ones(n_units), n=n)
    c, clipped = _clipped_scale(x, n)
    pi = np.minimum(c * x, 1.0)
    pi[clipped] = 1.0
    return InclusionProbabilities(pi=pi, n=n)


def cps_inclusion_from_poisson(params: CanonicalPoissonParams) -> InclusionProbabilities:
    """Exact first-order inclusion probabilities of the fixed-size design
    induced by conditioning the independent design on sample size n."""
    pi = np.ones(params.size)
    pi[params.free] = params.kernel().first_order()
    return InclusionProbabilities(pi=pi, n=params.n)


def _renormalize_logodds(logit_p: np.ndarray, n: int) -> np.ndarray:
    """Shift log-odds by a common constant so the probabilities sum to n.

    A common shift stays inside the odds-equivalence class of the
    fixed-size design, so this is exactly the canonical representative.
    """

    def total(shift: float) -> float:
        return float(_expit(logit_p + shift).sum())

    lo, hi = -1.0, 1.0
    while total(lo) > n:
        lo *= 2.0
        if lo < -1e6:
            raise CalibrationError("log-odds renormalization failed to bracket")
    while total(hi) < n:
        hi *= 2.0
        if hi > 1e6:
            raise CalibrationError("log-odds renormalization failed to bracket")
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


def _expit(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logit(q: np.ndarray) -> np.ndarray:
    return np.log(q) - np.log1p(-q)


def _hajek_newton_step(pi: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve J delta = r for Hajek's approximate Jacobian of the
    fixed-size inclusion probabilities with respect to the log-odds.

    Hajek's (1964) rejective-sampling approximation
    pi_ij ~ pi_i pi_j [1 - (1 - pi_i)(1 - pi_j) / d] gives
    J = diag(v + v^2 / d) - v v^T / d with v = pi (1 - pi), d = sum v.
    Sherman-Morrison inverts the diagonal-plus-rank-one form in O(N):
    with w = v (1 + v / d) and u = v / w,
    delta = r / w + (u . r) / (d - v . u) u.
    """
    v = pi * (1.0 - pi)
    d = float(v.sum())
    w = v * (1.0 + v / d)
    u = v / w
    return r / w + (float(u @ r) / (d - float(v @ u))) * u


# The solve stops once max |r| is at most _TOL, and gives up after
# _MAX_FORWARD_MAPS forward-map evaluations or once a step below
# _MIN_STEP still fails to lower the residual: the exact forward map can
# no longer tell the iterates apart.
_TOL = 1e-12
_MAX_FORWARD_MAPS = 500
_MIN_STEP = 1e-8


def _forward_at_trial(logit_p: np.ndarray, m: int) -> np.ndarray | None:
    """The exact forward map at a trial point, or None where it cannot be
    taken: parameters that round to 0 or 1 have no finite positive odds,
    and a long step can spread the odds so far that the design kernel's
    ratios leave double precision (it raises ArithmeticError)."""
    p = _expit(logit_p)
    if not np.all((p > 0.0) & (p < 1.0)):
        return None
    try:
        return design_kernel(p / (1.0 - p), m).first_order()
    except ArithmeticError:
        return None


def poisson_from_cps_inclusion(incl: InclusionProbabilities) -> CanonicalPoissonParams:
    """Recover the canonical Bernoulli parameters (sum p = n) whose
    size-conditioned design has the given first-order probabilities.

    Newton iteration on the log-odds of the free units (0 < pi < 1),
    started at the target log-odds.  At the achieved probabilities pi,
    with v = pi (1 - pi), d = sum v and r = pi* - pi, the step solves
    J delta = r for Hajek's (1964, Ann. Math. Statist. 35) approximate
    Jacobian J = diag(v + v^2 / d) - v v^T / d by Sherman-Morrison in
    O(N).  (The cruder diag(v) - v v^T / d gains nothing: for sum r = 0
    its solution is the diagonal step r / v up to a common shift.)

    Every trial point is checked with the exact forward map, and a step
    is accepted only if it strictly lowers max |r|; trial points the
    forward map cannot take count as failures.  A rejected step is
    halved; after an accepted one the step length doubles again, up to
    a full step.  Iteration stops once max |r| <= ``_TOL``.  A
    ``CalibrationError`` is raised after ``_MAX_FORWARD_MAPS`` forward-map
    evaluations or once the step falls below ``_MIN_STEP``.

    A common log-odds shift leaves the fixed-size law unchanged, so the
    iterates are not renormalized; one shift at the end picks the
    representative with sum p = n.  When every free target is equal the
    answer is known by symmetry: p = pi is canonical and induces pi, so
    it is returned without a solve.
    """
    pi = incl.pi
    n = incl.n
    n_units = incl.size
    deterministic = pi == 1.0
    free = ~deterministic
    m = n - int(deterministic.sum())
    p = np.ones(n_units)
    if m == 0:
        if free.any():
            raise CalibrationError("no free sample slots for the non-deterministic units")
        return CanonicalPoissonParams(p=p, n=n)
    pi_free = pi[free]
    if m == pi_free.shape[0]:
        return CanonicalPoissonParams(p=p, n=n)
    if np.all(pi_free == pi_free[0]):
        p[free] = pi_free
        return CanonicalPoissonParams(p=p, n=n)

    logit_p = _logit(pi_free)
    p_start = _expit(logit_p)
    achieved = design_kernel(p_start / (1.0 - p_start), m).first_order()
    evaluations = 1
    step = 1.0
    while True:
        r = pi_free - achieved
        residual = float(np.max(np.abs(r)))
        if residual <= _TOL:
            break
        delta = _hajek_newton_step(achieved, r)
        while True:
            if evaluations >= _MAX_FORWARD_MAPS:
                raise CalibrationError(
                    f"parameter recovery did not converge within {_MAX_FORWARD_MAPS} "
                    f"forward-map evaluations (residual {residual:.3e})"
                )
            trial = logit_p + step * delta
            trial_achieved = _forward_at_trial(trial, m)
            evaluations += 1
            if (
                trial_achieved is not None
                and float(np.max(np.abs(pi_free - trial_achieved))) < residual
            ):
                break
            step *= 0.5
            if step < _MIN_STEP:
                raise CalibrationError(
                    f"parameter recovery stalled: no step above {_MIN_STEP:g} "
                    f"lowers the residual {residual:.3e}"
                )
        logit_p, achieved = trial, trial_achieved
        step = min(1.0, 2.0 * step)
    p[free] = _expit(_renormalize_logodds(logit_p, m))
    return CanonicalPoissonParams(p=p, n=n)


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
        out[free] = _expit(_renormalize_logodds(_logit(p[free]), m))
    return CanonicalPoissonParams(p=out, n=n)


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

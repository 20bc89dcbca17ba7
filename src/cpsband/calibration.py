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
n - #certain open slots as a conditional Poisson design over their
odds p / (1 - p).  ``CanonicalPoissonParams`` carries that reduction
once (``free``, ``slots``).  This module is the one home of that
design: ``_forward_map`` is its kernel, taking the free units' odds and
the open slots to their exact inclusion probabilities, for the forward
map and, through ``_forward_at``, for the start and every trial point
of its inverse, which ends on a Newton shift of the log-odds to
sum p = n; the sampler reads the certain units and the open slots.

The first conversion solves sum_i min(c x_i, 1) = n for c by one exact
water-filling step, ``_clipped_scale``.  The weight-truncation constant
θ of the paper's limit covariance solves the same equation; it is a
test reference in tests/helpers.py and takes c from that step too.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

__all__ = [
    "PopulationFrame",
    "InclusionProbabilities",
    "CanonicalPoissonParams",
    "CalibrationError",
    "pips_probabilities",
    "cps_inclusion_from_poisson",
    "poisson_from_cps_inclusion",
]

SUM_TOL = 1e-9


class CalibrationError(ValueError):
    """Raised when a calibration problem is infeasible or fails to converge."""


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_sample_size(n: int, n_units: int) -> None:
    """Reject a sample size n that is not an integer in [1, N]; a bool
    is not taken for one."""
    if isinstance(n, bool) or not isinstance(n, Integral):
        raise CalibrationError(f"n must be an integer, got {n!r}")
    if not 1 <= n <= n_units:
        raise CalibrationError(f"n = {n} outside [1, {n_units}]")


def _design_vector(values, n: int, name: str, noun: str) -> np.ndarray:
    """``values`` as a frozen 1-d array of N entries in (0, 1] that sum
    to the sample size n, an integer in [1, N]; ``name`` and ``noun``
    word the errors."""
    arr = _frozen_array(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d array")
    _check_sample_size(n, arr.shape[0])
    if np.any(arr <= 0) or np.any(arr > 1):
        raise CalibrationError(f"{noun} must lie in (0, 1]")
    if abs(float(arr.sum()) - n) > SUM_TOL:
        raise CalibrationError(f"{noun} must sum to n")
    return arr


class PopulationFrame:
    """Study values y and strictly positive auxiliary sizes x for N units."""

    __slots__ = ("y", "x")
    y: np.ndarray
    x: np.ndarray

    def __init__(self, y, x) -> None:
        self.y = _frozen_array(y)
        self.x = _frozen_array(x)
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


class InclusionProbabilities:
    """First-order inclusion probabilities of a fixed-size design.

    Entries lie in (0, 1] and sum to the target sample size n.
    """

    __slots__ = ("pi", "n")
    pi: np.ndarray
    n: int

    def __init__(self, pi, n: int) -> None:
        self.pi = _design_vector(pi, n, "pi", "inclusion probabilities")
        self.n = n

    @property
    def size(self) -> int:
        return self.pi.shape[0]


class CanonicalPoissonParams:
    """Bernoulli parameters of the canonical independent design, sum p = n.

    Units with p_i = 1 are deterministic inclusions; the ``free`` units
    share the ``slots`` left open.
    """

    __slots__ = ("p", "n")
    p: np.ndarray
    n: int

    def __init__(self, p, n: int) -> None:
        self.p = _design_vector(p, n, "p", "parameters")
        self.n = n

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
    _check_sample_size(n, n_units)
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise CalibrationError("auxiliary sizes must be finite and positive")
    if n == n_units:
        return InclusionProbabilities(pi=np.ones(n_units), n=n)
    c, clipped = _clipped_scale(x, n)
    pi = np.minimum(c * x, 1.0)
    pi[clipped] = 1.0
    return InclusionProbabilities(pi=pi, n=n)


def _forward_map(odds: np.ndarray, m: int) -> np.ndarray:
    """Exact first-order inclusion probabilities of the size-m
    conditional Poisson design, 0 <= m <= N, on the finite, positive
    odds o_j = p_j / (1 - p_j) of free units.

    The design is governed by the elementary symmetric polynomials e_r
    of the odds.  The raw polynomials overflow float64 long before
    N = 100, and their spread over r outgrows any single scale factor,
    so they are never formed.  The backward recursion of Chen, Dempster
    & Liu (1994, Biometrika 81) runs on the ratios
    R[r, j] = e_{r-1}(o_j..) / e_r(o_j..),

        R[r, j] = (1 + o_j R[r-1, j+1]) / (1 / R[r, j+1] + o_j),
        R[0, .] = 0,   R[r >= 1, N] = inf,

    which follows from e_r(o_j..) = e_r(o_{j+1}..) + o_j e_{r-1}(o_{j+1}..)
    and uses only additions, multiplications and divisions of positive
    numbers.  The same pass yields the conditional inclusion
    probabilities q[r, j] = o_j / (1 / R[r, j+1] + o_j): the chance that
    unit j enters when r slots are open for units j..N-1 (Tille 2006,
    Sampling Algorithms, ch. 5).  A forward pass over the distribution
    of open slots then gives pi_j = sum_r P(r open at j) q[r, j].  The
    q table is local to the call, and both loops write into buffers and
    views made once per call.

    Raises ArithmeticError when the odds spread so far that a ratio
    leaves double precision; the table then never holds a NaN or a
    wrong infinity.
    """
    n_units = odds.shape[0]
    # Row j holds q[:, j], so each step writes contiguous memory.
    table = np.zeros((n_units, m + 1))
    ratio = np.full(m + 1, np.inf)
    ratio[0] = 0.0
    q_open, ratio_open, ratio_less = table[:, 1:], ratio[1:], ratio[:-1]
    denom, numer = np.empty(m), np.empty(m)
    # ratio[r] is inf wherever e_r = 0 (r > N - j), and 1 / inf = 0 makes
    # the forced state r = N - j give q = 1 exactly; no operation on those
    # entries sets a floating-point flag.  A flag therefore means a finite
    # ratio overflowed or underflowed to zero.
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            for j in range(n_units - 1, -1, -1):
                o = odds[j]
                np.add(np.divide(1.0, ratio_open, out=denom), o, out=denom)
                np.divide(o, denom, out=q_open[j])
                np.add(np.multiply(o, ratio_less, out=numer), 1.0, out=numer)
                np.divide(numer, denom, out=ratio_open)
    except FloatingPointError as exc:
        raise ArithmeticError(
            f"symmetric-function ratios left double precision (N = {n_units}, "
            f"m = {m}, odds in [{odds.min():.3g}, {odds.max():.3g}])"
        ) from exc
    # Push the distribution of open slots through the units in order.
    open_slots = np.zeros(m + 1)
    open_slots[-1] = 1.0
    take = np.empty(m + 1)
    open_less, take_open = open_slots[:-1], take[1:]
    pi = np.empty(n_units)
    for j, row in enumerate(table):
        np.multiply(open_slots, row, out=take)
        pi[j] = take.sum()
        open_slots -= take
        open_less += take_open
    return np.minimum(pi, 1.0)


def cps_inclusion_from_poisson(params: CanonicalPoissonParams) -> InclusionProbabilities:
    """Exact first-order inclusion probabilities of the fixed-size design
    induced by conditioning the independent design on sample size n."""
    pi = np.ones(params.size)
    p_free = params.p[params.free]
    pi[params.free] = _forward_map(p_free / (1.0 - p_free), params.slots)
    return InclusionProbabilities(pi=pi, n=params.n)


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
# no longer tell the iterates apart.  The final common log-odds shift
# takes at most _SHIFT_STEPS Newton steps.
_TOL = 1e-12
_MAX_FORWARD_MAPS = 500
_MIN_STEP = 1e-8
_SHIFT_STEPS = 8


def _forward_at(logit_p: np.ndarray, m: int) -> np.ndarray:
    """The exact forward map at the free units' log-odds, every entry in
    (0, 1).  Raises ``CalibrationError`` where a parameter rounds to 0 or
    1 (no finite odds) or a probability does (Hajek's step would divide
    by zero); the kernel raises ArithmeticError where the odds spread
    too far for its ratios."""
    p = _expit(logit_p)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise CalibrationError("a free unit's parameter rounds to 0 or 1")
    achieved = _forward_map(p / (1.0 - p), m)
    if not np.all((achieved > 0.0) & (achieved < 1.0)):
        raise CalibrationError("the forward map lost a free unit's probability")
    return achieved


def _canonical_free_p(logit_p: np.ndarray, m: int) -> np.ndarray:
    """expit(z + s) for the free units' log-odds z and the common shift s
    with sum p = m, the canonical representative of their design.

    Newton's method on sum expit(z + s), with derivative d = sum p (1 - p),
    starts at s = 0, a small drift from the root at the converged iterate
    of the inverse solve.  It stops once |m - sum p| is within the sum's
    rounding, eps p_i (1 + |z_i + s|) per term; d = 0 or ``_SHIFT_STEPS``
    evaluations short of that raise ``CalibrationError``.
    """
    shift = 0.0
    for _ in range(_SHIFT_STEPS):
        x = logit_p + shift
        p = _expit(x)
        r = m - float(p.sum())
        if abs(r) <= np.finfo(float).eps * float(p @ (1.0 + np.abs(x))):
            return p
        d = float(p @ (1.0 - p))
        if d == 0.0:
            break
        shift += r / d
    raise CalibrationError(f"the log-odds shift missed sum p = {m} by {-r:.3e}")


def poisson_from_cps_inclusion(incl: InclusionProbabilities) -> CanonicalPoissonParams:
    """Recover the canonical Bernoulli parameters (sum p = n) whose
    size-conditioned design has the given first-order probabilities.

    Newton iteration on the log-odds of the free units (0 < pi < 1),
    started where Hajek's (1964) first-order approximation
    pi ~ p + v (p - p_bar) / d, with v = p (1 - p), d = sum v and
    p_bar = sum v p / d, gives the target pi*: three O(N) steps
    p <- pi* - v (p - p_bar) / d from p = pi*, each keeping sum p = sum pi*,
    or p = pi* if a step leaves (0, 1).  At the achieved probabilities pi,
    with v = pi (1 - pi), d = sum v and r = pi* - pi, the step solves
    J delta = r for Hajek's (1964, Ann. Math. Statist. 35) approximate
    Jacobian J = diag(v + v^2 / d) - v v^T / d by Sherman-Morrison in
    O(N).  (The cruder diag(v) - v v^T / d gains nothing: for sum r = 0
    its solution is the diagonal step r / v up to a common shift.)

    The start and every trial point go through the exact forward map,
    ``_forward_at``: a start it cannot take raises its error and a
    trial point counts as a failure.  A step is accepted only if it
    strictly lowers max |r|.  A rejected step is halved; after an
    accepted one the step length doubles again, up to a full step.
    Iteration stops once max |r| <= ``_TOL``.  A ``CalibrationError``
    is raised after ``_MAX_FORWARD_MAPS`` forward-map evaluations or
    once the step falls below ``_MIN_STEP``.

    A common log-odds shift leaves the fixed-size law unchanged, so the
    iterates are not renormalized; Newton steps on one common shift at
    the end pick the representative with sum p = n.  When every free
    target is equal the answer is known by symmetry: p = pi is canonical
    and induces pi, so it is returned without a solve.
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

    start = pi_free
    for _ in range(3):
        v = start * (1.0 - start)
        d = float(v.sum())
        start = pi_free - v * (start - float(v @ start) / d) / d
        if not np.all((start > 0.0) & (start < 1.0)):
            start = pi_free
            break
    logit_p = _logit(start)
    achieved = _forward_at(logit_p, m)
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
            evaluations += 1
            try:
                trial_achieved = _forward_at(trial, m)
            except (ArithmeticError, CalibrationError):
                pass
            else:
                if float(np.max(np.abs(pi_free - trial_achieved))) < residual:
                    break
            step *= 0.5
            if step < _MIN_STEP:
                raise CalibrationError(
                    f"parameter recovery stalled: no step above {_MIN_STEP:g} "
                    f"lowers the residual {residual:.3e}"
                )
        logit_p, achieved = trial, trial_achieved
        step = min(1.0, 2.0 * step)
    p[free] = _canonical_free_p(logit_p, m)
    return CanonicalPoissonParams(p=p, n=n)

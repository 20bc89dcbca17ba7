"""Samplers for the conditioned fixed-size design.

Two exact samplers realize the fixed-size law obtained by conditioning
independent Bernoulli(p_i) indicators on their total: a rejection
sampler that redraws until the size matches, and a sequential sampler
that walks the units once and adjusts each inclusion probability to the
number of slots still open.  The sequential sampler is the default; its
running time is O(N n) regardless of how unlikely the conditioning
event is, while rejection time grows like the inverse acceptance
probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import CanonicalPoissonParams, _frozen_array
from .esp import design_kernel

__all__ = [
    "RngStream",
    "SampleIndicators",
    "SamplingError",
    "cps_sample_rejection",
    "cps_sample_rejection_batch",
    "cps_sample_sequential",
    "cps_sample_sequential_batch",
]


class SamplingError(RuntimeError):
    """Raised when a sampler cannot produce a valid draw."""


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream with keyed substreams.

    Substreams map (master_seed, key) to independent generators through
    SeedSequence spawn keys, so replication r sees the same draws no
    matter how replications are scheduled across threads or processes.
    """

    master_seed: int
    key: tuple[int, ...] = ()

    def substream(self, *indices: int) -> "RngStream":
        return RngStream(self.master_seed, self.key + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.key)
        return np.random.default_rng(seq)


@dataclass(frozen=True)
class SampleIndicators:
    """A drawn 0/1 inclusion vector and its realized size."""

    s: np.ndarray
    count: int

    def __post_init__(self) -> None:
        s = np.asarray(self.s)
        if s.ndim != 1:
            raise ValueError("indicators must form a 1-d array")
        if not np.all((s == 0) | (s == 1)):
            raise ValueError("indicators must be 0 or 1")
        if int(s.sum()) != self.count:
            raise ValueError("count does not match the indicator sum")
        object.__setattr__(self, "s", _frozen_array(s, np.int8))

    @classmethod
    def from_array(cls, s: np.ndarray) -> "SampleIndicators":
        arr = np.asarray(s)
        return cls(s=arr, count=int(arr.sum()))


def _log_acceptance(params: CanonicalPoissonParams) -> float:
    """log P(Poisson size = n) = log e_m(free odds) + sum log(1 - p_free),
    for rejection-failure diagnostics."""
    free = params.p < 1.0
    m = params.n - int((~free).sum())
    p_free = params.p[free]
    return design_kernel(p_free / (1.0 - p_free), m).log_esp + float(
        np.log1p(-p_free).sum()
    )


def cps_sample_rejection(
    params: CanonicalPoissonParams,
    rng: RngStream,
    max_attempts: int = 10_000,
) -> SampleIndicators:
    """Draw a fixed-size sample by redrawing Poisson samples until the
    realized size equals n.

    Raises SamplingError when the attempt budget runs out; the message
    reports the budget and the expected number of attempts so the
    caller can judge whether to fall back to the sequential sampler.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    gen = rng.generator()
    p = params.p
    for _ in range(max_attempts):
        s = gen.random(p.shape[0]) < p
        if int(s.sum()) == params.n:
            return SampleIndicators.from_array(s)
    expected = math.exp(-_log_acceptance(params))
    raise SamplingError(
        f"no size-{params.n} sample in {max_attempts} attempts; "
        f"expected attempts per draw is {expected:.12g}"
    )


def cps_sample_rejection_batch(
    params: CanonicalPoissonParams,
    rng: RngStream,
    draws: int,
    max_attempts: int = 10_000,
) -> np.ndarray:
    """Collect ``draws`` accepted rejection samples as a (draws, N) array.

    Proposals are generated in blocks and filtered on size, which has
    the same law as accepting each draw's first valid proposal.  The
    total proposal budget is draws * max_attempts.
    """
    if draws < 1:
        raise ValueError("draws must be at least 1")
    gen = rng.generator()
    p = params.p
    budget = draws * max_attempts
    spent = 0
    parts: list[np.ndarray] = []
    got = 0
    while got < draws:
        block = min(max(2 * (draws - got), 1024), budget - spent)
        if block <= 0:
            expected = math.exp(-_log_acceptance(params))
            raise SamplingError(
                f"{got} of {draws} samples after {spent} proposals; "
                f"expected attempts per draw is {expected:.12g}"
            )
        proposal = gen.random((block, p.shape[0])) < p
        spent += block
        accepted = proposal[proposal.sum(axis=1) == params.n]
        parts.append(accepted)
        got += accepted.shape[0]
    return np.concatenate(parts)[:draws].astype(np.int8)


def cps_sample_sequential_batch(
    params: CanonicalPoissonParams,
    rng: RngStream,
    draws: int,
) -> np.ndarray:
    """Draw ``draws`` fixed-size samples in one vectorized pass.

    Units are visited in index order.  With r slots still open before
    unit j, the unit enters with probability
    odds_j * e_{r-1}(odds after j) / e_r(odds from j on), all draws
    sharing the design kernel's table q of those probabilities.
    """
    if draws < 1:
        raise ValueError("draws must be at least 1")
    p = params.p
    n_units = p.shape[0]
    out = np.zeros((draws, n_units), dtype=np.int8)
    fixed = p == 1.0
    out[:, fixed] = 1
    free = np.flatnonzero(~fixed)
    m = params.n - int(fixed.sum())
    if m == 0:
        return out
    odds = p[free] / (1.0 - p[free])
    prob = design_kernel(odds, m).q
    gen = rng.generator()
    u = gen.random((draws, free.shape[0]))
    slots = np.full(draws, m, dtype=np.int64)
    for j, unit in enumerate(free):
        take = u[:, j] < prob[slots, j]
        out[take, unit] = 1
        slots -= take
    if np.any(slots != 0):
        raise SamplingError("sequential sampler failed to fill every slot")
    return out


def cps_sample_sequential(
    params: CanonicalPoissonParams, rng: RngStream
) -> SampleIndicators:
    """Draw one fixed-size sample without rejection; same law as
    cps_sample_rejection, O(N n) time."""
    return SampleIndicators.from_array(cps_sample_sequential_batch(params, rng, 1)[0])

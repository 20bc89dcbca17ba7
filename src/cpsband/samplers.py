"""The sampler for the conditioned fixed-size design.

The fixed-size law is that of independent Bernoulli(p_i) indicators
conditioned on their total.  The sequential sampler realizes it
exactly: it walks the units once and adjusts each inclusion probability
to the number of slots still open, however unlikely the conditioning
event is.  With equal free odds the law is simple random sampling
without replacement, and with r slots open and N - j free units left
the adjusted probability is r / (N - j) in closed form (selection
sampling: Fan, Muller & Rezucha 1962; Knuth's Algorithm S), so one draw
takes O(N) time and builds no table.  Other designs read the design
kernel's table, in O(N n) time and memory.  A rejection sampler of the
same law is kept beside the enumerations in ``oracle`` as an
independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CanonicalPoissonParams, _frozen_array
from .esp import design_kernel

__all__ = [
    "RngStream",
    "SampleIndicators",
    "SamplingError",
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
    """Draw one fixed-size sample by a scalar walk over the free units.

    The walk reads the same uniforms as the first row of
    cps_sample_sequential_batch on the same stream.  With equal free
    odds it takes free unit j while r slots are open when
    u_j < r / (N - j), N counting the free units, in O(N) time with no
    design kernel; that row is then reproduced except when a uniform
    lies within a few ulps of r / (N - j), where the kernel's rounded q
    can fall on the other side.  Otherwise the walk reads q[r, j] from
    the kernel's table, O(N n) to build, and reproduces the row exactly.
    """
    p = params.p
    s = (p == 1.0).astype(np.int8)
    free = np.flatnonzero(s == 0)
    m = params.n - int(s.sum())
    if m == 0:
        return SampleIndicators.from_array(s)
    p_free = p[free]
    n_free = free.shape[0]
    if np.all(p_free == p_free[0]):
        def chance(j: int, r: int) -> float:
            return r / (n_free - j)
    else:
        # Row j of the unit-major table q.T holds q[:, j], so q[r, j]
        # sits at flat index j (m + 1) + r.
        flat = design_kernel(p_free / (1.0 - p_free), m).q.T.reshape(-1)

        def chance(j: int, r: int) -> float:
            return flat[j * (m + 1) + r]
    u = rng.generator().random((1, n_free))[0].tolist()
    slots = m
    for j, unit in enumerate(free.tolist()):
        if u[j] < chance(j, slots):
            s[unit] = 1
            slots -= 1
    if slots != 0:
        raise SamplingError("sequential sampler failed to fill every slot")
    return SampleIndicators.from_array(s)

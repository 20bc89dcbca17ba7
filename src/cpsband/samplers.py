"""The sampler for the conditioned fixed-size design.

The fixed-size law is that of independent Bernoulli(p_i) indicators
conditioned on their total n.  That is Hájek's (1964) rejective
sampling, so drawing Poisson(p) samples until one has size n samples the
law exactly; ``cps_sample_rejection_batch`` filters blocks of such
proposals.  Under the canonical p (sum p = n) the size n is the mode of
the Poisson sample size (Darroch 1964), and a draw takes about
sqrt(2 pi d) proposals, d = sum p (1 - p), with no table of the design.
``cps_sample_sequential`` draws one sample.  With equal free p its law
is simple random sampling without replacement, and with r slots open
and N - j free units left it takes unit j with probability r / (N - j)
in closed form (selection sampling: Fan, Muller & Rezucha 1962; Knuth's
Algorithm S), in O(N) time.  Any other design takes the first row of
the rejection batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import CanonicalPoissonParams, _frozen_array

__all__ = [
    "RngStream",
    "SampleIndicators",
    "SamplingError",
    "cps_sample_rejection_batch",
    "cps_sample_sequential",
]

# Under sum p = n the size n is the mode of the Poisson sample size
# (Darroch 1964), so P(|S| = n) >= 1 / (N + 1), the largest mass among
# the N + 1 sizes.  With a budget of _ATTEMPTS_PER_SIZE (N + 1)
# proposals per draw, one draw goes unfilled with probability at most
# (1 - 1 / (N + 1))^(40 (N + 1)) <= e^-40 ~ 4e-18, and k draws (a
# binomial count of mean >= 40 k falling short of k) with probability at
# most e^(-19 k) by Chernoff's bound.
_ATTEMPTS_PER_SIZE = 40
# A block of proposals holds at most about 2^22 uniforms (32 MiB), so
# memory stays bounded however large N is.
_BLOCK_UNIFORMS = 2**22


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
    from the design kernel, for the budget error's expected attempts."""
    return params.kernel().log_esp + float(np.log1p(-params.p[params.free]).sum())


def cps_sample_rejection_batch(
    params: CanonicalPoissonParams,
    rng: RngStream,
    draws: int,
) -> np.ndarray:
    """Draw ``draws`` fixed-size samples as a (draws, N) array.

    The rows are the first ``draws`` Poisson(p) proposals of size n in
    one stream of proposals, drawn and filtered in blocks.  A block
    holds 2 sqrt(2 pi max(d, 1)) proposals, about twice the expected
    count, for each draw still missing, up to ``_BLOCK_UNIFORMS``
    uniforms.  When the budget of ``_ATTEMPTS_PER_SIZE`` (N + 1)
    proposals per draw runs out, SamplingError reports the expected
    number of attempts per draw.
    """
    if draws < 1:
        raise ValueError("draws must be at least 1")
    p = params.p
    n_units = p.shape[0]
    per_draw = math.ceil(
        2.0 * math.sqrt(2.0 * math.pi * max(float((p * (1.0 - p)).sum()), 1.0))
    )
    most = max(1, _BLOCK_UNIFORMS // n_units)
    budget = draws * _ATTEMPTS_PER_SIZE * (n_units + 1)
    gen = rng.generator()
    spent = 0
    parts: list[np.ndarray] = []
    got = 0
    while got < draws:
        block = min(per_draw * (draws - got), most, budget - spent)
        if block <= 0:
            expected = math.exp(-_log_acceptance(params))
            raise SamplingError(
                f"{got} of {draws} samples after {spent} proposals; "
                f"expected attempts per draw is {expected:.12g}"
            )
        proposal = gen.random((block, n_units)) < p
        spent += block
        accepted = proposal[np.count_nonzero(proposal, axis=1) == params.n]
        parts.append(accepted)
        got += accepted.shape[0]
    return np.concatenate(parts)[:draws].astype(np.int8)


def cps_sample_sequential(
    params: CanonicalPoissonParams, rng: RngStream
) -> SampleIndicators:
    """Draw one fixed-size sample.

    With equal free p a scalar walk reads one uniform per free unit and
    takes free unit j while r slots are open when u_j < r / (N - j),
    N counting the free units.  Any other design returns row 0 of
    cps_sample_rejection_batch on the same stream.
    """
    free, m = params.free, params.slots
    s = np.ones(params.size, dtype=np.int8)
    s[free] = 0
    if m == 0:
        return SampleIndicators.from_array(s)
    p_free = params.p[free]
    if not np.all(p_free == p_free[0]):
        return SampleIndicators.from_array(cps_sample_rejection_batch(params, rng, 1)[0])
    n_free = free.shape[0]
    u = rng.generator().random(n_free).tolist()
    slots = m
    for j, unit in enumerate(free.tolist()):
        if u[j] < slots / (n_free - j):
            s[unit] = 1
            slots -= 1
    if slots != 0:
        raise SamplingError("sequential sampler failed to fill every slot")
    return SampleIndicators.from_array(s)

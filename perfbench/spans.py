"""Spans recorded from outside the package by swapping module attributes.

The package's modules bind their collaborators at import time
(``from .inference import cholesky_psd``), so a call made inside
``cpsband.simulate`` goes through ``cpsband.simulate.cholesky_psd``.
Replacing that attribute with a timing wrapper records every call the
caller module makes without editing the package; ``uninstall`` puts the
original objects back.  Each wrapped name belongs to one stage, and a
stage's self time is its spans' time minus the time of the spans they
directly contain.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable

# (caller module, attribute, stage).  Stages with children: a span of
# "calibration.inverse" contains the esp tables it builds, "samplers"
# the table behind the sequential sampler, "simulate" and "cli" the
# whole pipeline below them.
HOOKS: tuple[tuple[str, str, str], ...] = (
    ("simulate", "run_experiment", "simulate"),
    ("simulate", "run_replication", "simulate"),
    ("simulate", "generate_population", "simulate.population"),
    ("simulate", "pips_probabilities", "calibration.pips"),
    ("simulate", "poisson_from_cps_inclusion", "calibration.inverse"),
    ("simulate", "cps_sample_sequential", "samplers"),
    ("simulate", "cps_sample_rejection", "samplers"),
    ("simulate", "htep_evaluate", "processes"),
    ("simulate", "hajek_evaluate", "processes"),
    ("simulate", "sup_norm_cdf", "processes"),
    ("simulate", "estimate_cov_ht", "inference.cov"),
    ("simulate", "estimate_cov_hajek", "inference.cov"),
    ("simulate", "cholesky_psd", "inference.cholesky"),
    ("simulate", "simulate_sup_quantile", "inference.quantile"),
    ("cli", "main", "cli"),
    ("cli", "pips_probabilities", "calibration.pips"),
    ("cli", "htep_evaluate", "processes"),
    ("cli", "hajek_evaluate", "processes"),
    ("cli", "sup_norm_cdf", "processes"),
    ("cli", "estimate_cov_ht", "inference.cov"),
    ("cli", "estimate_cov_hajek", "inference.cov"),
    ("cli", "cholesky_psd", "inference.cholesky"),
    ("cli", "simulate_sup_quantile", "inference.quantile"),
    ("cli", "build_band", "inference.band"),
    ("cli", "coverage_check", "inference.band"),
    ("calibration", "pips_probabilities", "calibration.pips"),
    ("calibration", "poisson_from_cps_inclusion", "calibration.inverse"),
    ("calibration", "suffix_table", "esp"),
    ("calibration", "prefix_table", "esp"),
    ("samplers", "cps_sample_sequential", "samplers"),
    ("samplers", "suffix_table", "esp"),
)

STAGES = (
    "bench",
    "simulate",
    "simulate.population",
    "calibration.pips",
    "calibration.inverse",
    "esp",
    "samplers",
    "processes",
    "inference.cov",
    "inference.cholesky",
    "inference.quantile",
    "inference.band",
    "cli",
)


@dataclass
class Span:
    name: str
    stage: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _table_attrs(args, kwargs, result) -> dict[str, Any]:
    return {"bytes": int(result.value.nbytes + result.exponent.nbytes)}


def _cholesky_attrs(args, kwargs, result) -> dict[str, Any]:
    return {"jitter": float(result.jitter)}


def _inverse_attrs(args, kwargs, result) -> dict[str, Any]:
    # The forward-map residual is computed from these after the traced
    # pass, with the wrappers removed.
    incl = args[0] if args else kwargs["incl"]
    return {"incl": incl, "params": result}


def _quantile_attrs(signature: inspect.Signature):
    def attrs(args, kwargs, result) -> dict[str, Any]:
        bound = signature.bind(*args, **kwargs)
        order = bound.arguments["lower"].shape[0]
        return {"flop": 2.0 * bound.arguments["b_prime"] * order * order}

    return attrs


def _attr_probe(name: str, fn: Callable) -> Callable | None:
    if name in ("suffix_table", "prefix_table"):
        return _table_attrs
    if name == "cholesky_psd":
        return _cholesky_attrs
    if name == "poisson_from_cps_inclusion":
        return _inverse_attrs
    if name == "simulate_sup_quantile":
        return _quantile_attrs(inspect.signature(fn))
    return None


class Tracer:
    """Records spans for the hooked names while installed."""

    def __init__(self, modules: dict[str, ModuleType]):
        self.modules = modules
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[ModuleType, str, Any]] = []

    def install(self) -> list[str]:
        """Wrap every hooked name; return the ones the modules lack."""
        missing = []
        for module_name, attr, stage in HOOKS:
            module = self.modules[module_name]
            original = getattr(module, attr, None)
            if not callable(original):
                missing.append(f"cpsband.{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(attr, stage, original))
        return missing

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def root(self, name: str):
        """Span around the package calls of one benchmark operation; the
        benchmark's own code inside it is the "bench" stage."""
        span = Span(name, "bench", None, 0.0)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, stage: str, fn: Callable) -> Callable:
        probe = _attr_probe(name, fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stage, stack[-1] if stack else None, 0.0)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if probe is not None:
                span.attrs = probe(args, kwargs, result)
            return result

        return wrapper


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Everything runs on one thread, so children never overlap and their
    summed durations are the part of the parent they cover.
    """
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def op_rows(spans: list[Span]) -> list[dict[str, float]]:
    """Per operation (a root span): its wall time, and the self seconds
    per stage, inclusive seconds per stage, call counts and flops of the
    spans under it."""
    own = self_seconds(spans)
    top: list[int] = []
    rows: dict[int, dict[str, float]] = {}
    for i, s in enumerate(spans):
        # Parents precede children in the list.
        top.append(i if s.parent is None else top[s.parent])
        if s.parent is None:
            rows[i] = {"wall": s.seconds}
        row = rows[top[i]]
        for key, value in (
            (s.stage, own[i]),
            ("incl:" + s.stage, s.seconds),
            ("calls:" + s.name, 1.0),
            ("flop", s.attrs.get("flop", 0.0)),
        ):
            row[key] = row.get(key, 0.0) + value
    return list(rows.values())

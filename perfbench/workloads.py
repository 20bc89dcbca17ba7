"""The benchmark's workloads, driven through the package's public functions.

Every input is generated here from the workload seed.  An operation is
the unit the timed loop repeats: one coverage replication or one
``band`` command.  ``run_op`` times the package call inside ``around()``
(the traced run's root span), then checks the outputs outside it, and
returns the outputs that the traced and untraced passes must reproduce
exactly with the list of checks they failed.  ``capacity_bisect`` finds
how far the design engine reaches; every run reports it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from cpsband import calibration, cli, samplers, simulate
from cpsband.calibration import CalibrationError
from cpsband.samplers import RngStream, SamplingError

LEVELS = (0.90, 0.95, 0.99)
QUANTILE_DRAWS = 1000
SIM_ALPHA = 0.10
BAND_POPULATION = 50_000
BAND_SAMPLE = 2_000
BAND_GAMMA = 0.95
PROBE_ALPHAS = (0.05, 0.1, 0.5)
# Geometric grid, ratio 2**(1/8), capped so that one O(N n) table stays
# below ~270 MB (N = 8192 at alpha = 0.5) once the symmetric-function
# tables stop failing earlier.
PROBE_GRID = tuple(int(round(256 * 2 ** (k / 8))) for k in range(41))
# The documented ways a design engine says a size is beyond it: the
# symmetric-function tables' range check, calibration and sampler
# failures, and running out of memory.  Anything else is a failure.
CAPACITY_ERRORS = (ArithmeticError, CalibrationError, SamplingError, MemoryError)
# How far a pooled coverage cell may sit from its nominal level: six
# binomial standard deviations plus an allowance for the bands' finite-N
# bias.  The bands are asymptotic; over 400 replications of the
# proportional design at N = 500 the HT cells covered 0.828 / 0.873 /
# 0.938 at 0.90 / 0.95 / 0.99 and the Hajek cells 0.955 / 0.973 / 0.995.
# The check catches broken bands; the printed coverage shows the bias.
COVERAGE_SIGMAS = 6.0
COVERAGE_BIAS_ALLOWANCE = 0.10


def op_seed(seed: int, k: int) -> int:
    """Seed of operation ``k`` of a run; warm-up operations use k >= 100000."""
    return seed * 100_003 + k


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@dataclass
class OpResult:
    seconds: float
    output: Any
    problems: list[str] = field(default_factory=list)
    fingerprint: str = ""


@dataclass(frozen=True)
class ScanResult:
    alpha: float
    max_n: int
    first_failure: int | None
    error: str


def attempt(alpha: float, n_units: int, seed: int) -> tuple[Any, str, list[str]]:
    """Calibrate and sample the equal design on ``n_units`` units.

    Returns the draw (None when the design engine raised a capacity
    error), that error, and the output checks the draw failed.  Calls go
    through the ``calibration`` and ``samplers`` module attributes, so the
    traced run sees them.
    """
    n = max(1, round(alpha * n_units))
    try:
        incl = calibration.pips_probabilities(np.ones(n_units), n)
        params = calibration.poisson_from_cps_inclusion(incl)
        sample = samplers.cps_sample_sequential(params, RngStream(seed).substream(n_units))
    except CAPACITY_ERRORS as exc:
        return None, f"{type(exc).__name__}: {exc}", []
    if sample.s.shape != (n_units,) or int(sample.s.sum()) != n:
        return sample, "", [f"alpha={alpha} N={n_units}: draw is not of size {n}"]
    return sample, "", []


def capacity_bisect(alpha: float, seed: int) -> tuple[ScanResult, list[str]]:
    """The largest grid N whose draw succeeds, with the next grid point
    failing, found by bisection after trying the cap first, so it stays
    cheap however far the design engine reaches.  It equals an ascending
    scan's answer when failure is monotone in N."""
    problems: list[str] = []
    sample, error, found = attempt(alpha, PROBE_GRID[-1], seed)
    problems += found
    if sample is not None:
        return ScanResult(alpha, PROBE_GRID[-1], None, ""), problems
    ok, bad, first_error = -1, len(PROBE_GRID) - 1, error
    while bad - ok > 1:
        mid = (ok + bad) // 2
        sample, error, found = attempt(alpha, PROBE_GRID[mid], seed)
        problems += found
        if sample is None:
            bad, first_error = mid, error
        else:
            ok = mid
    max_n = PROBE_GRID[ok] if ok >= 0 else 0
    return ScanResult(alpha, max_n, PROBE_GRID[bad], first_error), problems


class Workload:
    """Defaults: an operation is repeated alone, and the package has no
    set-up beyond its import."""

    cycle = 1

    def prepare(self, work: Path) -> None:
        """Untimed, after the first set-up: write the inputs the
        operations read."""

    def setup(self) -> None:
        """The package's own set-up for the workload, timed as set-up."""

    def run_checks(self) -> list[str]:
        return []


class SimWorkload(Workload):
    """``run_experiment`` with the sequential sampler and one worker; an
    operation is one experiment of one replication, with its own seed."""

    def __init__(self, name: str, design: str, population_size: int, seed: int):
        self.name = name
        self.design = design
        self.population_size = population_size
        self.seed = seed
        self.covered: dict[tuple[str, float], int] = {}
        self.replications = 0

    def config(self, k: int):
        return simulate.SimConfig(
            population_size=self.population_size,
            sampling_fraction=SIM_ALPHA,
            replications=1,
            levels=LEVELS,
            quantile_draws=QUANTILE_DRAWS,
            master_seed=op_seed(self.seed, k),
            sampler="sequential",
            design=self.design,
            threads=1,
        )

    def warm_up(self) -> None:
        simulate.run_experiment(self.config(100_000))

    def run_op(self, k: int, around=contextlib.nullcontext) -> OpResult:
        config = self.config(k)
        start = time.perf_counter()
        with around():
            report = simulate.run_experiment(config)
        seconds = time.perf_counter() - start
        text, csv_text = simulate.format_report(report)
        # The cells of a one-replication report hold every coverage flag
        # and simulated quantile of the replication, exactly.
        result = OpResult(
            seconds=seconds,
            output=(report, text, csv_text),
            fingerprint=f"report_sha256={sha256(text)}",
        )
        self._check(report, result.problems)
        return result

    def _check(self, report, problems: list[str]) -> None:
        if len(report.cells) != 2 * len(LEVELS):
            problems.append(f"{len(report.cells)} report cells")
        for cell in report.cells:
            tag = f"{cell.estimator}@{cell.level:g}"
            if not 0.0 <= cell.coverage <= 1.0:
                problems.append(f"{tag}: coverage {cell.coverage} outside [0, 1]")
            widths = (cell.avg_width, cell.max_width)
            if not all(math.isfinite(w) and w > 0.0 for w in widths):
                problems.append(f"{tag}: widths {widths} not finite and positive")
            key = (cell.estimator, cell.level)
            self.covered[key] = self.covered.get(key, 0) + round(cell.coverage)
        self.replications += 1

    def run_checks(self) -> list[str]:
        """Pooled coverage of every cell against its nominal level."""
        problems = []
        b = self.replications
        if b == 0:
            return ["no experiment completed"]
        for (estimator, level), hits in sorted(self.covered.items()):
            coverage = hits / b
            slack = (COVERAGE_SIGMAS * math.sqrt(level * (1.0 - level) / b)
                     + COVERAGE_BIAS_ALLOWANCE)
            print(f"coverage {estimator}@{level:g}: {coverage:.4f} over {b} "
                  f"replications (allowed {level - slack:.4f}..{level + slack:.4f})")
            if abs(coverage - level) > slack:
                problems.append(f"{estimator}@{level:g}: pooled coverage "
                                f"{coverage:.4f} over {b} replications")
        return problems


class BandWorkload(Workload):
    """In-process ``cpsband band`` calls on files written like the ones
    ``cpsband sample`` writes; an operation is one call."""

    cycle = 2  # one HT and one Hajek call

    def __init__(self, seed: int):
        self.name = "band-cli"
        self.seed = seed
        self.work: Path | None = None
        self.population = None
        self.unique_y = None

    def setup(self) -> None:
        self.population = simulate.generate_population(BAND_POPULATION, RngStream(self.seed))

    def prepare(self, work: Path) -> None:
        self.work = work
        # Equal-probability conditional Poisson sampling is simple random
        # sampling without replacement, so a plain draw is a valid sample.
        chosen = np.random.default_rng([self.seed, 1]).choice(
            BAND_POPULATION, size=BAND_SAMPLE, replace=False
        )
        s = np.zeros(BAND_POPULATION, dtype=int)
        s[chosen] = 1
        pi = repr(BAND_SAMPLE / BAND_POPULATION)
        with open(work / "population.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["unit", "y", "x"])
            writer.writerows([i, repr(float(y)), "1.0"] for i, y in enumerate(self.population.y))
        with open(work / "sample.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["unit", "x", "pi", "s"])
            writer.writerows([i, "1.0", pi, int(v)] for i, v in enumerate(s))
        self.unique_y = np.unique(self.population.y)

    def warm_up(self) -> None:
        self.run_op(100_000)

    def argv(self, k: int) -> list[str]:
        return [
            "band",
            "--population", str(self.work / "population.csv"),
            "--sample", str(self.work / "sample.csv"),
            "--estimator", "ht" if k % 2 == 0 else "hajek",
            "--gamma", repr(BAND_GAMMA),
            "--quantile-draws", str(QUANTILE_DRAWS),
            "--seed", str(op_seed(self.seed, k)),
            "--out", str(self.work / "band.csv"),
        ]

    def run_op(self, k: int, around=contextlib.nullcontext) -> OpResult:
        out = self.work / "band.csv"
        out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        argv = self.argv(k)
        start = time.perf_counter()
        with around(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        seconds = time.perf_counter() - start
        band = out.read_bytes() if out.exists() else b""
        result = OpResult(
            seconds=seconds,
            output=(code, stdout.getvalue(), band),
            fingerprint=f"csv_sha256={sha256(band)}",
        )
        self._check(code, stdout.getvalue(), stderr.getvalue(), band, result.problems)
        return result

    def _check(self, code, stdout: str, stderr: str, band: bytes,
               problems: list[str]) -> None:
        if code != 0:
            problems.append(f"exit code {code}: {stderr.strip()}")
            return
        rows = list(csv.reader(io.StringIO(band.decode("utf-8"))))
        if not rows or rows[0] != ["t", "center", "lower", "upper"]:
            problems.append("band CSV header is not t,center,lower,upper")
            return
        table = np.array(rows[1:], dtype=float).reshape(-1, 4)
        t, center, lower, upper = table.T
        if t.shape != self.unique_y.shape or not np.array_equal(t, self.unique_y):
            problems.append(f"{t.shape[0]} rows, expected one per unique y "
                            f"({self.unique_y.shape[0]})")
        if np.any(lower > center) or np.any(center > upper):
            problems.append("lower <= center <= upper violated")
        if np.any(np.diff(center) < 0.0):
            problems.append("center decreases")
        q = re.search(r"q_hat=(\S+)", stdout)
        width = re.search(r"width=(\S+)", stdout)
        if q is None or width is None:
            problems.append("q_hat or width missing from the output")
            return
        expected = 2.0 * float(q.group(1)) / math.sqrt(BAND_POPULATION)
        # Both figures are printed with 6 decimals.
        if abs(float(width.group(1)) - expected) > 1.5e-6:
            problems.append(f"width {width.group(1)} != 2 q_hat / sqrt(N) = {expected:.6f}")



def make(name: str, seed: int):
    # sim-equal: sampler, six sup-quantile calls and an inverse
    # calibration that is a no-op by symmetry share the time; constant-pi
    # short-circuits, design reuse and Gaussian-draw reuse show here.
    if name == "sim-equal":
        return SimWorkload(name, "equal", 2000, seed)
    # sim-proportional: inverse calibration and its esp tables take most
    # of a replication; a calibration speed-up shows here, a quantile or
    # sampler change should not.
    if name == "sim-proportional":
        return SimWorkload(name, "proportional", 500, seed)
    # band-cli: the inference layer once at large n instead of many times
    # at small n, plus CSV read and write; calibration beyond pips, esp
    # and samplers are not called.
    if name == "band-cli":
        return BandWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")

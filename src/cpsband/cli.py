"""Command-line surface: calibrate, sample, band, simulate, oracle-check.

All file outputs are written atomically (temp file in the target
directory, then rename) as UTF-8 with LF line endings, so reruns with
identical inputs and seed produce identical bytes; an output that
cannot be written is named, and no temp file is left.  Input files are
read as UTF-8 with an optional byte-order mark.  ``band`` writes the
estimated CDF that ``band_pipeline`` returns as its center.  The worker
count of ``simulate`` is the config's ``threads``, which --threads
overrides.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .calibration import (
    InclusionProbabilities,
    PopulationFrame,
    cps_inclusion_from_poisson,
    pips_probabilities,
    poisson_from_cps_inclusion,
)
from .inference import band_pipeline
from .samplers import (
    RngStream,
    SampleIndicators,
    cps_sample_rejection_batch,
    cps_sample_sequential,
)
from .simulate import SimConfig, format_report, run_experiment

__all__ = ["main"]


def _atomic_write_text(path: Path, text: str) -> None:
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror}") from None


def _csv_text(header: list[str], rows: list[list[object]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _fmt(value: float) -> str:
    """Shortest decimal text that parses back to the same float."""
    return repr(float(value))


def _row_error(path: Path, reader, unit: str, problem: str) -> ValueError:
    """An error naming the file, the line the reader last read and its unit."""
    return ValueError(f"{path}: line {reader.line_num}, unit {unit!r}: {problem}")


def _unit_rows(path: Path, reader, header: list[str]):
    """The nonblank rows after the header, each checked to have one
    field per column and a unit id no earlier row has."""
    unit_col, width = header.index("unit"), len(header)
    seen: set[str] = set()
    for row in reader:
        if not row:
            continue
        if len(row) == width and row[unit_col] not in seen:
            seen.add(row[unit_col])
            yield row
            continue
        unit = row[unit_col] if unit_col < len(row) else ""
        problem = (
            "unit listed twice" if len(row) == width
            else f"{len(row)} fields, expected {width}"
        )
        raise _row_error(path, reader, unit, problem)


def _number(path: Path, reader, unit: str, name: str, text: str) -> float:
    """Field ``name`` of the row the reader last read, a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise _row_error(path, reader, unit, f"{name} {text!r} is not a finite number")
    return value


def _read_population(path: Path) -> tuple[list[str], PopulationFrame]:
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["unit", "y", "x"]:
            raise ValueError(f"{path}: expected header unit,y,x")
        units, ys, xs = [], [], []
        for unit, y, x in _unit_rows(path, reader, header):
            units.append(unit)
            ys.append(_number(path, reader, unit, "y", y))
            xs.append(_number(path, reader, unit, "x", x))
            if xs[-1] <= 0:
                raise _row_error(path, reader, unit, f"x {x!r} is not positive")
    return units, PopulationFrame(y=np.array(ys), x=np.array(xs))


def _read_sample(
    path: Path, units: list[str], x: np.ndarray
) -> tuple[SampleIndicators, InclusionProbabilities]:
    """The sample indicators in population order and the design's pi,
    pips on x at the drawn size.  A ``pi`` column, as ``sample`` writes
    it, must match that pi within 1e-9."""
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        if "unit" not in header or "s" not in header:
            raise ValueError(f"{path}: sample CSV needs unit and s columns")
        unit_col, s_col = header.index("unit"), header.index("s")
        pi_col = header.index("pi") if "pi" in header else None
        population, by_unit, stated = set(units), {}, {}
        for row in _unit_rows(path, reader, header):
            unit, s = row[unit_col], row[s_col]
            if unit not in population:
                raise _row_error(path, reader, unit, "unit not in the population")
            if s.strip() not in ("0", "1"):
                raise _row_error(path, reader, unit, f"s {s!r} is not 0 or 1")
            by_unit[unit] = int(s)
            if pi_col is not None:
                text = row[pi_col]
                stated[unit] = (text, _number(path, reader, unit, "pi", text))
    missing = next((u for u in units if u not in by_unit), None)
    if missing is not None:
        raise ValueError(f"{path}: population unit {missing!r} is not in the sample")
    sample = SampleIndicators.from_array(np.array([by_unit[u] for u in units]))
    if sample.count == 0:
        raise ValueError(f"{path}: no unit has s = 1")
    incl = pips_probabilities(x, sample.count)
    if stated:
        values = np.array([stated[u][1] for u in units])
        wrong = np.flatnonzero(np.abs(values - incl.pi) > 1e-9)
        if wrong.size:
            unit = units[wrong[0]]
            raise ValueError(
                f"{path}: unit {unit!r}: pi {stated[unit][0]!r} "
                f"is not the design's {_fmt(incl.pi[wrong[0]])}"
            )
    return sample, incl


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"--seed must be non-negative, got {seed}")


def _log_resolution(args: argparse.Namespace, **extra: object) -> None:
    detail = " ".join(f"{k}={v}" for k, v in extra.items())
    print(f"resolved: command={args.command} {detail}".rstrip())


def _calibrated_design(args: argparse.Namespace, **extra: object):
    """The population units and frame, with pips π at --size checked
    against N, and the conditional Poisson parameters that give that π."""
    units, pop = _read_population(Path(args.population))
    if not 1 <= args.size <= pop.size:
        raise ValueError(f"--size must lie in [1, {pop.size}], got {args.size}")
    _log_resolution(args, population=args.population, size=args.size, **extra)
    incl = pips_probabilities(pop.x, args.size)
    return units, pop, incl, poisson_from_cps_inclusion(incl)


def _cmd_calibrate(args: argparse.Namespace) -> int:
    units, pop, incl, params = _calibrated_design(args)
    rows = [
        [unit, _fmt(x), _fmt(prob), _fmt(p)]
        for unit, x, prob, p in zip(units, pop.x, incl.pi, params.p)
    ]
    _atomic_write_text(Path(args.out), _csv_text(["unit", "x", "pi", "p"], rows))
    print(f"sum pi={incl.pi.sum():.12g} sum p={params.p.sum():.12g} n={args.size}")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    units, pop, incl, params = _calibrated_design(args, seed=args.seed)
    sample = cps_sample_sequential(params, RngStream(args.seed))
    rows = [
        [unit, _fmt(x), _fmt(prob), int(ind)]
        for unit, x, prob, ind in zip(units, pop.x, incl.pi, sample.s)
    ]
    _atomic_write_text(Path(args.out), _csv_text(["unit", "x", "pi", "s"], rows))
    print(f"drawn size={sample.count}")
    return 0


def _cmd_band(args: argparse.Namespace) -> int:
    if not 0.0 < args.gamma < 1.0:
        raise ValueError(f"--gamma must lie in (0, 1), got {args.gamma}")
    if args.quantile_draws < 100:
        raise ValueError(
            f"--quantile-draws must be at least 100, got {args.quantile_draws}"
        )
    _check_seed(args.seed)
    units, pop = _read_population(Path(args.population))
    sample, incl = _read_sample(Path(args.sample), units, pop.x)
    _log_resolution(
        args, population=args.population, sample=args.sample,
        estimator=args.estimator, gamma=args.gamma, seed=args.seed,
    )
    left_out = np.flatnonzero((incl.pi == 1.0) & (sample.s == 0))
    if left_out.size:
        raise ValueError(
            f"{args.sample}: unit {units[left_out[0]]!r} has s = 0 "
            "but inclusion probability 1"
        )
    stats, thresholds, centers = band_pipeline(
        pop, incl, sample, (args.gamma,), args.quantile_draws, RngStream(args.seed)
    )
    estimator = args.estimator.upper()
    q_hat = stats.quantile(estimator, 0)
    center = centers[estimator]
    halfwidth = q_hat / math.sqrt(pop.size)
    lower = np.clip(center - halfwidth, 0.0, 1.0)
    upper = np.clip(center + halfwidth, 0.0, 1.0)
    rows = [
        [_fmt(t), _fmt(c), _fmt(lo), _fmt(hi)]
        for t, c, lo, hi in zip(thresholds, center, lower, upper)
    ]
    _atomic_write_text(
        Path(args.out), _csv_text(["t", "center", "lower", "upper"], rows)
    )
    print(
        f"sup={stats.sup(estimator):.6f} q_hat={q_hat:.6f} "
        f"covered={stats.covered(estimator, 0)} width={2.0 * halfwidth:.6f}"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    with open(args.config, encoding="utf-8-sig") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.config}: config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{args.config}: expected a JSON object")
    required = {f.name: f.default is MISSING for f in fields(SimConfig)}
    for name in raw:
        if name not in required:
            raise ValueError(f"{args.config}: unknown config field {name!r}")
    for name in required:
        if required[name] and name not in raw:
            raise ValueError(f"{args.config}: missing config field {name!r}")
    if args.seed is not None:
        raw["master_seed"] = args.seed
    if args.threads is not None:
        raw["threads"] = args.threads
    config = SimConfig(**raw)
    _log_resolution(
        args,
        config=args.config,
        design=config.design,
        seed=config.master_seed,
        threads=config.threads,
    )
    report = run_experiment(config)
    text, csv_text = format_report(report)
    _atomic_write_text(Path(f"{args.out}.txt"), text)
    _atomic_write_text(Path(f"{args.out}.csv"), csv_text)
    sys.stdout.write(text)
    print(f"runtime={report.runtime_seconds:.1f}s")
    return 0


def _oracle_instance(gen: np.random.Generator) -> tuple[np.ndarray, int]:
    n_units = int(gen.integers(4, 9))
    n = int(gen.integers(1, n_units))
    x = gen.lognormal(0.0, 0.5, n_units)
    return x, n


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    # Only this command enumerates designs, so no other command loads the oracle.
    from .oracle import (
        empirical_cps_distribution,
        enumerate_cps_distribution,
        exact_design_moments,
        exact_inclusion_orders,
        total_variation,
    )

    if args.instances < 1:
        raise ValueError(f"--instances must be at least 1, got {args.instances}")
    _check_seed(args.seed)
    _log_resolution(args, seed=args.seed, instances=args.instances)
    gen = np.random.default_rng(args.seed)
    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name} seed={args.seed} {detail}")

    for i in range(args.instances):
        x, n = _oracle_instance(gen)
        incl = pips_probabilities(x, n)
        params = poisson_from_cps_inclusion(incl)
        round_trip = np.abs(cps_inclusion_from_poisson(params).pi - incl.pi).max()
        report(f"round-trip[{i}]", round_trip < 1e-10, f"err={round_trip:.2e}")

        exact = enumerate_cps_distribution(params.p, n)
        pi_exact, pi_second = exact_inclusion_orders(exact)
        forward = np.abs(pi_exact - cps_inclusion_from_poisson(params).pi).max()
        report(f"forward-map[{i}]", forward < 1e-12, f"err={forward:.2e}")

        outer = np.outer(pi_exact, pi_exact)
        off = ~np.eye(len(pi_exact), dtype=bool)
        excess = (pi_second - outer)[off].max()
        report(f"neg-assoc[{i}]", excess <= 1e-12, f"excess={excess:.2e}")

        y = gen.normal(size=len(x))
        mean, _ = exact_design_moments(
            exact, lambda s: float((s * y / pi_exact).sum())
        )
        bias = abs(mean - y.sum())
        report(f"ht-unbiased[{i}]", bias < 1e-9 * max(1.0, abs(y.sum())),
               f"bias={bias:.2e}")

    x, n = _oracle_instance(gen)
    params = poisson_from_cps_inclusion(pips_probabilities(x, n))
    draws = cps_sample_rejection_batch(params, RngStream(args.seed), 20_000)
    tv = total_variation(
        empirical_cps_distribution(draws), enumerate_cps_distribution(params.p, n)
    )
    report("sampler-tv", tv < 0.08, f"tv={tv:.4f} draws=20000")

    print(f"{'all checks passed' if failures == 0 else f'{failures} checks FAILED'}")
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cpsband",
        description=(
            "Fixed-size sampling designs, design-based empirical processes, "
            "and uniform confidence bands for the population CDF."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="inclusion probabilities and design parameters")
    cal.add_argument("--population", required=True, help="population CSV (unit,y,x)")
    cal.add_argument("--size", type=int, required=True, help="sample size n")
    cal.add_argument("--out", required=True, help="output CSV (unit,x,pi,p)")
    cal.set_defaults(func=_cmd_calibrate)

    smp = sub.add_parser("sample", help="draw one fixed-size sample")
    smp.add_argument("--population", required=True, help="population CSV (unit,y,x)")
    smp.add_argument("--size", type=int, required=True, help="sample size n")
    smp.add_argument("--seed", type=int, default=0, help="master seed")
    smp.add_argument("--out", required=True, help="output CSV (unit,x,pi,s)")
    smp.set_defaults(func=_cmd_sample)

    band = sub.add_parser("band", help="uniform confidence band for the CDF")
    band.add_argument("--population", required=True, help="population CSV (unit,y,x)")
    band.add_argument("--sample", required=True, help="sample CSV with unit,s columns")
    band.add_argument("--estimator", choices=["ht", "hajek"], default="ht")
    band.add_argument("--gamma", type=float, default=0.95, help="confidence level")
    band.add_argument("--quantile-draws", type=int, default=1000)
    band.add_argument("--seed", type=int, default=0, help="master seed")
    band.add_argument("--out", required=True, help="output CSV (t,center,lower,upper)")
    band.set_defaults(func=_cmd_band)

    sim = sub.add_parser("simulate", help="coverage experiment")
    sim.add_argument("--config", required=True, help="JSON config with SimConfig fields")
    sim.add_argument("--seed", type=int, default=None, help="override master_seed")
    sim.add_argument("--threads", type=int, default=None,
                     help="worker count (overrides the config's threads)")
    sim.add_argument("--out", required=True, help="output path prefix (.txt and .csv)")
    sim.set_defaults(func=_cmd_simulate)

    orc = sub.add_parser("oracle-check", help="enumeration-based property checks")
    orc.add_argument("--seed", type=int, default=0, help="master seed")
    orc.add_argument("--instances", type=int, default=5)
    orc.set_defaults(func=_cmd_oracle_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

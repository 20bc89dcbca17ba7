"""Benchmark of the cpsband package: coverage-experiment throughput,
``band`` call latency and design-engine capacity.

Run from the root of a source checkout (the package is imported from
``src/``):

    python3 perfbench/run.py --workload sim-equal --seed 1 --seconds 30 --trace 0

Workloads: sim-equal, sim-proportional and band-cli.  Every run also
reports how far the design engine reaches, by bisection over a grid of
population sizes.
``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
operations of half the time with spans recorded around the package's
functions, repeats them without, checks that both passes give identical
outputs, and reports per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
Everything runs in this one process on one thread, with BLAS pinned to
one thread before numpy is imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
from pathlib import Path

WORKLOADS = ("sim-equal", "sim-proportional", "band-cli")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "cpsband" / "__init__.py").is_file():
        print(f"error: no package sources at {src / 'cpsband'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import cpsband

    if Path(cpsband.__file__).resolve().parent != (src / "cpsband").resolve():
        print(f"error: imported cpsband from {cpsband.__file__}, not {src}", file=sys.stderr)
        return 2
    import harness

    return harness.run(args, root)


if __name__ == "__main__":
    sys.exit(main())

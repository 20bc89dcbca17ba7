"""The scripts under scripts/ run end to end on tiny arguments."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
TINY = ["--replications", "2", "--quantile-draws", "100"]


@pytest.mark.parametrize(
    "script, arguments",
    [
        ("design_comparison.py", ["--population-size", "40", *TINY]),
        ("reproduce_tables.py", ["--cells", "40:0.1", *TINY]),
    ],
)
def test_script_runs_on_tiny_arguments(script, arguments):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *arguments],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "coverage experiment: N=40 alpha=0.1 n=4 B=2 B'=100" in done.stdout

"""The public surface: every exported name resolves, so does every name
the README's package bullets cite, the README's layout lists the
package's modules, and importing the package loads only what every
command needs."""

from __future__ import annotations

import builtins
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import cpsband

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    modules = [cpsband] + [
        importlib.import_module(f"cpsband.{info.name}")
        for info in pkgutil.iter_modules(cpsband.__path__)
    ]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    namespace: dict = {}
    exec("from cpsband import *", namespace)
    assert set(cpsband.__all__) <= namespace.keys()


def test_readme_package_bullets_name_real_objects():
    # The bullets between the pipeline line and "## Install"; a
    # backticked identifier longer than one letter that is no builtin
    # is a package name, and a dotted one names cpsband.<module>.<attr>.
    readme = (ROOT / "README.md").read_text()
    start = readme.index("The package covers the full pipeline:")
    bullets = readme[start:readme.index("## Install", start)]
    names = [
        name for name in re.findall(r"`([A-Za-z_][\w.]*)`", bullets)
        if len(name) > 1 and not hasattr(builtins, name)
    ]
    assert "band_pipeline" in names
    unresolved = []
    for name in names:
        module, _, attr = name.rpartition(".")
        owner = importlib.import_module(f"cpsband.{module}" if module else "cpsband")
        if not hasattr(owner, attr):
            unresolved.append(name)
    assert not unresolved


def test_readme_layout_lists_every_module():
    readme = (ROOT / "README.md").read_text()
    # The indented file names between "src/cpsband/" and the block's end.
    start = readme.index("src/cpsband/", readme.index("## Layout"))
    block = readme[start:readme.index("```", start)]
    listed = re.findall(r"^  (\w+\.py) ", block, flags=re.MULTILINE)
    shipped = [path.name for path in (ROOT / "src" / "cpsband").glob("*.py")]
    assert sorted(listed) == sorted(name for name in shipped if name != "__init__.py")


def test_import_loads_neither_the_oracle_nor_the_process_pool():
    # Only oracle-check reads the oracle, and only simulate on more than
    # one worker starts the pool, so a fresh import of the package and
    # its command line loads neither.
    script = (
        "import sys, cpsband, cpsband.cli\n"
        "print(*sorted({'cpsband.oracle', 'multiprocessing'} & sys.modules.keys()))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cpsband.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []

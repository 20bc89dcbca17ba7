"""The public surface: every exported name resolves, so does every name
the README's package bullets cite, the README's layout lists the
package's modules, every top-level object of the package is reached
from the command line, the scripts or the benchmark, and importing the
package loads only what every command needs."""

from __future__ import annotations

import ast
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


def _mentions(node: ast.AST) -> set[str]:
    """Every identifier a node reads: names, attributes, imported names,
    and the dotted parts of string constants (the benchmark swaps
    package attributes that it names in strings)."""
    found: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.update(part for part in sub.value.split(".") if part.isidentifier())
    return found


def _top_level_names(stmt: ast.stmt) -> list[str]:
    """The names a top-level function, class or assignment defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]


def test_every_top_level_object_is_reached():
    # Code that only the tests read belongs in tests/helpers.py.  The
    # walk goes by name, so it can only over-count what is reached.
    # Module dunders (__all__, __version__) are metadata, and a
    # top-level import reaches nothing by itself.
    defined: dict[str, list[tuple[str, ast.stmt]]] = {}
    roots: set[str] = {"main"}
    for path in sorted((ROOT / "src" / "cpsband").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = _top_level_names(stmt)
            if names:
                for name in names:
                    if not (name.startswith("__") and name.endswith("__")):
                        defined.setdefault(name, []).append((path.stem, stmt))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= _mentions(stmt)
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            roots |= _mentions(ast.parse(path.read_text()))
    reached: set[str] = set()
    todo = [name for name in roots if name in defined]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, stmt in defined[name]:
            todo.extend(m for m in _mentions(stmt) if m in defined and m not in reached)
    unreached = sorted(
        f"{module}.{name}"
        for name in defined.keys() - reached
        for module, _ in defined[name]
    )
    assert not unreached


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

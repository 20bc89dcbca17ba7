"""The public surface: every exported name resolves."""

from __future__ import annotations

import importlib
import pkgutil

import cpsband


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

"""The public surface: what ``from vbfkit import *`` and the benchmark tracer reach.

``perfbench/tracer.py`` wraps functions and methods by name in their home
modules; a name deleted from ``src/`` would break its ``install`` only in the
benchmark's traced phase.  These tests read that file's tables and check the
names here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import vbfkit

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_tables():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.MODULES, mod.FUNCTIONS, mod.METHODS


def test_every_name_in_all_resolves():
    assert [name for name in vbfkit.__all__ if not hasattr(vbfkit, name)] == []
    namespace: dict = {}
    exec("from vbfkit import *", namespace)
    assert set(vbfkit.__all__) <= set(namespace)


def test_every_traced_name_exists_in_its_home_module():
    modules, functions, methods = _tracer_tables()
    assert functions and methods
    for name in modules:
        importlib.import_module(f"vbfkit.{name}")
    for span, (home, attrs, _) in functions.items():
        mod = importlib.import_module(f"vbfkit.{home}")
        for attr in attrs:
            assert callable(getattr(mod, attr, None)), (span, attr)
    for span, (home, cls, meth, _) in methods.items():
        owner = getattr(importlib.import_module(f"vbfkit.{home}"), cls, None)
        assert callable(getattr(owner, meth, None)), (span, cls, meth)

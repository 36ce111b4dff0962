"""Spans around vbfkit's public functions, recorded from outside ``src/``.

``install`` replaces each traced function in every vbfkit module that
holds it (so callers that imported it by name see the wrapper) and each
traced method on its class.  A span is (id, parent id, op id, name,
start, end, work); spans stay in memory until ``write``.  Scalar
``Field.mul`` is left alone: it runs millions of times per op and a
wrapper would swamp the run.  Spans inside search worker processes are
not seen; they count as the self time of ``ccz.linear_completion_search``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time

import numpy as np

MODULES = ("gf2m", "vbf", "spectra", "ccz", "constructions", "cli")
OP_SPAN = "cli.main"


def _walsh_cells(f) -> int:
    n = f.ctx.size
    return (n - 1) * n


def _elems(self, x, y) -> int:
    return int(np.broadcast(np.asarray(x), np.asarray(y)).size)


# span name -> (defining module, attribute names, work counter or None)
FUNCTIONS = {
    "vbf.evaluate": ("vbf", ("evaluate",), None),
    "vbf.interpolate": ("vbf", ("interpolate",), None),
    "vbf.algebraic_degree": ("vbf", ("algebraic_degree",), None),
    "vbf.component_degree": ("vbf", ("component_degree",), None),
    "vbf.is_permutation": ("vbf", ("is_permutation",), None),
    "spectra.walsh_spectrum": ("spectra", ("walsh_spectrum",), _walsh_cells),
    "spectra.differential_spectrum": ("spectra", ("differential_spectrum",), None),
    "ccz.power_inequivalence_witness": ("ccz", ("power_inequivalence_witness",), None),
    "ccz.linear_completion_search": ("ccz", ("linear_completion_search",), None),
    "ccz.gold_perm_criterion": ("ccz", ("gold_perm_criterion",), None),
    "ccz.gold_perm_criterion_even": ("ccz", ("gold_perm_criterion_even",), None),
    "ccz.ccz_transform": ("ccz", ("ccz_transform",), None),
    "constructions.build": (
        "constructions",
        ("theorem1", "theorem2", "theorem3", "theorem3_f1", "theorem4"),
        None,
    ),
    "constructions.witness": (
        "constructions", ("theorem12_ccz_witness", "example1_witness"), None
    ),
    "cli.read_lut": ("cli", ("read_lut",), None),
    "cli.render_report": ("cli", ("render_report",), None),
}

# span name -> (defining module, class, method, work counter or None)
METHODS = {
    "gf2m.field_init": ("gf2m", "Field", "__init__", None),
    "gf2m.mul_many": ("gf2m", "Field", "mul_many", _elems),
    "gf2m.pow_many": ("gf2m", "Field", "pow_many", None),
    "gf2m.trace_table": ("gf2m", "Field", "trace_table", None),
    "vbf.functable_init": ("vbf", "FuncTable", "__init__", lambda self, ctx, values: ctx.size),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = [-1]
        self._next = 0
        self.op_id = -1
        self._restore: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn, work):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            w = work(*args, **kwargs) if work is not None else 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, self.op_id, name, t0, t1, w))

        return wrapper

    def call_op(self, op_id: int, fn, *args):
        """Run one op under its root span."""
        self.op_id = op_id
        return self._wrap(OP_SPAN, fn, None)(*args)

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        mods = [importlib.import_module(f"vbfkit.{m}") for m in MODULES]
        mods.append(importlib.import_module("vbfkit"))
        for name, (home, attrs, work) in FUNCTIONS.items():
            home_mod = importlib.import_module(f"vbfkit.{home}")
            for attr in attrs:
                orig = getattr(home_mod, attr)
                wrapped = self._wrap(name, orig, work)
                for mod in mods:
                    if mod.__dict__.get(attr) is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        for name, (home, cls_name, meth, work) in METHODS.items():
            cls = getattr(importlib.import_module(f"vbfkit.{home}"), cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(name, orig, work))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("id,parent,op,name,start,end,work\n")
            for s in self.spans:
                fh.write(f"{s[0]},{s[1]},{s[2]},{s[3]},{s[4]!r},{s[5]!r},{s[6]}\n")

    def summary(self) -> dict:
        """Self time, calls and work per span name, plus module totals."""
        child_time: dict[int, float] = {}
        names: dict[int, str] = {}
        for sid, parent, _, name, t0, t1, _ in self.spans:
            names[sid] = name
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        per_name: dict[str, dict] = {}
        scanned = 0
        op_time = 0.0
        for sid, parent, _, name, t0, t1, w in self.spans:
            agg = per_name.setdefault(name, {"self_s": 0.0, "calls": 0, "work": 0})
            agg["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
            agg["calls"] += 1
            agg["work"] += w
            if name == OP_SPAN:
                op_time += t1 - t0
            elif name == "vbf.component_degree" and names.get(parent) == (
                "ccz.power_inequivalence_witness"
            ):
                scanned += 1
        modules = {m: 0.0 for m in MODULES}
        for name, agg in per_name.items():
            modules[name.split(".", 1)[0]] += agg["self_s"]
        return {
            "per_name": per_name,
            "modules": modules,
            "op_s": op_time,
            "components_scanned": scanned,
        }

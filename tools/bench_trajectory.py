"""Time vbfkit commands end to end and per stage, for the BENCH_*.json files.

    python3 tools/bench_trajectory.py --src . --label change --out BENCH_16.json
    python3 tools/bench_trajectory.py --src ../parent --label parent \\
        --out BENCH_16.json --skip analyze-thm1-m21 --skip remark4-m9

Each entry is one command run in this process through ``vbfkit.cli.main``,
with vbfkit imported from ``<src>/src``; ``tier1`` runs the test suite of
that tree in a subprocess.  An entry runs ``REPEAT`` times and records
every wall time and their median.  The first run of an entry pays the
per-process caches (field tables, Hadamard factors) that later runs reuse,
so the median is a warm figure.  The ``analyze`` entries pass ``--timing``
and record the median of each stage of ``timing_breakdown_ms``.

The result goes under ``sides.<label>`` of ``--out``, next to the sides
already in that file, with the host facts (cores, Python, numpy, BLAS and
its effective thread count) and the git commit of the tree.  Entries named
by ``--skip`` are not run and are listed under ``skipped``.  A later change
writes a new file rather than rewriting an old one.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPEAT = 3  # runs per entry
RANDOM_LUT = "<random m=13 LUT>"  # replaced by the path of a seeded random permutation


def _analyze(*args: str) -> list[str]:
    return ["analyze", *args, "--timing"]


ENTRIES = {
    **{f"analyze-gold-m{m}": _analyze("--family", "gold", "--m", str(m), "--i", "1")
       for m in (9, 11, 13, 15, 17)},
    **{f"analyze-thm1-m{m}": _analyze("--family", "thm1", "--m", str(m), "--i", "1")
       for m in (13, 15, 17, 21)},
    "analyze-thm4-m15-n5": _analyze("--family", "thm4", "--m", "15", "--n", "5", "--i", "1"),
    "analyze-inverse-m17": _analyze("--family", "inverse", "--m", "17"),
    "analyze-random-lut-m13": _analyze(RANDOM_LUT),
    "remark4-m7-i1": ["verify", "remark4", "--m", "7", "--i", "1"],
    "remark4-m7-i2": ["verify", "remark4", "--m", "7", "--i", "2"],
    "remark4-m9": ["verify", "remark4", "--m", "9", "--i", "1"],
    "tier1": None,  # the test suite, in a subprocess
}


def _git(tree: Path, *args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _blas_threads(blas: dict) -> int | None:
    """The thread count the loaded OpenBLAS reports, or None if none is found."""
    import numpy as np

    dirs = [Path(np.__file__).parent.parent / "numpy.libs", blas.get("lib directory", "")]
    for path in (p for d in dirs for p in glob.glob(os.path.join(d, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def host_facts(tree: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(blas),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _git(tree, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(_git(tree, "status", "--porcelain", "--untracked-files=no")),
    }


def _random_lut(directory: str) -> str:
    from vbfkit.cli import lut_text
    from vbfkit.gf2m import Field
    from vbfkit.vbf import FuncTable

    values = list(range(1 << 13))
    random.Random(13).shuffle(values)
    path = os.path.join(directory, "random13.lut")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(lut_text(FuncTable(Field(13), values)))
    return path


def _run_cli(argv: list[str]) -> tuple[float, int, str]:
    from vbfkit.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = main(argv)
        wall = time.perf_counter() - start
    return wall, rc, out.getvalue()


def _run_tier1(tree: Path) -> tuple[float, int, str]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    wall = time.perf_counter() - start
    return wall, done.returncode, done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""


def measure(tree: Path, argv: list[str] | None, repeat: int) -> dict:
    runs, codes, stages, summary = [], set(), [], None
    for _ in range(repeat):
        wall, rc, out = _run_tier1(tree) if argv is None else _run_cli(argv)
        runs.append(round(wall, 4))
        codes.add(rc)
        if argv is None:
            summary = out
        elif argv[0] == "analyze" and rc == 0:
            report = json.loads(out)
            stages.append(report["timing_breakdown_ms"])
            summary = report.get("spectra_from")
        else:
            summary = out.strip().splitlines()[-1] if out.strip() else ""
    entry = {
        "command": "pytest (Tier-1)" if argv is None else "vbfkit " + " ".join(argv),
        "runs_s": runs,
        "median_s": round(statistics.median(runs), 4),
        "exit_codes": sorted(codes),
    }
    if stages:
        entry["stages_median_ms"] = {k: statistics.median(s[k] for s in stages) for k in stages[0]}
    if summary is not None:
        entry["spectra_from" if argv and argv[0] == "analyze" else "last_line"] = summary
    return entry


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True, help="root of the vbfkit tree to time")
    ap.add_argument("--label", required=True, help="name of this side in the output file")
    ap.add_argument("--out", required=True, help="JSON file to add this side to")
    ap.add_argument("--skip", action="append", default=[], choices=sorted(ENTRIES),
                    help="entry not to run; may be given more than once")
    args = ap.parse_args(argv)
    tree = Path(args.src).resolve()
    sys.path.insert(0, str(tree / "src"))
    import vbfkit

    if not Path(vbfkit.__file__).resolve().is_relative_to(tree / "src"):
        print(f"error: vbfkit was imported from {vbfkit.__file__}, not from {tree / 'src'}",
              file=sys.stderr)
        return 2
    side = {"host": host_facts(tree), "repeat": REPEAT,
            "skipped": sorted(set(args.skip)), "entries": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cmd in ENTRIES.items():
            if name in args.skip:
                continue
            if cmd is not None and RANDOM_LUT in cmd:
                cmd = [_random_lut(tmp) if a == RANDOM_LUT else a for a in cmd]
            side["entries"][name] = measure(tree, cmd, REPEAT)
            print(f"{name}: {side['entries'][name]['median_s']} s", file=sys.stderr)
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {"schema": 1, "sides": {}}
    data["sides"][args.label] = side
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

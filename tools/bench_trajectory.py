"""Time vbfkit commands end to end and per stage, for the BENCH_*.json files.

    python3 tools/bench_trajectory.py --src ../parent --label parent-a --out BENCH_20.json
    python3 tools/bench_trajectory.py --src . --label change-a --out BENCH_20.json
    python3 tools/bench_trajectory.py --src ../parent --label parent-b --out BENCH_20.json
    python3 tools/bench_trajectory.py --src . --label change-b --out BENCH_20.json

Record the sides alternating, as above: a side takes minutes, and with one
pass per side the host's drift between them reads as a change.

Each entry is one command run in this process through ``vbfkit.cli.main``,
with vbfkit imported from ``<src>/src``; ``tier1`` runs the test suite of
that tree in a subprocess.  An entry runs ``REPEAT`` times and records
every wall time and their median.  The first run of an entry pays the
per-process caches that later runs reuse: the Hadamard factors and, in a
tree where ``Field`` interns its instances, every table of the field (in
an older tree, each run rebuilt the log/exp and trace tables).  So the
median is a warm figure.  The ``analyze`` entries pass ``--timing`` and
record the median of each stage of ``timing_breakdown_ms``.

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
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPEAT = 3  # runs per entry


def _analyze(*args: str) -> list[str]:
    return ["analyze", *args, "--timing"]


def _random_lut_arg(m: int, kind: str) -> str:
    """Placeholder for a seeded random ``kind`` ("permutation" or
    "function") LUT at degree m, replaced by its path when its entry runs."""
    return f"<random m={m} {kind} LUT>"


def _family_lut_arg(family: str, m: int, i: int) -> str:
    """Placeholder for the LUT that ``construct --family`` writes for
    ``family`` at degree m and index i, replaced by its path when its entry
    runs."""
    return f"<{family} m={m} i={i} LUT>"


ENTRIES = {
    **{f"analyze-gold-m{m}": _analyze("--family", "gold", "--m", str(m), "--i", "1")
       for m in (9, 11, 13, 15, 17)},
    **{f"analyze-thm1-m{m}": _analyze("--family", "thm1", "--m", str(m), "--i", "1")
       for m in (13, 15, 17, 21)},
    "analyze-thm4-m15-n5": _analyze("--family", "thm4", "--m", "15", "--n", "5", "--i", "1"),
    "analyze-inverse-m17": _analyze("--family", "inverse", "--m", "17"),
    # tables without symmetry: every Walsh row and difference direction is scanned;
    # up to m = 6 both spectra are one block of every row, with no orbits
    **{f"analyze-random-lut-m{m}": _analyze(_random_lut_arg(m, "function")) for m in (6, 8, 9)},
    "analyze-random-lut-m13": _analyze(_random_lut_arg(13, "permutation")),
    # the orbit path on a family's own table: thm1 commutes with squaring
    # only; the Gold map at m = 16 scales by lam = g^3, which is not
    # primitive, so its rows are three residue classes of log b before
    # squaring merges two; thm1 at m = 17 takes about 19 s a run
    "analyze-lut-thm1-m15": _analyze(_family_lut_arg("thm1", 15, 1)),
    "analyze-lut-gold-m16": _analyze(_family_lut_arg("gold", 16, 1)),
    "analyze-lut-thm1-m17": _analyze(_family_lut_arg("thm1", 17, 1)),
    # the twisted claims: Gold's spectra through the checked graph map, or
    # in an older tree the orbit path on their own table (about 13 and 24 s);
    # thm1 at m = 21 checks three witness points on one closed form
    "verify-thm1-m7": ["verify", "thm1", "--m", "7", "--i", "1"],
    "verify-thm1-m17": ["verify", "thm1", "--m", "17", "--i", "1"],
    "verify-thm1-m21": ["verify", "thm1", "--m", "21", "--i", "1"],
    "verify-thm3-m18": ["verify", "thm3", "--m", "18", "--i", "1"],
    # four spectra and about seven graph images of 32-entry tables: the
    # slowest tenth of the perfbench `criteria` workload's ops
    "verify-ccz-invariance-m5": ["verify", "ccz-invariance", "--m", "5", "--count", "8",
                                 "--seed", "0"],
    "remark4-m7-i1": ["verify", "remark4", "--m", "7", "--i", "1"],
    "remark4-m7-i2": ["verify", "remark4", "--m", "7", "--i", "2"],
    # at m = 17 and 21 the search's set-up, not its nodes, takes the time
    **{f"remark4-m{m}": ["verify", "remark4", "--m", str(m), "--i", "1"] for m in (9, 11, 13, 17, 21)},
    # the Walsh-zero search: thm1 has a zero in every row, so the tree is
    # searched; the Gold table at even m has bent rows, which answer at once
    "remark4-lut-thm1-m7": ["verify", "remark4", "--lut", _family_lut_arg("thm1", 7, 1)],
    "remark4-lut-gold-m12": ["verify", "remark4", "--lut", _family_lut_arg("gold", 12, 1)],
    # as CI runs it: a bent row in the first Walsh block ends the search, so
    # reading the 2^14-line LUT is a large share of the time
    "remark4-lut-gold-m14": ["verify", "remark4", "--lut", _family_lut_arg("gold", 14, 1)],
    # writing 2^20 LUT lines, next to building the Gold table
    "construct-gold-m20": ["construct", "--family", "gold", "--m", "20", "--i", "1",
                           "--out", os.devnull],
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


def _write_lut(directory: str, placeholder: str) -> str:
    """Write the table a ``_random_lut_arg`` placeholder names, seeded by m,
    or the one a ``_family_lut_arg`` placeholder names, and return its path."""
    from vbfkit.cli import lut_text, main
    from vbfkit.gf2m import Field
    from vbfkit.vbf import FuncTable

    family = re.fullmatch(r"<(\w+) m=(\d+) i=(\d+) LUT>", placeholder)
    if family is not None:
        name, m_text, i_text = family.groups()
        path = os.path.join(directory, f"{name}{m_text}-i{i_text}.lut")
        if main(["construct", "--family", name, "--m", m_text, "--i", i_text, "--out", path]):
            raise RuntimeError(f"construct {placeholder} failed")
        return path
    m_text, kind = re.fullmatch(r"<random m=(\d+) (permutation|function) LUT>", placeholder).groups()
    m = int(m_text)
    rng = random.Random(m)
    if kind == "permutation":
        values = list(range(1 << m))
        rng.shuffle(values)
    else:
        values = [rng.randrange(1 << m) for _ in range(1 << m)]
    path = os.path.join(directory, f"random-{kind}{m}.lut")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(lut_text(FuncTable(Field(m), values)))
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
            if cmd is not None:
                cmd = [_write_lut(tmp, a) if a.startswith("<") else a for a in cmd]
            side["entries"][name] = measure(tree, cmd, REPEAT)
            print(f"{name}: {side['entries'][name]['median_s']} s", file=sys.stderr)
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {"schema": 1, "sides": {}}
    data["sides"][args.label] = side
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

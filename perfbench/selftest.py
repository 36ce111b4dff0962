"""Self-test of the benchmark on tiny inputs (about half a minute).

    python3 perfbench/selftest.py

Checks that a corrupted ``analyze`` report and a wrong ``verify`` line
are counted as failed ops (error rate above 0), that the output checks
reject a bad completion and a report that breaks an invariant, that both
trace modes print every metric named in BENCHMARK.json, and that the
benchmark exits non-zero, printing no result, without the vbfkit sources.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import contextlib
import io
import json
import shutil
import subprocess
import tempfile
from pathlib import Path

import checks
import run
import workloads


def tiny(w: workloads.Workload, pools: dict, keep) -> workloads.Workload:
    """The workload cut down to one cheap op per kept sub-pool."""
    slots = tuple((name, 1) for name, _ in w.slots if keep(name))
    return workloads.Workload(w.name, w.why, {n: pools[n] for n, _ in slots}, slots, 1,
                              w.long_ops)


def tiny_workloads(expected: dict) -> list[workloads.Workload]:
    ws = workloads.all_workloads()
    out = []
    for w in ws.values():
        pools = workloads.runnable_pools(w, expected)
        if w.name == "analyze-large":  # m = 13 is not tiny; use m = 7 reports
            batch = ws["analyze-batch"]
            w = workloads.Workload(w.name, w.why, batch.pools, batch.slots, 1, w.long_ops)
            pools = batch.pools
        out.append(tiny(w, pools, lambda n: n in ("gold7", "randperm7", "none", "found",
                                                   "pgp5", "pgpe4", "thm3", "ccz")))
    return out


def run_tiny(w, expected, trace: int) -> dict:
    """One tiny benchmark run through run.main; returns the result line."""
    catalog = {w.name: w}
    saved = workloads.all_workloads
    workloads.all_workloads = lambda: catalog
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = run.main(["--workload", w.name, "--seed", "1", "--seconds", "0",
                           "--trace", str(trace)])
    finally:
        workloads.all_workloads = saved
    assert rc == 0, out.getvalue()
    return json.loads(out.getvalue().strip().splitlines()[-1])


def run_patched(patch, w, expected) -> dict:
    """A tiny run with ``patch(cli)`` applied after each fresh import."""
    fresh = run.import_vbfkit

    def patched_import():
        cli = fresh()
        patch(cli)
        return cli

    run.import_vbfkit = patched_import
    try:
        return run_tiny(w, expected, 0)
    finally:
        run.import_vbfkit = fresh


def main() -> int:
    with open(run.BENCH / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)["ops"]
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    whys = {w.name: w.why for w in workloads.all_workloads().values()}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == whys

    smalls = tiny_workloads(expected)
    for w in smalls:
        for trace, names in ((0, e2e), (1, layers)):
            res = run_tiny(w, expected, trace)
            assert res["correct"] and res["failed"] == 0, (w.name, res)
            assert set(res["metrics"]) == names, (w.name, set(res["metrics"]) ^ names)
    print("ok   every BENCHMARK.json metric printed on every workload, both trace modes")

    batch = next(w for w in smalls if w.name == "analyze-batch")

    def corrupt_report(cli):
        render = cli.render_report
        cli.render_report = lambda report: render(report).replace("1", "2", 1)

    res = run_patched(corrupt_report, batch, expected)
    assert not res["correct"] and res["failed"] == res["attempted"] > 0, res
    print("ok   corrupted reports counted as failed ops")

    crit = next(w for w in smalls if w.name == "criteria")

    def wrong_line(cli):
        emit = cli._emit_checks
        cli._emit_checks = lambda found: emit([(name + "!", ok) for name, ok in found])

    res = run_patched(wrong_line, crit, expected)
    assert not res["correct"] and res["failed"] > 0, res
    print("ok   wrong verify lines counted as failed ops")

    zero = workloads.random_table(("randfunc", 4, 0, 0x13)) * 0
    assert checks.is_completion(zero, [1, 2, 4, 8])  # 0 + x permutes
    assert not checks.is_completion(zero, [0, 0, 0, 0])
    assert not checks.is_completion(zero, [1, 2, 4])
    assert checks.completion_rows("FAIL linear completion found: rows [0x1, 0x2]") == [1, 2]
    assert checks.completion_rows("ok   no linear completion") is None
    report = json.dumps({"m": 5, "is_ab": False, "walsh_distribution": {"0": 1},
                         "delta_distribution": {"0": 992}})
    assert checks.report_invariants(report) is not None
    print("ok   bad completion rows and broken report invariants rejected")

    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "criteria", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok   exits non-zero with no result when the sources are missing")
    return 0


if __name__ == "__main__":
    sys.exit(main())

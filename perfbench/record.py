"""Record the expected output of every pool op into expected.json.

    python3 perfbench/record.py

Run this only on a commit whose outputs are trusted (the expectations in
the repository were recorded at the seed commit, a8ba320).  For each op it
stores the exit code and either the SHA-256 of the ``analyze`` report, the
``verify`` lines, or, for a ``remark4`` table with a completion, only the
verdict.  Every op must exit 0, except a ``remark4`` table with a
completion (exit 1, its printed rows re-checked).  Mean op time per
sub-pool is printed, which is what the round compositions were tuned on.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json
import shutil
import statistics
import tempfile

import checks
import run
import workloads


def main() -> int:
    sys.path.insert(1, str(run.SRC))
    cli = run.import_vbfkit()
    ops_expected = {}
    run.OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=run.OUT)
    bad = []
    try:
        for w in workloads.all_workloads().values():
            for pool_name, ops in w.pools.items():
                times = []
                for op in ops:
                    lut = values = None
                    if op.table is not None:
                        lut = f"{tmp}/t.lut"
                        workloads.write_table(op.table, lut, cli.main)
                        values = workloads.read_table(lut)
                    rc, out, start, end, crash = run.run_op(cli.main, op, lut)
                    times.append(end - start)
                    entry = {"rc": rc}
                    if crash:
                        bad.append((op.key, crash))
                        continue
                    if op.argv[0] == "analyze" and rc == 0:
                        problem = checks.report_invariants(out)
                        entry["sha256"] = checks.report_digest(out)
                    elif op.claim == "remark4" and rc == 1:
                        rows = checks.completion_rows(out)
                        ok = rows is not None and checks.is_completion(values, rows)
                        problem = None if ok else "completion rows do not check out"
                        entry["completion"] = True
                    elif rc == 0:
                        problem = None
                        entry["lines"] = out.splitlines()
                    else:
                        problem = f"exit {rc}: {out.strip()[:200]}"
                    if problem:
                        bad.append((op.key, problem))
                    ops_expected[op.key] = entry
                print(f"{w.name:14s} {pool_name:10s} {len(ops):4d} ops  "
                      f"mean {statistics.mean(times):.4f} s  max {max(times):.4f} s",
                      flush=True)
    finally:
        shutil.rmtree(tmp)
    for key, problem in bad:
        print(f"BAD {key}: {problem}", file=sys.stderr)
    if bad:
        return 1
    doc = {
        "about": "Expected outputs of every benchmark pool op; written by record.py.",
        "ops": dict(sorted(ops_expected.items())),
    }
    with open(run.BENCH / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""vbfkit benchmark: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload analyze-batch --seed 1 --seconds 12 --trace 0

One client drives vbfkit in-process through ``vbfkit.cli.main(argv)`` in a
closed loop: the next op starts when the previous one has returned.  Every
op's output is checked (see checks.py); a wrong output counts as failed.
Op latencies are normalized for contention on a shared host (see speed.py).
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A traced run measures the workload
untraced, then again with spans around each layer (see tracer.py), and
reports per-op self times, call counts and work counts.  Spans and a result
record with the environment go to ``.perfbench_out/``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import collections
import contextlib
import functools
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import workloads
from speed import SpeedSampler
from tracer import MODULES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# set up again until both hold: a set-up takes 25 ms on some workloads and
# 0.3 s on others, and a median of many is steadier than one
SETUP_MIN_REPS = 5
SETUP_MIN_S = 4.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer self times (s per op), named after the span they sum
LAYER_TIMES = (
    "spectra.walsh_spectrum",
    "spectra.differential_spectrum",
    "vbf.algebraic_degree",
    "vbf.interpolate",
    "vbf.component_degree",
    "vbf.functable_init",
    "vbf.evaluate",
    "vbf.is_permutation",
    "ccz.power_inequivalence_witness",
    "ccz.linear_completion_search",
    "ccz.gold_perm_criterion",
    "ccz.gold_perm_criterion_even",
    "ccz.ccz_transform",
    "gf2m.field_init",
    "gf2m.mul_many",
    "gf2m.pow_many",
    "gf2m.trace_table",
    "constructions.build",
    "constructions.witness",
    "cli.read_lut",
    "cli.render_report",
)
# per-layer counts per op: metric name -> (span name, "calls" or "work")
LAYER_COUNTS = {
    "spectra.walsh.cells": ("spectra.walsh_spectrum", "work"),
    "vbf.component_degree.calls": ("vbf.component_degree", "calls"),
    "vbf.functable_init.calls": ("vbf.functable_init", "calls"),
    "vbf.functable_init.entries": ("vbf.functable_init", "work"),
    "gf2m.field_init.calls": ("gf2m.field_init", "calls"),
    "gf2m.mul_many.calls": ("gf2m.mul_many", "calls"),
    "gf2m.mul_many.elems": ("gf2m.mul_many", "work"),
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in LAYER_TIMES}
    units.update({name: "count" for name in LAYER_COUNTS})
    units["ccz.witness.components_scanned"] = "count"
    units.update({f"{mod}.self_s": "s" for mod in MODULES})
    units.update({"trace.op_s": "s", "trace.ops_per_s": "1/s", "trace.overhead_ops_per_s": "1/s"})
    return units


# ------------------------------------------------------------------ set-up


def import_vbfkit():
    """A fresh import of vbfkit from this checkout's src/."""
    # ops without --poly must use vbfkit's built-in default polynomials, as
    # they did when expected.json was recorded
    os.environ.pop("VBF_DEFAULT_POLY_TABLE", None)
    for name in [n for n in sys.modules if n == "vbfkit" or n.startswith("vbfkit.")]:
        del sys.modules[name]
    cli = importlib.import_module("vbfkit.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"vbfkit was imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload, seed: int, expected: dict, workdir: Path):
    """Import vbfkit and generate the run's inputs: its rounds of ops and
    the LUT files they read (with table values where a check needs them)."""
    cli = import_vbfkit()
    rounds = workloads.build_rounds(workload, seed, expected)
    workdir.mkdir(parents=True, exist_ok=True)
    tables: dict[tuple, tuple] = {}
    for ops in rounds:
        for op in ops:
            if op.table is None or op.table in tables:
                continue
            path = str(workdir / f"t{len(tables)}.lut")
            workloads.write_table(op.table, path, cli.main)
            values = workloads.read_table(path) if op.claim == "remark4" else None
            tables[op.table] = (path, values)
    return cli, rounds, tables


# ------------------------------------------------------------------ ops


def run_op(main, op, path: str | None) -> tuple:
    """Call the CLI once; returns (exit code, stdout, start, end, crash)."""
    argv = [path if a == workloads.LUT_ARG else a for a in op.argv]
    out, err = io.StringIO(), io.StringIO()
    crash = None
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed op; the run goes on
        crash = f"raised {exc!r}"
    return rc, out.getvalue(), t0, time.perf_counter(), crash


@dataclass
class Phase:
    """One timed phase: per op, its measured and its normalized latency
    (see speed.py; as measured for an op with worker processes) and whether
    its output was correct; every failure as (op key, reason); the number
    of whole rounds run."""

    raw: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    ok: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    rounds: int = 0


def op_stats(latencies: list[float], ok: list[bool]) -> dict[str, float]:
    """Correct ops per second of op time (the summed op latencies, so the
    benchmark's own checks and speed samples between ops do not count),
    and the median and 90th-percentile op latency (interpolated between
    order statistics, never beyond them)."""
    if len(latencies) > 1:
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    else:
        p90 = latencies[0]
    return {
        "ops_per_s": sum(ok) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": p90,
    }


def measure(cli, workload, rounds, tables, expected, seconds: float,
            tracer: Tracer | None = None) -> Phase:
    """Run whole rounds until ``seconds`` have passed."""
    phase = Phase()
    spans = []
    with SpeedSampler(host=workload.long_ops) as sampler:
        t0 = time.perf_counter()
        while True:
            for op in rounds[phase.rounds % len(rounds)]:
                path, values = tables.get(op.table, (None, None))
                main = cli.main
                if tracer is not None:
                    main = functools.partial(tracer.call_op, len(spans), cli.main)
                rc, out, start, end, crash = run_op(main, op, path)
                reason = crash or checks.check(op, rc, out, values, expected)
                spans.append((start, end, op.forks))
                phase.ok.append(not reason)
                if reason:
                    phase.failures.append((op.key, reason))
                sampler.between()
            phase.rounds += 1
            if time.perf_counter() - t0 >= seconds:
                break
    normalize = sampler.normalizer()
    phase.raw = [end - start for start, end, _ in spans]
    phase.latencies = [
        end - start if forks else normalize(start, end) for start, end, forks in spans
    ]
    return phase


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


# ------------------------------------------------------------------ report


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload, rounds) -> dict:
    first = rounds[0]
    return {
        "nproc": workloads.usable_cores(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": sorted({op.argv[op.argv.index("--threads") + 1]
                           for op in first if "--threads" in op.argv}),
        "ops_per_round": len(first),
        "m_mix_per_round": dict(sorted(collections.Counter(op.m for op in first).items())),
        "claim_mix_per_round": dict(sorted(collections.Counter(op.claim for op in first).items())),
    }


def layer_metrics(summary: dict, ops: int, traced_rate: float, plain_rate: float) -> dict:
    per_name = summary["per_name"]
    zero = {"self_s": 0.0, "calls": 0, "work": 0}
    vals = {f"{n}_s": per_name.get(n, zero)["self_s"] / ops for n in LAYER_TIMES}
    for metric, (span, field) in LAYER_COUNTS.items():
        vals[metric] = per_name.get(span, zero)[field] / ops
    vals["ccz.witness.components_scanned"] = summary["components_scanned"] / ops
    vals.update({f"{mod}.self_s": t / ops for mod, t in summary["modules"].items()})
    vals["trace.op_s"] = summary["op_s"] / ops
    vals["trace.ops_per_s"] = traced_rate
    vals["trace.overhead_ops_per_s"] = traced_rate - plain_rate
    return vals


def path_shares(summary: dict, name: str) -> list[str]:
    """Human lines: self-time shares of each module and of the stages the
    workload exists to load, as fractions of traced op time."""
    op_s = summary["op_s"] or 1.0
    per = summary["per_name"]
    lines = [
        "self time by module: "
        + ", ".join(f"{m} {t / op_s:.1%}" for m, t in summary["modules"].items())
        + f"; sum {sum(summary['modules'].values()) / op_s:.4f} of op time"
    ]

    def self_s(*names):
        return sum(per.get(n, {"self_s": 0.0})["self_s"] for n in names)

    if name.startswith("analyze"):
        path = self_s(
            "spectra.walsh_spectrum", "spectra.differential_spectrum",
            "vbf.algebraic_degree", "vbf.interpolate", "vbf.component_degree",
            "ccz.power_inequivalence_witness",
        )
        gf = summary["modules"]["gf2m"]
        lines.append(
            f"spectra + degree/witness self time: {path / op_s:.1%} of op time "
            f"({(path + gf) / op_s:.1%} with all gf2m self time)"
        )
    if name == "search":
        lines.append(
            "ccz.linear_completion_search self time: "
            f"{self_s('ccz.linear_completion_search') / op_s:.1%} of op time"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "vbfkit" / "cli.py").is_file():
        print(f"error: no vbfkit sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(1, str(SRC))
    with open(BENCH / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)["ops"]
    catalog = workloads.all_workloads()
    if args.workload not in catalog:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(catalog)}",
              file=sys.stderr)
        return 2
    workload = catalog[args.workload]

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    setups = []
    # every set-up rewrites the same files in place: creating and deleting
    # a hundred files per set-up made its time swing between runs
    workdir = OUT / f"inputs-{os.getpid()}"
    try:
        with SpeedSampler(host=False) as sampler:
            begin = time.perf_counter()
            while len(setups) < SETUP_MIN_REPS or time.perf_counter() - begin < SETUP_MIN_S:
                t0 = time.perf_counter()
                cli, rounds, tables = set_up(workload, args.seed, expected, workdir)
                setups.append((t0, time.perf_counter()))
                sampler.between()
        normalize = sampler.normalizer()
        setups = [normalize(t0, t1) for t0, t1 in setups]

        plain = measure(cli, workload, rounds, tables, expected, args.seconds)
        failures = list(plain.failures)
        attempted = len(plain.ok)
        per_round = len(rounds[0])
        env = environment(workload, rounds)
        print(f"workload {workload.name}: {workload.why}")
        print(f"seed {args.seed}: {plain.rounds} rounds of {per_round} ops, {attempted} ops "
              f"in {sum(plain.raw):.3f} s of op time, closed loop, 1 client")
        print("env " + json.dumps(env, sort_keys=True))
        for key, reason in failures[:10]:
            print(f"FAILED {key}: {reason}")
        print(f"error_rate = {len(failures) / attempted:.6g} "
              f"({len(failures)} of {attempted} ops failed or gave a wrong output)")

        record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "rounds": plain.rounds,
                  "latencies_s": plain.latencies, "raw_latencies_s": plain.raw,
                  "setups_s": setups}
        plain_stats = op_stats(plain.latencies, plain.ok)
        if args.trace == 0:
            measured = op_stats(plain.raw, plain.ok)
            values = {"setup_s": statistics.median(setups), **plain_stats,
                      "peak_rss_mb": peak_rss_mb()}
            beyond = attempted - 1 - int(0.9 * (attempted - 1))
            notes = {
                "setup_s": f"median of {len(setups)} set-ups: import vbfkit + generate inputs",
                "ops_per_s": f"{sum(plain.ok)} correct ops",
                "op_p50_s": f"n={attempted}",
                "op_p90_s": f"n={attempted}, {beyond} beyond it",
                "peak_rss_mb": "max of ru_maxrss for the process and its workers",
            }
            for name, value in measured.items():
                notes[name] += f"; {value:.6g} as measured"
            units = END_TO_END_UNITS
        else:
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(cli, workload, rounds, tables, expected, args.seconds, tracer)
            finally:
                tracer.uninstall()
            failures += traced.failures
            attempted += len(traced.ok)
            summary = tracer.summary()
            plain_rate = plain_stats["ops_per_s"]
            traced_rate = op_stats(traced.latencies, traced.ok)["ops_per_s"]
            values = layer_metrics(summary, len(traced.ok), traced_rate, plain_rate)
            notes = {}
            units = per_layer_units()
            for line in path_shares(summary, workload.name):
                print(line)
            print(f"tracing overhead: {traced_rate - plain_rate:+.4g} ops/s "
                  f"({traced_rate:.4g} traced vs {plain_rate:.4g} untraced)")
            spans_path = OUT / f"spans-{stem}.csv.gz"
            tracer.write(str(spans_path))
            print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
            record["per_layer_raw"] = summary["per_name"]

        for name, value in values.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{name} = {value:.6g} {units[name]}{note}")
        metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
        record["metrics"] = metrics
        record["failures"] = failures
        with open(OUT / f"result-{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        result = {"correct": not failures, "attempted": attempted,
                  "failed": len(failures), "metrics": metrics}
        print(json.dumps(result))
        return 0
    finally:
        if workdir.exists():
            shutil.rmtree(workdir)


if __name__ == "__main__":
    sys.exit(main())

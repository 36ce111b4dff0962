"""Seeded workloads for the vbfkit benchmark.

A workload is a fixed pool of CLI ops split into sub-pools, and a round
composition: each round draws a fixed number of ops from every sub-pool,
in a fixed order.  A run repeats whole rounds, so the latency mix of a
run is the same for every seed and every run length; the seed only picks
which pool items fill the slots.  Each sub-pool is dealt like a shuffled
deck, so a run's number of distinct items, and with it the set-up work,
does not depend on the seed either.  The expected output of every
pool item is recorded in ``expected.json`` by ``record.py``.

Why each workload exists:

- ``analyze-large``: ``analyze`` of gold (twice) and thm1 at m = 13.  Gold
  has no EA witness, so all 8191 components are scanned; thm1 exits the
  scan at the first component.  Here the FWHT of ``spectra`` and the
  degree and witness path of ``vbf``/``ccz`` do most of the work.
- ``analyze-batch``: a seeded stream of LUT files at m = 7-10 (gold,
  inverse, thm1/thm2, random permutations, random functions), each read
  through ``read_lut``.  Fixed per-table costs (``read_lut``, ``Field()``
  tables, ``FuncTable`` checks) count here, so a change that speeds up
  m = 13 by adding per-table set-up cost shows its price.
- ``search``: the exhaustive 2^25 ``remark4`` sweep at m = 5 (twice, for
  two indices), plus ``remark4 --lut`` on a hundred seeded m = 4 tables,
  twenty with a completion and eighty without.  The only workload that runs the
  ``ccz`` completion search; the sweeps' ``--threads`` is pinned to the
  number of usable cores.
- ``criteria``: many short ``verify`` calls (``prop-gold-perm``,
  ``prop-gold-perm-even``, ``thm1``-``thm4``, ``example1``,
  ``ccz-invariance``).  The "many small tables" path: ``evaluate``, then
  ``FuncTable.__init__``, then the ``gold_perm_criterion`` product grid,
  which the other workloads hide under Walsh or search time.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

import numpy as np

LUT_ARG = "{lut}"  # placeholder in argv for the path of the op's table file

# The three lowest irreducible reduction polynomials per degree.
POLYS = {
    4: (0x13, 0x19, 0x1F),
    5: (0x25, 0x29, 0x2F),
    6: (0x43, 0x49, 0x57),
    7: (0x83, 0x89, 0x8F),
    8: (0x11B, 0x11D, 0x12B),
    9: (0x203, 0x211, 0x217),
    10: (0x409, 0x40F, 0x41B),
}

_RANDOM_SALT = 0x5EED_B0F  # keeps random pool tables fixed across versions
_KIND_CODES = {"randperm": 1, "randfunc": 2, "completable": 3}


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  ``key`` names the pool item in expected.json."""

    key: str
    argv: tuple
    m: int
    table: tuple | None = None  # spec of the generated LUT file, if any

    @property
    def claim(self) -> str:
        return self.argv[1] if self.argv[0] == "verify" else self.argv[0]

    @property
    def forks(self) -> bool:
        """Does the op run worker processes (``--threads`` above 1)?"""
        args = self.argv
        return "--threads" in args and int(args[args.index("--threads") + 1]) > 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pools: dict  # sub-pool name -> list of Op
    slots: tuple  # (sub-pool name, ops drawn per round)
    rounds: int  # rounds generated at set-up; a longer run cycles them
    long_ops: bool = False  # ops take seconds: sample speed from a process of its own


# ------------------------------------------------------------------ tables


def table_key(spec: tuple) -> str:
    kind, m, param, poly = spec
    name = f"{kind} m={m}"
    if kind in ("gold", "thm1", "thm2"):
        name += f" i={param}"
    elif kind in _KIND_CODES:
        name += f" j={param}"
    return f"{name} poly=0x{poly:x}"


def random_table(spec: tuple) -> np.ndarray:
    """Values of a seeded random table; the seed is the spec, not the run."""
    kind, m, j, _ = spec
    n = 1 << m
    rng = np.random.default_rng([_RANDOM_SALT, _KIND_CODES[kind], m, j])
    if kind == "randperm":
        return rng.permutation(n)
    if kind == "randfunc":
        return rng.integers(0, n, size=n)
    # completable: a permutation minus a random linear map L, so that
    # adding L back gives a permutation
    perm = rng.permutation(n)
    cols = rng.integers(0, n, size=m)
    xs = np.arange(n)
    lin = np.zeros(n, dtype=np.int64)
    for k in range(m):
        lin ^= ((xs >> k) & 1) * cols[k]
    return perm ^ lin


def lut_text(m: int, poly: int, values) -> str:
    width = (m + 3) // 4
    lines = [f"m={m} poly=0x{poly:x}"]
    lines.extend(f"0x{int(v):0{width}x}" for v in values)
    return "\n".join(lines) + "\n"


def write_table(spec: tuple, path: str, cli_main) -> None:
    """Write the LUT file of ``spec``: families through ``vbfkit construct``,
    random tables directly."""
    kind, m, param, poly = spec
    if kind in _KIND_CODES:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(lut_text(m, poly, random_table(spec)))
        return
    argv = ["construct", "--family", kind, "--m", str(m), "--poly", hex(poly)]
    if param is not None:
        argv += ["--i", str(param)]
    rc = cli_main(argv + ["--out", path])
    if rc != 0:
        raise RuntimeError(f"construct {table_key(spec)} exited {rc}")


def read_table(path: str) -> np.ndarray:
    with open(path, encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    return np.array([int(tok, 16) for tok in lines[1:]], dtype=np.int64)


# ------------------------------------------------------------------ pools


def _coprime(m: int) -> list[int]:
    return [i for i in range(1, m) if math.gcd(i, m) == 1]


def _analyze_lut(spec: tuple) -> Op:
    return Op(f"analyze {table_key(spec)}", ("analyze", LUT_ARG), spec[1], spec)


def _verify(m: int, *args: str) -> Op:
    argv = ("verify",) + args
    return Op(" ".join(argv), argv, m)


def _analyze_large() -> Workload:
    pools = {
        fam: [
            Op(f"analyze {fam} m=13 i={i}",
               ("analyze", "--family", fam, "--m", "13", "--i", str(i)), 13)
            for i in range(1, 7)
        ]
        for fam in ("gold", "thm1")
    }
    return Workload(
        "analyze-large",
        "m=13 gold and thm1 reports: the FWHT plus a full and an early-exit EA-witness scan "
        "dominate",
        pools,
        # two gold reports, so that the median and the 90th percentile are
        # both gold reports rather than a midpoint between gold and thm1
        (("gold", 2), ("thm1", 1)),
        rounds=4,
        long_ops=True,
    )


BATCH_RANDOM = 24  # random tables of each kind per degree
_ALL_KINDS = ("gold", "thm", "inverse", "randperm", "randfunc")
# ops per round by degree and table kind; the m = 9 thm and random-function
# tables hold the median and the m = 10 power maps the 90th percentile
BATCH_WEIGHTS = {
    7: dict.fromkeys(_ALL_KINDS, 1),
    8: dict.fromkeys(_ALL_KINDS, 1),
    9: dict.fromkeys(_ALL_KINDS, 2),
    10: {"gold": 2, "inverse": 2},
}


def _analyze_batch() -> Workload:
    pools: dict[str, list[Op]] = {}
    slots = []
    for m, weights in BATCH_WEIGHTS.items():
        polys = POLYS[m]
        for kind, weight in weights.items():
            if kind in ("gold", "thm"):
                fam = kind if kind == "gold" else ("thm1" if m % 2 else "thm2")
                specs = [(fam, m, i, p) for i in _coprime(m) for p in polys]
            elif kind == "inverse":
                specs = [("inverse", m, None, p) for p in polys]
            else:
                specs = [(kind, m, j, polys[j % 3]) for j in range(BATCH_RANDOM)]
            pools[f"{kind}{m}"] = [_analyze_lut(spec) for spec in specs]
            slots.append((f"{kind}{m}", weight))
    return Workload(
        "analyze-batch",
        "about 150 LUT files at m=7-10 per run: per-table read, field and table set-up plus "
        "the degree/witness path",
        pools,
        tuple(slots),
        rounds=8,
    )


def _search(threads: int) -> Workload:
    def lut_op(spec: tuple) -> Op:
        # one process: at 2^16 maps a worker pool's start-up would be most
        # of the op, and an op without workers can be normalized (speed.py)
        key = f"verify remark4 --lut {table_key(spec)}"
        return Op(key, ("verify", "remark4", "--lut", LUT_ARG, "--threads", "1"), 4, spec)

    def sweep(i: int) -> Op:
        argv = ("verify", "remark4", "--m", "5", "--i", str(i))
        return Op(" ".join(argv), argv + ("--threads", str(threads)), 5)

    pools = {
        "sweep": [sweep(i) for i in (1, 2)],
        "none": [lut_op(("randfunc", 4, j, POLYS[4][0])) for j in range(160)],
        "found": [lut_op(("completable", 4, j, POLYS[4][0])) for j in range(40)],
    }
    return Workload(
        "search",
        "two exhaustive 2^25 remark4 sweeps at m=5 on all cores plus m=4 tables with and "
        "without a completion",
        pools,
        # Twenty m = 4 tables with and eighty without a completion (about
        # half of each sub-pool), then both m = 5 sweeps.  The sweeps are most
        # of the round's time, so of ops_per_s; of its 102 ops they are the
        # two slowest, so the median and the 90th percentile are both m = 4
        # table searches, taken over many tables because table costs vary
        # by a factor of 1.5.  The sweeps come last because the ops right
        # after a sweep run slower while caches refill.
        (("found", 20), ("none", 80), ("sweep", 2)),
        rounds=1,
    )


CRITERIA_SEEDS = range(8)
# ops per round where not 1.  Of the 23 ops, 9 are cheaper than pgp7, so the
# median falls a third of the way into the pgp7 block rather than at its
# edge; the 90th percentile falls inside the pgp9 block (the criterion
# product grid), below the one thm4 claim.
CRITERIA_WEIGHTS = {"pgp7": 8, "pgp9": 2, "pgpe10": 2, "ccz": 2}


def _criteria() -> Workload:
    pools: dict[str, list[Op]] = {}
    for m in (5, 7, 9):
        pools[f"pgp{m}"] = [
            _verify(m, "prop-gold-perm", "--m", str(m), "--i", str(i),
                    "--count", "20", "--seed", str(s))
            for i in (1, 2) for s in CRITERIA_SEEDS
        ]
    for m in (4, 6, 8, 10):
        pools[f"pgpe{m}"] = [
            _verify(m, "prop-gold-perm-even", "--m", str(m), "--i", "1",
                    "--count", "20", "--seed", str(s))
            for s in CRITERIA_SEEDS
        ]
    # one moderate degree per claim keeps each slot's cost the same for every seed
    pools["thm1"] = [_verify(7, "thm1", "--m", "7", "--i", str(i)) for i in (1, 2, 3)]
    pools["thm2"] = [_verify(8, "thm2", "--m", "8", "--i", str(i)) for i in (1, 3, 5, 7)]
    pools["thm3"] = [_verify(6, "thm3", "--m", "6", "--i", str(i)) for i in (1, 5)]
    pools["thm4"] = [
        _verify(9, "thm4", "--m", "9", "--n", "3", "--i", str(i)) for i in (1, 2, 4)
    ]
    pools["example1"] = [_verify(7, "example1", "--m", "7", "--i", str(i)) for i in (1, 2, 3)]
    pools["ccz"] = [
        _verify(5, "ccz-invariance", "--m", "5", "--count", "8", "--seed", str(s))
        for s in CRITERIA_SEEDS
    ]
    slots = tuple((name, CRITERIA_WEIGHTS.get(name, 1)) for name in pools)
    return Workload(
        "criteria",
        "short verify claims on many small tables: evaluate, FuncTable set-up and the Gold "
        "permutation criteria",
        pools,
        slots,
        rounds=64,
    )


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def all_workloads() -> dict[str, Workload]:
    ws = (_analyze_large(), _analyze_batch(), _search(usable_cores()), _criteria())
    return {w.name: w for w in ws}


def runnable_pools(w: Workload, expected: dict) -> dict[str, list[Op]]:
    """Sub-pools restricted to items whose recorded outcome fits the slot.

    Search tables are drawn as "none" (exit 0, no completion) or "found"
    (exit 1, a completion exists); a random table that turned out to have
    a completion is left out rather than moved between sub-pools.
    """
    if w.name != "search":
        return w.pools
    want = {"sweep": 0, "none": 0, "found": 1}
    return {
        name: [op for op in ops if expected[op.key]["rc"] == want[name]]
        for name, ops in w.pools.items()
    }


def build_rounds(w: Workload, seed: int, expected: dict) -> list[list[Op]]:
    """The seeded rounds of one run.  Every round runs the same slots in the
    same order; the seed shuffles each sub-pool, and its slots are filled
    from it in that order, wrapping round when it runs out."""
    rng = random.Random(f"{w.name}/{seed}")
    pools = runnable_pools(w, expected)
    decks = {name: rng.sample(ops, len(ops)) for name, ops in pools.items()}
    dealt = dict.fromkeys(decks, 0)
    rounds = []
    for _ in range(w.rounds):
        ops = []
        for name, count in w.slots:
            deck = decks[name]
            ops.extend(deck[(dealt[name] + k) % len(deck)] for k in range(count))
            dealt[name] += count
        rounds.append(ops)
    return rounds

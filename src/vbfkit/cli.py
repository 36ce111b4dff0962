"""Command-line front end: build tables, analyze them, verify claims.

Three subcommands:

``construct``
    Build the lookup table of a named family and write it as a LUT file
    (line 1 is ``m=<int> poly=<hex>``, then 2^m hex values in ascending
    input order).

``analyze``
    Compute degree, nonlinearity, differential uniformity, the full Walsh
    and difference-count distributions, and the power-map inequivalence
    witness for a table, emitted as canonical JSON (sorted keys, stable
    formatting, byte-identical across runs).  ``--timing`` adds the total
    ``timing_ms``, a per-stage ``timing_breakdown_ms`` and ``spectra_from``.
    The twisted families thm1-thm4 (thm1 and thm2 without ``--relaxed``)
    take both spectra from their Gold table, whose graph a linear map
    carries onto theirs (``spectra_from`` reads ``gold``); the degree and
    the witness come from the family's own table.  A LUT file, a power
    family and a relaxed build keep the orbit path on their own table
    (``table``): a LUT carries no map to check, and the relaxed builds
    have no witness.  `_family_table` alone makes this choice.

``verify``
    Run a named bundle of identity and property checks, printing one line
    per check.  The thm1-thm4 claims read a family's table and spectra
    through `_analyzed_family`, as ``analyze --family`` does.

Exit codes: 0 success / all checks confirmed; 1 a verification check
failed or an internal identity broke; 2 usage or precondition error, or
memory ran out (one ``error: out of memory`` line); 3 search budget
exhausted.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from functools import lru_cache, partial

import numpy as np

from vbfkit.ccz import (
    BinLinearMap,
    BudgetExceededError,
    _gold_perm_even_rows,
    _gold_perm_rows,
    _require_index,
    gold_graph_completion_search,
    graph_image,
    identity_map,
    linear_completion_search,
    map_invertible,
    power_inequivalence_witness,
)
from vbfkit.constructions import (
    ConditionViolatedError,
    _theorem3_preconditions,
    _theorem1_tables,
    _theorem2_tables,
    _theorem3_tables,
    _theorem4_tables,
    _theorem12_witness,
    example1_witness,
    f8_side_condition,
    family_exponent,
    theorem1,
    theorem3_f1,
    theorem4_f1_tables,
    theorem12_ccz_witness,
)
from vbfkit.gf2m import _MAX_DEGREE, _MIN_DEGREE, Field, _linear_table
from vbfkit.spectra import (
    differential_spectrum,
    differential_uniformity,
    is_ab,
    is_apn,
    nonlinearity,
    walsh_spectrum,
)
from vbfkit.vbf import (
    FuncTable,
    algebraic_degree,
    component_degree,
    compose,
    invert,
    is_permutation,
    monomial,
)

# -- LUT files ---------------------------------------------------------------


def lut_text(f: FuncTable) -> str:
    ctx = f.ctx
    width = (ctx.m + 3) // 4
    lines = [f"m={ctx.m} poly=0x{ctx.poly:x}"]
    lines.extend(f"0x{v:0{width}x}" for v in f.as_array().tolist())
    return "\n".join(lines) + "\n"


def read_lut(path: str) -> FuncTable:
    try:
        with open(path, encoding="ascii") as fh:
            lines = [ln for ln in map(str.strip, fh) if ln]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not ASCII text (byte 0x{exc.object[exc.start]:02x})") from None
    if not lines:
        raise ValueError(f"{path}: empty LUT file")
    head = {}
    for key, _, value in (tok.partition("=") for tok in lines[0].split()):
        if key in head:
            raise ValueError(f"{path}: header field {key} given more than once")
        head[key] = value
    if set(head) != {"m", "poly"}:
        raise ValueError(f"{path}: first line must be 'm=<int> poly=<hex>'")
    for key, base, kind in (("m", 10, "decimal"), ("poly", 16, "hex")):
        try:
            head[key] = int(head[key], base)
        except ValueError:
            raise ValueError(f"{path}: field {key} is not a {kind} number: {head[key]!r}") from None
    try:
        ctx = Field(head["m"], head["poly"])
    except ValueError as exc:
        # Field checks the degree first, then the polynomial
        key = "poly" if _MIN_DEGREE <= head["m"] <= _MAX_DEGREE else "m"
        raise ValueError(f"{path}: header field {key}: {exc}") from None
    try:
        values = [int(tok, 16) for tok in lines[1:]]
    except ValueError:
        raise ValueError(f"{path}: table entries must be hex integers") from None
    return FuncTable(ctx, values)


# -- family construction -----------------------------------------------------


# The options each family reads, each with its default or REQUIRED, as
# _VERIFIERS gives them for the claims.  --m fixes the exponent of the Welch,
# Niho, inverse and Dobbertin families, so they read no index.
REQUIRED = object()
_FIELD = {"m": REQUIRED, "poly": None}
_INDEXED = {**_FIELD, "i": REQUIRED}
_FAMILY_READS = {
    "gold": _INDEXED,
    "kasami": _INDEXED,
    **dict.fromkeys(("welch", "niho", "inverse", "dobbertin"), _FIELD),
    "power": {**_FIELD, "d": REQUIRED},
    **dict.fromkeys(("thm1", "thm2"), {**_INDEXED, "relaxed": False}),
    "thm3": _INDEXED,
    "thm4": {**_INDEXED, "n": REQUIRED},
}
FAMILIES = tuple(_FAMILY_READS)

# The namespace entries a subcommand reads itself; every other one is an
# option of the family or claim, given on the command line
_OWN = ("command", "handler", "claim", "family", "path", "out", "timing")


def _read_options(
    args: argparse.Namespace, name: str, reads: dict
) -> argparse.Namespace:
    """The options of ``name`` (a family or claim) that ``reads`` lists, each
    as given or at its default.  An option ``name`` does not read, and a
    ``REQUIRED`` one not given, is an error."""
    given = {k: v for k, v in vars(args).items() if k not in _OWN}
    unread = [f"--{k}" for k in given if k not in reads]
    if unread:
        raise ConditionViolatedError(f"{name} does not read {', '.join(unread)}")
    missing = [f"--{k}" for k, v in reads.items() if v is REQUIRED and k not in given]
    if missing:
        raise ConditionViolatedError(f"{name} needs {', '.join(missing)}")
    p = argparse.Namespace(**{**reads, **given})
    if "i" in reads and "m" in reads and p.i > p.m >= 2:
        p.i = (p.i - 1) % p.m + 1  # i enters only through x^(2^i), which has period m in i
    return p


def _family_options(args: argparse.Namespace) -> tuple[str, argparse.Namespace]:
    if args.family is None:
        raise ConditionViolatedError("--family is required")
    return args.family, _read_options(args, f"family {args.family}", _FAMILY_READS[args.family])


def _family_table(fam: str, p: argparse.Namespace) -> tuple[FuncTable, FuncTable | None]:
    """The table of family ``fam`` with options ``p``, and the Gold table
    x^(2^i+1) that a linear graph map with no shift carries onto it, or None
    for a power family and a ``--relaxed`` build, which have no witness.
    The one place that branches on a family's name to build its table."""
    ctx = Field(p.m, p.poly)
    if fam in ("thm1", "thm2"):
        relaxed = vars(p).get("relaxed", False)  # no claim reads it
        f, gold = (_theorem1_tables if fam == "thm1" else _theorem2_tables)(ctx, p.i, relaxed)
        return f, None if relaxed else gold
    if fam == "thm3":
        return _theorem3_tables(ctx, p.i)
    if fam == "thm4":
        return _theorem4_tables(ctx, p.n, p.i)
    if fam == "power":
        if not 0 <= p.d < ctx.size:  # the raw exponent, not reduced as the formulas' are
            raise ValueError(f"exponent {p.d} outside [0, {ctx.size})")
        return monomial(ctx, p.d), None
    if fam == "inverse" and ctx.m % 2 == 0:
        # Table slot only covers odd degrees; on even ones serve the
        # proper multiplicative inverse x^(2^m - 2).
        return monomial(ctx, ctx.size - 2), None
    return monomial(ctx, family_exponent(fam, ctx.m, vars(p).get("i"))), None


def _analyzed_family(fam: str, p: argparse.Namespace) -> tuple[FuncTable, FuncTable | None]:
    """`_family_table` for ``analyze --family`` and the claims thm1-thm4,
    which take the spectra from the Gold table: a thm1 or thm2 pair is
    returned once the a = 1 graph witness is checked on both tables."""
    f, gold = _family_table(fam, p)
    if fam in ("thm1", "thm2") and gold is not None:
        _theorem12_witness(f, gold, p.i, 1)
    return f, gold


# -- analysis report ---------------------------------------------------------


def analysis_report(
    f: FuncTable, timings: dict | None = None, spectra_of: FuncTable | None = None
) -> dict:
    """The canonical report of a table.  When ``timings`` is a dict, the
    seconds spent in the walsh, differential and degree_witness stages are
    stored in it.

    Both spectra are taken from ``spectra_of`` when it is given: a table
    whose graph a linear map of F_2^(2m) with no shift carries onto f's
    (an affine shift would flip Walsh signs).  The degree and the EA
    witness, which such maps do not keep, always come from f."""
    source = f if spectra_of is None else spectra_of
    t0 = time.perf_counter()
    ws = walsh_spectrum(source)
    t1 = time.perf_counter()
    ds = differential_spectrum(source)
    t2 = time.perf_counter()
    degree = algebraic_degree(f)
    witness = power_inequivalence_witness(f)
    t3 = time.perf_counter()
    if timings is not None:
        timings.update(walsh=t1 - t0, differential=t2 - t1, degree_witness=t3 - t2)
    report = {
        "schema": 1,
        "m": f.ctx.m,
        "reduction_poly": f"0x{f.ctx.poly:x}",
        "degree": int(degree),
        "nonlinearity": int(nonlinearity(f, ws)),
        "differential_uniformity": int(differential_uniformity(f, ds)),
        "is_apn": bool(is_apn(f, ds)),
        "is_ab": bool(is_ab(f, ws)),
        "walsh_distribution": {str(int(k)): int(v) for k, v in ws.distribution.items()},
        "delta_distribution": {str(int(k)): int(v) for k, v in ds.distribution.items()},
    }
    if witness is not None:
        report["ea_power_witness"] = f"0x{witness:x}"
    return report


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# -- subcommand handlers -----------------------------------------------------


def cmd_construct(args: argparse.Namespace) -> int:
    text = lut_text(_family_table(*_family_options(args))[0])
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    if (args.path is None) == (args.family is None):
        raise ConditionViolatedError("pass exactly one of a LUT path or --family")
    if args.path is not None:
        _read_options(args, f"analyze {args.path}", {})  # the LUT header fixes the field
    timings = {"build": 0.0, "io": 0.0}
    start = time.perf_counter()
    f, gold = (read_lut(args.path), None) if args.path else _analyzed_family(*_family_options(args))
    timings["io" if args.path else "build"] = time.perf_counter() - start
    report = analysis_report(f, timings, spectra_of=gold)
    if args.timing:
        report["spectra_from"] = "table" if gold is None else "gold"
        report["timing_ms"] = int((time.perf_counter() - start) * 1000)
        report["timing_breakdown_ms"] = {k: int(v * 1000) for k, v in timings.items()}
    text = render_report(report)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _emit_checks(checks: list[tuple[str, bool]]) -> int:
    for name, passed in checks:
        print(("ok   " if passed else "FAIL ") + name)
    return 0 if all(passed for _, passed in checks) else 1


def _witness_check(f: FuncTable, gold: FuncTable, i: int, a: int | None) -> tuple[str, bool]:
    """The graph witness at ``a``, or at the generator and a seeded random
    point, on the tables `_analyzed_family` checked at a = 1."""
    ctx = f.ctx
    points = {a}
    if a is None:
        rng, points = random.Random(0xA5), {1, ctx.generator}
        while len(points) < 3:  # the witness needs m >= 4
            points.add(rng.randrange(1, ctx.size))
    for point in sorted(points - {1}):
        try:
            _theorem12_witness(f, gold, i, point)
        except RuntimeError as exc:
            return (f"graph witness identities at a=0x{point:x} ({exc})", False)
    return ("graph witness identities", True)


def verify_thm1(args: argparse.Namespace) -> int:
    f, gold = _analyzed_family("thm1", args)
    checks = [
        ("almost bent", is_ab(f, walsh_spectrum(gold))),
        ("algebraic degree 3", algebraic_degree(f) == 3),
        ("unit component degree 2", component_degree(f, 1) == 2),
        ("EA-inequivalent to power maps", power_inequivalence_witness(f) is not None),
        _witness_check(f, gold, args.i, args.a),
    ]
    return _emit_checks(checks)


def verify_thm2(args: argparse.Namespace) -> int:
    f, gold = _analyzed_family("thm2", args)
    checks = [
        ("differentially 2-uniform", is_apn(f, differential_spectrum(gold))),
        ("algebraic degree 3", algebraic_degree(f) == 3),
        ("EA-inequivalent to power maps", power_inequivalence_witness(f) is not None),
        _witness_check(f, gold, args.i, args.a),
    ]
    return _emit_checks(checks)


def verify_thm3(args: argparse.Namespace) -> int:
    ctx = Field(args.m, args.poly)
    _theorem3_preconditions(ctx, args.i)  # bad parameters are not a failed check
    checks = [("octic side condition", f8_side_condition(args.i))]
    if not checks[0][1]:
        return _emit_checks(checks)
    try:
        theorem3_f1(ctx, args.i)  # raises unless the sixth power is the identity
    except RuntimeError as exc:
        checks.append((f"composition shift of order 6 ({exc})", False))
        return _emit_checks(checks)
    checks.append(("composition shift of order 6", True))
    checks.append(("sixth power is the identity", True))
    f, gold = _analyzed_family("thm3", args)
    checks.append(("differentially 2-uniform", is_apn(f, differential_spectrum(gold))))
    checks.append(("algebraic degree 4", algebraic_degree(f) == 4))
    return _emit_checks(checks)


def verify_thm4(args: argparse.Namespace) -> int:
    f, gold = _analyzed_family("thm4", args)
    ctx, n, i = f.ctx, args.n, args.i
    shift, inverse = theorem4_f1_tables(ctx, n, i)
    undone = shift.as_array()[inverse.as_array()]
    checks = [
        ("almost bent", is_ab(f, walsh_spectrum(gold))),
        (f"algebraic degree {n + 2}", algebraic_degree(f) == n + 2),
        ("closed-form shift inverse at every point", np.array_equal(undone, np.arange(ctx.size))),
        ("EA-inequivalent to power maps", power_inequivalence_witness(f) is not None),
    ]
    if n == 1:
        checks.append(("degenerate case matches the cubic family", f == theorem1(ctx, i)))
    return _emit_checks(checks)


def _parse_budget(text: str | None) -> tuple[int | None, float | None]:
    if text is None:
        return None, None
    try:
        if "." not in text:
            return int(text), None
        seconds = float(text)
    except ValueError:
        raise ConditionViolatedError(
            f"--budget must be an integer node count or decimal seconds, got {text!r}"
        ) from None
    if not seconds > 0:
        raise ConditionViolatedError(f"--budget seconds must be positive, got {text!r}")
    return None, seconds


def verify_remark4(args: argparse.Namespace) -> int:
    """A --lut table is searched over its own Walsh zeros.  The thm1 table is
    searched through its a = 1 graph witness, checked on it and its Gold
    table.  A completion found either way is checked on the table before
    it is reported."""
    if args.lut:
        f = read_lut(args.lut)
        nodes, seconds = _parse_budget(args.budget)
        found = linear_completion_search(f, budget=nodes, time_limit=seconds)
    else:
        f, gold = _family_table("thm1", args)
        nodes, seconds = _parse_budget(args.budget)
        w = _theorem12_witness(f, gold, args.i, 1)
        found = gold_graph_completion_search(w, args.i, budget=nodes, time_limit=seconds)
    ctx = f.ctx
    if found is None:
        print(f"ok   no linear completion to a permutation among all 2^{ctx.m ** 2} linear maps")
        return 0
    if not is_permutation(FuncTable(ctx, f.as_array() ^ _linear_table(list(found.columns)))):
        raise RuntimeError("the completion found does not make the table a permutation")
    rows = ", ".join(f"0x{r:x}" for r in found.rows)
    print(f"FAIL linear completion found: rows [{rows}]")
    return 1


def verify_example1(args: argparse.Namespace) -> int:
    ctx = Field(args.m, args.poly)
    g = monomial(ctx, (1 << args.i) + 1)
    w = example1_witness(ctx, args.i)  # the image of g's graph
    if not is_permutation(w.F1):
        return _emit_checks([("first graph projection permutes", False)])
    transformed = compose(w.F2, invert(w.F1))
    checks = [
        ("first graph projection permutes", True),
        (
            "Walsh distribution preserved",
            walsh_spectrum(transformed).distribution == walsh_spectrum(g).distribution,
        ),
        (
            "difference-count distribution preserved",
            differential_spectrum(transformed).distribution
            == differential_spectrum(g).distribution,
        ),
    ]
    return _emit_checks(checks)


def _random_linearized(ctx: Field, rng: random.Random) -> dict[int, int]:
    """The terms {k: c} of a random linearized polynomial sum c * x^(2^k) of
    one or two terms; a second term with the same k replaces the first."""
    terms = {}
    for _ in range(rng.choice((1, 2))):
        terms[rng.randrange(ctx.m)] = rng.randrange(1, ctx.size)
    return terms


def _linearized_tables(ctx: Field, drawn: list[dict[int, int]]) -> np.ndarray:
    """The tables, one row each, of the drawn linearized polynomials: each
    is spread from its m basis images sum c * (2^j)^(2^k), read off the
    field's log/exp tables.  A one-term row is padded with c = 0, whose log
    lands in the zero tail of exp."""
    terms = np.array([[*t.items(), (0, 0)][:2] for t in drawn])  # (T, 2, 2)
    shifts, coefs = terms[..., 0, None], terms[..., 1, None]
    log, exp = ctx._logexp()
    images = exp[log[coefs] + (log[1 << np.arange(ctx.m)] << shifts) % ctx.order]
    return _linear_table(images[:, 0] ^ images[:, 1])


def _permuting_rows(tabs: np.ndarray) -> np.ndarray:
    """Brute force on each row of a stack of tables: is every value taken?"""
    seen = np.zeros(tabs.size, dtype=bool)
    seen[tabs + np.arange(0, tabs.size, tabs.shape[1])[:, None]] = True
    return seen.reshape(tabs.shape).all(axis=1)


def _require_trials(args: argparse.Namespace, least: int = 1) -> None:
    if args.count < least:
        raise ConditionViolatedError(f"--count must be at least {least}, got {args.count}")


# The sampled criteria decide this many table cells at once, so a run's
# memory does not grow with --count.
_TRIAL_CELLS = 1 << 15


def verify_prop_gold_perm(args: argparse.Namespace, even: bool = False) -> int:
    """A criterion against brute force on random summands: the Gold one on
    L(x^(2^i+1)) + L'(x), or with ``even`` the even-degree one on
    L(x^(2^i+1)) + x.  The trials are drawn in turn, L before L', and
    decided in chunks of at most ``_TRIAL_CELLS`` table cells, each as one
    stack of tables."""
    _require_trials(args)
    ctx = Field(args.m, args.poly)
    _require_index(args.i, ctx.m)  # before the brute-force table uses 2^i
    rng = random.Random(args.seed)
    xs = np.arange(ctx.size, dtype=np.int64)
    powered = ctx.pow_many(xs, (1 << args.i) + 1)
    chunk = max(1, _TRIAL_CELLS >> ctx.m)
    mismatches = 0
    for start in range(0, args.count, chunk):
        trials = [
            [_random_linearized(ctx, rng) for _ in range(1 if even else 2)]
            for _ in range(min(chunk, args.count - start))
        ]
        L = _linearized_tables(ctx, [t[0] for t in trials])
        if even:
            fast, summand = _gold_perm_even_rows(ctx, L, args.i), xs
        else:
            summand = _linearized_tables(ctx, [t[1] for t in trials])
            fast = _gold_perm_rows(ctx, L, summand, args.i)
        mismatches += np.count_nonzero(fast != _permuting_rows(L[:, powered] ^ summand))
    drawn = "summands" if even else "summand pairs"
    name = f"criterion agreed with brute force on {args.count} random {drawn}"
    return _emit_checks([(name, mismatches == 0)])


def verify_f8_check(args: argparse.Namespace) -> int:
    holds = f8_side_condition(args.i)
    return _emit_checks([(f"octic side condition for index {args.i}", holds)])


def verify_ccz_invariance(args: argparse.Namespace) -> int:
    _require_trials(args, least=0)  # the structured maps run even with --count 0
    ctx = Field(args.m, args.poly)
    f = monomial(ctx, 3)
    base = walsh_spectrum(f).distribution, differential_spectrum(f).distribution

    def images():  # the images of f's graph, each made when it is checked
        yield graph_image(identity_map(2 * ctx.m), f)
        if ctx.m >= 4:  # the twisted families behind Theorems 1 and 2 need m >= 4
            yield theorem12_ccz_witness(ctx, 1)
        if ctx.m % 2:
            yield example1_witness(ctx, 1)
        rng = random.Random(args.seed)
        for _ in range(args.count):
            rows = [rng.randrange(1, 1 << (2 * ctx.m)) for _ in range(2 * ctx.m)]
            L = BinLinearMap(2 * ctx.m, 2 * ctx.m, rows)
            if map_invertible(L):
                yield graph_image(L, f)

    maps = produced = changed = 0
    for w in images():
        maps += 1
        if is_permutation(w.F1):
            g = compose(w.F2, invert(w.F1))
            produced += 1
            changed += (walsh_spectrum(g).distribution, differential_spectrum(g).distribution) != base
    checks = [
        (f"at least one of {maps} graph maps produced a function", produced > 0),
        (f"spectra preserved by all {produced} produced functions", changed == 0),
    ]
    return _emit_checks(checks)


# The options each claim reads, each with its default or REQUIRED.  remark4
# searches either the --lut table or the one that --m, --i and --poly build.
_CLAIM = {**_FIELD, "i": 1}
_TRIALS = {"count": 60, "seed": 0}
_SEARCH = {"budget": None, "threads": None}
_VERIFIERS = {
    "thm1": (verify_thm1, {**_CLAIM, "a": None}),
    "thm2": (verify_thm2, {**_CLAIM, "a": None}),
    "thm3": (verify_thm3, _CLAIM),
    "thm4": (verify_thm4, {**_CLAIM, "n": REQUIRED}),
    "remark4": (verify_remark4, {**_CLAIM, "lut": None, **_SEARCH}),
    "example1": (verify_example1, _CLAIM),
    "prop-gold-perm": (verify_prop_gold_perm, {**_CLAIM, **_TRIALS}),
    "prop-gold-perm-even": (partial(verify_prop_gold_perm, even=True), {**_CLAIM, **_TRIALS}),
    "f8-check": (verify_f8_check, {"i": 1}),
    "ccz-invariance": (verify_ccz_invariance, {**_FIELD, **_TRIALS}),
}


def cmd_verify(args: argparse.Namespace) -> int:
    verifier, reads = _VERIFIERS[args.claim]
    name = f"verify {args.claim}"
    if args.claim == "remark4" and "lut" in vars(args):
        name, reads = "verify remark4 --lut", {"lut": None, **_SEARCH}
    return verifier(_read_options(args, name, reads))


# -- argument parsing --------------------------------------------------------


def _int_literal(text: str) -> int:
    return int(text, 0)


class _Parser(argparse.ArgumentParser):
    """A usage error is one line, ``error: <message>``, with exit 2 and no
    usage block, as every other malformed input is.  The subparsers are of
    this class too."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _subcommand(sub, name: str, handler, summary: str) -> argparse.ArgumentParser:
    """A subcommand's parser with the field and family options.  Every
    subcommand has one policy: no abbreviations, so that no option stands
    for another, and an option not given stays out of the namespace, so
    that `_read_options` tells it from a default."""
    p = sub.add_parser(
        name, help=summary, allow_abbrev=False, argument_default=argparse.SUPPRESS
    )
    p.set_defaults(handler=handler)
    p.add_argument("--m", type=int, help="extension degree of the field")
    p.add_argument("--i", type=int, help="Frobenius index parameter")
    p.add_argument("--n", type=int, help="subfield degree parameter")
    p.add_argument("--d", type=int, help="raw exponent for the generic power family")
    p.add_argument("--poly", type=_int_literal, help="reduction polynomial bitmask")
    p.add_argument("--relaxed", action="store_true", help="allow gcd(i, m) > 1 variants")
    return p


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    ``main`` call (parsing does not change it)."""
    parser = _Parser(
        prog="vbfkit",
        description="Construct, analyze, and verify vectorial Boolean functions over GF(2^m).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = _subcommand(sub, "construct", cmd_construct, "build a family LUT and write it out")
    pa = _subcommand(sub, "analyze", cmd_analyze, "emit the JSON analysis report for a table")
    for p in (pc, pa):
        p.add_argument("--family", type=str.lower, choices=FAMILIES, default=None)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
    pa.add_argument("path", nargs="?", default=None, metavar="lut", help="LUT file to analyze")
    pa.add_argument(
        "--timing", action="store_true", default=False, help="add timing_ms and timing_breakdown_ms"
    )

    pv = _subcommand(sub, "verify", cmd_verify, "run a named bundle of checks")
    pv.add_argument("claim", choices=_VERIFIERS)
    pv.add_argument("--a", type=_int_literal, help="witness point besides a=1 (default: sampled)")
    pv.add_argument("--lut", help="table to search instead of a constructed one")
    pv.add_argument("--count", type=int, help="random trials for sampled bundles (default: 60)")
    pv.add_argument("--seed", type=int, help="seed for sampled bundles (default: 0)")
    pv.add_argument("--threads", type=int, help="ignored; the search runs in one thread")
    pv.add_argument(
        "--budget",
        help="search budget: integer node count or decimal wall-clock seconds",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"error: search budget exceeded ({exc})", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy's _ArrayMemoryError names the array it could not allocate
        print(f"error: out of memory ({str(exc) or 'no detail'})", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # a failed internal identity, e.g. a graph witness or the AB cross-check
        print(f"FAIL {exc}")
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

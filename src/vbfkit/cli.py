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
    have no witness.  ``verify`` never takes this path, so its spectrum
    checks stay independent evidence.

``verify``
    Run a named bundle of identity and property checks, printing one line
    per check.

Exit codes: 0 success / all checks confirmed; 1 a verification check
failed or an internal identity broke; 2 usage or precondition error; 3 search
budget exhausted.
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
    _require_index,
    ccz_transform,
    gold_perm_criterion,
    gold_perm_criterion_even,
    identity_map,
    linear_completion_search,
    map_invertible,
    power_inequivalence_witness,
)
from vbfkit.constructions import (
    ConditionViolatedError,
    FamilySpec,
    _theorem3_preconditions,
    example1_witness,
    f8_side_condition,
    family_exponent,
    theorem1,
    theorem2,
    theorem3,
    theorem3_f1,
    theorem4,
    theorem4_f1_tables,
    theorem12_ccz_witness,
)
from vbfkit.gf2m import _MAX_DEGREE, _MIN_DEGREE, Field
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
    NotAPermutationError,
    UnivariatePoly,
    algebraic_degree,
    component_degree,
    compose,
    evaluate,
    is_permutation,
    monomial,
)

POWER_FAMILIES = ("gold", "kasami", "welch", "niho", "inverse", "dobbertin")
FAMILIES = POWER_FAMILIES + ("power", "thm1", "thm2", "thm3", "thm4")


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
            lines = [ln.strip() for ln in fh if ln.strip()]
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


def _require_param(value, flag: str, family: str):
    if value is None:
        raise ConditionViolatedError(f"family {family!r} needs {flag}")
    return value


# The options each family reads besides --m and --poly.  _family_field rejects
# every other family option given, as cmd_verify does with _VERIFIERS.
_FAMILY_READS = {
    **dict.fromkeys(("gold", "kasami", "dobbertin", "thm3"), ("i",)),
    **dict.fromkeys(("welch", "niho", "inverse"), ("t",)),
    "power": ("d",),
    **dict.fromkeys(("thm1", "thm2"), ("i", "relaxed")),
    "thm4": ("n", "i"),
}


def _family_field(args: argparse.Namespace) -> Field:
    """The field of ``--family``, once the options it does not read are rejected."""
    fam = args.family
    if fam is None:
        raise ConditionViolatedError("--family is required")
    unread = [
        f"--{k}"
        for k in ("i", "n", "t", "d", "relaxed")
        if k not in _FAMILY_READS[fam] and getattr(args, k) is not None
    ]
    if unread:
        raise ConditionViolatedError(f"family {fam} does not read {', '.join(unread)}")
    if args.m is None:
        raise ConditionViolatedError("--m is required with --family")
    return Field(args.m, args.poly)


def _family_table(args: argparse.Namespace, ctx: Field) -> FuncTable:
    fam = args.family
    if fam in ("thm1", "thm2"):
        i = _require_param(args.i, "--i", fam)
        builder = theorem1 if fam == "thm1" else theorem2
        return builder(ctx, i, relaxed=bool(args.relaxed))
    if fam == "thm3":
        return theorem3(ctx, _require_param(args.i, "--i", fam))
    if fam == "thm4":
        n = _require_param(args.n, "--n", fam)
        return theorem4(ctx, n, _require_param(args.i, "--i", fam))
    if fam == "power":
        d = _require_param(args.d, "--d", fam)
        if not 0 <= d < ctx.size:  # the raw exponent, not reduced as the formulas' are
            raise ValueError(f"exponent {d} outside [0, {ctx.size})")
        return monomial(ctx, d)
    if fam == "inverse" and ctx.m % 2 == 0:
        # Table slot only covers odd degrees; on even ones serve the
        # proper multiplicative inverse x^(2^m - 2).
        return monomial(ctx, ctx.size - 2)
    return monomial(ctx, family_exponent(FamilySpec(fam, ctx.m, i=args.i, t=args.t)))


def _analyzed_family(args: argparse.Namespace) -> tuple[FuncTable, FuncTable | None]:
    """The ``--family`` table for ``analyze``, and the Gold table x^(2^i+1)
    to take its spectra from, or None to take them from the table itself.

    Only the twisted families qualify: each is the image of the Gold graph
    under a linear map with no shift (see `vbfkit.constructions`).  thm1 and
    thm2 come from `theorem12_ccz_witness`, whose whole-table check runs on
    every call; a ``--relaxed`` build has no witness.
    """
    ctx = _family_field(args)
    fam = args.family
    # The witness picks thm1 at odd m and thm2 at even m; the other parity
    # goes to _family_table, which rejects it.
    if (fam, ctx.m % 2) in (("thm1", 1), ("thm2", 0)) and not args.relaxed:
        w = theorem12_ccz_witness(ctx, _require_param(args.i, "--i", fam))
        f = compose(w.F2, w.F1)  # F1 is an involution
    else:
        f = _family_table(args, ctx)
        if fam not in ("thm3", "thm4"):
            return f, None
    return f, monomial(ctx, (1 << args.i) + 1)


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
    text = lut_text(_family_table(args, _family_field(args)))
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    if (args.lut is None) == (args.family is None):
        raise ConditionViolatedError("pass exactly one of a LUT path or --family")
    timings = {"build": 0.0, "io": 0.0}
    start = time.perf_counter()
    f, gold = (read_lut(args.lut), None) if args.lut else _analyzed_family(args)
    timings["io" if args.lut else "build"] = time.perf_counter() - start
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
    ok = True
    for name, passed in checks:
        print(("ok   " if passed else "FAIL ") + name)
        ok = ok and bool(passed)
    return 0 if ok else 1


def _field(args: argparse.Namespace) -> Field:
    if args.m is None:
        raise ConditionViolatedError("--m is required for this claim")
    return Field(args.m, args.poly)


def _witness_points(ctx: Field, a: int | None) -> list[int]:
    if a is not None:
        return [a]
    rng = random.Random(0xA5)
    pts = {1, ctx.generator}
    while len(pts) < min(3, ctx.order):
        pts.add(rng.randrange(1, ctx.size))
    return sorted(pts)


def _witness_check(ctx: Field, i: int, a: int | None) -> tuple[str, bool]:
    for point in _witness_points(ctx, a):
        try:
            theorem12_ccz_witness(ctx, i, point)
        except RuntimeError as exc:
            return (f"graph witness identities at a=0x{point:x} ({exc})", False)
    return ("graph witness identities", True)


def verify_thm1(args: argparse.Namespace) -> int:
    ctx = _field(args)
    f = theorem1(ctx, args.i)
    checks = [
        ("almost bent", is_ab(f)),
        ("algebraic degree 3", algebraic_degree(f) == 3),
        ("unit component degree 2", component_degree(f, 1) == 2),
        ("EA-inequivalent to power maps", power_inequivalence_witness(f) is not None),
        _witness_check(ctx, args.i, args.a),
    ]
    return _emit_checks(checks)


def verify_thm2(args: argparse.Namespace) -> int:
    ctx = _field(args)
    f = theorem2(ctx, args.i)
    checks = [
        ("differentially 2-uniform", is_apn(f)),
        ("algebraic degree 3", algebraic_degree(f) == 3),
        ("EA-inequivalent to power maps", power_inequivalence_witness(f) is not None),
        _witness_check(ctx, args.i, args.a),
    ]
    return _emit_checks(checks)


def verify_thm3(args: argparse.Namespace) -> int:
    ctx = _field(args)
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
    f = theorem3(ctx, args.i)
    checks.append(("differentially 2-uniform", is_apn(f)))
    checks.append(("algebraic degree 4", algebraic_degree(f) == 4))
    return _emit_checks(checks)


def verify_thm4(args: argparse.Namespace) -> int:
    ctx = _field(args)
    if args.n is None:
        raise ConditionViolatedError("--n is required for this claim")
    n, i = args.n, args.i
    f = theorem4(ctx, n, i)
    undone = compose(*theorem4_f1_tables(ctx, n, i))
    checks = [
        ("almost bent", is_ab(f)),
        (f"algebraic degree {n + 2}", algebraic_degree(f) == n + 2),
        ("closed-form shift inverse at every point", undone == monomial(ctx, 1)),
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
    if args.lut:
        f = read_lut(args.lut)
    else:
        f = theorem1(_field(args), args.i)
    nodes, seconds = _parse_budget(args.budget)
    found = linear_completion_search(f, budget=nodes, time_limit=seconds)
    if found is None:
        m = f.ctx.m
        print(f"ok   no linear completion to a permutation among all 2^{m * m} linear maps")
        return 0
    rows = ", ".join(f"0x{r:x}" for r in found.rows)
    print(f"FAIL linear completion found: rows [{rows}]")
    return 1


def verify_example1(args: argparse.Namespace) -> int:
    ctx = _field(args)
    g = monomial(ctx, (1 << args.i) + 1)
    try:
        transformed = ccz_transform(example1_witness(ctx, args.i).L, g)
    except NotAPermutationError:
        return _emit_checks([("first graph projection permutes", False)])
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


def _random_linearized(ctx: Field, rng: random.Random) -> FuncTable:
    """Table of a random linearized polynomial of one or two terms."""
    terms = {}
    for _ in range(rng.choice((1, 2))):
        terms[1 << rng.randrange(ctx.m)] = rng.randrange(1, ctx.size)
    return evaluate(UnivariatePoly(ctx, terms))


def _require_trials(args: argparse.Namespace, least: int = 1) -> None:
    if args.count < least:
        raise ConditionViolatedError(f"--count must be at least {least}, got {args.count}")


def verify_prop_gold_perm(args: argparse.Namespace, even: bool = False) -> int:
    """A criterion against brute force on random summands: the Gold one on
    L(x^(2^i+1)) + L'(x), or with ``even`` the even-degree one on
    L(x^(2^i+1)) + x."""
    _require_trials(args)
    ctx = _field(args)
    _require_index(args.i, ctx.m)  # before the brute-force table uses 2^i
    rng = random.Random(args.seed)
    xs = np.arange(ctx.size, dtype=np.int64)
    powered = ctx.pow_many(xs, (1 << args.i) + 1)
    mismatches = 0
    for _ in range(args.count):
        L = _random_linearized(ctx, rng)
        if even:
            fast, summand = gold_perm_criterion_even(L, args.i), xs
        else:
            Lp = _random_linearized(ctx, rng)
            fast, summand = gold_perm_criterion(L, Lp, args.i), Lp.as_array()
        if fast != is_permutation(FuncTable(ctx, L.as_array()[powered] ^ summand)):
            mismatches += 1
    drawn = "summands" if even else "summand pairs"
    name = f"criterion agreed with brute force on {args.count} random {drawn}"
    return _emit_checks([(name, mismatches == 0)])


def verify_f8_check(args: argparse.Namespace) -> int:
    holds = f8_side_condition(args.i)
    return _emit_checks([(f"octic side condition for index {args.i}", holds)])


def verify_ccz_invariance(args: argparse.Namespace) -> int:
    _require_trials(args, least=0)  # the structured maps run even with --count 0
    ctx = _field(args)
    f = monomial(ctx, 3)
    base_w = walsh_spectrum(f).distribution
    base_d = differential_spectrum(f).distribution
    movers = [identity_map(2 * ctx.m)]
    if ctx.m >= 4:  # the twisted families behind Theorems 1 and 2 need m >= 4
        movers.append(theorem12_ccz_witness(ctx, 1).L)
    if ctx.m % 2:
        movers.append(example1_witness(ctx, 1).L)
    rng = random.Random(args.seed)
    for _ in range(args.count):
        rows = [rng.randrange(1, 1 << (2 * ctx.m)) for _ in range(2 * ctx.m)]
        L = BinLinearMap(2 * ctx.m, 2 * ctx.m, rows)
        if map_invertible(L):
            movers.append(L)
    produced = changed = 0
    for L in movers:
        try:
            g = ccz_transform(L, f)
        except NotAPermutationError:
            continue
        produced += 1
        if (
            walsh_spectrum(g).distribution != base_w
            or differential_spectrum(g).distribution != base_d
        ):
            changed += 1
    checks = [
        (f"at least one of {len(movers)} graph maps produced a function", produced > 0),
        (f"spectra preserved by all {produced} produced functions", changed == 0),
    ]
    return _emit_checks(checks)


# The options each claim reads, with the value of each one not given.  verify
# rejects every other option; remark4 searches either the --lut table or the
# one that --m, --i and --poly build.
_FIELD = {"m": None, "i": 1, "poly": None}
_TRIALS = {"count": 60, "seed": 0}
_SEARCH = {"budget": None, "threads": None}
_VERIFIERS = {
    "thm1": (verify_thm1, {**_FIELD, "a": None}),
    "thm2": (verify_thm2, {**_FIELD, "a": None}),
    "thm3": (verify_thm3, _FIELD),
    "thm4": (verify_thm4, {**_FIELD, "n": None}),
    "remark4": (verify_remark4, {**_FIELD, "lut": None, **_SEARCH}),
    "example1": (verify_example1, _FIELD),
    "prop-gold-perm": (verify_prop_gold_perm, {**_FIELD, **_TRIALS}),
    "prop-gold-perm-even": (partial(verify_prop_gold_perm, even=True), {**_FIELD, **_TRIALS}),
    "f8-check": (verify_f8_check, {"i": 1}),
    "ccz-invariance": (verify_ccz_invariance, {"m": None, "poly": None, **_TRIALS}),
}


def cmd_verify(args: argparse.Namespace) -> int:
    # the verify parser stores only the options given on the command line
    given = {k: v for k, v in vars(args).items() if k not in ("command", "handler", "claim")}
    claim = args.claim
    verifier, reads = _VERIFIERS[claim]
    if claim == "remark4" and "lut" in given:
        claim, reads = "remark4 --lut", {"lut": None, **_SEARCH}
    unread = [f"--{k}" for k in given if k not in reads]
    if unread:
        raise ConditionViolatedError(f"verify {claim} does not read {', '.join(unread)}")
    return verifier(argparse.Namespace(**{**reads, **given}))


# -- argument parsing --------------------------------------------------------


def _int_literal(text: str) -> int:
    return int(text, 0)


def _add_family_params(p: argparse.ArgumentParser, with_family: bool = True) -> None:
    """Field and family parameters; ``with_family`` adds ``--family`` and the
    parameters that only the family builders read (``--t``, ``--d``, ``--relaxed``)."""
    if with_family:
        p.add_argument("--family", type=str.lower, choices=FAMILIES)
    p.add_argument("--m", type=int, help="extension degree of the field")
    p.add_argument("--i", type=int, help="Frobenius index parameter")
    p.add_argument("--n", type=int, help="subfield degree parameter")
    if with_family:
        p.add_argument("--t", type=int, help="half-degree parameter (m = 2t + 1)")
        p.add_argument("--d", type=int, help="raw exponent for the generic power family")
    p.add_argument("--poly", type=_int_literal, help="reduction polynomial bitmask")
    if with_family:
        # default None, as for every family option: _family_field reads None as not given
        p.add_argument(
            "--relaxed", action="store_true", default=None, help="allow gcd(i, m) > 1 variants"
        )


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    ``main`` call (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="vbfkit",
        description="Construct, analyze, and verify vectorial Boolean functions over GF(2^m).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("construct", help="build a family LUT and write it out")
    _add_family_params(pc)
    pc.add_argument("--out", help="output path (default: stdout)")
    pc.set_defaults(handler=cmd_construct)

    pa = sub.add_parser("analyze", help="emit the JSON analysis report for a table")
    pa.add_argument("lut", nargs="?", help="LUT file to analyze")
    _add_family_params(pa)
    pa.add_argument("--out", help="report path (default: stdout)")
    pa.add_argument("--timing", action="store_true", help="add timing_ms and timing_breakdown_ms")
    pa.set_defaults(handler=cmd_analyze)

    # no abbreviations, so a family-only flag such as --t is not read as
    # --threads; an option not given stays out of the namespace (cmd_verify)
    pv = sub.add_parser(
        "verify",
        help="run a named bundle of checks",
        allow_abbrev=False,
        argument_default=argparse.SUPPRESS,
    )
    pv.add_argument("claim", choices=_VERIFIERS)
    _add_family_params(pv, with_family=False)
    pv.add_argument("--a", type=_int_literal, help="witness scaling point (default: sampled)")
    pv.add_argument("--lut", help="table to search instead of a constructed one")
    pv.add_argument("--count", type=int, help="random trials for sampled bundles (default: 60)")
    pv.add_argument("--seed", type=int, help="seed for sampled bundles (default: 0)")
    pv.add_argument("--threads", type=int, help="ignored; the search runs in one thread")
    pv.add_argument(
        "--budget",
        help="search budget: integer node count or decimal wall-clock seconds",
    )
    pv.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"error: search budget exceeded ({exc})", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        # a failed internal identity, e.g. a graph witness or the AB cross-check
        print(f"FAIL {exc}")
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

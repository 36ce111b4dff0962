"""Acceptance suite: one test per numbered criterion, exact-integer checks.

Each test prints a single ``criterion NN pass/FAIL`` line (visible with
``pytest -s``); the pytest verdict per test carries the same information.
"""

import itertools
import random
import time

import numpy as np

from vbfkit.ccz import (
    BinLinearMap,
    GcdViolationError,
    ccz_transform,
    gold_perm_criterion,
    gold_perm_criterion_even,
    linear_completion_search,
    map_invertible,
    power_inequivalence_witness,
)
from vbfkit.constructions import (
    ConditionViolatedError,
    family_exponent,
    theorem1,
    theorem2,
    theorem3,
    theorem3_f1,
    theorem4,
    theorem4_f1_inverse,
    theorem12_ccz_witness,
)
from vbfkit.gf2m import Field, is_irreducible
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
    invert,
    is_permutation,
    monomial,
)


class _Report:
    """Prints exactly one pass/FAIL line for the enclosing criterion."""

    def __init__(self, num: int, label: str):
        self.num = num
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "pass" if exc_type is None else "FAIL"
        print(f"criterion {self.num:2d} {verdict}  {self.label}")
        return False


def _dists(f: FuncTable) -> tuple[dict, dict]:
    return walsh_spectrum(f).distribution, differential_spectrum(f).distribution


# -- 1 -----------------------------------------------------------------------


def _check_gold_baseline(ctx: Field, f: FuncTable) -> None:
    ws = walsh_spectrum(f)
    assert nonlinearity(f, ws) == 12
    assert differential_uniformity(f) == 2
    assert is_ab(f, ws)
    assert set(int(v) for v in ws.distribution) == {0, 8, -8}


def test_criterion_01_gold_baseline():
    with _Report(1, "gold baseline spectra on m=5"):
        ctx = Field(5)
        _check_gold_baseline(ctx, monomial(ctx, 3))


# -- 2 -----------------------------------------------------------------------

_CUBIC_AB_INSTANCES = ((5, 1), (5, 2), (7, 1), (9, 2))


def _check_cubic_ab(ctx: Field, f: FuncTable) -> None:
    assert is_ab(f)
    assert algebraic_degree(f) == 3
    assert component_degree(f, 1) == 2
    assert power_inequivalence_witness(f) is not None


def test_criterion_02_cubic_ab_family():
    with _Report(2, "cubic AB family at four (m, i) points"):
        for m, i in _CUBIC_AB_INSTANCES:
            start = time.perf_counter()
            ctx = Field(m)
            _check_cubic_ab(ctx, theorem1(ctx, i))
            if m == 9:
                assert time.perf_counter() - start <= 60.0


# -- 3 -----------------------------------------------------------------------

_CUBIC_APN_INSTANCES = ((4, 1), (6, 1), (8, 1), (8, 3))


def _check_cubic_apn(ctx: Field, f: FuncTable) -> None:
    assert is_apn(f)
    assert algebraic_degree(f) == 3
    assert power_inequivalence_witness(f) is not None


def test_criterion_03_cubic_apn_family():
    with _Report(3, "cubic APN family at four (m, i) points"):
        for m, i in _CUBIC_APN_INSTANCES:
            ctx = Field(m)
            _check_cubic_apn(ctx, theorem2(ctx, i))


# -- 4 -----------------------------------------------------------------------


def _check_quartic_shift(ctx: Field, i: int) -> None:
    f1 = theorem3_f1(ctx, i)
    assert is_permutation(f1)
    acc = f1
    for _ in range(5):
        acc = compose(f1, acc)
    assert acc == monomial(ctx, 1)
    f = theorem3(ctx, i)
    assert is_apn(f)
    assert algebraic_degree(f) == 4


def test_criterion_04_quartic_apn_family():
    with _Report(4, "quartic APN family on m=6, order-6 shift"):
        for i in (1, 5):
            _check_quartic_shift(Field(6), i)


# -- 5 -----------------------------------------------------------------------


def _check_subfield_family(ctx: Field, f: FuncTable) -> None:
    n, i = 3, 1
    assert is_ab(f)
    assert algebraic_degree(f) == n + 2 == 5
    assert power_inequivalence_witness(f) is not None
    e = (1 << i) + 1
    for y in range(ctx.size):
        x = theorem4_f1_inverse(ctx, n, i, y)
        assert x ^ ctx.subfield_trace(x, n) ^ ctx.subfield_trace(ctx.pow(x, e), n) == y
    assert theorem4(ctx, 1, i) == theorem1(ctx, i)


def test_criterion_05_subfield_trace_family():
    with _Report(5, "degree-5 AB family at (9, 3, 1) with closed-form inverse"):
        ctx = Field(9)
        _check_subfield_family(ctx, theorem4(ctx, 3, 1))


# -- 6 -----------------------------------------------------------------------


def test_criterion_06_no_linear_completion():
    with _Report(6, "exhaustive 2^25 completion scans find nothing on m=5"):
        ctx = Field(5)
        start = time.perf_counter()
        assert linear_completion_search(theorem1(ctx, 1)) is None
        assert time.perf_counter() - start <= 120.0
        start = time.perf_counter()
        assert linear_completion_search(theorem1(ctx, 2)) is None
        assert time.perf_counter() - start <= 600.0


# -- 7 -----------------------------------------------------------------------


def _is_involution(L: BinLinearMap) -> bool:
    """L(L(e_j)) = e_j at every basis vector, so L o L is the identity."""
    return all(L.apply(L.apply(1 << j)) == 1 << j for j in range(L.n_in))


def test_criterion_07_witness_identities():
    with _Report(7, "graph-witness identities at 10 random points each"):
        rng = random.Random(901)
        for ctx, i in ((Field(5), 1), (Field(6), 1)):
            base = theorem1(ctx, i) if ctx.m % 2 else theorem2(ctx, i)
            base_arr = base.as_array().astype(np.int64)
            e = (1 << i) + 1
            xs = np.arange(ctx.size, dtype=np.int64)
            for _ in range(10):
                a = rng.randrange(1, ctx.size)
                w = theorem12_ccz_witness(ctx, i, a)
                assert _is_involution(w.L)
                assert compose(w.F1, w.F1) == monomial(ctx, 1)
                shrunk = ctx.mul_many(xs, ctx.inv(a)).astype(np.int64)
                scaled = FuncTable(ctx, ctx.mul_many(ctx.pow(a, e), base_arr[shrunk]))
                assert compose(w.F2, invert(w.F1)) == scaled


# -- 8 -----------------------------------------------------------------------


def _two_monomial_pool(ctx: Field, extra: int, seed: int) -> list[UnivariatePoly]:
    pool = []
    for j in range(ctx.m):
        for c in range(1, ctx.size):
            pool.append(UnivariatePoly(ctx, {1 << j: c}))
    for j, k in itertools.combinations(range(ctx.m), 2):
        for c1 in range(1, ctx.size):
            for c2 in range(1, ctx.size):
                pool.append(UnivariatePoly(ctx, {1 << j: c1, 1 << k: c2}))
    rng = random.Random(seed)
    for _ in range(extra):
        terms = {}
        for j in rng.sample(range(ctx.m), rng.randrange(1, ctx.m + 1)):
            terms[1 << j] = rng.randrange(1, ctx.size)
        pool.append(UnivariatePoly(ctx, terms))
    return pool


def _is_perm_array(tab: np.ndarray, size: int) -> bool:
    return int(np.bincount(tab, minlength=size).max()) == 1


def test_criterion_08_permutation_criteria_vs_brute_force():
    with _Report(8, "linear-summand permutation criteria match brute force"):
        i = 1
        for m in (4, 5, 6):
            ctx = Field(m)
            pool = _two_monomial_pool(ctx, extra=200, seed=800 + m)
            xs = np.arange(ctx.size, dtype=np.int64)
            powered = ctx.pow_many(xs, (1 << i) + 1).astype(np.int64)
            tabs = [evaluate(L) for L in pool]
            total = len(pool)
            for k, Ltab in enumerate(tabs):
                partner = (7 * k + 11) % total
                fast = gold_perm_criterion(Ltab, tabs[partner], i)
                Larr = Ltab.as_array().astype(np.int64)
                brute = _is_perm_array(Larr[powered] ^ tabs[partner].as_array()[xs], ctx.size)
                assert fast == brute
                if m % 2 == 0:
                    fast_even = gold_perm_criterion_even(Ltab, i)
                    brute_even = _is_perm_array(Larr[powered] ^ xs, ctx.size)
                    assert fast_even == brute_even


# -- 9 -----------------------------------------------------------------------


def _power_family_instances(max_m: int):
    for family in ("gold", "kasami"):
        for m in range(2, max_m + 1):
            for i in range(1, m):
                try:
                    d = family_exponent(family, m, i)
                except (ConditionViolatedError, GcdViolationError):
                    continue
                yield family, m, d
    for family in ("welch", "niho", "inverse"):
        for m in range(2, max_m + 1):
            try:
                d = family_exponent(family, m)
            except (ConditionViolatedError, GcdViolationError):
                continue
            yield family, m, d
    for m in range(2, max_m + 1):
        try:
            d = family_exponent("dobbertin", m)
        except (ConditionViolatedError, GcdViolationError):
            continue
        yield "dobbertin", m, d


def _power_table(ctx: Field, d: int) -> FuncTable:
    # formula exponents can exceed the field size on tiny degrees; reduce
    # them to the canonical univariate form (x^d = x^(d mod 2^m - 1) off 0)
    if d >= ctx.size:
        d = d % ctx.order or ctx.order
    return monomial(ctx, d)


def test_criterion_09_power_family_regression():
    with _Report(9, "table of power families: APN at m<=10, AB rows at odd m<=9"):
        seen = 0
        for family, m, d in _power_family_instances(10):
            f = _power_table(Field(m), d)
            assert is_apn(f), (family, m, d)
            seen += 1
            if family in ("gold", "kasami", "welch", "niho") and m % 2 and m <= 9:
                assert is_ab(f), (family, m, d)
        assert seen >= 25
        ctx = Field(5)
        dob = monomial(ctx, family_exponent("dobbertin", 5))
        assert family_exponent("dobbertin", 5) == 29
        assert is_apn(dob) and not is_ab(dob)
        inv5 = monomial(ctx, family_exponent("inverse", 5))
        assert is_apn(inv5) and not is_ab(inv5)
        assert algebraic_degree(inv5) == 4 == ctx.m - 1


# -- 10 ----------------------------------------------------------------------


def test_criterion_10_three_valued_relaxation():
    with _Report(10, "relaxed cubic at (9,3) mirrors the power map's spectra"):
        ctx = Field(9)
        f = theorem1(ctx, 3, relaxed=True)
        g = monomial(ctx, (1 << 3) + 1)
        wf = walsh_spectrum(f)
        assert set(int(v) for v in wf.distribution) == {0, 64, -64}
        assert wf.distribution == walsh_spectrum(g).distribution
        assert differential_spectrum(f).distribution == differential_spectrum(g).distribution


# -- 11 ----------------------------------------------------------------------


def test_criterion_11_graph_transform_invariance():
    with _Report(11, "graph transforms never change the spectra"):
        rng = random.Random(1101)
        for m in (4, 5):
            ctx = Field(m)
            f = monomial(ctx, 3)
            base_w, base_d = _dists(f)
            tried = 0
            while tried < 100:
                rows = [rng.randrange(1 << (2 * m)) for _ in range(2 * m)]
                L = BinLinearMap(2 * m, 2 * m, rows)
                if not map_invertible(L):
                    continue
                tried += 1
                try:
                    g = ccz_transform(L, f)
                except NotAPermutationError:
                    continue
                assert _dists(g) == (base_w, base_d)
        inv_gold = invert(monomial(Field(5), 3))
        assert algebraic_degree(inv_gold) == 3 == (5 + 1) // 2


# -- 12 ----------------------------------------------------------------------


def _first_two_irreducibles(m: int) -> list[int]:
    found = []
    for cand in range((1 << m) | 1, 1 << (m + 1), 2):
        if is_irreducible(cand):
            found.append(cand)
            if len(found) == 2:
                return found
    raise AssertionError(f"fewer than two irreducibles of degree {m}")


def _same_under_both_polys(m: int, build, check) -> None:
    seen = None
    for poly in _first_two_irreducibles(m):
        ctx = Field(m, poly)
        f = build(ctx)
        check(ctx, f)
        dists = _dists(f)
        if seen is None:
            seen = dists
        else:
            assert dists == seen
    assert seen is not None


def test_criterion_12_basis_independence():
    with _Report(12, "criteria 1-5 repeat under a second reduction polynomial"):
        _same_under_both_polys(5, lambda ctx: monomial(ctx, 3), _check_gold_baseline)
        for m, i in _CUBIC_AB_INSTANCES:
            _same_under_both_polys(m, lambda ctx, i=i: theorem1(ctx, i), lambda ctx, f: _check_cubic_ab(ctx, f))
        for m, i in _CUBIC_APN_INSTANCES:
            _same_under_both_polys(m, lambda ctx, i=i: theorem2(ctx, i), lambda ctx, f: _check_cubic_apn(ctx, f))
        for i in (1, 5):
            seen = None
            for poly in _first_two_irreducibles(6):
                ctx = Field(6, poly)
                _check_quartic_shift(ctx, i)
                dists = _dists(theorem3(ctx, i))
                if seen is None:
                    seen = dists
                else:
                    assert dists == seen
        _same_under_both_polys(9, lambda ctx: theorem4(ctx, 3, 1), _check_subfield_family)

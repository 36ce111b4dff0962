"""Lookup-table / univariate-polynomial function layer."""

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anf_oracle import anf_degree, component_table, mobius_transform
from anf_oracle import component_degree as oracle_component_degree
from vbfkit.gf2m import Field, is_irreducible
from vbfkit.vbf import (
    ContextMismatchError,
    FuncTable,
    NotAPermutationError,
    UnivariatePoly,
    algebraic_degree,
    component_degree,
    compose,
    evaluate,
    interpolate,
    invert,
    is_permutation,
    monomial,
)


def _cube_by_hand(f: Field) -> FuncTable:
    vals = [f.mul(x, f.mul(x, x)) for x in range(1 << f.m)]
    return FuncTable(f, vals)


# ---------------------------------------------------------------- evaluate

def test_evaluate_identity_zero_constant():
    f = Field(4)
    assert evaluate(UnivariatePoly(f, {1: 1})).as_array().tolist() == list(range(16))
    assert evaluate(UnivariatePoly(f, {})).as_array().tolist() == [0] * 16
    assert evaluate(UnivariatePoly(f, {0: 9})).as_array().tolist() == [9] * 16


def test_evaluate_cube_matches_repeated_mul():
    for m in (3, 4, 5):
        f = Field(m)
        got = evaluate(UnivariatePoly(f, {3: 1}))
        assert got.as_array().tolist() == _cube_by_hand(f).as_array().tolist()


def test_evaluate_two_term_poly_by_hand():
    f = Field(3)
    p = UnivariatePoly(f, {1: 3, 5: 6})
    got = evaluate(p)
    for x in range(8):
        assert got.as_array()[x] == f.mul(3, x) ^ f.mul(6, f.pow(x, 5))


def test_evaluate_honors_zero_to_the_zero():
    f = Field(3)
    got = evaluate(UnivariatePoly(f, {0: 5, 2: 1}))
    assert got.as_array()[0] == 5


def _horner(f: Field, terms: dict, x: int) -> int:
    """p(x) by Horner's rule over the exponent gaps, in scalar arithmetic."""
    acc, prev = 0, None
    for e in sorted(terms, reverse=True):
        if prev is not None:
            acc = f.mul(acc, f.pow(x, prev - e))
        acc ^= terms[e]
        prev = e
    return f.mul(acc, f.pow(x, prev)) if prev else acc


def test_evaluate_matches_scalar_horner_oracle():
    rng = random.Random(42)
    for m in range(2, 11):
        for poly in [None] + ([0x1F] if m == 4 else []):  # 0x1f: x is not primitive
            f = Field(m, poly)
            top = f.order  # x^(2^m - 1) is 1 except at 0
            cases = [{0: 1}, {top: 1}, {0: f.size - 1, top: 2}, {1: 1, top: 3}]
            for _ in range(6):
                exps = {0, top} | {rng.randrange(f.size) for _ in range(rng.randrange(4))}
                picked = rng.sample(sorted(exps), rng.randrange(1, len(exps) + 1))
                cases.append({e: rng.randrange(1, f.size) for e in picked})
            for terms in cases:
                got = evaluate(UnivariatePoly(f, terms)).as_array().tolist()
                assert got == [_horner(f, terms, x) for x in range(f.size)], (m, terms)
                assert got[0] == terms.get(0, 0)


# ---------------------------------------------------------------- interpolate

def test_interpolate_constants():
    f = Field(4)
    assert interpolate(FuncTable(f, [7] * 16)).terms == {0: 7}
    assert interpolate(FuncTable(f, [0] * 16)).terms == {}


def test_interpolate_cube_recovers_single_term():
    f = Field(5)
    assert interpolate(_cube_by_hand(f)).terms == {3: 1}


def test_interpolate_monomials_exhaustive_gf16():
    f = Field(4)
    for d in range(1, 16):
        tab = FuncTable(f, [f.pow(x, d) for x in range(16)])
        assert interpolate(tab).terms == {d: 1}


def test_round_trip_poly_table_poly():
    rng = random.Random(42)
    for m in (3, 4, 5, 6, 8):
        f = Field(m)
        n = 1 << m
        for _ in range(8):
            terms = {}
            for _ in range(rng.randrange(1, 6)):
                terms[rng.randrange(n)] = rng.randrange(1, n)
            p = UnivariatePoly(f, terms)
            assert interpolate(evaluate(p)).terms == p.terms


def test_round_trip_table_poly_table():
    rng = random.Random(9)
    for m in (3, 4, 5, 7):
        f = Field(m)
        n = 1 << m
        for _ in range(5):
            tab = FuncTable(f, [rng.randrange(n) for _ in range(n)])
            assert evaluate(interpolate(tab)).as_array().tolist() == tab.as_array().tolist()


def test_interpolate_degree_stays_below_field_size():
    rng = random.Random(1)
    f = Field(4)
    for _ in range(20):
        tab = FuncTable(f, [rng.randrange(16) for _ in range(16)])
        assert all(0 <= e < 16 for e in interpolate(tab).terms)


# ---------------------------------------------------------------- 2-weights
# the degree oracles read an exponent's 2-weight as int.bit_count()

@pytest.mark.parametrize(
    "k,w",
    [(0, 0), (1, 1), (3, 2), (5, 2), (9, 2), (13, 3), (21, 3), (57, 4), (2**20 - 1, 20)],
)
def test_two_weight(k, w):
    assert k.bit_count() == w


def test_two_weight_of_quadratic_and_kasami_exponents():
    for i in range(1, 8):
        assert ((1 << i) + 1).bit_count() == 2
        assert ((1 << (2 * i)) - (1 << i) + 1).bit_count() == i + 1


# ---------------------------------------------------------------- degrees

def test_degree_of_affine_and_constant():
    f = Field(5)
    assert algebraic_degree(FuncTable(f, [6] * 32)) == 0
    assert algebraic_degree(FuncTable(f, [0] * 32)) == 0
    assert algebraic_degree(evaluate(UnivariatePoly(f, {1: 1, 0: 12}))) == 1
    # linearized: exponents all powers of two
    assert algebraic_degree(evaluate(UnivariatePoly(f, {1: 3, 2: 1, 8: 7}))) == 1


def test_degree_of_quadratic_power_maps():
    for m, i in ((4, 1), (5, 1), (5, 2), (6, 1)):
        f = Field(m)
        tab = evaluate(UnivariatePoly(f, {(1 << i) + 1: 1}))
        assert algebraic_degree(tab) == 2


def test_degree_of_inverse_map():
    # x^(2^m-2) has exponent of 2-weight m-1
    for m in (4, 5, 6):
        f = Field(m)
        tab = evaluate(UnivariatePoly(f, {(1 << m) - 2: 1}))
        assert algebraic_degree(tab) == m - 1


def test_degree_of_inverted_cube_gf32():
    f = Field(5)
    assert algebraic_degree(invert(_cube_by_hand(f))) == 3


def test_component_degree_zero_selector():
    f = Field(4)
    assert component_degree(_cube_by_hand(f), 0) == 0


def test_component_degrees_of_cube_gf32():
    f = Field(5)
    tab = _cube_by_hand(f)
    for c in range(1, 32):
        assert component_degree(tab, c) == 2


def test_degree_equals_max_component_degree():
    rng = random.Random(17)
    for m in (3, 4):
        f = Field(m)
        n = 1 << m
        for _ in range(10):
            tab = FuncTable(f, [rng.randrange(n) for _ in range(n)])
            comp = max(component_degree(tab, c) for c in range(1, n))
            assert algebraic_degree(tab) == comp


def test_component_degree_bounded_by_degree():
    rng = random.Random(23)
    f = Field(5)
    for _ in range(5):
        tab = FuncTable(f, [rng.randrange(32) for _ in range(32)])
        d = algebraic_degree(tab)
        for c in range(32):
            assert component_degree(tab, c) <= d


def test_degree_survives_affine_composition():
    # monomial affine maps a*x^(2^j)+b are permutations for a != 0
    rng = random.Random(31)
    f = Field(5)
    tab = _cube_by_hand(f)
    for _ in range(10):
        a1, a2 = rng.randrange(1, 32), rng.randrange(1, 32)
        b1, b2 = rng.randrange(32), rng.randrange(32)
        j1, j2 = rng.randrange(5), rng.randrange(5)
        outer = evaluate(UnivariatePoly(f, {1 << j1: a1, 0: b1} if b1 else {1 << j1: a1}))
        inner = evaluate(UnivariatePoly(f, {1 << j2: a2, 0: b2} if b2 else {1 << j2: a2}))
        assert algebraic_degree(compose(outer, compose(tab, inner))) == 2


# ---------------------------------------------------------------- permutations

def test_is_permutation_basics():
    f = Field(4)
    assert is_permutation(evaluate(UnivariatePoly(f, {1: 1})))
    assert not is_permutation(FuncTable(f, [3] * 16))


def test_cube_permutes_gf32_but_not_gf16():
    assert is_permutation(_cube_by_hand(Field(5)))
    assert not is_permutation(_cube_by_hand(Field(4)))


def test_is_permutation_equals_gcd_rule_for_power_maps():
    import math

    for m in (3, 4, 5, 6):
        f = Field(m)
        for d in range(1, 1 << m):
            tab = evaluate(UnivariatePoly(f, {d: 1}))
            assert is_permutation(tab) == (math.gcd(d, (1 << m) - 1) == 1)


def test_invert_round_trips():
    f = Field(5)
    tab = _cube_by_hand(f)
    inv = invert(tab)
    for x in range(32):
        assert inv.as_array()[tab.as_array()[x]] == x
    assert invert(inv).as_array().tolist() == tab.as_array().tolist()
    ident = evaluate(UnivariatePoly(f, {1: 1}))
    assert invert(ident).as_array().tolist() == ident.as_array().tolist()


def test_invert_rejects_non_permutation():
    with pytest.raises(NotAPermutationError):
        invert(_cube_by_hand(Field(4)))


def test_compose_and_add_semantics():
    rng = random.Random(2)
    f = Field(4)
    a = FuncTable(f, [rng.randrange(16) for _ in range(16)])
    b = FuncTable(f, [rng.randrange(16) for _ in range(16)])
    c = compose(a, b)
    s = FuncTable(f, a.as_array() ^ b.as_array())
    for x in range(16):
        assert c.as_array()[x] == a.as_array()[b.as_array()[x]]
        assert s.as_array()[x] == a.as_array()[x] ^ b.as_array()[x]
    ident = evaluate(UnivariatePoly(f, {1: 1}))
    assert compose(a, ident).as_array().tolist() == a.as_array().tolist()


def test_compose_cube_with_its_inverse_is_identity():
    f = Field(5)
    tab = _cube_by_hand(f)
    assert compose(tab, invert(tab)).as_array().tolist() == list(range(32))


def test_context_mismatch_rejected():
    a = FuncTable(Field(4), list(range(16)))
    b = FuncTable(Field(4, poly=0b11001), list(range(16)))
    with pytest.raises(ContextMismatchError):
        compose(a, b)


# ---------------------------------------------------------------- ANF plumbing
# the uint8 one-component oracle of tests/anf_oracle.py, checked on its own
# and then against the packed-ANF ``component_degree``

def test_mobius_transform_is_an_involution():
    rng = np.random.default_rng(4)
    for m in (2, 3, 6):
        bits = rng.integers(0, 2, size=1 << m).astype(np.uint8)
        twice = mobius_transform(mobius_transform(bits))
        assert np.array_equal(twice, bits)


def test_mobius_transform_of_and_or_xor():
    # f(x1,x0) = x0 AND x1 -> single top monomial
    anf = mobius_transform(np.array([0, 0, 0, 1], dtype=np.uint8))
    assert list(anf) == [0, 0, 0, 1]
    # XOR -> the two linear monomials
    anf = mobius_transform(np.array([0, 1, 1, 0], dtype=np.uint8))
    assert list(anf) == [0, 1, 1, 0]
    # OR = x0 + x1 + x0x1
    anf = mobius_transform(np.array([0, 1, 1, 1], dtype=np.uint8))
    assert list(anf) == [0, 1, 1, 1]


def test_anf_degree_on_known_tables():
    assert anf_degree(np.array([0, 0, 0, 1], dtype=np.uint8)) == 2
    assert anf_degree(np.array([0, 1, 1, 0], dtype=np.uint8)) == 1
    assert anf_degree(np.array([1, 1, 1, 1], dtype=np.uint8)) == 0
    assert anf_degree(np.zeros(8, dtype=np.uint8)) == 0


def test_component_table_is_trace_of_scaled_output():
    f = Field(4)
    tab = _cube_by_hand(f)
    for c in (1, 5, 11):
        bits = component_table(tab, c)
        for x in range(16):
            assert int(bits[x]) == f.trace(f.mul(c, int(tab.as_array()[x])))


def test_component_degree_matches_uint8_oracle_for_every_component():
    rng = np.random.default_rng(8)
    for m, poly in [(m, None) for m in range(2, 9)] + [(5, 0b101001), (8, 0x11d)]:
        f = Field(m, poly)
        for _ in range(5):
            tab = FuncTable(f, rng.integers(0, f.size, size=f.size))
            for c in range(f.size):
                assert component_degree(tab, c) == oracle_component_degree(tab, c)


# ---------------------------------------------------------------- validation

def test_functable_validates_shape_and_range():
    f = Field(3)
    with pytest.raises(ValueError):
        FuncTable(f, [0] * 7)
    with pytest.raises(ValueError):
        FuncTable(f, [8] + [0] * 7)


_NEG = [0, 3, -1, 2, -5, 0, 0, 0]
_HIGH = [0, 1, 2, 8, 9, 0, 0, 0]
_HUGE = [0] * 7 + [1 << 70]


@pytest.mark.parametrize(
    "values, bad",
    [
        (_NEG, -1),
        (np.array(_NEG, dtype=np.int64), -1),
        (_HIGH, 8),
        (np.array(_HIGH, dtype=np.int64), 8),
        (np.array(_HIGH, dtype=np.uint32), 8),
        (_HUGE, 1 << 70),
        (np.array(_HUGE, dtype=object), 1 << 70),
        ([0] * 7 + [1 << 63], 1 << 63),
        (iter(_NEG), -1),
        ((v for v in _HUGE), 1 << 70),
    ],
)
def test_functable_names_first_out_of_range_entry(values, bad):
    with pytest.raises(ValueError, match=rf"^table entry {bad} outside \[0, 8\)$"):
        FuncTable(Field(3), values)


def test_functable_rejects_uint_entries_of_2_to_the_m():
    f = Field(4)
    for dtype in (np.uint8, np.uint32, np.uint64):
        vals = np.arange(16, dtype=dtype)
        vals[5] = 16
        with pytest.raises(ValueError, match=r"^table entry 16 outside \[0, 16\)$"):
            FuncTable(f, vals)
    with pytest.raises(ValueError, match=r"^table entry -1 outside \[0, 16\)$"):
        FuncTable(f, np.full(16, -1, dtype=np.int8))


def test_functable_wrong_length_names_the_count():
    f = Field(4)
    for values in ([0] * 15, np.zeros(17, dtype=np.uint32), (0,) * 32):
        with pytest.raises(ValueError, match=rf"^table needs 16 entries, got {len(values)}$"):
            FuncTable(f, values)
    with pytest.raises(ValueError, match=r"^table needs 16 entries"):
        FuncTable(f, np.zeros((4, 4), dtype=np.int64))


@pytest.mark.parametrize(
    "values, kind",
    [
        ([0.5, 1.7, 2, 3, 4, 5, 6, 7], "float"),
        (np.arange(8, dtype=np.float64), "numpy.float64"),
        (np.arange(8, dtype=np.float32) + 0.25, "numpy.float32"),
        (np.arange(8) + 0j, "numpy.complex128"),
        ([0] * 7 + [(1 << 70) + 0.5], "float"),
        ([1 << 70] + [0] * 6 + [7.0], "float"),
        ((v / 1 for v in range(8)), "float"),
    ],
    ids=["list", "float64", "float32", "complex", "beyond-int64", "after-big-int", "iterator"],
)
def test_functable_rejects_float_and_complex_entries(values, kind):
    # the rest of the line is CPython's TypeError text
    message = re.escape(f"table entries must be integers: '{kind}' object")
    with pytest.raises(ValueError, match=message):
        FuncTable(Field(3), values)


def test_functable_input_kinds_give_equal_tables():
    rng = random.Random(31)
    f = Field(5)
    entries = [rng.randrange(32) for _ in range(32)]
    tables = [
        FuncTable(f, entries),
        FuncTable(f, tuple(entries)),
        FuncTable(f, np.array(entries, dtype=np.uint32)),
        FuncTable(f, np.array(entries, dtype=np.int64)),
        FuncTable(f, (v for v in entries)),
        FuncTable(f, np.array(entries, dtype=np.int8)),
        FuncTable(f, np.array(entries, dtype=np.uint16)),
        FuncTable(f, [np.uint64(v) for v in entries]),
        FuncTable(f, np.array(entries, dtype=object)),
    ]
    for tab in tables:
        assert tab == tables[0] and hash(tab) == hash(tables[0])
        arr = tab.as_array()
        assert arr.dtype == np.uint32 and arr.tolist() == entries
        assert not arr.flags.writeable
    bits = [v & 1 for v in entries]
    for flags in ([bool(b) for b in bits], np.array(bits, dtype=bool)):
        assert FuncTable(f, flags).as_array().tolist() == bits


def test_functable_copies_its_input_array():
    f = Field(3)
    src = np.arange(8, dtype=np.uint32)
    tab = FuncTable(f, src)
    src[0] = 7
    assert tab.as_array()[0] == 0


def test_functable_compares_and_hashes_on_the_array():
    rng = random.Random(33)
    f, g = Field(5), Field(5, 0x29)
    entries = [rng.randrange(32) for _ in range(32)]
    tab = FuncTable(f, entries)
    assert tab == FuncTable(f, np.array(entries)) and hash(tab) == hash(FuncTable(f, entries))
    assert tab != FuncTable(g, entries)  # same entries, other field
    changed = list(entries)
    changed[31] ^= 1
    assert tab != FuncTable(f, changed)
    assert len({tab, FuncTable(f, entries), FuncTable(f, changed)}) == 2


def test_is_permutation_and_invert_match_set_oracle():
    rng = random.Random(34)
    for m in (2, 3, 6, 9):
        f = Field(m)
        perm = list(range(f.size))
        rng.shuffle(perm)
        hit = list(perm)
        hit[1 + rng.randrange(f.size - 1)] = hit[0]  # one value twice, another never
        for vals in (perm, hit, [0] * f.size, [f.order] * f.size):
            tab = FuncTable(f, vals)
            assert is_permutation(tab) == (len(set(vals)) == f.size)
        inv = invert(FuncTable(f, perm)).as_array()
        assert [int(inv[y]) for y in perm] == list(range(f.size))


def test_poly_validates_terms():
    f = Field(3)
    with pytest.raises(ValueError):
        UnivariatePoly(f, {8: 1})  # exponent out of range
    with pytest.raises(ValueError):
        UnivariatePoly(f, {2: 0})  # zero coefficient stored
    with pytest.raises(ValueError):
        UnivariatePoly(f, {1: 9})  # coefficient out of range


def test_monomial_helper():
    f = Field(5)
    tab = monomial(f, 3)
    assert tab.as_array().tolist() == _cube_by_hand(f).as_array().tolist()


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_monomial_matches_evaluate_and_reduces_large_exponents(m):
    ctx = Field(m)
    rng = random.Random(m)
    for e in range(ctx.size):
        c = rng.randrange(1, ctx.size)
        assert monomial(ctx, e, c) == evaluate(UnivariatePoly(ctx, {e: c}))
    assert monomial(ctx, 0).as_array().tolist() == [1] * ctx.size  # 0^0 = 1
    for e in range(1, 3 * ctx.size):
        reduced = e % ctx.order or ctx.order  # x^e = x^(e mod 2^m - 1) on x != 0, 0 at 0
        assert monomial(ctx, e) == monomial(ctx, reduced)
        assert monomial(ctx, e).as_array()[0] == 0


@pytest.mark.parametrize(
    "e, c, message",
    [(-1, 1, "exponent -1 is negative"), (3, 0, r"coefficient 0 for x\^3 outside \(0, 16\)"),
     (3, 16, r"coefficient 16 for x\^3 outside \(0, 16\)")],
)
def test_monomial_rejects_negative_exponent_and_bad_coefficient(e, c, message):
    with pytest.raises(ValueError, match=message):
        monomial(Field(4), e, c)


@st.composite
def _entries_and_edit(draw):
    """A field degree, a table of entries, and a one-entry change to it."""
    m = draw(st.integers(3, 7))
    n = 1 << m
    entries = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return m, entries, draw(st.integers(0, n - 1)), draw(st.integers(1, n - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_entries_and_edit())
def test_functable_equality_and_hash_follow_field_and_entries(case):
    m, entries, at, flip = case
    f = Field(m)
    tabs = [
        FuncTable(f, entries),
        FuncTable(f, np.array(entries, dtype=np.int64)),
        FuncTable(f, np.array(entries, dtype=np.uint32)),
    ]
    assert all(t == tabs[0] and hash(t) == hash(tabs[0]) for t in tabs)
    changed = list(entries)
    changed[at] ^= flip
    assert tabs[0] != FuncTable(f, changed)
    other = next(p for p in range(f.poly + 1, 2 << m) if is_irreducible(p))
    assert tabs[0] != FuncTable(Field(m, other), entries)
    assert len(set(tabs) | {FuncTable(f, changed)}) == 2

"""Construction families: trace-twisted Gold tables, their graph witnesses,
and the catalogue of power-function exponents."""

import hashlib
import math
import pickle
import random

import numpy as np
import pytest

from vbfkit import ccz, constructions
from vbfkit.ccz import (
    BinLinearMap,
    GcdViolationError,
    ccz_transform,
    graph_image,
    map_invertible,
)
from vbfkit.constructions import (
    ConditionViolatedError,
    DivisibilityViolatedError,
    ParityViolatedError,
    ZeroElementError,
    example1_witness,
    f8_side_condition,
    family_exponent,
    theorem1,
    theorem12_ccz_witness,
    theorem2,
    theorem3,
    theorem3_f1,
    theorem4,
    theorem4_f1_inverse,
    theorem4_f1_tables,
)
from vbfkit.gf2m import Field, is_irreducible
from vbfkit.spectra import (
    differential_spectrum,
    is_ab,
    is_apn,
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


def _twist_odd_oracle(ctx: Field, i: int) -> FuncTable:
    """Scalar route for the odd-degree twist: x^e + (x^(2^i)+x) tr(x^e + x)."""
    e = (1 << i) + 1
    out = []
    for x in range(ctx.size):
        xe = ctx.pow(x, e)
        gate = ctx.trace(xe ^ x)
        out.append(xe ^ ((ctx.pow(x, 1 << i) ^ x) if gate else 0))
    return FuncTable(ctx, out)


def _twist_even_oracle(ctx: Field, i: int) -> FuncTable:
    """Scalar route for the even-degree twist: x^e + (x^(2^i)+x+1) tr(x^e)."""
    e = (1 << i) + 1
    out = []
    for x in range(ctx.size):
        xe = ctx.pow(x, e)
        gate = ctx.trace(xe)
        out.append(xe ^ ((ctx.pow(x, 1 << i) ^ x ^ 1) if gate else 0))
    return FuncTable(ctx, out)


# ------------------------------------------------------- family exponents

@pytest.mark.parametrize(
    "family, m, i, d",
    [
        ("gold", 5, 1, 3),
        ("gold", 7, 2, 5),
        ("gold", 10, 3, 9),
        ("kasami", 5, 2, 13),
        ("kasami", 7, 3, 57),
        ("welch", 5, None, 7),
        ("welch", 9, None, 19),
        ("niho", 5, None, 5),
        ("niho", 7, None, 39),
        ("inverse", 5, None, 15),
        ("inverse", 9, None, 255),
        ("dobbertin", 5, None, 29),
        ("dobbertin", 10, None, 339),
    ],
)
def test_family_exponent_values(family, m, i, d):
    assert family_exponent(family, m, i) == d


def test_family_tag_is_case_insensitive():
    assert family_exponent("Gold", 5, i=1) == 3
    assert family_exponent("DOBBERTIN", 5) == 29


def test_family_exponent_welch_niho_coincide_at_m9():
    # 2^4 + 3 == 2^4 + 2^2 - 1
    assert family_exponent("welch", 9) == family_exponent("niho", 9)


def test_family_exponent_rejects_an_index_that_m_fixes():
    # m = 2t + 1 or m = 5i fixes the exponent, so an index, even the one m
    # implies, is an error rather than silently ignored
    for family, m, i in [("welch", 5, 2), ("niho", 7, 3), ("inverse", 9, 4), ("dobbertin", 10, 2)]:
        with pytest.raises(ConditionViolatedError, match="reads no index"):
            family_exponent(family, m, i)
    assert family_exponent("welch", 5) == 7
    assert family_exponent("dobbertin", 10) == 339


@pytest.mark.parametrize(
    "spec, err",
    [
        (("gold", 6, 2), GcdViolationError),
        (("gold", 5, 0), ConditionViolatedError),
        (("gold", 5, None), ConditionViolatedError),
        (("kasami", 9, 3), GcdViolationError),
        (("welch", 6, None), ParityViolatedError),
        (("niho", 8, None), ParityViolatedError),
        (("inverse", 4, None), ParityViolatedError),
        (("welch", 7, 2), ConditionViolatedError),
        (("dobbertin", 6, None), DivisibilityViolatedError),
        (("dobbertin", 10, 1), ConditionViolatedError),
        (("thm1", 5, 1), ConditionViolatedError),
        (("nonsense", 5, None), ConditionViolatedError),
    ],
)
def test_family_exponent_rejects(spec, err):
    with pytest.raises(err):
        family_exponent(*spec)


@pytest.mark.parametrize(
    "family, m, i",
    [
        ("gold", 6, 1),
        ("kasami", 6, 1),
        ("welch", 7, None),
        ("niho", 7, None),
        ("inverse", 7, None),
        ("dobbertin", 5, None),
    ],
)
def test_small_power_families_are_apn(family, m, i):
    ctx = Field(m)
    f = monomial(ctx, family_exponent(family, m, i))
    assert is_apn(f)


def test_dobbertin_m5_is_apn_but_not_ab():
    ctx = Field(5)
    f = monomial(ctx, family_exponent("dobbertin", 5))
    assert is_apn(f)
    assert not is_ab(f)


def test_inverse_m5_apn_degree_four_not_ab():
    ctx = Field(5)
    f = monomial(ctx, family_exponent("inverse", 5))
    assert is_apn(f)
    assert not is_ab(f)
    assert algebraic_degree(f) == 4


# ------------------------------------------------------ odd-degree family

@pytest.mark.parametrize("m, i", [(5, 1), (5, 2), (7, 1), (7, 3)])
def test_theorem1_matches_pointwise_formula(m, i):
    ctx = Field(m)
    assert theorem1(ctx, i) == _twist_odd_oracle(ctx, i)


@pytest.mark.parametrize("m, i", [(5, 1), (5, 2), (7, 2)])
def test_theorem1_ab_cubic_with_quadratic_unit_component(m, i):
    ctx = Field(m)
    f = theorem1(ctx, i)
    assert is_ab(f)
    assert algebraic_degree(f) == 3
    assert component_degree(f, 1) == 2


def test_theorem1_trace_component_equals_power_trace():
    ctx = Field(7)
    f = theorem1(ctx, 1).as_array()
    tt = ctx.trace_table()
    cube = ctx.pow_many(np.arange(ctx.size), 3)
    assert np.array_equal(tt[f], tt[cube])


def test_theorem1_rejects_bad_parameters():
    with pytest.raises(ParityViolatedError):
        theorem1(Field(4), 1)
    with pytest.raises(ConditionViolatedError):
        theorem1(Field(3), 1)
    with pytest.raises(GcdViolationError):
        theorem1(Field(9), 3)
    with pytest.raises(ConditionViolatedError):
        theorem1(Field(5), 0)


def test_theorem1_relaxed_mode_is_plateaued_like_the_power_map():
    ctx = Field(9)
    f = theorem1(ctx, 3, relaxed=True)
    g = monomial(ctx, 9)
    assert set(walsh_spectrum(f).distribution) == {0, 64, -64}  # 2^((m + 3)/2)
    assert not is_ab(f)
    assert walsh_spectrum(f).distribution == walsh_spectrum(g).distribution
    assert (
        differential_spectrum(f).distribution
        == differential_spectrum(g).distribution
    )


# ----------------------------------------------------- even-degree family

@pytest.mark.parametrize("m, i", [(4, 1), (6, 1), (8, 3)])
def test_theorem2_matches_pointwise_formula(m, i):
    ctx = Field(m)
    assert theorem2(ctx, i) == _twist_even_oracle(ctx, i)


@pytest.mark.parametrize("m, i", [(4, 1), (6, 1)])
def test_theorem2_apn_cubic(m, i):
    ctx = Field(m)
    f = theorem2(ctx, i)
    assert is_apn(f)
    assert algebraic_degree(f) == 3


def test_theorem2_trace_component_equals_power_trace():
    ctx = Field(6)
    f = theorem2(ctx, 1).as_array()
    tt = ctx.trace_table()
    cube = ctx.pow_many(np.arange(ctx.size), 3)
    assert np.array_equal(tt[f], tt[cube])


def test_theorem2_rejects_bad_parameters():
    with pytest.raises(ParityViolatedError):
        theorem2(Field(5), 1)
    with pytest.raises(ConditionViolatedError):
        theorem2(Field(2), 1)
    with pytest.raises(GcdViolationError):
        theorem2(Field(6), 2)
    with pytest.raises(ConditionViolatedError):
        # gcd 2 with quotient 2: the plateaued relaxation does not apply
        theorem2(Field(4), 2, relaxed=True)


def test_theorem2_relaxed_mode_matches_gold_spectra():
    ctx = Field(6)
    f = theorem2(ctx, 2, relaxed=True)
    g = monomial(ctx, 5)
    assert set(walsh_spectrum(f).distribution) == {0, 16, -16}  # 2^((m + 2)/2)
    assert walsh_spectrum(f).distribution == walsh_spectrum(g).distribution
    assert (
        differential_spectrum(f).distribution
        == differential_spectrum(g).distribution
    )


# -------------------------------------------------- subfield-twist family

@pytest.mark.parametrize("i", [1, 5])
def test_theorem3_f1_formula_order_and_inverse(i):
    ctx = Field(6)
    f1 = theorem3_f1(ctx, i)
    e = (1 << i) + 1
    expect = []
    for x in range(64):
        t = ctx.subfield_trace(ctx.pow(x, e), 3)
        expect.append(x ^ ctx.mul(t, t) ^ ctx.pow(t, 4))
    assert f1 == FuncTable(ctx, expect)
    assert is_permutation(f1)

    acc = f1
    for _ in range(5):
        acc = compose(f1, acc)
    assert acc == monomial(ctx, 1)

    # the double application folds to a trace-gated octic shift
    s = i % 3
    expect2 = []
    for x in range(64):
        t = ctx.subfield_trace(ctx.pow(x, e), 3)
        expect2.append(x ^ ((t ^ ctx.pow(t, 1 << s)) if ctx.trace(x) else 0))
    assert compose(f1, f1) == FuncTable(ctx, expect2)

    # the fifth power is the compositional inverse
    five = f1
    for _ in range(4):
        five = compose(f1, five)
    assert five == invert(f1)


def test_theorem3_f1_larger_field_is_permutation():
    ctx = Field(12)
    assert is_permutation(theorem3_f1(ctx, 1))


@pytest.mark.parametrize("i", [1, 5])
def test_theorem3_apn_degree_four(i):
    ctx = Field(6)
    f = theorem3(ctx, i)
    assert is_apn(f)
    assert algebraic_degree(f) == 4


@pytest.mark.parametrize("i", [1, 5])
def test_theorem3_is_power_of_the_inverse_shift(i):
    ctx = Field(6)
    f = theorem3(ctx, i)
    f1 = theorem3_f1(ctx, i)
    assert f == compose(monomial(ctx, (1 << i) + 1), invert(f1))

    # same thing with the inverse shift written out termwise
    s = i % 3
    s2 = (2 * s) % 3
    e = (1 << i) + 1
    expect = []
    for x in range(64):
        t = ctx.subfield_trace(ctx.pow(x, e), 3)
        inner = x ^ ctx.mul(t, t) ^ ctx.pow(t, 4)
        if ctx.trace(x):
            inner ^= t ^ ctx.pow(t, 1 << s2)
        expect.append(ctx.pow(inner, e))
    assert f == FuncTable(ctx, expect)


@pytest.mark.parametrize(("m", "i"), [(6, 1), (6, 5), (12, 1), (12, 5), (12, 7), (12, 11)])
def test_theorem3_matches_gold_after_the_inverse_shift_pointwise(m, i):
    ctx = Field(m)
    e = (1 << i) + 1
    inverse_shift = invert(theorem3_f1(ctx, i)).as_array().tolist()
    assert theorem3(ctx, i) == FuncTable(ctx, [ctx.pow(x, e) for x in inverse_shift])


@pytest.mark.parametrize("i", [1, 5])
def test_theorem3_expanded_form(i):
    ctx = Field(6)
    e = (1 << i) + 1
    s = i % 3
    s2 = (2 * s) % 3
    expect = []
    for x in range(64):
        xe = ctx.pow(x, e)
        x2i = ctx.pow(x, 1 << i)
        t = ctx.subfield_trace(xe, 3)
        t2 = ctx.mul(t, t)
        t4 = ctx.pow(t, 4)
        ts = ctx.pow(t, 1 << s)
        t2s = ctx.pow(t, 1 << s2)
        val = xe ^ ctx.mul(t, ts)
        if ctx.trace(xe):
            val ^= t2s
        if ctx.trace(x):
            val ^= t ^ t4
            val ^= ctx.mul(x, t ^ ts)
            val ^= ctx.mul(x2i, t ^ t2s)
        val ^= ctx.mul(x, t ^ t2s)
        val ^= ctx.mul(x2i, t2 ^ t4)
        expect.append(val)
    assert theorem3(ctx, i) == FuncTable(ctx, expect)


def test_theorem3_rejects_bad_parameters():
    with pytest.raises(DivisibilityViolatedError):
        theorem3(Field(9), 1)
    with pytest.raises(DivisibilityViolatedError):
        theorem3_f1(Field(4), 1)
    with pytest.raises(GcdViolationError):
        theorem3(Field(6), 2)
    with pytest.raises(GcdViolationError):
        theorem3(Field(6), 3)


def test_f8_side_condition_matches_direct_scan():
    f8 = Field(3)
    lows = [w for w in range(1, 8) if f8.trace(w) == 0]
    assert len(lows) == 3
    for i in range(1, 8):
        e = (1 << (i % 3)) + 1
        holds = True
        pairs = 0
        for u in range(1, 8):
            ue = f8.pow(u, e)
            for w in lows:
                z = f8.mul(ue, w)
                pairs += 1
                if f8.mul(z, z) ^ f8.pow(z, 4) == u:
                    holds = False
        assert pairs == 21
        assert f8_side_condition(i) is holds


def test_f8_side_condition_holds_for_both_coprime_shifts():
    assert f8_side_condition(1) is True
    assert f8_side_condition(5) is True


@pytest.mark.parametrize("i", [0, -1, -4])
def test_f8_side_condition_rejects_nonpositive_index(i):
    with pytest.raises(ConditionViolatedError, match="Frobenius index must be positive"):
        f8_side_condition(i)


def test_builders_read_a_huge_index_mod_m():
    # only i mod m enters, so 2^i is never formed; here i = 1 (mod m)
    assert theorem1(Field(5), 10**12 + 1) == theorem1(Field(5), 1)
    f5, f6, f9 = Field(5), Field(6), Field(9)
    huge5, huge6, huge9 = (m * 10**12 + 1 for m in (5, 6, 9))
    assert theorem2(f6, huge6) == theorem2(f6, 1)
    assert theorem3(f6, huge6) == theorem3(f6, 1)
    assert theorem3_f1(f6, huge6) == theorem3_f1(f6, 1)
    assert theorem4(f9, 3, huge9) == theorem4(f9, 3, 1)
    assert theorem4_f1_tables(f9, 3, huge9) == theorem4_f1_tables(f9, 3, 1)
    assert theorem4_f1_inverse(f9, 3, huge9, 5) == theorem4_f1_inverse(f9, 3, 1, 5)
    assert family_exponent("gold", 5, huge5) == family_exponent("gold", 5, 1) == 3
    assert family_exponent("kasami", 5, huge5) == family_exponent("kasami", 5, 1)
    assert theorem12_ccz_witness(f5, huge5) == theorem12_ccz_witness(f5, 1)
    assert example1_witness(f5, huge5) == example1_witness(f5, 1)
    assert f8_side_condition(huge6) is f8_side_condition(1)
    with pytest.raises(GcdViolationError):  # i = 5 (mod 5)
        theorem1(f5, huge5 + 4)


def test_condition_error_is_the_ccz_class():
    assert ConditionViolatedError is ccz.ConditionViolatedError


# ------------------------------------------------ subfield-mixing family

def test_theorem4_statement_formula_pointwise():
    ctx = Field(9)
    n, i, e = 3, 1, 3
    f = theorem4(ctx, n, i)
    d1 = ctx.inverse_exponent(e)
    d2 = (d1 * 2) % ctx.order
    expect = []
    for x in range(ctx.size):
        t = ctx.subfield_trace(x, n)
        te = ctx.subfield_trace(ctx.pow(x, e), n)
        b = ctx.pow(t, e) ^ te ^ t
        u = ctx.pow(b, d1)
        u2 = ctx.pow(b, d2)
        val = ctx.pow(x, e) ^ te
        val ^= ctx.mul(ctx.mul(x, x), t)
        val ^= ctx.mul(x, ctx.mul(t, t))
        val ^= ctx.mul(u, ctx.mul(x, x) ^ ctx.mul(t, t) ^ 1)
        val ^= ctx.mul(u2, x ^ t)
        expect.append(val)
    assert f == FuncTable(ctx, expect)


# SHA-256 of theorem4(Field(15), n, i) as little-endian uint32, recorded from
# the statement formula evaluated term by term, so they tie F2 o F1^(-1) to it
THEOREM4_DIGESTS = [
    (5, 1, "826d123c3aa743205dbc6e343c155ac90adfa3c7fd945fb7d980f015cd18ce0e"),
    (3, 2, "41fa42ea6f270f1d8d5e9644126dde44d0548a9ee076548e63517d68e8212823"),
    (3, 7, "45f6bb560c7c9dce7e5510011acde81f9c948cc60b8e6967b4f7d4730561de69"),
]


@pytest.mark.parametrize(("n", "i", "digest"), THEOREM4_DIGESTS)
def test_theorem4_table_digests_at_m15(n, i, digest):
    table = theorem4(Field(15), n, i).as_array().astype("<u4").tobytes()
    assert hashlib.sha256(table).hexdigest() == digest


def _theorem4_triples(max_m: int):
    for m in range(5, max_m + 1, 2):
        for n in range(1, m):
            if m % n == 0:
                yield from ((m, n, i) for i in range(1, m) if math.gcd(i, m) == 1)


@pytest.mark.parametrize(("m", "n", "i"), list(_theorem4_triples(13)))
def test_theorem4_is_f2_after_the_scalar_inverse_shift(m, n, i):
    # F2(z) = z^e + tr(z) + tr(z^e) after the closed-form F1^(-1), at every
    # point for m <= 9 and at 512 seeded points above; the whole table is
    # checked against the vectorized closed-form inverse
    ctx = Field(m)
    e = (1 << i) + 1
    table = theorem4(ctx, n, i).as_array()
    rng = random.Random(m * 100 + n * 10 + i)
    ys = range(ctx.size) if m <= 9 else rng.sample(range(ctx.size), 512)
    for y in ys:
        z = theorem4_f1_inverse(ctx, n, i, y)
        ze = ctx.pow(z, e)
        assert table[y] == ze ^ ctx.subfield_trace(z, n) ^ ctx.subfield_trace(ze, n), y
    xs = np.arange(ctx.size, dtype=np.int64)
    xe = ctx.pow_many(xs, e)
    f2 = xe ^ ctx.subfield_trace_many(xs, n) ^ ctx.subfield_trace_many(xe, n)
    assert np.array_equal(table, f2[theorem4_f1_tables(ctx, n, i)[1].as_array()])


def test_theorem4_ab_degree_five():
    ctx = Field(9)
    f = theorem4(ctx, 3, 1)
    assert is_ab(f)
    assert algebraic_degree(f) == 5


def test_theorem4_with_prime_subfield_reduces_to_the_odd_twist():
    ctx = Field(9)
    assert theorem4(ctx, 1, 1) == theorem1(ctx, 1)
    assert theorem4(ctx, 1, 2) == theorem1(ctx, 2)


def test_theorem4_rejects_bad_parameters():
    with pytest.raises(ParityViolatedError):
        theorem4(Field(6), 3, 1)
    with pytest.raises(ConditionViolatedError):
        theorem4(Field(9), 9, 1)
    with pytest.raises(ConditionViolatedError):
        theorem4(Field(9), 2, 1)
    with pytest.raises(GcdViolationError):
        theorem4(Field(9), 3, 3)


def test_theorem4_rejects_m3_where_the_theorem_fails():
    # n = 1 at m = 3 is Theorem 1's formula, which needs m > 3
    ctx = Field(3)
    for build in (theorem4, theorem4_f1_tables):
        for i in (1, 2):
            with pytest.raises(ConditionViolatedError, match="subfield-trace family needs m > 3"):
                build(ctx, 1, i)
    with pytest.raises(ConditionViolatedError, match="m > 3"):
        theorem4_f1_inverse(ctx, 1, 1, 0)


def test_theorem4_f1_closed_form_inverse_everywhere():
    ctx = Field(9)
    n, i, e = 3, 1, 3
    f1 = FuncTable(
        ctx,
        [
            x ^ ctx.subfield_trace(x, n) ^ ctx.subfield_trace(ctx.pow(x, e), n)
            for x in range(ctx.size)
        ],
    )
    assert is_permutation(f1)
    for y in range(ctx.size):
        assert f1.as_array()[theorem4_f1_inverse(ctx, n, i, y)] == y


def test_theorem4_f1_tables_match_scalar_closed_forms():
    rng = random.Random(415)
    for m, n, i, points in ((9, 1, 1, None), (9, 3, 1, None), (9, 3, 2, None), (15, 5, 1, 2000)):
        ctx = Field(m)
        e = (1 << i) + 1
        f1, inv = (tab.as_array() for tab in theorem4_f1_tables(ctx, n, i))
        ys = range(ctx.size) if points is None else rng.sample(range(ctx.size), points)
        for y in ys:
            x = theorem4_f1_inverse(ctx, n, i, y)
            assert inv[y] == x
            assert f1[y] == y ^ ctx.subfield_trace(y, n) ^ ctx.subfield_trace(ctx.pow(y, e), n)
        assert np.array_equal(f1[inv], np.arange(ctx.size))


def test_theorem4_f1_inverse_zero_trace_branch():
    ctx = Field(9)
    n, i, e = 3, 1, 3
    d1 = ctx.inverse_exponent(e)
    seen = 0
    for y in range(ctx.size):
        if ctx.subfield_trace(y, n):
            continue
        seen += 1
        u = ctx.pow(ctx.subfield_trace(ctx.pow(y, e), n), d1)
        assert theorem4_f1_inverse(ctx, n, i, y) == y ^ u
    assert seen == ctx.size // (1 << n)


def test_theorem4_f1_inverse_residual_equation():
    ctx = Field(9)
    n, i, e = 3, 1, 3
    for y in range(ctx.size):
        u = theorem4_f1_inverse(ctx, n, i, y) ^ y
        t = ctx.subfield_trace(y, n)
        res = ctx.pow(u, e)
        res ^= ctx.mul(ctx.mul(u, u), t)
        res ^= ctx.mul(u, ctx.mul(t, t))
        res ^= ctx.subfield_trace(ctx.pow(y, e), n)
        res ^= t
        assert res == 0


def test_theorem4_composition_route_differs_by_the_subfield_trace():
    # composing the mixed pair directly lands one linear term away from the
    # closed statement form; the offset is exactly the relative trace
    ctx = Field(9)
    n, i, e = 3, 1, 3
    xs = np.arange(ctx.size, dtype=np.int64)
    t_tab = FuncTable(ctx, [ctx.subfield_trace(x, n) for x in range(ctx.size)])
    f1 = FuncTable(ctx, xs ^ t_tab.as_array() ^ np.array(
        [ctx.subfield_trace(ctx.pow(x, e), n) for x in range(ctx.size)]
    ))
    f2 = FuncTable(ctx, ctx.pow_many(xs, e) ^ t_tab.as_array())
    f1_inv = FuncTable(
        ctx, [theorem4_f1_inverse(ctx, n, i, y) for y in range(ctx.size)]
    )
    assert compose(f1, f1_inv) == monomial(ctx, 1)
    assert compose(f2, f1_inv) == FuncTable(ctx, theorem4(ctx, n, i).as_array() ^ t_tab.as_array())


# --------------------------------------------------------- graph witnesses

def _is_involution(L: BinLinearMap) -> bool:
    """L(L(e_j)) = e_j at every basis vector, so L o L is the identity."""
    return all(L.apply(L.apply(1 << j)) == 1 << j for j in range(L.n_in))


# (m, i, a, rows of L) for the Theorem 1 (odd m) and Theorem 2 (even m)
# witnesses, as the hand-written row masks gave them before the map was
# built from its column images
WITNESS_ROWS = [
    (5, 1, 0x1, [0x128, 0x2, 0x4, 0x8, 0x10, 0x109, 0x40, 0x80, 0x100, 0x200]),
    (5, 3, 0x2, [0x1, 0x2b0, 0x4, 0x8, 0x10, 0x20, 0x2f2, 0x80, 0x3b2, 0xb2]),
    (6, 1, 0x1, [0x801, 0x2, 0x4, 0x8, 0x10, 0x20, 0x40, 0x80, 0x100, 0x200, 0x400, 0x800]),
    (6, 5, 0x2, [0x1, 0x4c2, 0x4, 0x8, 0x10, 0x20, 0x40, 0x80, 0x100, 0x200, 0x400, 0x800]),
    (7, 1, 0x1, [0x80, 0x2, 0x4, 0x8, 0x10, 0x20, 0x40, 0x1,
                 0x100, 0x200, 0x400, 0x800, 0x1000, 0x2000]),
    (7, 3, 0x2, [0x1, 0x3d01, 0x4, 0x8, 0x10, 0x20, 0x40, 0x80,
                 0x100, 0x3f03, 0x3903, 0x800, 0x1000, 0x2000]),
    (8, 1, 0x1, [0xa001, 0x2, 0x4, 0x8, 0x10, 0x20, 0x40, 0x80,
                 0x100, 0x200, 0x400, 0x800, 0x1000, 0x2000, 0x4000, 0x8000]),
    (8, 3, 0x3, [0xb801, 0xb802, 0x4, 0x8, 0x10, 0x20, 0x40, 0x80,
                 0x100, 0x200, 0x400, 0x800, 0x1000, 0x2000, 0x4000, 0x8000]),
]


@pytest.mark.parametrize(("m", "i", "a", "rows"), WITNESS_ROWS)
def test_witness_rows_are_pinned(m, i, a, rows):
    assert list(theorem12_ccz_witness(Field(m), i, a).L.rows) == rows


@pytest.mark.parametrize("m", range(4, 10))
def test_graph_maps_keep_the_columns_they_are_built_from(monkeypatch, m):
    ctx = Field(m)
    images = []
    real = constructions._graph_map
    monkeypatch.setattr(constructions, "_graph_map", lambda *a: images.append(a) or real(*a))
    theorem12_ccz_witness(ctx, 1)
    theorem12_ccz_witness(ctx, 1, ctx.generator)
    if m % 2:
        example1_witness(ctx, 1)
        for n in (n for n in range(1, m) if m % n == 0):
            theorem4(ctx, n, 1)
    if m % 6 == 0:
        theorem3(ctx, 1)
    assert len(images) >= 2
    transposes = []
    real_transpose = ccz._transpose_bits
    monkeypatch.setattr(ccz, "_transpose_bits", lambda *a: transposes.append(a) or real_transpose(*a))
    gold = FuncTable(ctx, constructions._gold_powers(ctx, 1)[1])
    for x_images, y_images in images:
        L = real(x_images, y_images)
        transposes.clear()
        graph_image(L, gold)
        assert not transposes  # the kept columns, not a transpose of the rows
        cols = L.columns
        assert L.rows == tuple(real_transpose(list(cols), L.n_in))
        assert list(cols) == real_transpose(list(L.rows), L.n_in)
        twin = BinLinearMap(L.n_in, L.n_out, L.rows)
        assert twin == L and hash(twin) == hash(L) and len({twin, L}) == 1
        copy = pickle.loads(pickle.dumps(L))
        assert copy == L and hash(copy) == hash(L) and not copy._tables
        assert copy.columns == twin.columns == cols


def _flip_one_correction_bit(monkeypatch, column: int, bit: int) -> None:
    """Make the graph-map helper flip one bit of one packed image of C."""
    real = constructions._graph_map

    def flipped(x_images, y_images):
        images = x_images + y_images
        images[column] ^= 1 << bit
        return real(images[:len(x_images)], images[len(x_images):])

    monkeypatch.setattr(constructions, "_graph_map", flipped)


@pytest.mark.parametrize(
    ("m", "build"),
    [
        (6, lambda: theorem3(Field(6), 1)),
        (5, lambda: theorem4(Field(5), 1, 2)),
        (9, lambda: theorem4(Field(9), 3, 1)),
        (5, lambda: theorem12_ccz_witness(Field(5), 1, 3)),
        (6, lambda: theorem12_ccz_witness(Field(6), 1, 3)),
        (5, lambda: example1_witness(Field(5), 1)),
    ],
    ids=["thm3", "thm4-n1", "thm4-n3", "witness-odd", "witness-even", "example1"],
)
def test_flipping_one_correction_bit_changes_the_family(monkeypatch, m, build):
    # every bit of every column of C: the table (or the witness) changes, or
    # the build raises (singular map, no graph, a failed identity)
    want = build()
    for column in range(2 * m):
        for bit in range(2 * m):
            with monkeypatch.context() as patch:
                _flip_one_correction_bit(patch, column, bit)
                try:
                    got = build()
                except (ValueError, RuntimeError):
                    continue
            assert got != want, (column, bit)


@pytest.mark.parametrize("m", [5, 6])
def test_witness_rejects_a_graph_map_that_is_not_an_involution(monkeypatch, m):
    # flipping bit 1 of C(1, 0) keeps L invertible but L o L != I
    _flip_one_correction_bit(monkeypatch, 0, 1)
    with pytest.raises(RuntimeError, match="^graph-side map is not an involution$"):
        theorem12_ccz_witness(Field(m), 1, 3)


@pytest.mark.parametrize("m", range(2, 11))
def test_gold_powers_match_scalar_powers(m):
    # log x^(2^i) is log x rotated by i bits, i = m included
    ctx = Field(m)
    for i in range(1, m + 1):
        frobenius, gold = constructions._gold_powers(ctx, i)
        assert frobenius.tolist() == [ctx.pow(x, 1 << i) for x in range(ctx.size)]
        assert gold.tolist() == [ctx.pow(x, (1 << i) + 1) for x in range(ctx.size)]


def _non_involution_flip(L: BinLinearMap) -> tuple[int, int]:
    """(column k, bit r) of a flip that leaves L = I + c u^T invertible but
    no involution: with u_r = 1 and c_k = 0, k != r, the flipped map L'
    has L'^2 = I + c e_k^T, which is invertible and not I."""
    C = [col ^ (1 << k) for k, col in enumerate(L.columns)]  # column k is c u_k
    c = next(col for col in C if col)
    r = next(r for r, col in enumerate(C) if col)
    return next(k for k in range(L.n_in) if k != r and not c >> k & 1), r


def _corrupt_first_projection(monkeypatch) -> None:
    """Make the witness's graph image flip one entry of its F1 table."""
    real = constructions.graph_image

    def corrupted(L, f):
        w = real(L, f)
        f1 = w.F1.as_array().copy()
        f1[3] ^= 1
        return ccz.CczWitness(w.L, FuncTable(w.F1.ctx, f1), w.F2)

    monkeypatch.setattr(constructions, "graph_image", corrupted)


@pytest.mark.parametrize("m, i", [(5, 1), (7, 3), (6, 1), (8, 3)])
def test_shared_witness_tables_still_check_every_identity_at_every_point(monkeypatch, m, i):
    # the closed form and the Gold table are built once and shared by all
    # points; each point still fails on a corrupted closed form, F1 or L
    ctx = Field(m)
    tables = constructions._theorem1_tables if m % 2 else constructions._theorem2_tables
    base, gold = tables(ctx, i)
    assert base == (theorem1 if m % 2 else theorem2)(ctx, i)
    assert gold == monomial(ctx, (1 << i) + 1)
    wrong = base.as_array().copy()
    wrong[5] ^= 1
    wrong = FuncTable(ctx, wrong)
    for a in (1, ctx.generator, random.Random(m).randrange(2, ctx.size)):
        w = constructions._theorem12_witness(base, gold, i, a)
        assert w == theorem12_ccz_witness(ctx, i, a)
        with pytest.raises(RuntimeError, match="^scaling identity failed$"):
            constructions._theorem12_witness(wrong, gold, i, a)
        with monkeypatch.context() as patch:
            _corrupt_first_projection(patch)
            with pytest.raises(RuntimeError, match="^first projection is not an involution$"):
                constructions._theorem12_witness(base, gold, i, a)
        with monkeypatch.context() as patch:
            _flip_one_correction_bit(patch, *_non_involution_flip(w.L))
            with pytest.raises(RuntimeError, match="^graph-side map is not an involution$"):
                constructions._theorem12_witness(base, gold, i, a)


def test_witness_odd_field_identities_at_unit():
    ctx = Field(5)
    w = theorem12_ccz_witness(ctx, 1, 1)
    assert map_invertible(w.L)
    assert _is_involution(w.L)
    assert compose(w.F1, w.F1) == monomial(ctx, 1)
    assert ccz_transform(w.L, monomial(ctx, 3)) == theorem1(ctx, 1)


def test_witness_projections_match_proof_formulas():
    ctx = Field(5)
    a, i, e = 19, 2, 5
    w = theorem12_ccz_witness(ctx, i, a)
    ainv = ctx.inv(a)
    ae = ctx.pow(a, e)
    aeinv = ctx.inv(ae)
    for x in range(32):
        xe = ctx.pow(x, e)
        g1 = ctx.trace(ctx.mul(ainv, x))
        g2 = ctx.trace(ctx.mul(aeinv, xe))
        assert w.F1.as_array()[x] == x ^ (a if g1 else 0) ^ (a if g2 else 0)
        assert w.F2.as_array()[x] == xe ^ (ae if g2 else 0) ^ (ae if g1 else 0)


def test_witness_odd_field_scaling_identity_for_random_a():
    ctx = Field(7)
    rng = random.Random(11)
    f = theorem1(ctx, 1)
    for _ in range(6):
        a = rng.randrange(1, ctx.size)
        w = theorem12_ccz_witness(ctx, 1, a)
        assert compose(w.F1, w.F1) == monomial(ctx, 1)
        lhs = compose(w.F2, invert(w.F1))
        ae = ctx.pow(a, 3)
        ainv = ctx.inv(a)
        rhs = FuncTable(
            ctx,
            [ctx.mul(ae, int(f.as_array()[ctx.mul(x, ainv)])) for x in range(ctx.size)],
        )
        assert lhs == rhs


def test_witness_even_field_identities():
    ctx = Field(6)
    w = theorem12_ccz_witness(ctx, 1, ctx.generator)
    assert w.F2 == monomial(ctx, 3)
    assert _is_involution(w.L)
    assert compose(w.F1, w.F1) == monomial(ctx, 1)

    unit = theorem12_ccz_witness(ctx, 1, 1)
    assert ccz_transform(unit.L, monomial(ctx, 3)) == theorem2(ctx, 1)


def test_witness_tables_are_the_graph_projections():
    ctx = Field(5)
    w = theorem12_ccz_witness(ctx, 2, 7)
    again = graph_image(w.L, monomial(ctx, 5))
    assert again.F1 == w.F1
    assert again.F2 == w.F2


def test_witness_power_expansion_identity():
    # (x + a tr(x/a) + a tr((x/a)^e))^e folds back to x^e plus a gated
    # quadratic in a -- the pivot of the odd-degree proof
    ctx = Field(5)
    e = 3
    rng = random.Random(3)
    for a in [1, 5, rng.randrange(1, 32)]:
        for x in range(32):
            z = ctx.mul(x, ctx.inv(a))
            g1 = ctx.trace(z)
            g2 = ctx.trace(ctx.pow(z, e))
            lhs = ctx.pow(x ^ (a if g1 else 0) ^ (a if g2 else 0), e)
            rhs = ctx.pow(x, e)
            if g1 ^ g2:
                rhs ^= (
                    ctx.mul(a, ctx.mul(x, x))
                    ^ ctx.mul(ctx.mul(a, a), x)
                    ^ ctx.pow(a, e)
                )
            assert lhs == rhs


def test_witness_rejects_bad_parameters():
    with pytest.raises(ZeroElementError):
        theorem12_ccz_witness(Field(5), 1, 0)
    with pytest.raises(ValueError, match="outside the field"):
        theorem12_ccz_witness(Field(5), 1, 32)
    # the parity of m picks theorem1 (odd m > 3) or theorem2 (even m >= 4)
    with pytest.raises(ConditionViolatedError, match="m > 3"):
        theorem12_ccz_witness(Field(3), 1, 1)
    with pytest.raises(ConditionViolatedError, match="m >= 4"):
        theorem12_ccz_witness(Field(2), 1, 1)
    with pytest.raises(GcdViolationError):
        theorem12_ccz_witness(Field(9), 3, 1)
    with pytest.raises(GcdViolationError):
        theorem12_ccz_witness(Field(6), 2, 1)


def _mixing_rows(ctx: Field, exps) -> list:
    """Expected doubled-space rows for the inverse-family mixing map."""
    m = ctx.m
    tmask = sum(ctx.trace(1 << k) << k for k in range(m))
    rows = []
    for r in range(m):
        ymask = 0
        for k in range(m):
            img = 0
            for e in exps:
                img ^= ctx.pow(1 << k, e)
            if (img >> r) & 1:
                ymask |= 1 << k
        rows.append((1 << r) ^ (tmask if r == 0 else 0) ^ (ymask << m))
    for r in range(m):
        rows.append((1 << (m + r)) ^ (tmask if r == 0 else 0))
    return rows


def test_example1_witness_matches_published_map_m5():
    ctx = Field(5)
    w = example1_witness(ctx, 1)
    assert list(w.L.rows) == _mixing_rows(ctx, (1, 4, 16))
    assert map_invertible(w.L)
    assert is_permutation(w.F1)


def test_example1_witness_matches_published_map_m7():
    ctx = Field(7)
    w = example1_witness(ctx, 1)
    assert list(w.L.rows) == _mixing_rows(ctx, (2, 8, 32))
    assert is_permutation(w.F1)


def test_example1_first_projection_formula():
    ctx = Field(5)
    w = example1_witness(ctx, 1)
    for x in range(32):
        cube = ctx.pow(x, 3)
        lval = cube ^ ctx.pow(cube, 4) ^ ctx.pow(cube, 16)
        assert w.F1.as_array()[x] == x ^ ctx.trace(x) ^ lval


def test_example1_explicit_sum_inverts_to_the_three_term_map():
    # pure field identity: (y + y^4 + y^16) fed through x + x^2 + tr(x)
    # comes back to y
    ctx = Field(5)
    for y in range(32):
        lv = y ^ ctx.pow(y, 4) ^ ctx.pow(y, 16)
        assert lv ^ ctx.mul(lv, lv) ^ ctx.trace(lv) == y


@pytest.mark.parametrize("m, i", [(5, 2), (7, 3)])
def test_example1_generalized_mixing_block_inverts_cleanly(m, i):
    ctx = Field(m)
    w = example1_witness(ctx, i)
    for y in range(ctx.size):
        image = w.L.apply(y << m)
        assert image >> m == y
        lx = image & (ctx.size - 1)
        assert lx ^ ctx.pow(lx, 1 << i) ^ ctx.trace(lx) == y
    assert is_permutation(w.F1)


def test_example1_transform_shares_spectra_with_inverted_gold():
    ctx = Field(5)
    w = example1_witness(ctx, 1)
    fprime = ccz_transform(w.L, monomial(ctx, 3))
    gi = invert(monomial(ctx, 3))
    assert walsh_spectrum(fprime).distribution == walsh_spectrum(gi).distribution
    assert (
        differential_spectrum(fprime).distribution
        == differential_spectrum(gi).distribution
    )
    assert algebraic_degree(fprime) == algebraic_degree(gi)

    d = ctx.inverse_exponent(3)

    def linv(z: int) -> int:
        return z ^ ctx.mul(z, z) ^ ctx.trace(z)

    for x in range(32):
        w1 = linv(x ^ 1)
        assert fprime.as_array()[x] == w1 ^ linv(ctx.pow(w1, d))


def test_example1_rejects_bad_parameters():
    with pytest.raises(ParityViolatedError):
        example1_witness(Field(4), 1)
    with pytest.raises(GcdViolationError):
        example1_witness(Field(5), 5)


# ------------------------------------------------------ basis independence

def test_theorem1_spectra_are_basis_independent():
    assert is_irreducible(41)
    fa = theorem1(Field(5, 37), 1)
    fb = theorem1(Field(5, 41), 1)
    assert walsh_spectrum(fa).distribution == walsh_spectrum(fb).distribution
    assert (
        differential_spectrum(fa).distribution
        == differential_spectrum(fb).distribution
    )


def test_theorem2_spectra_are_basis_independent():
    assert is_irreducible(91)
    fa = theorem2(Field(6, 67), 1)
    fb = theorem2(Field(6, 91), 1)
    assert walsh_spectrum(fa).distribution == walsh_spectrum(fb).distribution
    assert (
        differential_spectrum(fa).distribution
        == differential_spectrum(fb).distribution
    )

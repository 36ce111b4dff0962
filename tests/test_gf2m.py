"""Field arithmetic tests for GF(2^m).

The small-field cases are checked against hand-computed tables and an
independent schoolbook multiply-then-reduce oracle, so the fast paths in
the library never get to grade their own homework.
"""

import json
import random

import pytest

from vbfkit.gf2m import Field, default_poly, is_irreducible


# ---------------------------------------------------------------- oracles

def _poly_mul_oracle(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[x] polynomials, no reduction."""
    r = 0
    shift = 0
    while b:
        if b & 1:
            r ^= a << shift
        b >>= 1
        shift += 1
    return r


def _poly_mod_oracle(a: int, p: int) -> int:
    dp = p.bit_length()
    while a.bit_length() >= dp:
        a ^= p << (a.bit_length() - dp)
    return a


def _mul_oracle(x: int, y: int, p: int) -> int:
    return _poly_mod_oracle(_poly_mul_oracle(x, y), p)


def _is_irreducible_oracle(p: int) -> bool:
    """Trial division by every polynomial of degree 1..deg(p)//2."""
    m = p.bit_length() - 1
    for q in range(2, 1 << (m // 2 + 1)):
        if q.bit_length() - 1 >= 1 and _poly_mod_oracle(p, q) == 0:
            return False
    return True


# ---------------------------------------------------------------- construction

def test_gf4_multiplication_table_by_hand():
    # x^2 + x + 1; elements 0, 1, x=2, x+1=3.  x*x = x+1, x*(x+1) = 1.
    f = Field(2)
    assert f.poly == 0b111
    expected = [
        [0, 0, 0, 0],
        [0, 1, 2, 3],
        [0, 2, 3, 1],
        [0, 3, 1, 2],
    ]
    for x in range(4):
        for y in range(4):
            assert f.mul(x, y) == expected[x][y]


def test_mul_matches_schoolbook_oracle_exhaustive_small():
    for m in (3, 4, 5):
        f = Field(m)
        for x in range(1 << m):
            for y in range(1 << m):
                assert f.mul(x, y) == _mul_oracle(x, y, f.poly)


def test_field_axioms_exhaustive_gf8_gf16():
    for m in (3, 4):
        f = Field(m)
        n = 1 << m
        for x in range(n):
            for y in range(n):
                assert f.mul(x, y) == f.mul(y, x)
                for z in range(n):
                    assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
                    assert f.mul(x, y ^ z) == f.mul(x, y) ^ f.mul(x, z)


def test_default_polys_are_lowest_irreducible():
    for m in range(2, 12):
        p = default_poly(m)
        assert p.bit_length() - 1 == m
        assert _is_irreducible_oracle(p)
        for q in range(1 << m, p):
            assert not (q.bit_length() - 1 == m and _is_irreducible_oracle(q))


def test_default_poly_m5_is_x5_x2_1():
    assert default_poly(5) == 0b100101


def test_reducible_poly_rejected():
    with pytest.raises(ValueError):
        Field(4, poly=0b10101)  # x^4+x^2+1 = (x^2+x+1)^2
    with pytest.raises(ValueError):
        Field(3, poly=0b1111)  # x^3+x^2+x+1 has the root 1


def test_is_irreducible_agrees_with_trial_division():
    for p in range(1 << 2, 1 << 9):
        if p.bit_length() - 1 >= 2:
            assert is_irreducible(p) == _is_irreducible_oracle(p)


def test_alternate_poly_accepted():
    f = Field(5, poly=0b101001)  # x^5+x^3+1
    assert f.mul(2, 2) == 4
    # x^5 = x^3+1 under this modulus
    assert f.mul(4, 8) == 0b01001


def test_degree_bounds():
    with pytest.raises(ValueError):
        Field(1)
    with pytest.raises(ValueError):
        Field(33)
    with pytest.raises(ValueError):
        Field(4, poly=0b100101)  # degree 5 poly for m=4


def test_poly_table_env_override(tmp_path, monkeypatch):
    table = tmp_path / "polys.json"
    table.write_text(json.dumps({"5": "0x29"}))
    monkeypatch.setenv("VBF_DEFAULT_POLY_TABLE", str(table))
    assert default_poly(5) == 0x29
    assert Field(5).poly == 0x29
    # entries absent from the table fall back to the built-in rule
    assert default_poly(4) == 0b10011


@pytest.mark.parametrize("entry", [[1], "x^5+x^2+1", {"poly": 41}])
def test_poly_table_rejects_malformed_entry(tmp_path, monkeypatch, entry):
    table = tmp_path / "polys.json"
    table.write_text(json.dumps({"5": entry}))
    monkeypatch.setenv("VBF_DEFAULT_POLY_TABLE", str(table))
    with pytest.raises(ValueError, match="degree 5"):
        default_poly(5)


def test_poly_table_must_be_an_object(tmp_path, monkeypatch):
    table = tmp_path / "polys.json"
    table.write_text(json.dumps([41]))
    monkeypatch.setenv("VBF_DEFAULT_POLY_TABLE", str(table))
    with pytest.raises(ValueError, match="JSON object"):
        default_poly(5)


def test_poly_table_same_size_rewrite_is_seen(tmp_path, monkeypatch):
    # the file is read on every call, so a rewrite of the same length
    # within one mtime tick still takes effect
    table = tmp_path / "polys.json"
    monkeypatch.setenv("VBF_DEFAULT_POLY_TABLE", str(table))
    table.write_text(json.dumps({"5": 41}))
    assert default_poly(5) == 41
    table.write_text(json.dumps({"5": 59}))
    assert default_poly(5) == 59
    assert Field(5).poly == 59


# ---------------------------------------------------------------- mul/pow/inv

def test_generator_has_full_order_gf8():
    f = Field(3)
    g = f.generator
    seen = set()
    x = 1
    for _ in range(7):
        x = f.mul(x, g)
        seen.add(x)
    assert len(seen) == 7 and x == 1


def test_inverse_is_pow_14_in_gf16():
    f = Field(4)
    for x in range(1, 16):
        xi = f.inv(x)
        assert xi == f.pow(x, 14)
        assert f.mul(x, xi) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_pow_edge_cases():
    f = Field(5)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 7) == 0
    assert f.pow(13, 0) == 1
    assert f.pow(1, 10**9) == 1
    # x^(2^m - 1) = 1 on nonzero elements
    for x in range(1, 32):
        assert f.pow(x, 31) == 1


def test_pow_is_repeated_mul():
    f = Field(6)
    rng = random.Random(7)
    for _ in range(50):
        x = rng.randrange(1, 64)
        e = rng.randrange(0, 200)
        acc = 1
        for _ in range(e):
            acc = f.mul(acc, x)
        assert f.pow(x, e) == acc


def test_pow_exponent_additivity():
    f = Field(7)
    rng = random.Random(11)
    for _ in range(100):
        x = rng.randrange(1, 128)
        e1 = rng.randrange(0, 1000)
        e2 = rng.randrange(0, 1000)
        assert f.mul(f.pow(x, e1), f.pow(x, e2)) == f.pow(x, e1 + e2)


# ---------------------------------------------------------------- traces

def test_trace_is_binary_linear_and_balanced():
    for m in range(2, 11):
        f = Field(m)
        n = 1 << m
        ones = sum(f.trace(x) for x in range(n))
        assert ones == n // 2
        rng = random.Random(m)
        for _ in range(50):
            x, y = rng.randrange(n), rng.randrange(n)
            assert f.trace(x ^ y) == f.trace(x) ^ f.trace(y)
            assert f.trace(f.mul(x, x)) == f.trace(x)
        assert set(f.trace(x) for x in range(n)) == {0, 1}


def test_trace_of_one_depends_on_parity():
    assert Field(5).trace(1) == 1
    assert Field(7).trace(1) == 1
    assert Field(4).trace(1) == 0
    assert Field(6).trace(1) == 0


def test_relative_trace_lands_in_subfield():
    f = Field(6)
    for n in (1, 2, 3):
        for x in range(64):
            y = f.subfield_trace(x, n)
            assert f.pow(y, 1 << n) == y  # fixed by the n-th Frobenius power


def test_relative_trace_tower_property():
    # composing the 64->8 trace with the 8->2 trace gives the absolute trace
    f = Field(6)
    for x in range(64):
        y = f.subfield_trace(x, 3)
        t = y ^ f.mul(y, y) ^ f.pow(y, 4)  # absolute trace formula on F_8
        assert t in (0, 1)
        assert t == f.trace(x)


def test_relative_trace_is_subfield_linear():
    f = Field(6)
    n = 2
    subfield = [c for c in range(64) if f.pow(c, 1 << n) == c]
    assert len(subfield) == 1 << n
    rng = random.Random(3)
    for c in subfield:
        for _ in range(20):
            x = rng.randrange(64)
            assert f.subfield_trace(f.mul(c, x), n) == f.mul(c, f.subfield_trace(x, n))


def test_relative_trace_to_full_field_is_identity():
    f = Field(6)
    for x in range(64):
        assert f.subfield_trace(x, 6) == x
        assert f.subfield_trace(x, 1) == f.trace(x)


def test_relative_trace_rejects_non_divisor():
    f = Field(6)
    with pytest.raises(ValueError):
        f.subfield_trace(5, 4)


# ---------------------------------------------------------------- exponent arithmetic

def test_inverse_exponent_frozen_case():
    f = Field(5)
    assert f.inverse_exponent(3) == 21
    assert (3 * 21) % 31 == 1


def test_inverse_exponent_closed_form_for_quadratic_exponents():
    # for odd m and gcd(i, m)=1 the inverse of 2^i+1 is sum(2^(2ik)) over k
    for m, i in ((5, 1), (5, 2), (7, 1), (7, 3), (9, 2)):
        f = Field(m)
        d = f.inverse_exponent((1 << i) + 1)
        closed = sum(1 << (2 * i * k) for k in range((m - 1) // 2 + 1))
        assert d == closed % ((1 << m) - 1)


def test_inverse_exponent_undoes_power_map():
    f = Field(6)
    rng = random.Random(5)
    for _ in range(30):
        e = rng.randrange(1, 63)
        try:
            d = f.inverse_exponent(e)
        except ValueError:
            continue
        for x in range(64):
            assert f.pow(f.pow(x, e), d) == x


def test_inverse_exponent_rejects_shared_factor():
    with pytest.raises(ValueError):
        Field(4).inverse_exponent(3)  # gcd(3, 15) = 3
    assert Field(4).inverse_exponent(1) == 1


# ---------------------------------------------------------------- vectorized helpers

def test_vectorized_mul_and_pow_match_scalar():
    np = pytest.importorskip("numpy")
    for m in (4, 6):
        f = Field(m)
        n = 1 << m
        rng = np.random.default_rng(1)
        a = rng.integers(0, n, size=200)
        b = rng.integers(0, n, size=200)
        got = f.mul_many(a, b)
        for k in range(200):
            assert int(got[k]) == f.mul(int(a[k]), int(b[k]))
        for e in (0, 1, 3, 14, n - 2):
            gp = f.pow_many(np.arange(n), e)
            for x in range(n):
                assert int(gp[x]) == f.pow(x, e)


def test_trace_table_matches_scalar():
    import numpy as np

    f = Field(7)
    tab = f.trace_table()
    assert tab.shape == (128,)
    for x in range(128):
        assert int(tab[x]) == f.trace(x)
    assert int(np.sum(tab)) == 64


def test_field_equality_and_repr():
    assert Field(4) == Field(4)
    assert Field(4) != Field(4, poly=0b11001)
    assert "m=4" in repr(Field(4))

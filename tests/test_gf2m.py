"""Field arithmetic tests for GF(2^m).

The small-field cases are checked against hand-computed tables and an
independent schoolbook multiply-then-reduce oracle, so the fast paths in
the library never get to grade their own homework.
"""

import json
import random
import signal
from contextlib import contextmanager

import numpy as np
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


@contextmanager
def _hang_guard(what: str, seconds: int = 10):
    """Turn a hang in the body into a TimeoutError after ``seconds``."""
    def hang(signum, frame):
        raise TimeoutError(what)

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_negative_poly_rejected_at_once():
    # -37 has the bit length of a degree-5 polynomial, and reducing by it
    # never ends; the alarm turns a hang into a failure
    with _hang_guard("negative polynomial not rejected"):
        for p in (-37, -25, -1, -(1 << 5)):
            assert not is_irreducible(p)
        with pytest.raises(ValueError, match=r"-0x25 does not have degree 5"):
            Field(5, -37)


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


@pytest.mark.parametrize("entry", [-37, "-0x25"])
def test_poly_table_negative_entry_rejected(tmp_path, monkeypatch, entry):
    table = tmp_path / "polys.json"
    table.write_text(json.dumps({"5": entry}))
    monkeypatch.setenv("VBF_DEFAULT_POLY_TABLE", str(table))
    with pytest.raises(ValueError, match="does not have degree 5"):
        Field(5)


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


@pytest.mark.parametrize("m, poly", [(4, None), (4, 0x1F), (6, None), (6, 0x49), (7, None)])
def test_is_primitive_matches_multiplicative_order(m, poly):
    f = Field(m, poly)
    assert not f.is_primitive(0)
    for x in range(1, f.size):
        order, y = 1, x
        while y != 1:
            y = f.mul(y, x)
            order += 1
        assert f.is_primitive(x) == (order == f.order)


def _logexp_oracle(f: Field) -> tuple[list[int], list[int]]:
    """log and exp tables by one scalar multiplication per power of the generator."""
    exp, log = [], [0] * f.size
    acc = 1
    for k in range(f.order):
        exp.append(acc)
        log[acc] = k
        acc = f.mul(acc, f.generator)
    return log, exp


# 0x1f, 0x49 and 0x11b are irreducible but not primitive: x is no generator
@pytest.mark.parametrize(
    "m, poly", [(m, None) for m in range(2, 17)] + [(4, 0x1F), (6, 0x49), (8, 0x11B)]
)
def test_logexp_tables_match_scalar_powers(m, poly):
    f = Field(m, poly)
    if poly is not None:
        assert f.generator != 2
    log, exp = f._logexp()
    want_log, want_exp = _logexp_oracle(f)
    assert exp.dtype == np.uint32 and log.dtype == np.int64
    # two periods, so a sum of two logs needs no reduction, then a zero tail
    # for sums with the log of 0
    assert exp.tolist() == want_exp * 2 + [0] * (2 * f.order + 1)
    assert log[0] == 2 * f.order
    assert log[1:].tolist() == want_log[1:]


def test_scale_table_matches_scalar_mul():
    for m, poly in ((5, None), (8, 0x11B)):
        f = Field(m, poly)
        for c in (0, 1, 2, f.generator, f.size - 1):
            assert f.scale_table(c).tolist() == [f.mul(c, x) for x in range(f.size)]


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


@pytest.mark.parametrize("m, poly", [(2, None), (5, None), (5, 0b101001), (6, None), (8, 0x11d), (12, None)])
def test_trace_mask_gives_trace_of_scaled_element(m, poly):
    f = Field(m, poly)
    rng = random.Random(m)
    for c in {0, 1, f.size - 1, *(rng.randrange(f.size) for _ in range(6))}:
        mask = f.trace_mask(c)
        assert 0 <= mask < f.size
        for x in rng.sample(range(f.size), min(f.size, 64)):
            assert (mask & x).bit_count() & 1 == f.trace(f.mul(c, x))
    assert f.trace_mask(0) == 0
    for c in (-1, f.size):
        with pytest.raises(ValueError, match="outside the field"):
            f.trace_mask(c)


@pytest.mark.parametrize("m", range(2, 11))
def test_dual_reindex_entries_are_the_trace_masks(m):
    # the graph witnesses read the mask of x -> tr(cx) from the dual index map
    from vbfkit.gf2m import _dual_reindex

    f = Field(m)
    assert _dual_reindex(f).tolist() == [f.trace_mask(c) for c in range(f.size)]


@pytest.mark.parametrize("m, poly", [(2, None), (6, None), (6, 0b1011011), (9, None), (12, None)])
def test_subfield_trace_many_matches_scalar(m, poly):
    f = Field(m, poly)
    xs = np.arange(f.size)
    for n in (n for n in range(1, m + 1) if m % n == 0):
        got = f.subfield_trace_many(xs, n)
        assert got.dtype == np.uint32
        assert got.tolist() == [f.subfield_trace(x, n) for x in range(f.size)]
        assert int(f.subfield_trace_many(np.int64(f.size - 1), n)) == f.subfield_trace(f.size - 1, n)
    with pytest.raises(ValueError, match="does not divide"):
        f.subfield_trace_many(xs, m + 1)
    with pytest.raises(ValueError, match="does not divide"):
        f.subfield_trace_many(xs, 0)


_SCALAR_METHODS = {
    "mul-left": lambda f, x: f.mul(x, 3),
    "mul-right": lambda f, x: f.mul(3, x),
    "pow": lambda f, x: f.pow(x, 3),
    "pow-zero-exponent": lambda f, x: f.pow(x, 0),
    "inv": lambda f, x: f.inv(x),
    "trace": lambda f, x: f.trace(x),
    "subfield_trace": lambda f, x: f.subfield_trace(x, 1),
    "is_primitive": lambda f, x: f.is_primitive(x),
    "scale_table": lambda f, x: f.scale_table(x),
}

_ARRAY_METHODS = {
    "mul_many-left": lambda f, xs: f.mul_many(xs, np.full(len(xs), 3)),
    "mul_many-right": lambda f, xs: f.mul_many(np.full(len(xs), 3), xs),
    "pow_many": lambda f, xs: f.pow_many(xs, 3),
    "pow_many-zero-exponent": lambda f, xs: f.pow_many(xs, 0),
    "inv_many": lambda f, xs: f.inv_many(xs),
    "subfield_trace_many": lambda f, xs: f.subfield_trace_many(xs, 1),
}


@pytest.mark.parametrize("method", list(_SCALAR_METHODS))
@pytest.mark.parametrize("m", [2, 5, 8])
def test_scalar_arithmetic_rejects_elements_outside_the_field(method, m):
    f = Field(m)
    call = _SCALAR_METHODS[method]
    for bad in (-1, f.size, 40 + f.size):
        # shifting a negative multiplier right never reaches 0, so an
        # unchecked mul(3, -1) hangs; the alarm turns that into a failure
        with _hang_guard(f"element {bad} not rejected"), pytest.raises(
            ValueError, match=f"element {bad} outside the field"
        ):
            call(f, bad)
    for good in (1, f.size - 1):  # the edges of the range still pass
        call(f, good)


@pytest.mark.parametrize("method", list(_ARRAY_METHODS))
@pytest.mark.parametrize("m", [2, 5, 8])
def test_array_arithmetic_rejects_entries_outside_the_field(method, m):
    f = Field(m)
    call = _ARRAY_METHODS[method]
    for bad in (-1, f.size):
        xs = np.array([1, f.size - 1, bad, 0])
        with pytest.raises(ValueError, match=f"element {bad} outside the field"):
            call(f, xs)
        with pytest.raises(ValueError, match=f"element {bad} outside the field"):
            call(f, [bad])  # a list is checked as well as an array
    assert call(f, np.arange(f.size)).shape == (f.size,)


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
        grid = f.mul_many(np.arange(n)[:, None], np.arange(n, dtype=np.uint32)[None, :])
        assert grid.dtype == np.uint32
        assert grid.tolist() == [[f.mul(x, y) for y in range(n)] for x in range(n)]
        for got, want in ((f.mul_many(3, np.int64(5)), f.mul(3, 5)), (f.pow_many(3, 5), f.pow(3, 5))):
            assert isinstance(got, np.ndarray) and got.shape == () and int(got) == want
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


# ---------------------------------------------------------------- interning

def _every_field_table(f: Field) -> dict:
    """Build every table kept on f and return them by builder name."""
    from vbfkit.ccz import _linear_pieces
    from vbfkit.gf2m import _dual_inverse, _dual_reindex

    f.generator, f._basis_trace_mask(), f._logexp(), f.trace_table()
    _dual_reindex(f), _dual_inverse(f), _linear_pieces(f)
    return {build.__name__: value for build, value in f._tables.items()}


def test_field_is_one_instance_per_degree_and_poly():
    assert Field(7) is Field(7, default_poly(7)) is Field(m=7)
    assert Field(5) is not Field(5, 0x29)
    assert Field(5, 0x29) is Field(5, 0x29)


def test_field_survives_copy_and_pickle_as_the_same_instance():
    import copy
    import pickle

    f = Field(6, 0x49)
    assert copy.copy(f) is f and copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f


@pytest.mark.parametrize("m, poly", [(3, None), (8, 0x11B), (11, None)])
def test_every_kept_table_is_read_only(m, poly):
    tables = _every_field_table(Field(m, poly))
    arrays = [a for v in tables.values() for a in (v if isinstance(v, tuple) else (v,))
              if isinstance(a, np.ndarray)]
    assert len(arrays) == 8  # log, exp, trace, dual and its inverse, 3 linear pieces
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]
    # a builder's value is kept: the next call returns the same object
    assert Field(m, poly).trace_table() is tables["trace_table"]


def test_poly_table_selects_another_interned_field(tmp_path, monkeypatch):
    before = Field(5)
    table = tmp_path / "polys.json"
    table.write_text(json.dumps({"5": "0x29"}))
    monkeypatch.setenv("VBF_DEFAULT_POLY_TABLE", str(table))
    assert Field(5) is Field(5, 0x29) and Field(5).poly == 0x29
    monkeypatch.delenv("VBF_DEFAULT_POLY_TABLE")
    assert Field(5) is before and before.poly == 0x25


@pytest.mark.parametrize("m, bad", [(6, 0x41), (8, 0x101), (5, 0x13)])
def test_failed_field_is_never_kept(m, bad):
    # x^6 + 1 and x^8 + 1 are reducible; 0x13 has degree 4, not 5
    for _ in range(2):
        with pytest.raises(ValueError, match="reducible|does not have degree"):
            Field(m, bad)
        Field(m)  # a valid field of the same degree is interned in between
    with pytest.raises(ValueError, match="does not have degree"):
        Field(m, -bad)
    # an int-valued float finds no interned field
    with pytest.raises(TypeError):
        Field(float(m), Field(m).poly)


def _as_lists(value):
    """value with its arrays as lists, for comparison."""
    if isinstance(value, tuple):
        return tuple(_as_lists(v) for v in value)
    return value.tolist() if isinstance(value, np.ndarray) else value


def test_evicted_field_is_rebuilt_with_identical_tables():
    from vbfkit import gf2m

    polys = [p for p in range(257, 512, 2) if is_irreducible(p)]
    assert len(polys) > gf2m._FIELDS_KEPT
    first = Field(8, polys[0])
    want = {k: _as_lists(v) for k, v in _every_field_table(first).items()}
    for p in polys[1:gf2m._FIELDS_KEPT]:
        Field(8, p)
    assert Field(8, polys[0]) is first  # still among the last _FIELDS_KEPT used
    for p in polys[1:]:
        Field(8, p)
    rebuilt = Field(8, polys[0])
    assert rebuilt is not first and rebuilt == first
    got = _every_field_table(rebuilt)
    assert got.keys() == want.keys()
    for name, value in got.items():
        assert _as_lists(value) == want[name], name


def test_threads_asking_for_a_new_field_at_once_share_one_instance():
    import sys
    import threading

    from vbfkit import gf2m

    polys = [p for p in range(513, 1024, 2) if is_irreducible(p)]
    workers, rounds = 8, 40
    got: list[list] = [[] for _ in range(rounds)]
    errors: list = []
    # each round starts from an empty intern table, so every thread builds
    barrier = threading.Barrier(workers, action=gf2m._FIELDS.clear, timeout=30)

    def ask() -> None:
        try:
            for r in range(rounds):
                barrier.wait()
                f = Field(9, polys[r % len(polys)])
                got[r].append((f, f.trace_table()))
        except Exception as exc:  # a failure in a thread would otherwise be lost
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    for r, pairs in enumerate(got):
        assert len(pairs) == workers
        assert len({id(f) for f, _ in pairs}) == 1, f"round {r}: several instances"
        assert len({id(t) for _, t in pairs}) == 1, f"round {r}: several trace tables"


def test_warm_analyze_prints_the_bytes_of_a_fresh_process(tmp_path):
    import contextlib
    import io
    import subprocess
    import sys

    from vbfkit import gf2m
    from vbfkit.cli import lut_text, main
    from vbfkit.vbf import FuncTable

    rng = np.random.default_rng(9)
    lut = tmp_path / "random9.lut"
    lut.write_text(lut_text(FuncTable(Field(9), rng.integers(0, 512, size=512))))
    cases = [
        ["analyze", "--family", "gold", "--m", "9", "--i", "1"],
        ["analyze", "--family", "thm1", "--m", "9", "--i", "2"],
        ["analyze", str(lut)],
    ]
    for argv in cases:
        gf2m._FIELDS.clear()  # so the first run builds its field's tables
        fresh = subprocess.run(
            [sys.executable, "-m", "vbfkit.cli", *argv], capture_output=True, text=True, timeout=60
        )
        assert fresh.returncode == 0 and fresh.stderr == ""
        for _ in ("cold", "warm"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
            assert out.getvalue() == fresh.stdout

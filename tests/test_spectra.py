"""Walsh / differential spectra against naive double-loop oracles."""

import gc
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbfkit.constructions import theorem1
from vbfkit.gf2m import Field, _linear_table, is_irreducible
from vbfkit.spectra import (
    TooLargeError,
    _block_rows,
    _dual_reindex,
    _fwht_rows,
    _sign_rows,
    _symmetry_orbits,
    differential_spectrum,
    differential_uniformity,
    is_ab,
    is_apn,
    nonlinearity,
    walsh_spectrum,
    walsh_value,
)
from vbfkit.vbf import (
    FuncTable,
    UnivariatePoly,
    compose,
    evaluate,
    is_permutation,
    monomial,
    packed_anf,
)


def _random_table(f: Field, rng: random.Random) -> FuncTable:
    return FuncTable(f, [rng.randrange(f.size) for _ in range(f.size)])


def _walsh_matrix(tab: FuncTable) -> np.ndarray:
    """W[b-1, a] = walsh(a, b) in the trace convention of ``walsh_value``."""
    dual = _dual_reindex(tab.ctx)
    return _fwht_rows(_sign_rows(tab, dual[1:]))[:, dual]


def _diff_count_oracle(tab: FuncTable, a: int, b: int) -> int:
    vals = tab.as_array().tolist()
    return sum(1 for x in range(tab.ctx.size) if vals[x ^ a] ^ vals[x] == b)


# ---------------------------------------------------------------- walsh_value

def test_walsh_value_identity_characters():
    f = Field(4)
    ident = monomial(f, 1)
    for a in range(16):
        for b in range(16):
            expect = 16 if a == b else 0
            if b == 0:
                expect = 16 if a == 0 else 0
            assert walsh_value(ident, a, b) == expect


def test_walsh_value_b_zero_collapses():
    rng = random.Random(8)
    f = Field(5)
    tab = _random_table(f, rng)
    assert walsh_value(tab, 0, 0) == 32
    for a in range(1, 32):
        assert walsh_value(tab, a, 0) == 0


def test_cube_gf32_walsh_values_three_valued():
    f = Field(5)
    tab = monomial(f, 3)
    seen = set()
    for a in range(32):
        for b in range(1, 32):
            seen.add(walsh_value(tab, a, b))
    assert seen == {0, 8, -8}


# ---------------------------------------------------------------- fast spectrum

def test_fast_spectrum_matches_oracle_pointwise_exhaustive():
    rng = random.Random(10)
    for m in (3, 4):
        f = Field(m)
        n = 1 << m
        tab = _random_table(f, rng)
        mat = _walsh_matrix(tab)
        assert mat.shape == (n - 1, n)
        for b in range(1, n):
            for a in range(n):
                assert int(mat[b - 1, a]) == walsh_value(tab, a, b)


def test_fast_spectrum_matches_oracle_sampled_gf64():
    rng = random.Random(11)
    f = Field(6)
    tab = _random_table(f, rng)
    mat = _walsh_matrix(tab)
    for _ in range(60):
        a, b = rng.randrange(64), rng.randrange(1, 64)
        assert int(mat[b - 1, a]) == walsh_value(tab, a, b)


def _butterfly_oracle(mat: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along axis 1 by log2(n) int butterfly passes on a copy."""
    mat = mat.copy()
    rows, n = mat.shape
    h = 1
    while h < n:
        m3 = mat.reshape(rows, -1, 2, h)
        top = m3[:, :, 0, :].copy()
        bot = m3[:, :, 1, :]
        m3[:, :, 0, :] = top + bot
        m3[:, :, 1, :] = top - bot
        h *= 2
    return mat


def test_fwht_rows_matches_butterfly_oracle():
    rng = np.random.default_rng(21)
    # two factors below k = 12 and three from there on, each residue of k
    # mod 2 and mod 3, so every factor shape; fewer rows at large k
    for k in range(19):
        rows = (1 - 2 * rng.integers(0, 2, size=(max(1, min(7, (1 << 16) >> k)), 1 << k))).astype(np.int32)
        got = _fwht_rows(rows)
        assert got.dtype == np.int32
        assert np.array_equal(got, _butterfly_oracle(rows))


def test_fwht_rows_all_ones_row_is_exact():
    n = 1 << 14
    got = _fwht_rows(np.ones((1, n), dtype=np.int32))
    assert got[0, 0] == n
    assert not got[0, 1:].any()


def test_fwht_rows_refuses_rows_beyond_float32_exactness():
    with pytest.raises(TooLargeError):
        _fwht_rows(np.zeros((0, 1 << 25), dtype=np.int32))


def test_walsh_spectrum_multi_block_matches_butterfly_oracle():
    rng = np.random.default_rng(22)
    for m in (11, 12):  # more than one block of rows each
        n = 1 << m
        tab = FuncTable(Field(m), rng.integers(0, n, size=n))
        vals = tab.as_array()
        counts = np.zeros(2 * n + 1, dtype=np.int64)
        for start in range(1, n, 512):
            bs = np.arange(start, min(start + 512, n), dtype=np.uint32)
            signs = 1 - 2 * (np.bitwise_count(bs[:, None] & vals[None, :]) & 1).astype(np.int32)
            counts += np.bincount((_butterfly_oracle(signs) + n).ravel(), minlength=2 * n + 1)
        want = {int(v) - n: int(counts[v]) for v in np.flatnonzero(counts)}
        assert walsh_spectrum(tab).distribution == want


def test_identity_spectrum_distribution_gf8():
    spec = walsh_spectrum(monomial(Field(3), 1))
    assert spec.distribution == {8: 7, 0: 49}
    assert spec.max_abs == 8


def test_spectrum_distribution_counts_total():
    rng = random.Random(12)
    for m in (3, 5):
        tab = _random_table(Field(m), rng)
        spec = walsh_spectrum(tab)
        n = 1 << m
        assert sum(spec.distribution.values()) == n * (n - 1)
        assert all(v % 2 == 0 for v in spec.distribution)


def test_parseval_per_component():
    rng = random.Random(13)
    for m in (4, 5):
        f = Field(m)
        tab = _random_table(f, rng)
        mat = _walsh_matrix(tab).astype(np.int64)
        for row in mat:
            assert int(np.sum(row * row)) == 1 << (2 * m)


def test_balanced_components_iff_permutation():
    rng = random.Random(14)
    f = Field(4)
    perm = list(range(16))
    rng.shuffle(perm)
    for tab in (FuncTable(f, perm), _random_table(f, rng), monomial(f, 3)):
        mat = _walsh_matrix(tab)
        balanced = all(int(mat[b - 1, 0]) == 0 for b in range(1, 16))
        assert balanced == is_permutation(tab)


def test_spectrum_matches_under_alternate_reduction_poly():
    # same power map, two bases: multisets agree
    s1 = walsh_spectrum(monomial(Field(5), 3))
    s2 = walsh_spectrum(monomial(Field(5, poly=0b101001), 3))
    assert s1.distribution == s2.distribution


# ---------------------------------------------------------------- nonlinearity

def test_nonlinearity_of_affine_is_zero():
    f = Field(4)
    assert nonlinearity(evaluate(UnivariatePoly(f, {1: 7, 0: 3}))) == 0
    assert nonlinearity(FuncTable(f, [5] * 16)) == 0


def test_nonlinearity_cube_gf32():
    assert nonlinearity(monomial(Field(5), 3)) == 12


def test_nonlinearity_inverse_map_gf64():
    assert nonlinearity(monomial(Field(6), 62)) == 24


# ---------------------------------------------------------------- verdicts

def test_cube_is_ab_gf32():
    assert is_ab(monomial(Field(5), 3))


def test_inverse_map_not_ab_gf32():
    assert not is_ab(monomial(Field(5), 30))


def test_even_degree_never_ab():
    assert not is_ab(monomial(Field(4), 3))
    assert not is_ab(monomial(Field(6), 5))


def test_gold_maps_ab_for_coprime_index():
    for m, i in ((3, 1), (5, 1), (5, 2), (7, 1), (7, 2), (7, 3)):
        assert is_ab(monomial(Field(m), (1 << i) + 1))


def test_ab_implies_apn_on_gold_maps():
    for m in (3, 5, 7):
        tab = monomial(Field(m), 3)
        assert is_ab(tab) and is_apn(tab)


def test_cube_apn_gf16():
    assert is_apn(monomial(Field(4), 3))


def test_affine_not_apn():
    f = Field(4)
    assert not is_apn(evaluate(UnivariatePoly(f, {1: 1, 0: 9})))


def test_dobbertin_exponent_29_gf32_apn_not_ab():
    tab = monomial(Field(5), 29)
    assert is_apn(tab)
    assert not is_ab(tab)


def test_three_valued_kasami_like_wide_spectrum():
    # x^(2^3+1) on m=9: gcd(3,9)=3 and m/3 odd, support {0, +-2^6}
    tab = monomial(Field(9), 9)
    spec = walsh_spectrum(tab)
    assert set(spec.distribution) == {0, 64, -64}


# ---------------------------------------------------------------- differential

def test_differential_spectrum_matches_count_oracle():
    rng = random.Random(15)
    for m in (3, 4):
        f = Field(m)
        n = 1 << m
        tab = _random_table(f, rng)
        spec = differential_spectrum(tab)
        counts = {}
        for a in range(1, n):
            for b in range(n):
                c = _diff_count_oracle(tab, a, b)
                counts[c] = counts.get(c, 0) + 1
        assert spec.distribution == counts
        assert spec.max == max(c for c in counts if counts[c])


def test_differential_spectrum_of_linear_map():
    f = Field(4)
    tab = evaluate(UnivariatePoly(f, {2: 5, 1: 3}))
    spec = differential_spectrum(tab)
    # derivative in direction a is the constant L(a): one full fiber per row
    assert spec.distribution == {16: 15, 0: 15 * 15}
    assert spec.max == 16


def test_cube_gf32_differentially_two_uniform():
    spec = differential_spectrum(monomial(Field(5), 3))
    assert spec.max == 2
    assert differential_uniformity(monomial(Field(5), 3)) == 2


def test_inverse_map_gf64_differentially_four_uniform():
    assert differential_uniformity(monomial(Field(6), 62)) == 4


def test_differential_row_sums_and_evenness():
    rng = random.Random(16)
    for m in (3, 5):
        n = 1 << m
        tab = _random_table(Field(m), rng)
        spec = differential_spectrum(tab)
        assert all(v % 2 == 0 for v in spec.distribution)
        assert sum(v * c for v, c in spec.distribution.items()) == (n - 1) * n
        assert sum(spec.distribution.values()) == (n - 1) * n


# ---------------------------------------------------------------- EA invariance

def _abs_distribution(dist):
    out = {}
    for v, c in dist.items():
        out[abs(v)] = out.get(abs(v), 0) + c
    return out


def test_spectra_invariant_under_monomial_linear_maps():
    # homogeneous equivalence preserves the signed Walsh multiset exactly
    rng = random.Random(17)
    f = Field(5)
    base = monomial(f, 3)
    w0 = walsh_spectrum(base).distribution
    d0 = differential_spectrum(base).distribution
    for _ in range(5):
        a1, a2 = rng.randrange(1, 32), rng.randrange(1, 32)
        j1, j2 = rng.randrange(5), rng.randrange(5)
        outer = evaluate(UnivariatePoly(f, {1 << j1: a1}))
        inner = evaluate(UnivariatePoly(f, {1 << j2: a2}))
        g = compose(outer, compose(base, inner))
        assert walsh_spectrum(g).distribution == w0
        assert differential_spectrum(g).distribution == d0


def test_spectra_invariant_under_affine_shifts():
    # adding a constant flips walsh signs by a character factor, so the
    # absolute multiset (and everything derived from it) is the invariant
    rng = random.Random(18)
    f = Field(5)
    base = monomial(f, 3)
    w0 = _abs_distribution(walsh_spectrum(base).distribution)
    d0 = differential_spectrum(base).distribution
    for c in (1, 9, 30, rng.randrange(1, 32)):
        shifted = FuncTable(f, base.as_array() ^ c)
        spec = walsh_spectrum(shifted)
        assert _abs_distribution(spec.distribution) == w0
        assert differential_spectrum(shifted).distribution == d0
        assert nonlinearity(shifted, spec) == 12
        assert is_ab(shifted, spec)


# ---------------------------------------------------------------- symmetry orbits

def _all_rows_oracle(f: FuncTable) -> tuple[dict, dict]:
    """Walsh and differential distributions from every row: each dot-product
    sign row b != 0 and each direction a != 0, with no orbit reduction."""
    n = f.ctx.size
    block = max(1, (1 << 18) // n)
    counts = np.zeros(2 * n + 1, dtype=np.int64)
    for start in range(1, n, block):
        bs = np.arange(start, min(start + block, n), dtype=np.int64)
        mat = _fwht_rows(_sign_rows(f, bs))
        mat += n
        counts += np.bincount(mat.ravel(), minlength=2 * n + 1)
    walsh = {int(v) - n: int(counts[v]) for v in np.flatnonzero(counts)}
    return walsh, _difference_counts_oracle(f)


def _difference_counts_oracle(f: FuncTable) -> dict:
    """Fiber-size distribution over the full domain: for each direction
    a != 0 every x is counted, so each pair {x, x + a} is seen twice."""
    n = f.ctx.size
    vals = f.as_array()
    xs = np.arange(n, dtype=np.int64)
    hist = np.zeros(n + 1, dtype=np.int64)
    for a in range(1, n):
        hist += np.bincount(np.bincount(vals[xs ^ a] ^ vals, minlength=n), minlength=n + 1)
    return {int(v): int(hist[v]) for v in np.flatnonzero(hist)}


def _per_direction_oracle(f: FuncTable) -> dict:
    """Fiber-size distribution from one half-domain scan per orbit minimum
    a, each histogram counted once per orbit element: the scan that the
    blocked one replaced, kept as a second oracle."""
    n = f.ctx.size
    vals = f.as_array().astype(np.intp)
    xs = np.arange(n, dtype=np.intp)
    hist = np.zeros(n // 2 + 1, dtype=np.int64)
    reps, weights = _symmetry_orbits(f)[1]
    for a, w in zip(reps.tolist(), weights.tolist()):
        h = a.bit_length() - 1
        half = xs.reshape(-1, 2, 1 << h)[:, 0, :].ravel()
        hist += w * np.bincount(np.bincount(vals[half ^ a] ^ vals[half], minlength=n), minlength=n // 2 + 1)
    return {2 * int(c): int(hist[c]) for c in np.flatnonzero(hist)}


@pytest.mark.parametrize("m", range(2, 12))
def test_half_domain_difference_counts_match_full_domain_oracle(m):
    ctx = Field(m)
    n = ctx.size
    rng = np.random.default_rng(300 + m)
    linear = FuncTable(ctx, _linear_table(rng.integers(0, n, size=m).tolist()))
    cases = {
        "random": FuncTable(ctx, rng.integers(0, n, size=n)),
        "permutation": FuncTable(ctx, rng.permutation(n)),
        "constant": FuncTable(ctx, np.full(n, n - 1)),
        "linear": linear,
        "squaring-invariant": evaluate(UnivariatePoly(ctx, {e: 1 for e in (3, 5, n - 2) if e < n})),
    }
    for name, tab in cases.items():
        want = _difference_counts_oracle(tab)
        spec = differential_spectrum(tab)
        assert spec.distribution == want, name
        assert spec.max == max(want), name
    assert differential_spectrum(linear).max == n  # every derivative is constant
    assert not _is_fallback(cases["squaring-invariant"])
    assert _is_fallback(cases["permutation"])


def _runs(reps: np.ndarray, sizes: np.ndarray) -> list[tuple[int, int]]:
    """(length, orbit size) of each run of direction minima that share their
    top bit and their orbit size."""
    tops = np.frexp(reps.astype(float))[1]
    runs = {}
    for key in zip(tops.tolist(), sizes.tolist()):
        runs[key] = runs.get(key, 0) + 1
    return [(length, size) for (_, size), length in runs.items()]


@pytest.mark.parametrize("case", ["thm1-m11", "random-m10", "random-m11"])
def test_blocked_difference_counts_match_both_oracles(case):
    """Runs longer than a block, so a block boundary falls inside a run;
    thm1 (as a table, orbit sizes 11 and 1) also ends runs in partial
    blocks and changes the orbit size between runs."""
    kind, m = case.split("-m")
    ctx = Field(int(m))
    n = ctx.size
    if kind == "thm1":
        tab = FuncTable(ctx, theorem1(ctx, 1).as_array())
    else:
        tab = FuncTable(ctx, np.random.default_rng(400 + n).integers(0, n, size=n))
    block = _block_rows(n)
    runs = _runs(*_symmetry_orbits(tab)[1])
    assert max(length for length, _ in runs) > block
    if kind == "thm1":
        assert {size for _, size in runs} == {1, 11}
        assert any(length > block and length % block for length, _ in runs)
    spec = differential_spectrum(tab)
    assert spec.distribution == _difference_counts_oracle(tab) == _per_direction_oracle(tab)
    assert spec.max == max(spec.distribution)


def test_orbits_are_computed_once_per_table_and_read_only():
    ctx = Field(9)
    gold = monomial(ctx, 3, c=ctx.generator)  # F(gx) = g^3 F(x), with g^3 primitive
    rows, directions = _symmetry_orbits(gold)
    assert _symmetry_orbits(gold)[0] is rows
    # orbits are kept on their table, not looked up by its contents
    for got, want in zip(_symmetry_orbits(FuncTable(ctx, gold.as_array()))[0], rows):
        assert np.array_equal(got, want) and not got.flags.writeable
    assert directions[0].tolist() == [1]
    for arr in (*rows, *directions):
        assert not arr.flags.writeable
    other = monomial(ctx, 5)
    assert _symmetry_orbits(other)[0] is not rows


def test_a_dropped_table_frees_its_kept_orbits_and_anf():
    ctx = Field(9)
    f = FuncTable(ctx, theorem1(ctx, 1).as_array())  # commutes with squaring: 59 row orbits
    walsh_spectrum(f), differential_spectrum(f)
    orbits, anf = weakref.ref(_symmetry_orbits(f)[0][0]), weakref.ref(packed_anf(f))
    del f
    gc.collect()
    assert orbits() is None and anf() is None


def _assert_matches_all_rows(f: FuncTable) -> None:
    walsh, diff = _all_rows_oracle(f)
    wspec = walsh_spectrum(f)
    dspec = differential_spectrum(f)
    assert wspec.distribution == walsh
    assert wspec.max_abs == max(abs(v) for v in walsh)
    assert dspec.distribution == diff
    assert dspec.max == max(diff)


def _two_polys(m: int) -> list[int]:
    """The two lowest irreducible reduction polynomials of degree m (one for m = 2)."""
    return [p for p in range((1 << m) + 1, 1 << (m + 1), 2) if is_irreducible(p)][:2]


def _is_fallback(f: FuncTable) -> bool:
    everything = np.arange(1, f.ctx.size)
    for reps, sizes in _symmetry_orbits(f):
        if not np.array_equal(reps, everything) or (sizes - 1).any():
            return False
    return True


@st.composite
def orbit_cases(draw):
    m = draw(st.integers(2, 9))
    ctx = Field(m, draw(st.sampled_from(_two_polys(m))))
    n = ctx.size
    kind = draw(st.sampled_from(("gf2-poly", "random", "perturbed")))
    if kind == "random":
        seed = draw(st.integers(0, 2**32 - 1))
        return kind, FuncTable(ctx, np.random.default_rng(seed).integers(0, n, size=n))
    exps = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=5))
    tab = evaluate(UnivariatePoly(ctx, {e: 1 for e in exps}))
    if kind == "perturbed":  # x >= 2 is not fixed by squaring, so F(x^2) = F(x)^2 breaks
        x = draw(st.integers(2, n - 1))
        vals = tab.as_array().tolist()
        vals[x] ^= draw(st.integers(1, n - 1))
        tab = FuncTable(ctx, vals)
    return kind, tab


@settings(max_examples=80, deadline=None, derandomize=True)
@given(orbit_cases())
def test_orbit_spectra_match_all_rows_oracle(case):
    kind, tab = case
    if kind == "gf2-poly":
        assert not _is_fallback(tab)
    elif kind == "perturbed":
        assert _is_fallback(tab)
    _assert_matches_all_rows(tab)


@pytest.mark.parametrize("poly", _two_polys(11))
def test_orbit_spectra_span_several_blocks_at_m11(poly):
    ctx = Field(11, poly)
    rows_per_block = _block_rows(1 << 11, floor=16)
    for tab in (evaluate(UnivariatePoly(ctx, {3: 1, 5: 1})), theorem1(ctx, 1)):
        reps, _ = _symmetry_orbits(tab)[0]
        assert len(reps) > rows_per_block
        _assert_matches_all_rows(tab)
    for d in (3, 5):  # gcd(d, 2^11 - 1) = 1: one row and one direction
        tab = monomial(ctx, d)
        for reps, _ in _symmetry_orbits(tab):
            assert reps.tolist() == [1]
        _assert_matches_all_rows(tab)


def _symmetries(tab: FuncTable) -> tuple[int | None, bool]:
    """(lam with F(gx) = lam*F(x) for the generator g, or None; whether
    F(x^2) = F(x)^2), by scalar arithmetic over the whole table."""
    ctx, v, g = tab.ctx, tab.as_array().tolist(), tab.ctx.generator
    squaring = all(v[ctx.mul(x, x)] == ctx.mul(v[x], v[x]) for x in range(ctx.size))
    if v[1] == 0:
        return None, squaring
    lam = ctx.mul(v[g], ctx.inv(v[1]))
    scales = all(v[ctx.mul(g, x)] == ctx.mul(lam, v[x]) for x in range(ctx.size))
    return (lam if scales else None), squaring


def _closure(ctx: Field, x: int, lam: int | None, squaring: bool) -> set:
    """The orbit of x under x -> x^2 (if squaring) and x -> lam*x (if lam)."""
    orbit, todo = {x}, [x]
    while todo:
        y = todo.pop()
        images = ([ctx.mul(y, y)] if squaring else []) + ([ctx.mul(lam, y)] if lam else [])
        for z in images:
            if z not in orbit:
                orbit.add(z)
                todo.append(z)
    return orbit


@pytest.mark.parametrize("m", range(2, 11))
def test_frobenius_orbits_partition_the_multiplicative_group(m):
    for poly in _two_polys(m):
        ctx = Field(m, poly)
        n = ctx.size
        cases = (
            (monomial(ctx, 3), True, True),
            (monomial(ctx, 3, c=ctx.generator), True, False),  # scaling without squaring
            (evaluate(UnivariatePoly(ctx, {3: 1, 1: 1})), False, True),  # squaring only
        )
        for tab, want_scaling, want_squaring in cases:
            lam, squaring = _symmetries(tab)
            assert (lam is not None, squaring) == (want_scaling, want_squaring)
            reps, sizes = _symmetry_orbits(tab)[0]
            assert int(sizes.sum()) == n - 1
            seen = set()
            for r, s in zip(reps.tolist(), sizes.tolist()):
                orbit = _closure(ctx, r, lam, squaring)
                assert min(orbit) == r and len(orbit) == s
                seen.update(orbit)
            assert seen == set(range(1, n))
            dreps, dsizes = _symmetry_orbits(tab)[1]
            if lam is None:
                assert np.array_equal(dreps, reps) and np.array_equal(dsizes, sizes)
            else:  # x -> gx is transitive on the directions
                assert dreps.tolist() == [1] and dsizes.tolist() == [n - 1]


@pytest.mark.parametrize("m", range(2, 11))
def test_power_map_orbit_spectra_match_all_rows_oracle(m):
    ctx = Field(m)
    n, q = ctx.size, ctx.order
    rng = random.Random(m)
    coprime = sorted({d for d in (3, 5, n - 2) if d < n and math.gcd(d, q) == 1})
    shared = [d for d in range(3, n) if math.gcd(d, q) > 1][:2] or [q]
    for d in coprime + shared:
        for c in (1, ctx.generator):
            tab = monomial(ctx, d, c=c)
            rows, directions = _symmetry_orbits(tab)
            assert (len(rows[0]) == 1) == (math.gcd(d, q) == 1)
            assert directions[0].tolist() == [1]
            _assert_matches_all_rows(tab)
            vals = tab.as_array().tolist()  # one entry changed breaks both identities
            vals[rng.randrange(2, n)] ^= rng.randrange(1, n)
            changed = FuncTable(ctx, vals)
            assert _is_fallback(changed)
            _assert_matches_all_rows(changed)


def test_frobenius_orbits_of_gold_m13():
    ctx = Field(13)
    for reps, sizes in _symmetry_orbits(monomial(ctx, 3)):
        assert reps.tolist() == [1] and sizes.tolist() == [8191]
    thm1 = theorem1(ctx, 1)  # commutes with squaring, does not scale
    reps, sizes = _symmetry_orbits(thm1)[0]
    assert len(reps) == 631
    assert sorted(sizes.tolist()) == [1] + [13] * 630
    assert reps[0] == 1
    dreps, dsizes = _symmetry_orbits(thm1)[1]
    assert np.array_equal(dreps, reps) and np.array_equal(dsizes, sizes)


def test_gold_row_orbits_at_even_m14():
    # lam = g^3 leaves 3 cosets; squaring fixes the cubes and swaps the other two
    reps, sizes = _symmetry_orbits(monomial(Field(14), 3))[0]
    q = (1 << 14) - 1
    assert reps.tolist()[0] == 1
    assert sorted(sizes.tolist()) == [q // 3, 2 * q // 3]


def test_frobenius_orbits_fall_back_without_the_symmetry():
    rng = random.Random(19)
    for m in (4, 7, 10):
        ctx = Field(m)
        assert _is_fallback(_random_table(ctx, rng))
        assert not _is_fallback(monomial(ctx, (1 << m) - 2))
        assert not _is_fallback(monomial(ctx, 3, c=1))
        scaled = monomial(ctx, 3, c=ctx.generator)
        assert not _is_fallback(scaled)
        vals = scaled.as_array().tolist()
        vals[rng.randrange(2, ctx.size)] ^= 1
        assert _is_fallback(FuncTable(ctx, vals))


def test_dual_reindex_is_cached_read_only_and_exact():
    for m, poly in ((5, None), (5, 0b101001), (6, None)):
        ctx = Field(m, poly)
        dual = _dual_reindex(ctx)
        assert _dual_reindex(Field(m, poly)) is dual
        assert not dual.flags.writeable
        for a in range(ctx.size):
            for x in range(ctx.size):
                assert ctx.trace(ctx.mul(a, x)) == int(dual[a] & x).bit_count() & 1
    assert not np.array_equal(_dual_reindex(Field(5)), _dual_reindex(Field(5, 0b101001)))

"""Walsh / differential spectra against naive double-loop oracles."""

import gc
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbfkit import spectra
from vbfkit.constructions import theorem1, theorem2
from vbfkit.gf2m import Field, _linear_table, is_irreducible
from vbfkit.spectra import (
    TooLargeError,
    _block_rows,
    _dual_reindex,
    _fwht_rows,
    _sign_rows,
    _symmetry_orbits,
    _walsh_blocks,
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


@pytest.mark.parametrize("m", range(3, 10))
def test_walsh_blocks_match_one_transform_of_all_rows(monkeypatch, m):
    # the Walsh-zero table of the completion search is filled from these
    # blocks; 3 rows a block end off every power-of-two boundary
    monkeypatch.setattr(spectra, "_block_rows", lambda n, floor=1: 3)
    n = 1 << m
    tab = FuncTable(Field(m), np.random.default_rng(m).integers(0, n, size=n))
    xs = np.arange(n, dtype=np.int64)
    blocks = list(_walsh_blocks(tab, xs))
    assert [start for start, _ in blocks] == list(range(0, n, 3))
    whole = np.concatenate([block for _, block in blocks])
    assert np.array_equal(whole, _fwht_rows(_sign_rows(tab, xs)))


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


def _assert_orbits_match_closure(tab: FuncTable) -> tuple[int | None, bool]:
    """Check ``_symmetry_orbits`` of tab against the scalar orbits of
    ``_closure``, and return the symmetries that ``_symmetries`` found."""
    ctx, n = tab.ctx, tab.ctx.size
    lam, squaring = _symmetries(tab)
    rows, directions = _symmetry_orbits(tab)
    reps, sizes = rows
    assert reps.dtype == sizes.dtype == np.int64
    assert int(sizes.sum()) == n - 1 and np.all(np.diff(reps) > 0)
    seen = set()
    for r, s in zip(reps.tolist(), sizes.tolist()):
        orbit = _closure(ctx, r, lam, squaring)
        assert min(orbit) == r and len(orbit) == s
        seen.update(orbit)
    assert seen == set(range(1, n))
    dreps, dsizes = directions
    if lam is None:
        assert np.array_equal(dreps, reps) and np.array_equal(dsizes, sizes)
    else:  # x -> gx is transitive on the directions
        assert dreps.tolist() == [1] and dsizes.tolist() == [n - 1]
    return lam, squaring


@pytest.mark.parametrize("m", range(2, 11))
def test_frobenius_orbits_partition_the_multiplicative_group(m):
    for poly in _two_polys(m):
        ctx = Field(m, poly)
        cases = (
            (monomial(ctx, 3), True, True),
            (monomial(ctx, 3, c=ctx.generator), True, False),  # scaling without squaring
            (evaluate(UnivariatePoly(ctx, {3: 1, 1: 1})), False, True),  # squaring only
        )
        for tab, want_scaling, want_squaring in cases:
            lam, squaring = _assert_orbits_match_closure(tab)
            assert (lam is not None, squaring) == (want_scaling, want_squaring)


def _with_value_at_zero(tab: FuncTable, y: int) -> FuncTable:
    vals = tab.as_array().copy()
    vals[0] = y
    return FuncTable(tab.ctx, vals)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_orbits_at_the_edges_of_the_identities(m):
    # each case names whether F(gx) = lam*F(x) and F(x^2) = F(x)^2 hold on
    # the whole table; the first five break or keep one only through x = 0
    for poly in _two_polys(m):
        ctx = Field(m, poly)
        g, c = ctx.generator, ctx.size - 1  # c is neither 0 nor 1
        gf2 = evaluate(UnivariatePoly(ctx, {3: 1, 1: 1}))  # F(0) = 0
        cases = {
            "gf2 poly, F(0) = c": (_with_value_at_zero(gf2, c), False, False),
            "gf2 poly, F(0) = 1": (_with_value_at_zero(gf2, 1), False, True),
            "x^3, F(0) = 1": (_with_value_at_zero(monomial(ctx, 3), 1), False, True),
            "g*x^3, F(0) = c": (_with_value_at_zero(monomial(ctx, 3, c=g), c), False, False),
            "x^q, F(0) = c": (_with_value_at_zero(monomial(ctx, ctx.order), c), True, False),
            "gf2 poly + c": (FuncTable(ctx, gf2.as_array() ^ c), False, False),
            "constant 0": (FuncTable(ctx, np.zeros(ctx.size, dtype=np.int64)), False, True),
            "constant 1": (FuncTable(ctx, np.ones(ctx.size, dtype=np.int64)), True, True),
            "constant c": (FuncTable(ctx, np.full(ctx.size, c)), True, False),
        }
        for name, (tab, want_scaling, want_squaring) in cases.items():
            lam, squaring = _assert_orbits_match_closure(tab)
            assert (lam is not None, squaring) == (want_scaling, want_squaring), name
            _assert_matches_all_rows(tab)  # the orbit tally from m = 7 on


@pytest.mark.parametrize("m", [6, 8, 9, 10])
def test_orbits_of_power_maps_with_a_shared_factor(m):
    # gcd(d, 2^m - 1) is neither 1 nor 2^m - 1: lam = g^d leaves that many
    # residue classes of log b, which squaring merges when c = 1
    ctx = Field(m)
    q = ctx.order
    shared = [d for d in range(3, q) if math.gcd(d, q) not in (1, q)]
    for d in sorted({math.gcd(d, q): d for d in shared}.values()):  # one d per gcd
        for c in (1, ctx.generator):
            tab = monomial(ctx, d, c=c)
            lam, squaring = _assert_orbits_match_closure(tab)
            assert lam == ctx.pow(ctx.generator, d) and squaring == (c == 1)
            assert len(_symmetry_orbits(tab)[0][0]) > 1


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


# ---------------------------------------------------------------- one block

def _walsh_value_distribution(f: FuncTable) -> dict:
    """The Walsh multiset over every (a, b), b != 0, from ``walsh_value``."""
    dist = {}
    for b in range(1, f.ctx.size):
        for a in range(f.ctx.size):
            v = walsh_value(f, a, b)
            dist[v] = dist.get(v, 0) + 1
    return dist


def _one_block_cases(ctx: Field) -> dict:
    """Tables of every kind the one-block spectra must get right: with no
    symmetry, with both, with a power map's scaling at a shared factor."""
    n, q = ctx.size, ctx.order
    rng = np.random.default_rng(500 + ctx.m)
    coprime = next(d for d in range(2, n) if math.gcd(d, q) == 1)
    shared = next(d for d in range(3, n) if math.gcd(d, q) > 1)  # q itself if q is prime
    cases = {
        "random": FuncTable(ctx, rng.integers(0, n, size=n)),
        "permutation": FuncTable(ctx, rng.permutation(n)),
        "constant": FuncTable(ctx, np.full(n, n - 1)),
        "linear": FuncTable(ctx, _linear_table(rng.integers(0, n, size=ctx.m).tolist())),
        f"x^{coprime}": monomial(ctx, coprime),
        f"g*x^{shared}": monomial(ctx, shared, c=ctx.generator),
    }
    if ctx.m % 2 and ctx.m > 3:
        cases["thm1"] = theorem1(ctx, 1)
    if ctx.m % 2 == 0 and ctx.m >= 4:
        cases["thm2"] = theorem2(ctx, 1)
    return cases


@pytest.mark.parametrize("m", range(2, 7))
def test_one_block_spectra_match_walsh_value_and_the_full_domain_oracle(monkeypatch, m):
    # up to m = 6 neither spectrum reads the orbits
    monkeypatch.setattr(spectra, "_symmetry_orbits", None)
    for name, tab in _one_block_cases(Field(m)).items():
        wspec, dspec = walsh_spectrum(tab), differential_spectrum(tab)
        if m <= 5 or name in ("random", "thm2"):  # walsh_value takes 0.6 s a table at m = 6
            assert wspec.distribution == _walsh_value_distribution(tab), name
        diff = _difference_counts_oracle(tab)
        assert dspec.distribution == diff and dspec.max == max(diff), name
        assert wspec.max_abs == max(abs(v) for v in wspec.distribution), name


def _route_spy(monkeypatch) -> tuple[list, list, list]:
    """Lists that record each table whose Walsh spectrum takes the gather
    kernel, each (spectrum, table) that ``_every_row`` sends through every
    row at once (spectrum 0 Walsh, 1 differences), and the degree m of each
    graph whose difference counts take the unordered pair keys."""
    gathered, every_row, paired = [], [], []
    gather, rule, pair_keys = spectra._gather_walsh_blocks, spectra._every_row, spectra._pair_keys

    def gather_spy(f):
        gathered.append(f)
        return gather(f)

    def rule_spy(f, spectrum):
        taken = rule(f, spectrum)
        if taken:
            every_row.append((spectrum, f))
        return taken

    def pair_keys_spy(graph, m):
        paired.append(m)
        return pair_keys(graph, m)

    monkeypatch.setattr(spectra, "_gather_walsh_blocks", gather_spy)
    monkeypatch.setattr(spectra, "_every_row", rule_spy)
    monkeypatch.setattr(spectra, "_pair_keys", pair_keys_spy)
    return gathered, every_row, paired


@pytest.mark.parametrize("m", [6, 7])
def test_spectra_on_both_sides_of_the_one_block_cut_off(monkeypatch, m):
    gathered, every_row, paired = _route_spy(monkeypatch)
    cases = _one_block_cases(Field(m))
    for name, tab in cases.items():
        _assert_matches_all_rows(tab)
    walsh = {name for name, tab in cases.items() if any(tab is f for f in gathered)}
    diff = {name for name, tab in cases.items() if any(tab is f for s, f in every_row if s == 1)}
    if m == 6:  # every table, with no orbits
        assert walsh == diff == set(cases)
    else:  # from m = 7 on, only the tables whose rows or directions are all trivial orbits
        assert walsh == {"random", "permutation", "constant", "linear", f"g*x^{Field(m).order}"}
        assert diff == {"random", "permutation", "linear"}
    assert paired == []  # up to m = 7 the every-row differences are the ordered graph block


def _linear_permutation(ctx: Field, rng: np.random.Generator) -> np.ndarray:
    """Table of a random invertible F_2-linear map of GF(2^m)."""
    while True:
        tab = _linear_table(rng.integers(1, ctx.size, size=ctx.m))
        if len(np.unique(tab)) == ctx.size:
            return tab


def _no_symmetry_cases(ctx: Field) -> dict:
    """Tables with neither symmetry: a random function, a random
    permutation, x^3 + x^5 with one entry changed at x >= 2, and two edge
    tables of the difference counts.  An EA image A(B(x)^3) + c of the APN
    map x^3, with A and B random linear permutations, has at most one pair
    {x, x + a} in each cell (a, b); a periodic table, F(x + 2^(m-1)) = F(x),
    has all n/2 pairs of its period in cell (2^(m-1), 0)."""
    n = ctx.size
    rng = np.random.default_rng(700 + ctx.m + ctx.poly)
    vals = evaluate(UnivariatePoly(ctx, {3: 1, 5: 1})).as_array().copy()
    vals[rng.integers(2, n)] ^= rng.integers(1, n)
    cases = {
        "random": FuncTable(ctx, rng.integers(0, n, size=n)),
        "permutation": FuncTable(ctx, rng.permutation(n)),
        "perturbed": FuncTable(ctx, vals),
    }
    outer, inner = _linear_permutation(ctx, rng), _linear_permutation(ctx, rng)
    cases["ea-cube"] = FuncTable(ctx, outer[monomial(ctx, 3).as_array()[inner]] ^ rng.integers(0, n))
    half = rng.integers(0, n, size=n // 2)
    cases["periodic"] = FuncTable(ctx, np.concatenate((half, half)))
    return cases


@pytest.mark.parametrize("m", range(7, 11))
def test_every_row_walsh_matches_all_rows_oracle_and_walsh_value(monkeypatch, m):
    gathered, _, _ = _route_spy(monkeypatch)
    for poly in _two_polys(m):
        ctx = Field(m, poly)
        n = ctx.size
        dual = _dual_reindex(ctx)
        inverse = np.argsort(dual)  # the trace row b is the dot-product row of mask dual[b]
        rng = np.random.default_rng(m)
        for name, tab in _no_symmetry_cases(ctx).items():
            assert _is_fallback(tab), name
            _assert_matches_all_rows(tab)
            assert gathered[-1] is tab, name
            if m > 8:  # walsh_value takes about 1 ms a cell at m = 8
                continue
            # entry (a, j) of a block is the dot-product W(a, start + j), mask 0 included
            for start, block in spectra._gather_walsh_blocks(tab):
                if start == 0:
                    assert block[:, 0].tolist() == [n] + [0] * (n - 1), name
                rows, cols = rng.integers(0, n, size=6), rng.integers(0, block.shape[1], size=6)
                for a, j in zip(rows.tolist(), cols.tolist()):
                    want = walsh_value(tab, int(inverse[a]), int(inverse[start + j]))
                    assert block[a, j] == want, (name, a, start + j)


@pytest.mark.parametrize("m", range(8, 11))
def test_pair_keys_match_both_difference_oracles(monkeypatch, m):
    _, _, paired = _route_spy(monkeypatch)
    for poly in _two_polys(m):
        ctx = Field(m, poly)
        edge_max = {"ea-cube": 2, "periodic": ctx.size}  # pair counts at most 1; n/2, the tally's top
        for name, tab in _no_symmetry_cases(ctx).items():
            assert _is_fallback(tab), name
            spec = differential_spectrum(tab)
            assert paired[-1] == m, name
            assert spec.distribution == _difference_counts_oracle(tab) == _per_direction_oracle(tab), name
            assert spec.max == max(spec.distribution) == edge_max.get(name, spec.max), name


@pytest.mark.parametrize("m", [7, 8, 10, 11])
def test_gather_kernel_route_stops_after_m10(monkeypatch, m):
    gathered, every_row, paired = _route_spy(monkeypatch)
    ctx = Field(m)
    n = ctx.size
    random_table = FuncTable(ctx, np.random.default_rng(800 + m).integers(0, n, size=n))
    symmetric = [monomial(ctx, 3), theorem1(ctx, 1) if m % 2 else theorem2(ctx, 1)]
    for tab in (random_table, *symmetric):
        walsh_spectrum(tab), differential_spectrum(tab)
    assert [f is random_table for f in gathered] == ([True] if m <= 10 else [])
    assert [(s, f is random_table) for s, f in every_row] == ([(0, True), (1, True)] if m <= 10 else [])
    # the ordered graph block serves m = 7, and the unordered pair keys m = 8-10
    assert paired == ([m] if 8 <= m <= 10 else [])
    if m == 11:  # the orbit path still gives every row
        _assert_matches_all_rows(random_table)


@pytest.mark.parametrize("m", range(7, 11))
def test_fourth_moment_links_walsh_and_difference_counts(m):
    """Chabaud-Vaudenay: sum over all (a, b) of W(a, b)^4 is 2^(2m) times
    the sum of delta(a, b)^2.  With the column b = 0 (W(0, 0) = n) and the
    row a = 0 (delta(0, 0) = n) added back, both every-row kernels must
    agree on it, and the fiber sizes must count each (a, x), a != 0, once."""
    ctx = Field(m)
    n = ctx.size
    rng = np.random.default_rng(900 + m)
    for tab in (FuncTable(ctx, rng.integers(0, n, size=n)), FuncTable(ctx, rng.permutation(n))):
        walsh = walsh_spectrum(tab).distribution
        delta = differential_spectrum(tab).distribution
        fourth = sum(v**4 * c for v, c in walsh.items())
        second = sum(d * d * c for d, c in delta.items())
        assert fourth + n**4 == n * n * (second + n * n)
        assert sum(d * c for d, c in delta.items()) == (n - 1) * n

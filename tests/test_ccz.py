"""Linear maps over F_2, graph transforms, criteria, and searches."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbfkit import ccz, constructions, spectra
from vbfkit.ccz import (
    BinLinearMap,
    BudgetExceededError,
    ConditionViolatedError,
    GcdViolationError,
    NotLinearizedError,
    OddDegreeError,
    SingularError,
    _adjoint_table,
    _gold_perm_even_rows,
    _gold_perm_rows,
    ccz_transform,
    gold_perm_criterion,
    gold_perm_criterion_even,
    gold_graph_completion_search,
    graph_image,
    identity_map,
    linear_completion_search,
    map_invertible,
    power_inequivalence_witness,
)
from vbfkit.constructions import theorem1, theorem12_ccz_witness
from vbfkit.gf2m import Field, _linear_table, is_irreducible
from vbfkit.spectra import _symmetry_orbits, differential_spectrum, walsh_spectrum
from vbfkit.vbf import (
    FuncTable,
    NotAPermutationError,
    UnivariatePoly,
    compose,
    evaluate,
    invert,
    is_permutation,
    monomial,
)


def _swap_map(m: int) -> BinLinearMap:
    rows = [1 << (m + r) for r in range(m)] + [1 << r for r in range(m)]
    return BinLinearMap(2 * m, 2 * m, rows)


def _random_map(n_in: int, n_out: int, rng: random.Random) -> BinLinearMap:
    return BinLinearMap(n_in, n_out, [rng.randrange(1 << n_in) for _ in range(n_out)])


def _from_columns(n_in: int, n_out: int, cols) -> BinLinearMap:
    """The map that sends basis vector e_j to cols[j]."""
    rows = [sum(((c >> r) & 1) << j for j, c in enumerate(cols)) for r in range(n_out)]
    return BinLinearMap(n_in, n_out, rows)


def _compose(outer: BinLinearMap, inner: BinLinearMap) -> BinLinearMap:
    return _from_columns(inner.n_in, outer.n_out, [outer.apply(c) for c in inner.columns])


def _inverse(L: BinLinearMap) -> BinLinearMap:
    """Inverse of an invertible square map, by brute force: its column j is
    the x with L(x) = e_j."""
    preimage = {L.apply(x): x for x in range(1 << L.n_in)}
    return _from_columns(L.n_in, L.n_in, [preimage[1 << j] for j in range(L.n_in)])


def _random_invertible(n: int, rng: random.Random) -> BinLinearMap:
    while True:
        cand = _random_map(n, n, rng)
        if map_invertible(cand):
            return cand


def _trace_mask(f: Field) -> int:
    return sum(f.trace(1 << k) << k for k in range(f.m))


def _random_linearized(f: Field, rng: random.Random, max_terms: int = 2) -> UnivariatePoly:
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        terms[1 << rng.randrange(f.m)] = rng.randrange(1, f.size)
    return UnivariatePoly(f, terms)


def linearized_adjoint(f: Field, poly: UnivariatePoly) -> UnivariatePoly:
    """Reference adjoint of a linearized polynomial: c * x^(2^j) has the
    adjoint c^(2^(m-j)) * x^(2^(m-j)), the map with
    trace(v * L(x)) = trace(L*(v) * x) for all v, x."""
    terms: dict[int, int] = {}
    for e, c in poly.terms.items():
        assert e > 0 and e & (e - 1) == 0, f"exponent {e} is not a power of two"
        k = (f.m - (e.bit_length() - 1)) % f.m
        coeff = terms.pop(1 << k, 0) ^ f.pow(c, 1 << k)
        if coeff:
            terms[1 << k] = coeff
    return UnivariatePoly(f, terms)


def _ea_graph_map(
    outer: BinLinearMap,
    inner: BinLinearMap,
    summand: BinLinearMap | None = None,
    use_inverse: bool = False,
) -> BinLinearMap:
    """Doubled-space map that ``ccz_transform`` turns F into
    outer o F o inner + summand, or the same on F^-1 with ``use_inverse``:
    (x, y) -> (inner^-1 x, outer y + summand inner^-1 x), the input halves
    swapped for F^-1."""
    n = outer.n_in
    zero = BinLinearMap(n, n, [0] * n)
    inner_inv = _inverse(inner)
    mix = _compose(summand, inner_inv) if summand is not None else zero
    halves = ((zero, inner_inv), (outer, mix)) if use_inverse else ((inner_inv, zero), (mix, outer))
    rows = [lo.rows[r] | (hi.rows[r] << n) for lo, hi in halves for r in range(n)]
    return BinLinearMap(2 * n, 2 * n, rows)


def _transversal(f: FuncTable, basis) -> bool:
    """Brute force: every coset of V = span(basis), of dimension m, meets the
    graph of f once exactly when no two graph points differ by a member of V."""
    span = {0}
    for b in basis:
        span |= {v ^ b for v in span}
    assert len(span) == f.ctx.size
    points = [x | (y << f.ctx.m) for x, y in enumerate(f.as_array().tolist())]
    return all(p ^ q not in span for p, q in itertools.combinations(points, 2))


# ---------------------------------------------------------------- linear maps

def test_apply_is_rowwise_parity():
    rng = random.Random(1)
    L = _random_map(6, 4, rng)
    for x in range(64):
        want = 0
        for r, row in enumerate(L.rows):
            want |= ((row & x).bit_count() & 1) << r
        assert L.apply(x) == want


def test_graph_image_matches_apply_pointwise():
    rng = random.Random(2)
    cases = []
    for m in range(2, 8):
        ctx = Field(m)
        for _ in range(3):
            f = FuncTable(ctx, [rng.randrange(ctx.size) for _ in range(ctx.size)])
            cases.append((_random_invertible(2 * m, rng), f))
    for m in (4, 5, 6, 7):  # the Theorem 2 witness at even m, Theorem 1 at odd m
        ctx = Field(m)
        witness = theorem12_ccz_witness(ctx, 1, rng.randrange(1, ctx.size))
        cases.append((witness.L, monomial(ctx, 3)))
    for L, f in cases:
        m, w = f.ctx.m, graph_image(L, f)
        for x, y in enumerate(f.as_array().tolist()):
            image = L.apply(x | y << m)
            assert int(w.F1.as_array()[x]) == image % (1 << m)
            assert int(w.F2.as_array()[x]) == image >> m


def test_identity_map_properties():
    ident = identity_map(5)
    assert map_invertible(ident)
    for x in range(32):
        assert ident.apply(x) == x


def test_columns_and_graph_map_match_the_bitwise_transpose():
    # the per-bit loops that built rows from columns and back, as oracles;
    # widths past 64 bits and maps that are not square included
    rng = random.Random(36)
    for n_in, n_out in ((1, 1), (3, 7), (8, 8), (13, 2), (26, 26), (42, 42), (64, 64), (70, 65)):
        L = _random_map(n_in, n_out, rng)
        cols = [sum(((L.rows[r] >> j) & 1) << r for r in range(n_out)) for j in range(n_in)]
        assert list(L.columns) == cols
        x = rng.randrange(1 << n_in)
        assert L.apply(x) == sum(((row & x).bit_count() & 1) << r for r, row in enumerate(L.rows))
        images = [rng.randrange(1 << 2 * n_in) for _ in range(2 * n_in)]
        G = constructions._graph_map(images[:n_in], images[n_in:])
        want = [(1 << j) ^ c for j, c in enumerate(images)]
        assert G.rows == tuple(sum(((c >> r) & 1) << j for j, c in enumerate(want)) for r in range(2 * n_in))
        assert list(G.columns) == want


def test_repeated_rows_not_invertible():
    L = BinLinearMap(3, 3, [0b101, 0b101, 0b010])
    assert not map_invertible(L)


def test_map_invertible_matches_brute_force():
    # invertible exactly when apply is a bijection; the rows are random masks
    # or random single bits (a permutation of the basis, or singular)
    rng = random.Random(3)
    seen = set()
    for n in (1, 2, 3, 5, 6):
        for trial in range(60):
            rows = [rng.randrange(1 << n) if trial % 2 else 1 << rng.randrange(n) for _ in range(n)]
            L = BinLinearMap(n, n, rows)
            bijective = len({L.apply(x) for x in range(1 << n)}) == 1 << n
            assert map_invertible(L) == bijective, rows
            seen.add(bijective)
    assert seen == {True, False}
    assert not map_invertible(BinLinearMap(4, 3, [1, 2, 4]))
    assert not map_invertible(BinLinearMap(3, 4, [1, 2, 4, 0]))


def test_map_rank_and_kernel():
    L = BinLinearMap(4, 4, [0b0001, 0b0010, 0b0011, 0b0000])
    assert not map_invertible(L)
    # the kernel, by brute force, has 2^(4 - rank) members for rank 2
    assert [x for x in range(16) if L.apply(x) == 0] == [0b0000, 0b0100, 0b1000, 0b1100]


# ---------------------------------------------------------------- linearized polys

def test_linearized_rejects_general_polys():
    f = Field(4)
    linear = evaluate(UnivariatePoly(f, {1: 3, 4: 7}))
    flipped = linear.as_array().copy()
    flipped[11] ^= 1
    ident = evaluate(UnivariatePoly(f, {1: 1}))
    for bad in (
        monomial(f, 3),
        FuncTable(f, linear.as_array() ^ 1),  # affine: linear + 1
        FuncTable(f, flipped),
    ):
        for call in (
            lambda: gold_perm_criterion(bad, ident, 1),
            lambda: gold_perm_criterion(ident, bad, 1),
            lambda: gold_perm_criterion_even(bad, 1),
        ):
            with pytest.raises(NotLinearizedError, match="^table is not F_2-linear$"):
                call()


def test_trace_row_adjustment_realizes_trace_term():
    # x + x^2 + tr(x) as a matrix: linearized part plus the trace mask on bit 0
    f = Field(5)
    # the matrix of x + x^2: its columns are the images of the basis vectors
    M = _from_columns(5, 5, [(1 << j) ^ f.mul(1 << j, 1 << j) for j in range(5)])
    rows = list(M.rows)
    rows[0] ^= _trace_mask(f)
    M2 = BinLinearMap(5, 5, rows)
    for x in range(32):
        assert M2.apply(x) == x ^ f.mul(x, x) ^ f.trace(x)


# ---------------------------------------------------------------- adjoints

def test_linearized_adjoint_satisfies_trace_identity():
    rng = random.Random(8)
    for m in (4, 5, 6):
        f = Field(m)
        for _ in range(6):
            p = _random_linearized(f, rng)
            ps = linearized_adjoint(f, p)
            ptab = evaluate(p)
            pstab = evaluate(ps)
            for _ in range(30):
                v, x = rng.randrange(f.size), rng.randrange(f.size)
                assert f.trace(f.mul(v, int(ptab.as_array()[x]))) == f.trace(
                    f.mul(int(pstab.as_array()[v]), x)
                )


def test_adjoint_is_involution():
    rng = random.Random(9)
    f = Field(5)
    for _ in range(10):
        p = _random_linearized(f, rng)
        back = linearized_adjoint(f, linearized_adjoint(f, p))
        assert evaluate(back).as_array().tolist() == evaluate(p).as_array().tolist()


def test_adjoint_table_matches_reference_adjoint():
    rng = random.Random(10)
    for m in range(4, 9):
        f = Field(m)
        for _ in range(40):
            p = _random_linearized(f, rng, max_terms=m)
            want = evaluate(linearized_adjoint(f, p)).as_array().tolist()
            assert _adjoint_table(f, evaluate(p).as_array()).tolist() == want, (m, p)


# ---------------------------------------------------------------- graph images

def test_graph_image_identity_and_swap():
    f = Field(4)
    cube = monomial(f, 3)
    w = graph_image(identity_map(8), cube)
    assert w.F1.as_array().tolist() == list(range(16))
    assert w.F2.as_array().tolist() == cube.as_array().tolist()
    w = graph_image(_swap_map(4), cube)
    assert w.F1.as_array().tolist() == cube.as_array().tolist()
    assert w.F2.as_array().tolist() == list(range(16))


def test_graph_image_trace_shift_block():
    # L(x,y) = (x + a*tr(y), y) with a = 1: F2 is the source function itself
    f = Field(4)
    gold = monomial(f, 3)
    tmask = _trace_mask(f)
    rows = [(1 << r) | ((tmask << 4) if r == 0 else 0) for r in range(4)]
    rows += [1 << (4 + r) for r in range(4)]
    L = BinLinearMap(8, 8, rows)
    w = graph_image(L, gold)
    assert w.F2.as_array().tolist() == gold.as_array().tolist()
    for x in range(16):
        assert w.F1.as_array()[x] == x ^ f.trace(int(gold.as_array()[x]))


def test_graph_image_requires_invertible():
    f = Field(3)
    with pytest.raises(SingularError):
        graph_image(BinLinearMap(6, 6, [0] * 6), monomial(f, 3))


# ---------------------------------------------------------------- ccz transform

def test_ccz_transform_identity_returns_same():
    f = Field(5)
    cube = monomial(f, 3)
    assert ccz_transform(identity_map(10), cube).as_array().tolist() == cube.as_array().tolist()


def test_ccz_transform_swap_inverts_permutation():
    f = Field(5)
    cube = monomial(f, 3)
    got = ccz_transform(_swap_map(5), cube)
    assert got.as_array().tolist() == invert(cube).as_array().tolist()


def test_ccz_transform_swap_rejects_non_permutation():
    f = Field(4)
    with pytest.raises(NotAPermutationError):
        ccz_transform(_swap_map(4), monomial(f, 3))


def test_ccz_transform_trace_mix_formula_gf32():
    # mixing map with a = 1, i = 1 on the cube: the result must be
    # x^3 + (x^2 + x) tr(x^3 + x), pointwise
    f = Field(5)
    tmask = _trace_mask(f)
    both = tmask | (tmask << 5)
    rows = [(1 << r) ^ (both if r == 0 else 0) for r in range(5)]
    rows += [(1 << (5 + r)) ^ (both if r == 0 else 0) for r in range(5)]
    L = BinLinearMap(10, 10, rows)
    got = ccz_transform(L, monomial(f, 3))
    for x in range(32):
        x3 = f.pow(x, 3)
        want = x3 ^ (f.mul(x, x) ^ x) * f.trace(x3 ^ x)
        assert got.as_array()[x] == want


def _graph_movers(f: Field) -> list[BinLinearMap]:
    # maps known to carry the cube's graph to another graph: the identity,
    # a trace-mixing involution, and (odd m) the coordinate swap
    m = f.m
    tmask = _trace_mask(f)
    movers = [identity_map(2 * m)]
    if m % 2:
        both = tmask | (tmask << m)
        rows = [(1 << r) ^ (both if r == 0 else 0) for r in range(m)]
        rows += [(1 << (m + r)) ^ (both if r == 0 else 0) for r in range(m)]
        movers.append(BinLinearMap(2 * m, 2 * m, rows))
        movers.append(_swap_map(m))
    else:
        rows = [(1 << r) ^ ((tmask << m) if r == 0 else 0) for r in range(m)]
        rows += [1 << (m + r) for r in range(m)]
        movers.append(BinLinearMap(2 * m, 2 * m, rows))
    return movers


def test_ccz_transform_preserves_spectra():
    rng = random.Random(10)
    for m in (4, 5):
        f = Field(m)
        cube = monomial(f, 3)
        w0 = walsh_spectrum(cube).distribution
        d0 = differential_spectrum(cube).distribution
        movers = _graph_movers(f)
        for trial in range(9):
            bridge = _ea_graph_map(
                _random_invertible(m, rng),
                _random_invertible(m, rng),
                _random_map(m, m, rng),
            )
            L = _compose(bridge, movers[trial % len(movers)])
            out = ccz_transform(L, cube)
            assert walsh_spectrum(out).distribution == w0
            assert differential_spectrum(out).distribution == d0


def test_ccz_success_iff_transversal_preimage():
    rng = random.Random(11)
    f = Field(4)
    cube = monomial(f, 3)
    maps = [_random_invertible(8, rng) for _ in range(40)]
    # random maps of the doubled space almost never carry the graph to a
    # graph; EA moves after a known graph mover always do
    movers = _graph_movers(f)
    for trial in range(10):
        bridge = _ea_graph_map(
            _random_invertible(4, rng), _random_invertible(4, rng), _random_map(4, 4, rng)
        )
        maps.append(_compose(bridge, movers[trial % len(movers)]))
    outcomes = set()
    for L in maps:
        Li = _inverse(L)
        ok_transversal = _transversal(cube, [Li.apply(1 << (4 + k)) for k in range(4)])
        try:
            ccz_transform(L, cube)
            ok_transform = True
        except NotAPermutationError:
            ok_transform = False
        assert ok_transform == ok_transversal
        outcomes.add(ok_transform)
    assert outcomes == {True, False}


# ---------------------------------------------------------------- EA bridge

def test_ea_bridge_identity_blocks():
    f = Field(5)
    cube = monomial(f, 3)
    ident = identity_map(5)
    L = _ea_graph_map(ident, ident, None)
    assert ccz_transform(L, cube).as_array().tolist() == cube.as_array().tolist()
    L = _ea_graph_map(ident, ident, None, use_inverse=True)
    assert ccz_transform(L, cube).as_array().tolist() == invert(cube).as_array().tolist()


def test_ea_bridge_matches_direct_composition():
    rng = random.Random(16)
    for m in (4, 5):
        f = Field(m)
        cube = monomial(f, 3)
        for _ in range(6):
            R1 = _random_invertible(m, rng)
            R2 = _random_invertible(m, rng)
            R = _random_map(m, m, rng)
            L = _ea_graph_map(R1, R2, R)
            got = ccz_transform(L, cube)
            for x in range(f.size):
                want = R1.apply(int(cube.as_array()[R2.apply(x)])) ^ R.apply(x)
                assert got.as_array()[x] == want


def test_ea_bridge_inverse_route_matches():
    rng = random.Random(17)
    f = Field(5)
    cube = monomial(f, 3)
    inv_cube = invert(cube)
    for _ in range(6):
        R1 = _random_invertible(5, rng)
        R2 = _random_invertible(5, rng)
        R = _random_map(5, 5, rng)
        L = _ea_graph_map(R1, R2, R, use_inverse=True)
        got = ccz_transform(L, cube)
        for x in range(32):
            want = R1.apply(int(inv_cube.as_array()[R2.apply(x)])) ^ R.apply(x)
            assert got.as_array()[x] == want


@st.composite
def ea_moves(draw):
    """A random table, a random permutation or a power map c*x^d at m = 2..7,
    and the graph map of a random move outer o F o inner + summand (on F^-1
    instead, when F permutes and the draw says so)."""
    m = draw(st.integers(2, 7))
    ctx = Field(m)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("random", "permutation", "power")))
    if kind == "random":
        f = FuncTable(ctx, [rng.randrange(ctx.size) for _ in range(ctx.size)])
    elif kind == "permutation":
        f = FuncTable(ctx, rng.sample(range(ctx.size), ctx.size))
    else:
        d = draw(st.integers(0, ctx.order))
        f = monomial(ctx, d, c=draw(st.integers(1, ctx.order)))
    use_inverse = is_permutation(f) and draw(st.booleans())
    outer, inner = _random_invertible(m, rng), _random_invertible(m, rng)
    return f, _ea_graph_map(outer, inner, _random_map(m, m, rng), use_inverse=use_inverse)


def test_ea_moves_keep_walsh_and_differential_spectra():
    # `paths` records whether `_symmetry_orbits` found a symmetry of the source table,
    # so that both the orbit path and the all-rows path are shown to run
    paths = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ea_moves())
    def check(case):
        f, L = case
        g = ccz_transform(L, f)
        paths.add(any(reps.size < f.ctx.order for reps, _ in _symmetry_orbits(f)))
        assert walsh_spectrum(g).distribution == walsh_spectrum(f).distribution
        assert differential_spectrum(g).distribution == differential_spectrum(f).distribution

    check()
    assert paths == {True, False}


# ---------------------------------------------------------------- power test

def test_power_maps_stay_inconclusive():
    for m, d in ((4, 3), (4, 7), (5, 3), (5, 29), (5, 15), (6, 5)):
        assert power_inequivalence_witness(monomial(Field(m), d)) is None


def test_affine_functions_stay_inconclusive():
    f = Field(5)
    assert power_inequivalence_witness(evaluate(UnivariatePoly(f, {1: 3, 0: 7}))) is None


def test_trace_mixed_cube_proven_inequivalent():
    # x^3 + (x^2 + x) tr(x^3 + x) has a component of degree 2 while the
    # function itself has degree 3; the first witness is c = 1
    f = Field(5)
    vals = []
    for x in range(32):
        x3 = f.pow(x, 3)
        vals.append(x3 ^ (f.mul(x, x) ^ x) * f.trace(x3 ^ x))
    tab = FuncTable(f, vals)
    assert power_inequivalence_witness(tab) == 1


# ------------------------------------------------- fast permutation criteria

def test_perm_criterion_trivial_pairs():
    f = Field(4)
    zero = evaluate(UnivariatePoly(f, {}))
    ident = evaluate(UnivariatePoly(f, {1: 1}))
    assert gold_perm_criterion(zero, ident, 1)
    assert not gold_perm_criterion(ident, zero, 1)  # x^3 not a permutation (m even)
    f5 = Field(5)
    ident5, zero5 = evaluate(UnivariatePoly(f5, {1: 1})), evaluate(UnivariatePoly(f5, {}))
    assert gold_perm_criterion(ident5, zero5, 1)


def test_perm_criterion_matches_brute_force():
    rng = random.Random(18)
    for m in (4, 5):
        f = Field(m)
        e = 3
        for _ in range(40):
            L = _random_linearized(f, rng)
            Lp = _random_linearized(f, rng)
            Ltab = evaluate(L)
            Lptab = evaluate(Lp)
            table = [
                Ltab.as_array()[f.pow(x, e)] ^ Lptab.as_array()[x] for x in range(f.size)
            ]
            want = is_permutation(FuncTable(f, table))
            assert gold_perm_criterion(Ltab, Lptab, 1) == want


def test_perm_criterion_matches_brute_force_across_cached_grids():
    # fields and indices interleave, so a grid served for the wrong key shows
    rng = random.Random(20)
    cases = [(Field(5), 1), (Field(7), 2), (Field(7, poly=0x89), 2), (Field(7), 1), (Field(5), 2)]
    verdicts = set()
    for _ in range(6):
        for f, i in cases:
            L = _random_linearized(f, rng)
            Lp = _random_linearized(f, rng)
            Ltab = evaluate(L)
            Lptab = evaluate(Lp)
            e = (1 << i) + 1
            table = [Ltab.as_array()[f.pow(x, e)] ^ Lptab.as_array()[x] for x in range(f.size)]
            verdict = gold_perm_criterion(Ltab, Lptab, i)
            assert verdict == is_permutation(FuncTable(f, table))
            verdicts.add(verdict)
    assert verdicts == {True, False}


def _scalar_linear_table(f: Field, poly: UnivariatePoly) -> np.ndarray:
    """Table of a linearized polynomial: m scalar images, spread by linearity."""
    tab = np.zeros(f.size, dtype=np.int64)
    for k in range(f.m):
        image = 0
        for e, c in poly.terms.items():
            image ^= f.mul(c, f.pow(1 << k, e))
        tab[1 << k:2 << k] = tab[:1 << k] ^ image
    return tab


def test_perm_criterion_kernel_coset_matches_brute_force():
    rng = random.Random(707)
    verdicts = set()
    for m in range(3, 10):
        polys = [p for p in range((1 << m) + 1, 1 << (m + 1), 2) if is_irreducible(p)][:2]
        for poly in polys:
            f = Field(m, poly)
            zero = UnivariatePoly(f, {})
            ident = UnivariatePoly(f, {1: 1})
            fixed = [(zero, zero), (zero, ident), (ident, zero), (zero, _random_linearized(f, rng))]
            if m == 6:  # kernels GF(4) and GF(8), of dimensions 2 and 3
                for sub in ({4: 1, 1: 1}, {8: 1, 1: 1}):
                    fixed += [(UnivariatePoly(f, sub), _random_linearized(f, rng)) for _ in range(6)]
            for i in range(1, m):
                if math.gcd(i, m) != 1:
                    continue
                e = (1 << i) + 1
                powered = np.array([f.pow(x, e) for x in range(f.size)])
                pairs = fixed + [
                    (_random_linearized(f, rng, 3), _random_linearized(f, rng, 3)) for _ in range(6)
                ]
                for L, Lp in pairs:
                    table = _scalar_linear_table(f, L)[powered] ^ _scalar_linear_table(f, Lp)
                    want = np.unique(table).size == f.size
                    verdict = gold_perm_criterion(evaluate(L), evaluate(Lp), i)
                    assert verdict == want, (m, hex(poly), i, L, Lp)
                    verdicts.add(want)
    assert verdicts == {True, False}


def test_perm_criterion_gcd_guard():
    f = Field(4)
    with pytest.raises(GcdViolationError):
        gold_perm_criterion(evaluate(UnivariatePoly(f, {})), evaluate(UnivariatePoly(f, {1: 1})), 2)


def test_even_criterion_trivial_and_known():
    f = Field(4)
    assert gold_perm_criterion_even(evaluate(UnivariatePoly(f, {})), 1)  # F = x
    assert not gold_perm_criterion_even(evaluate(UnivariatePoly(f, {1: 1})), 1)  # x^3 + x
    # L = 6*tr(x) permutes; the absolute trace in place of the trace onto
    # F_4 would reject it
    L = UnivariatePoly(f, {1: 6, 2: 6, 4: 6, 8: 6})
    Ltab = evaluate(L)
    for i in (1, 3):
        e = (1 << i) + 1
        assert is_permutation(FuncTable(f, [Ltab.as_array()[f.pow(x, e)] ^ x for x in range(16)]))
        assert gold_perm_criterion_even(Ltab, i)


def test_even_criterion_matches_brute_force():
    rng = random.Random(19)
    for m, i in ((4, 1), (4, 3), (6, 1), (6, 5)):
        f = Field(m)
        e = (1 << i) + 1
        for _ in range(30):
            L = _random_linearized(f, rng)
            Ltab = evaluate(L)
            table = [Ltab.as_array()[f.pow(x, e)] ^ x for x in range(f.size)]
            want = is_permutation(FuncTable(f, table))
            assert gold_perm_criterion_even(Ltab, i) == want


def test_even_criterion_root_choice_is_irrelevant():
    # all solutions of u^(2^i+1) = b differ by cube roots of unity in F_4,
    # and the trace-onto-F_4 condition is stable under that scaling
    f = Field(6)
    e = 3
    for b in range(1, 64):
        roots = [u for u in range(1, 64) if f.pow(u, e) == b]
        if not roots:
            continue
        for v in (1, 17, 45):
            verdicts = {
                f.subfield_trace(f.mul(v, f.inv(u)), 2) != 0 for u in roots
            }
            assert len(verdicts) == 1


def test_even_criterion_guards():
    with pytest.raises(OddDegreeError):
        gold_perm_criterion_even(evaluate(UnivariatePoly(Field(5), {})), 1)
    with pytest.raises(GcdViolationError):
        gold_perm_criterion_even(evaluate(UnivariatePoly(Field(4), {})), 2)


def _random_invertible_table(f: Field, rng: np.random.Generator) -> np.ndarray:
    while True:
        tab = _linear_table(rng.integers(0, f.size, size=f.m).tolist())
        if np.unique(tab).size == f.size:
            return tab


def _random_rank_table(f: Field, rng: np.random.Generator) -> FuncTable:
    """x -> A(C(x) mod 2^d) for random invertible A, C and d in 0..m: a linear
    table whose image is a random subspace of dimension d."""
    d = int(rng.integers(0, f.m + 1))
    outer, inner = _random_invertible_table(f, rng), _random_invertible_table(f, rng)
    return FuncTable(f, outer[inner & ((1 << d) - 1)])


def _second_index(m: int) -> int:
    return next(i for i in range(2, m) if math.gcd(i, m) == 1)


def test_criteria_see_permutations_among_summands_of_every_rank():
    # one- and two-term summands almost never give a permutation; summands of
    # every rank do, so both verdicts occur at every m
    rng = np.random.default_rng(1313)
    for m in range(3, 9):
        f = Field(m)
        xs = np.arange(f.size)
        verdicts = []
        for i in (1, _second_index(m)):
            powered = f.pow_many(xs, (1 << i) + 1)
            for _ in range(150):
                L, Lp = _random_rank_table(f, rng), _random_rank_table(f, rng)
                want = is_permutation(FuncTable(f, L.as_array()[powered] ^ Lp.as_array()))
                assert gold_perm_criterion(L, Lp, i) == want, (m, i)
                verdicts.append(want)
        assert 0 < sum(verdicts) < len(verdicts), m
    for m in (4, 6, 8):
        f = Field(m)
        xs = np.arange(f.size)
        verdicts = []
        for i in (1, _second_index(m)):
            powered = f.pow_many(xs, (1 << i) + 1)
            for _ in range(150):
                L = _random_rank_table(f, rng)
                want = is_permutation(FuncTable(f, L.as_array()[powered] ^ xs))
                assert gold_perm_criterion_even(L, i) == want, (m, i)
                verdicts.append(want)
        assert 0 < sum(verdicts) < len(verdicts), m


@pytest.mark.parametrize("m", range(3, 11))
def test_stacked_criteria_agree_row_by_row_on_stacks_that_permute(m):
    # the sampled claims almost never draw a permuting trial, so each stack
    # mixes hand-made permuting rows with random rows of every rank; every
    # row's verdict must equal the one-table call and brute force
    f = Field(m)
    rng = np.random.default_rng(2300 + m)
    xs = np.arange(f.size, dtype=np.int64)
    zero = np.zeros(f.size, dtype=np.int64)
    for i in (1, _second_index(m)):
        powered = f.pow_many(xs, (1 << i) + 1)
        # L = 0 with L' = x permutes; so does L = x with L' = 0 at odd m
        pairs = [(zero, xs), (xs, zero)]
        for _ in range(30):
            L = _random_rank_table(f, rng).as_array()
            pairs.append((L, _random_rank_table(f, rng).as_array()))
            pairs.append((L, xs))
        Ls, Lps = (np.array(side) for side in zip(*pairs))
        verdicts = _gold_perm_rows(f, Ls, Lps, i)
        for L, Lp, verdict in zip(Ls, Lps, verdicts):
            want = is_permutation(FuncTable(f, L[powered] ^ Lp))
            one = gold_perm_criterion(FuncTable(f, L), FuncTable(f, Lp), i)
            assert verdict == want == one, (m, i)
        assert 0 < verdicts.sum() < len(verdicts), (m, i)
        if m % 2:
            continue
        # L = c*x (only c = 0 permutes: L* = c*v takes non-residue values),
        # L = a*tr(c*x) with c a (2^i+1)-th power, whose L* takes only the
        # values 0 and c, and random ranks
        cubes = f.pow_many(np.arange(1, 9), (1 << i) + 1)
        Ls = np.array(
            [f.scale_table(c) for c in range(16)]
            + [a * f.trace_table()[f.mul_many(c, xs)] for c in cubes for a in range(1, 9)]
            + [_random_rank_table(f, rng).as_array() for _ in range(30)]
        )
        verdicts = _gold_perm_even_rows(f, Ls, i)
        for L, verdict in zip(Ls, verdicts):
            want = is_permutation(FuncTable(f, L[powered] ^ xs))
            one = gold_perm_criterion_even(FuncTable(f, L), i)
            assert verdict == want == one, (m, i)
        assert 0 < verdicts.sum() < len(verdicts), (m, i)


def test_stacked_criteria_reject_a_stack_with_one_nonlinear_row():
    f = Field(6)
    Ls = np.array([f.scale_table(c) for c in range(1, 9)])
    Ls[5, 37] ^= 1
    good = Ls[:5]
    for call in (
        lambda: _gold_perm_rows(f, Ls, good[:1].repeat(8, axis=0), 1),
        lambda: _gold_perm_rows(f, good[:1].repeat(8, axis=0), Ls, 1),
        lambda: _gold_perm_even_rows(f, Ls, 1),
    ):
        with pytest.raises(NotLinearizedError, match="^table is not F_2-linear$"):
            call()
    assert _gold_perm_rows(f, good, good, 1).shape == (5,)
    assert _gold_perm_even_rows(f, good, 1).shape == (5,)


@pytest.mark.parametrize("i", [0, -1])
def test_gold_index_guards_reject_nonpositive_index(i):
    f5, f6 = Field(5), Field(6)
    with pytest.raises(ConditionViolatedError, match="Frobenius index must be positive"):
        gold_perm_criterion(
            evaluate(UnivariatePoly(f5, {})), evaluate(UnivariatePoly(f5, {1: 1})), i
        )
    with pytest.raises(ConditionViolatedError, match="Frobenius index must be positive"):
        gold_perm_criterion_even(evaluate(UnivariatePoly(f6, {})), i)


# ---------------------------------------------------------------- completion search

def test_search_zero_function_finds_first_invertible():
    f = Field(3)
    zero = FuncTable(f, [0] * 8)
    got = linear_completion_search(zero)
    assert got is not None
    # oracle: the first k in row-major order whose matrix is invertible
    first = None
    for k in range(1 << 9):
        rows = [(k >> (3 * r)) & 7 for r in range(3)]
        vals = set()
        for x in range(8):
            v = 0
            for r in range(3):
                v |= ((rows[r] & x).bit_count() & 1) << r
            vals.add(v)
        if len(vals) == 8:
            first = rows
            break
    assert list(got.rows) == first


def test_search_on_permutation_returns_zero_map():
    f = Field(5)
    got = linear_completion_search(monomial(f, 3))
    assert got is not None
    assert list(got.rows) == [0] * 5


def test_search_witness_actually_works():
    rng = random.Random(20)
    f = Field(4)
    tab = FuncTable(f, [rng.randrange(16) for _ in range(16)])
    got = linear_completion_search(tab)
    if got is not None:
        summed = [tab.as_array()[x] ^ got.apply(x) for x in range(16)]
        assert len(set(summed)) == 16


def _sweep_oracle(tab: FuncTable) -> list[int] | None:
    """Rows of the first map k = sum rows[r] << (r*m) in ascending k with
    tab + L a permutation, by checking all 2^(m*m) maps at once (m <= 4)."""
    m, n = tab.ctx.m, tab.ctx.size
    one = np.uint64(1)
    ks = np.arange(1 << (m * m), dtype=np.uint64)
    cols = []
    for j in range(m):
        c = np.zeros(len(ks), dtype=np.uint64)
        for r in range(m):
            c |= ((ks >> np.uint64(r * m + j)) & one) << np.uint64(r)
        cols.append(c)
    lin = np.zeros((len(ks), n), dtype=np.uint64)
    for x in range(1, n):
        lsb = x & -x
        lin[:, x] = lin[:, x ^ lsb] ^ cols[lsb.bit_length() - 1]
    occ = np.bitwise_or.reduce(one << (lin ^ tab.as_array().astype(np.uint64)), axis=1)
    good = np.flatnonzero(occ == np.uint64((1 << n) - 1))
    if not good.size:
        return None
    k = int(good[0])
    return [(k >> (r * m)) & (n - 1) for r in range(m)]


def _search_case(seed: int) -> FuncTable:
    """A random m=3 or m=4 table; every third one is a permutation plus a
    random linear map, so it certainly has a completion."""
    rng = random.Random(seed)
    ctx = Field(3 + seed % 2)
    n = ctx.size
    if seed % 3:
        return FuncTable(ctx, [rng.randrange(n) for _ in range(n)])
    perm = rng.sample(range(n), n)
    lin = BinLinearMap(ctx.m, ctx.m, [rng.randrange(n) for _ in range(ctx.m)])
    return FuncTable(ctx, [perm[x] ^ lin.apply(x) for x in range(n)])


@pytest.mark.parametrize("seed", range(120))
def test_search_matches_sweep_oracle(seed):
    tab = _search_case(seed)
    got = linear_completion_search(tab)
    if seed % 3 == 0:
        assert got is not None
    assert (None if got is None else list(got.rows)) == _sweep_oracle(tab)


@pytest.mark.parametrize("seed", range(0, 120, 7))
def test_search_in_blocks_of_three_rows_matches_sweep_oracle(monkeypatch, seed):
    # the Walsh-zero table is filled a block of rows at a time
    monkeypatch.setattr(spectra, "_block_rows", lambda n, floor=1: 3)
    tab = _search_case(seed)
    got = linear_completion_search(tab)
    assert (None if got is None else list(got.rows)) == _sweep_oracle(tab)


@pytest.mark.parametrize("seed", range(0, 120, 7))
def test_search_in_gathers_of_one_row_matches_sweep_oracle(monkeypatch, seed):
    # a level's rows are gathered in chunks of _GATHER_CELLS cells; here
    # every chunk is one row of 2^m cells
    tab = _search_case(seed)
    monkeypatch.setattr(ccz, "_GATHER_CELLS", tab.ctx.size)
    got = linear_completion_search(tab)
    assert (None if got is None else list(got.rows)) == _sweep_oracle(tab)


def test_search_node_count_holds_in_gathers_of_one_row(monkeypatch):
    # the chunks change neither the candidates nor the nodes: thm1 at m = 5
    # still takes the 465 nodes that test_search_node_counts_are_pinned pins
    monkeypatch.setattr(ccz, "_GATHER_CELLS", 1)
    tab = theorem1(Field(5), 1)
    assert linear_completion_search(tab, budget=465) is None
    with pytest.raises(BudgetExceededError):
        linear_completion_search(tab, budget=464)


def test_search_gathers_a_level_in_bounded_chunks():
    # a permutation is its own completion, L = 0, so the search descends
    # to level 0: its 2^(m-1) rows of 2^m cells as one int64 index would
    # take 4 n^2 = 16 MiB; a chunk of 2^20 cells takes 9 bytes a cell
    n = 1 << 11
    tab = FuncTable(Field(11), np.random.default_rng(11).permutation(n))
    tracemalloc.start()
    try:
        got = linear_completion_search(tab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(got.rows) == [0] * 11
    assert peak < n * n + (10 << 20)  # the zero table and one chunk


def test_search_holds_little_beyond_its_zero_table():
    # the transformed rows are held a block of 16 at a time at m = 11, so
    # the zero table is most of the peak
    n = 1 << 11
    tab = FuncTable(Field(11), np.random.default_rng(11).permutation(n))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            linear_completion_search(tab, budget=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * n  # the zero table holds n * n bools


def test_search_settles_m7_without_budget():
    assert linear_completion_search(theorem1(Field(7), 1)) is None


def test_search_node_budget_trips():
    with pytest.raises(BudgetExceededError):
        linear_completion_search(theorem1(Field(5), 1), budget=1)


def test_search_rejects_fields_beyond_the_walsh_matrix_limit():
    with pytest.raises(ValueError):
        linear_completion_search(monomial(Field(15), 3))


def test_search_time_limit_trips():
    f = Field(5)
    vals = [x ^ ((x * 7) % 32) for x in range(32)]  # arbitrary non-trivial table
    with pytest.raises(BudgetExceededError):
        linear_completion_search(FuncTable(f, vals), time_limit=0.0)


def _seeded_m4_table(seed: int) -> FuncTable:
    return FuncTable(Field(4), np.random.default_rng(seed).integers(0, 16, size=16))


@pytest.mark.parametrize(
    "make, count, found",
    [
        (lambda: theorem1(Field(5), 1), 465, None),
        (lambda: _seeded_m4_table(0), 14, [0xA, 0x1, 0x1, 0x2]),
        (lambda: _seeded_m4_table(14), 39, None),
        (lambda: _seeded_m4_table(23), 30, [0xC, 0xB, 0x2, 0xB]),
    ],
    ids=["thm1-m5", "m4-seed0", "m4-seed14", "m4-seed23"],
)
def test_search_node_counts_are_pinned(make, count, found):
    # the nodes of the search on tables with no zero-free Walsh row: a
    # budget of exactly that many passes and one fewer trips
    tab = make()
    got = linear_completion_search(tab, budget=count)
    assert (None if got is None else list(got.rows)) == found
    with pytest.raises(BudgetExceededError):
        linear_completion_search(tab, budget=count - 1)


def _first_zero_free_row(tab: FuncTable) -> int | None:
    """The least b != 0 with W(a, b) != 0 for every a, from the dot-product
    character sums of one row b at a time."""
    n = tab.ctx.size
    xs, vals = np.arange(n), tab.as_array().astype(np.int64)
    chars = 1 - 2 * (np.bitwise_count(xs[:, None] & xs[None, :]) & 1).astype(np.int64)  # (-1)^(a.x)
    for b in range(1, n):
        if (chars @ (1 - 2 * (np.bitwise_count(b & vals) & 1).astype(np.int64))).all():
            return b
    return None


@pytest.mark.parametrize("row", [8, 128])
def test_search_stops_at_the_block_with_a_zero_free_row(monkeypatch, row):
    # a permutation's entries XOR to 0; with ``row`` xored into entry 0 they
    # XOR to ``row``, so each mask b with b & row != 0 has a component of odd
    # weight, whose Walsh values are all 2 mod 4, and mask ``row`` is the
    # first zero-free row.  The m = 8 zero table is gathered in 4 blocks of
    # 64 masks, or 86 blocks of 3, and the search reads the blocks up to
    # the one holding ``row``
    vals = np.random.default_rng(row).permutation(256)
    vals[0] ^= row
    tab = FuncTable(Field(8), vals)
    assert _first_zero_free_row(tab) == row
    starts, blocks = [], ccz._walsh_blocks

    def spy(f, masks=None):
        for start, block in blocks(f, masks):
            starts.append(start)
            yield start, block

    monkeypatch.setattr(ccz, "_walsh_blocks", spy)
    for size, total in ((64, 4), (3, 86)):  # the gather's own blocks, then blocks of 3
        if size == 3:
            monkeypatch.setattr(spectra, "_block_rows", lambda n, floor=1: 3)
        starts.clear()
        assert linear_completion_search(tab, budget=1) is None  # the root alone
        assert starts == list(range(0, row + 1, size)) and len(starts) < total


def test_search_settled_by_a_zero_free_row_still_checks_its_deadline():
    tab = _seeded_m4_table(36)
    with pytest.raises(BudgetExceededError):
        linear_completion_search(tab, time_limit=0.0)


# -- the Theorem 1 search through the Gold graph -----------------------------


def _completes(f: FuncTable, L: BinLinearMap) -> bool:
    """Brute force: does x -> f(x) + L(x) hit every value?"""
    tab = f.as_array().tolist()
    return sorted(y ^ L.apply(x) for x, y in enumerate(tab)) == list(range(f.ctx.size))


def _rank1_gold_image(rng: random.Random, ctx: Field, i: int):
    """The image of the Gold graph of index i under a random involution
    M = I + c u^T (u.c = 0) that carries it onto a graph, and the table of
    that graph."""
    m, gold = ctx.m, monomial(ctx, (1 << i) + 1)
    while True:
        c, u = rng.randrange(1, 1 << 2 * m), rng.randrange(1, 1 << 2 * m)
        if (c & u).bit_count() & 1:
            continue
        M = BinLinearMap(2 * m, 2 * m, [(1 << r) ^ (u * ((c >> r) & 1)) for r in range(2 * m)])
        w = graph_image(M, gold)
        if is_permutation(w.F1):
            return w, compose(w.F2, invert(w.F1))


@pytest.mark.parametrize("m,i", [(5, 1), (5, 2), (7, 3), (9, 1), (9, 4), (11, 1), (13, 2)])
def test_gold_graph_search_settles_thm1(m, i):
    # the DFS agrees at m = 5 and 7 (tests/test_cli.py); it cannot finish m = 9.
    # The budget pins the pruning: the trace-dual order needs at most 17
    # nodes here, the order of b's own bits 1023 at m = 11
    ctx = Field(m)
    assert gold_graph_completion_search(theorem12_ccz_witness(ctx, i), i, budget=32) is None


@pytest.mark.parametrize("m,count,seed", [(5, 120, 1705), (7, 8, 1707)])
def test_gold_graph_search_agrees_with_the_dfs_on_rank1_images(m, count, seed):
    rng = random.Random(seed)
    ctx = Field(m)
    verdicts = []
    for _ in range(count):
        i = rng.choice([k for k in range(1, m) if math.gcd(k, m) == 1])
        w, f = _rank1_gold_image(rng, ctx, i)
        found = gold_graph_completion_search(w, i)
        assert (found is None) == (linear_completion_search(f) is None)
        if found is not None:
            assert _completes(f, found)
        verdicts.append(found is None)
    assert set(verdicts) == {True, False}


@pytest.mark.parametrize("m,i", [(5, 1), (5, 2), (7, 1), (7, 2)])
def test_gold_graph_search_settles_the_scaled_thm1_witnesses(m, i):
    # the witness at a carries the Gold graph onto thm1's table scaled by a,
    # x -> a^e f(x/a), which a completion L of f would turn into the
    # completion x -> a^e L(x/a): every a answers as a = 1, and the DFS agrees
    ctx = Field(m)
    for a in (ctx.generator, random.Random(10 * m + i).randrange(2, ctx.size)):
        w = theorem12_ccz_witness(ctx, i, a)
        assert gold_graph_completion_search(w, i) is None
        assert linear_completion_search(compose(w.F2, invert(w.F1))) is None


def test_gold_graph_search_completes_every_scaled_image():
    # S(x, y) = (a x, a^e y) fixes the Gold graph, so S M S^-1 carries it onto
    # the graph of x -> a^e f(x/a), which x -> a^e L(x/a) completes when L
    # completes f; the search finds a completion of that image too
    rng, ctx, m, e = random.Random(1709), Field(5), 5, 3
    xs = range(ctx.size)

    def scaling(c: int, d: int) -> BinLinearMap:
        return _from_columns(2 * m, 2 * m, [ctx.mul(c, 1 << k) for k in range(m)]
                             + [ctx.mul(d, 1 << k) << m for k in range(m)])

    completed = 0
    while completed < 4:
        w, f = _rank1_gold_image(rng, ctx, 1)
        L = gold_graph_completion_search(w, 1)
        if L is None:
            continue
        completed += 1
        a = rng.randrange(2, ctx.size)
        ae, a_inv = ctx.pow(a, e), ctx.inv(a)
        S, S_inv = scaling(a, ae), scaling(a_inv, ctx.inv(ae))
        conjugate = [S.apply(w.L.apply(S_inv.apply(1 << j))) for j in range(2 * m)]
        wa = graph_image(_from_columns(2 * m, 2 * m, conjugate), monomial(ctx, e))
        fa = FuncTable(ctx, [ctx.mul(ae, int(f.as_array()[ctx.mul(x, a_inv)])) for x in xs])
        assert compose(wa.F2, invert(wa.F1)) == fa
        La = _from_columns(m, m, [ctx.mul(ae, L.apply(ctx.mul(1 << k, a_inv))) for k in range(m)])
        assert _completes(fa, La)
        found = gold_graph_completion_search(wa, 1)
        assert found is not None and _completes(fa, found)


def test_gold_graph_search_budgets_trip():
    ctx = Field(5)
    w = theorem12_ccz_witness(ctx, 1)
    with pytest.raises(BudgetExceededError):
        gold_graph_completion_search(w, 1, budget=3)
    with pytest.raises(BudgetExceededError):
        gold_graph_completion_search(w, 1, time_limit=0.0)
    with pytest.raises(ValueError):
        gold_graph_completion_search(w, 1, budget=0)


@pytest.mark.parametrize(
    "m,i,count",
    [(5, 1, 7), (5, 2, 7), (7, 1, 13), (7, 2, 12), (9, 1, 14), (9, 2, 15),
     (11, 1, 16), (11, 2, 16), (13, 1, 17), (13, 2, 17)],
)
def test_gold_graph_search_node_counts_are_pinned(m, i, count):
    # thm1 has no completion: a budget of exactly its node count answers
    # None, and one fewer trips
    ctx = Field(m)
    w = theorem12_ccz_witness(ctx, i)
    assert gold_graph_completion_search(w, i, budget=count) is None
    with pytest.raises(BudgetExceededError):
        gold_graph_completion_search(w, i, budget=count - 1)


def test_index_taking_functions_read_a_huge_index_mod_m():
    # only i mod m enters, so 2^i is never formed; here i = 1 (mod m)
    ctx, even = Field(5), Field(6)
    w = theorem12_ccz_witness(ctx, 1)
    assert gold_graph_completion_search(w, 5 * 10**12 + 1, budget=32) is None
    ident, ident6 = monomial(ctx, 1), monomial(even, 1)
    assert gold_perm_criterion(ident, ident, 5 * 10**12 + 1) is gold_perm_criterion(ident, ident, 1)
    assert gold_perm_criterion_even(ident6, 6 * 10**12 + 1) is gold_perm_criterion_even(ident6, 1)


def test_gold_graph_search_rejects_what_it_cannot_decide():
    ctx = Field(5)
    w, cube = theorem12_ccz_witness(ctx, 1), monomial(ctx, 3)
    with pytest.raises(ConditionViolatedError):
        gold_graph_completion_search(theorem12_ccz_witness(Field(6), 1), 1)
    with pytest.raises(GcdViolationError):
        gold_graph_completion_search(w, 5)
    rank2 = BinLinearMap(10, 10, [(1 << r) ^ (0x100 << r if r < 2 else 0) for r in range(10)])
    for M in (rank2, _swap_map(5)):
        with pytest.raises(ValueError, match="I \\+ c u\\^T"):
            gold_graph_completion_search(graph_image(M, cube), 1)
    # c = e_0, u = e_5: the first projection x + (bit 0 of x^3) e_0 does not permute
    not_a_graph = BinLinearMap(10, 10, [(1 << r) ^ (0x20 if r == 0 else 0) for r in range(10)])
    with pytest.raises(NotAPermutationError):
        gold_graph_completion_search(graph_image(not_a_graph, cube), 1)

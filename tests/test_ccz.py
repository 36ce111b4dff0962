"""Linear maps over F_2, graph transforms, criteria, and searches."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbfkit.ccz import (
    BinLinearMap,
    BudgetExceededError,
    ConditionViolatedError,
    GcdViolationError,
    NotLinearizedError,
    OddDegreeError,
    SingularError,
    _adjoint_table,
    ccz_transform,
    gold_perm_criterion,
    gold_perm_criterion_even,
    graph_image,
    identity_map,
    linear_completion_search,
    map_compose,
    map_inverse,
    map_invertible,
    map_rank,
    map_transpose,
    power_inequivalence_witness,
)
from vbfkit.constructions import theorem1, theorem12_ccz_witness
from vbfkit.gf2m import Field, _linear_table, is_irreducible
from vbfkit.spectra import _orbits, differential_spectrum, walsh_spectrum
from vbfkit.vbf import (
    FuncTable,
    NotAPermutationError,
    UnivariatePoly,
    evaluate,
    invert,
    is_permutation,
    monomial,
)


def _dot(x: int, y: int) -> int:
    return (x & y).bit_count() & 1


def _swap_map(m: int) -> BinLinearMap:
    rows = [1 << (m + r) for r in range(m)] + [1 << r for r in range(m)]
    return BinLinearMap(2 * m, 2 * m, rows)


def _random_map(n_in: int, n_out: int, rng: random.Random) -> BinLinearMap:
    return BinLinearMap(n_in, n_out, [rng.randrange(1 << n_in) for _ in range(n_out)])


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
    inner_inv = map_inverse(inner)
    mix = map_compose(summand, inner_inv) if summand is not None else zero
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
    assert map_inverse(ident).rows == ident.rows
    assert map_transpose(ident).rows == ident.rows
    for x in range(32):
        assert ident.apply(x) == x


def test_repeated_rows_not_invertible():
    L = BinLinearMap(3, 3, [0b101, 0b101, 0b010])
    assert not map_invertible(L)
    with pytest.raises(SingularError):
        map_inverse(L)


def test_inverse_round_trip_and_double_transpose():
    rng = random.Random(3)
    for n in (3, 5, 6):
        L = _random_invertible(n, rng)
        Li = map_inverse(L)
        comp = map_compose(L, Li)
        assert comp.rows == identity_map(n).rows
        assert map_transpose(map_transpose(L)).rows == L.rows


def test_transpose_is_dot_product_adjoint():
    rng = random.Random(4)
    L = _random_map(7, 7, rng)
    Lt = map_transpose(L)
    for _ in range(100):
        x, y = rng.randrange(128), rng.randrange(128)
        assert _dot(x, Lt.apply(y)) == _dot(L.apply(x), y)


def test_map_compose_matches_sequential_apply():
    rng = random.Random(5)
    A = _random_map(6, 4, rng)
    B = _random_map(5, 6, rng)
    AB = map_compose(A, B)
    for x in range(32):
        assert AB.apply(x) == A.apply(B.apply(x))


def test_map_rank_and_kernel():
    L = BinLinearMap(4, 4, [0b0001, 0b0010, 0b0011, 0b0000])
    assert map_rank(L) == 2
    # the kernel, by brute force, has 2^(4 - rank) members
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
    M = map_transpose(BinLinearMap(5, 5, [(1 << j) ^ f.mul(1 << j, 1 << j) for j in range(5)]))
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
            assert _adjoint_table(evaluate(p)).tolist() == want, (m, p)


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
            L = map_compose(bridge, movers[trial % len(movers)])
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
        maps.append(map_compose(bridge, movers[trial % len(movers)]))
    outcomes = set()
    for L in maps:
        Li = map_inverse(L)
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
    # `paths` records whether `_orbits` found a symmetry of the source table,
    # so that both the orbit path and the all-rows path are shown to run
    paths = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ea_moves())
    def check(case):
        f, L = case
        g = ccz_transform(L, f)
        paths.add(any(_orbits(f, walsh)[0].size < f.ctx.order for walsh in (True, False)))
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

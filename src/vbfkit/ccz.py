"""Linear algebra over F_2 and graph-based transforms of lookup tables.

A vectorial map F on a field of size 2^m has a graph {(x, F(x))} living in
F_2^(2m).  Invertible linear maps of that doubled space move graphs around;
whenever the image is again a graph, `ccz_transform` recovers the new table.
The module also provides the combinatorial side of the same picture:
subspaces transversal to a graph, subgroup builders that dodge difference
sets, permutation criteria for tables of the shape L(x^(2^i+1)) + L'(x), and
a search for linear summands turning a table into a permutation.

Points of F_2^(2m) are packed as ``x | (y << m)`` -- input half in the low
bits.  Linear maps are stored row-major: output bit r of ``BinLinearMap`` is
the parity of ``rows[r] & x``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .gf2m import Field
from .spectra import _MATRIX_LIMIT, TooLargeError, _dual_reindex, _fwht_rows, _sign_rows
from .vbf import (
    ContextMismatchError,
    FuncTable,
    NotAPermutationError,
    UnivariatePoly,
    compose,
    evaluate,
    interpolate,
    invert,
    is_permutation,
    packed_anf,
)


class SingularError(ValueError):
    """A linear map that had to be invertible is not."""


class NotLinearizedError(ValueError):
    """Polynomial has exponents other than powers of two."""


class WrongDimensionError(ValueError):
    """Subspace or map dimensions do not fit the operation."""


class RankDeficientError(ValueError):
    """Map does not reach full rank where full rank is required."""


class GcdViolationError(ValueError):
    """Frobenius index shares a factor with the extension degree."""


class OddDegreeError(ValueError):
    """Criterion only applies to even extension degrees."""


class BudgetExceededError(RuntimeError):
    """Node or wall-clock budget ran out before the search finished."""


def pack_point(x: int, y: int, m: int) -> int:
    return x | (y << m)


def split_point(p: int, m: int) -> tuple[int, int]:
    return p & ((1 << m) - 1), p >> m


class BinLinearMap:
    """F_2-linear map given by row masks: output bit r = parity(rows[r] & x)."""

    __slots__ = ("n_in", "n_out", "rows", "_cols")

    def __init__(self, n_in: int, n_out: int, rows):
        if n_in < 1 or n_out < 1:
            raise ValueError("map dimensions must be positive")
        rows = tuple(int(r) for r in rows)
        if len(rows) != n_out:
            raise ValueError(f"expected {n_out} row masks, got {len(rows)}")
        lim = 1 << n_in
        for r in rows:
            if not 0 <= r < lim:
                raise ValueError(f"row mask {r:#x} outside F_2^{n_in}")
        self.n_in = n_in
        self.n_out = n_out
        self.rows = rows
        self._cols = None

    @property
    def columns(self) -> tuple:
        if self._cols is None:
            self._cols = tuple(
                sum(((self.rows[r] >> j) & 1) << r for r in range(self.n_out))
                for j in range(self.n_in)
            )
        return self._cols

    def apply(self, x: int) -> int:
        if not 0 <= x < (1 << self.n_in):
            raise ValueError(f"input {x:#x} outside F_2^{self.n_in}")
        out = 0
        cols = self.columns
        while x:
            lsb = x & -x
            out ^= cols[lsb.bit_length() - 1]
            x ^= lsb
        return out

    def apply_many(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64)
        out = np.zeros_like(xs)
        for j, c in enumerate(self.columns):
            if c:
                out ^= ((xs >> j) & 1) * c
        return out

    def table(self) -> np.ndarray:
        return self.apply_many(np.arange(1 << self.n_in, dtype=np.int64))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinLinearMap)
            and self.n_in == other.n_in
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n_in, self.rows))

    def __repr__(self) -> str:
        return f"BinLinearMap({self.n_in}->{self.n_out})"


def identity_map(n: int) -> BinLinearMap:
    return BinLinearMap(n, n, [1 << r for r in range(n)])


def _from_cols(n_in: int, n_out: int, cols) -> BinLinearMap:
    rows = [
        sum(((cols[j] >> r) & 1) << j for j in range(n_in)) for r in range(n_out)
    ]
    return BinLinearMap(n_in, n_out, rows)


def _echelon(vectors) -> list[tuple[int, int]]:
    """Reduced row echelon of a list of masks, as (pivot, vector) pairs."""
    ech: list[tuple[int, int]] = []
    for v in vectors:
        for p, w in ech:
            if (v >> p) & 1:
                v ^= w
        if v:
            p = v.bit_length() - 1
            ech = [(q, u ^ v if (u >> p) & 1 else u) for q, u in ech]
            ech.append((p, v))
    ech.sort(reverse=True)
    return ech


def map_rank(L: BinLinearMap) -> int:
    return len(_echelon(L.rows))


def map_invertible(L: BinLinearMap) -> bool:
    return L.n_in == L.n_out and map_rank(L) == L.n_in


def map_inverse(L: BinLinearMap) -> BinLinearMap:
    if L.n_in != L.n_out:
        raise ValueError("only square maps can be inverted")
    n = L.n_in
    # eliminate [rows | identity]; a pivot at bit n + j leaves the row
    # combination summing to e_j in the low half, which is inverse row j
    ech = _echelon((row << n) | (1 << r) for r, row in enumerate(L.rows))
    inv_rows = [v & ((1 << n) - 1) for p, v in ech if p >= n]
    if len(inv_rows) < n:
        raise SingularError("map is singular")
    return BinLinearMap(n, n, inv_rows[::-1])


def map_transpose(L: BinLinearMap) -> BinLinearMap:
    return BinLinearMap(L.n_out, L.n_in, L.columns)


def map_compose(outer: BinLinearMap, inner: BinLinearMap) -> BinLinearMap:
    if outer.n_in != inner.n_out:
        raise ValueError("composition shape mismatch")
    cols = [outer.apply(c) for c in inner.columns]
    return _from_cols(inner.n_in, outer.n_out, cols)


def kernel_basis(L: BinLinearMap) -> list[int]:
    """Basis of {x : L(x) = 0}, one vector per free coordinate, ascending."""
    ech = _echelon(L.rows)
    pivots = {p for p, _ in ech}
    basis = []
    for j in range(L.n_in):
        if j in pivots:
            continue
        vec = 1 << j
        for p, w in ech:
            if (w >> j) & 1:
                vec |= 1 << p
        basis.append(vec)
    return basis


def block_map(
    half: int,
    top_left: BinLinearMap | None,
    top_right: BinLinearMap | None,
    bottom_left: BinLinearMap | None,
    bottom_right: BinLinearMap | None,
) -> BinLinearMap:
    """Assemble a 2x2 block map on F_2^(2*half); None means a zero block."""
    for blk in (top_left, top_right, bottom_left, bottom_right):
        if blk is not None and (blk.n_in != half or blk.n_out != half):
            raise WrongDimensionError("blocks must be square of the half size")
    rows = []
    for lo, hi in ((top_left, top_right), (bottom_left, bottom_right)):
        for r in range(half):
            row = (lo.rows[r] if lo is not None else 0) | (
                (hi.rows[r] if hi is not None else 0) << half
            )
            rows.append(row)
    return BinLinearMap(2 * half, 2 * half, rows)


# --------------------------------------------------------------------------
# linearized polynomials as matrices


def _linear_terms(poly: UnivariatePoly) -> list[tuple[int, int]]:
    out = []
    for e, c in sorted(poly.terms.items()):
        if e <= 0 or e & (e - 1):
            raise NotLinearizedError(f"exponent {e} is not a power of two")
        out.append((e.bit_length() - 1, c))
    return out


def linearized_to_matrix(ctx: Field, poly: UnivariatePoly) -> BinLinearMap:
    if poly.ctx != ctx:
        raise ContextMismatchError("polynomial belongs to a different field")
    pairs = _linear_terms(poly)
    cols = []
    for j in range(ctx.m):
        v = 0
        for k, c in pairs:
            v ^= ctx.mul(c, ctx.pow(1 << j, 1 << k))
        cols.append(v)
    return _from_cols(ctx.m, ctx.m, cols)


def matrix_to_linearized(ctx: Field, L: BinLinearMap) -> UnivariatePoly:
    if L.n_in != ctx.m or L.n_out != ctx.m:
        raise WrongDimensionError("matrix does not act on the field")
    tab = FuncTable(ctx, L.table())
    poly = interpolate(tab)
    for e in poly.terms:
        if e <= 0 or e & (e - 1):
            raise NotLinearizedError(f"table is not additive: exponent {e}")
    return poly


def linearized_adjoint(ctx: Field, poly: UnivariatePoly) -> UnivariatePoly:
    """The map L* with trace(v * L(x)) = trace(L*(v) * x) for all v, x."""
    m = ctx.m
    terms: dict[int, int] = {}
    for j, c in _linear_terms(poly):
        k = (m - j) % m
        e = 1 << k
        coeff = terms.pop(e, 0) ^ ctx.pow(c, 1 << k)
        if coeff:
            terms[e] = coeff
    return UnivariatePoly(ctx, terms)


# --------------------------------------------------------------------------
# subspaces of the doubled space


class Subspace:
    """Linear subspace of F_2^ambient with a reduced echelon basis."""

    __slots__ = ("ambient", "_basis", "_ech")

    def __init__(self, ambient: int, basis):
        if ambient < 1:
            raise ValueError("ambient dimension must be positive")
        vs = [int(v) for v in basis]
        for v in vs:
            if not 0 <= v < (1 << ambient):
                raise ValueError(f"vector {v:#x} outside F_2^{ambient}")
        ech = _echelon(vs)
        if len(ech) < len(vs):
            raise ValueError("basis vectors are linearly dependent")
        self.ambient = ambient
        self._ech = tuple(ech)
        self._basis = tuple(v for _, v in ech)

    @property
    def dim(self) -> int:
        return len(self._ech)

    @property
    def basis(self) -> tuple:
        return self._basis

    def coset_label(self, v: int) -> int:
        for p, w in self._ech:
            if (v >> p) & 1:
                v ^= w
        return v

    def contains(self, v: int) -> bool:
        return self.coset_label(v) == 0

    def coset_labels(self, vs) -> np.ndarray:
        out = np.asarray(vs, dtype=np.int64).copy()
        for p, w in self._ech:
            out ^= ((out >> p) & 1) * w
        return out

    def members(self) -> list[int]:
        out = [0]
        for b in self._basis:
            out.extend(v ^ b for v in list(out))
        return out

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


# --------------------------------------------------------------------------
# graphs and their images


@dataclass(frozen=True)
class CczWitness:
    """Image of a graph under L, projected to the two candidate tables."""

    L: BinLinearMap
    F1: FuncTable
    F2: FuncTable


def graph_image(
    L: BinLinearMap, f: FuncTable, shift: tuple[int, int] | None = None
) -> CczWitness:
    ctx = f.ctx
    m, n = ctx.m, ctx.size
    if L.n_in != 2 * m or L.n_out != 2 * m:
        raise WrongDimensionError("map must act on the doubled space")
    if not map_invertible(L):
        raise SingularError("graph map is singular")
    c1, c2 = (0, 0) if shift is None else shift
    if not (0 <= c1 < n and 0 <= c2 < n):
        raise ValueError("shift constants outside the field")
    xs = np.arange(n, dtype=np.int64)
    out = L.apply_many(xs | (f.as_array().astype(np.int64) << m))
    return CczWitness(
        L,
        FuncTable(ctx, (out & (n - 1)) ^ c1),
        FuncTable(ctx, (out >> m) ^ c2),
    )


def ccz_transform(
    L: BinLinearMap, f: FuncTable, shift: tuple[int, int] | None = None
) -> FuncTable:
    """Table of the transformed graph, when the image is again a graph."""
    w = graph_image(L, f, shift)
    if not is_permutation(w.F1):
        raise NotAPermutationError("first projected coordinate is not a permutation")
    return compose(w.F2, invert(w.F1))


def graph_difference_set(f: FuncTable) -> np.ndarray:
    """All packed nonzero differences (a, F(x) + F(x+a)) of the graph."""
    ctx = f.ctx
    n, m = ctx.size, ctx.m
    arr = f.as_array().astype(np.int64)
    xs = np.arange(n)
    chunks = [np.unique(a | ((arr ^ arr[xs ^ a]) << m)) for a in range(1, n)]
    return np.unique(np.concatenate(chunks))


def is_transversal(f: FuncTable, V: Subspace) -> bool:
    """Does every coset of V meet the graph of f exactly once?"""
    ctx = f.ctx
    if V.ambient != 2 * ctx.m or V.dim != ctx.m:
        raise WrongDimensionError(
            f"need a subspace of dimension {ctx.m} in F_2^{2 * ctx.m}"
        )
    xs = np.arange(ctx.size, dtype=np.int64)
    pts = xs | (f.as_array().astype(np.int64) << ctx.m)
    return int(np.unique(V.coset_labels(pts)).size) == ctx.size


# --------------------------------------------------------------------------
# subgroup builders


def gold_avoidance_subgroup(ctx: Field, a: int, i: int) -> Subspace:
    """Dimension-m subgroup avoiding every graph difference of x^(2^i+1).

    Members have first half in {0, a}; the second halves sit on the side of
    the hyperplane trace(a^-(2^i+1) * y) that the difference set misses.
    """
    m = ctx.m
    if not 0 < a < ctx.size:
        raise ValueError("base point a must be a nonzero field element")
    if math.gcd(i, m) != 1:
        raise GcdViolationError(f"gcd({i}, {m}) != 1")
    c = ctx.inv(ctx.pow(a, (1 << i) + 1))
    mask = sum(ctx.trace(ctx.mul(c, 1 << k)) << k for k in range(m))
    hyper = kernel_basis(BinLinearMap(m, 1, [mask]))
    basis = [h << m for h in hyper]
    if m & 1:
        basis.append(a)
    else:
        e0 = mask & -mask
        basis.append(a | (e0 << m))
    return Subspace(2 * m, basis)


def subfield_trace_subgroup(ctx: Field, n: int) -> Subspace:
    """Subgroup F_(2^n) x ker(relative trace), packed into the doubled space."""
    m = ctx.m
    if n < 1 or m % n:
        raise ValueError(f"{n} does not divide the extension degree {m}")
    if n == m:
        basis = [1 << k for k in range(m)]
        return Subspace(2 * m, basis)
    sub = kernel_basis(
        linearized_to_matrix(ctx, UnivariatePoly(ctx, {1: 1, 1 << n: 1}))
    )
    tr_ker = kernel_basis(
        linearized_to_matrix(
            ctx, UnivariatePoly(ctx, {1 << (j * n): 1 for j in range(m // n)})
        )
    )
    return Subspace(2 * m, sub + [k << m for k in tr_ker])


# --------------------------------------------------------------------------
# completing a half map to a permutation of the doubled space


def complete_to_permutation(L1: BinLinearMap, f: FuncTable) -> BinLinearMap:
    """Extend L1 : F_2^(2m) -> F_2^m to an invertible map of the doubled space.

    Requires x -> L1(x, f(x)) to be a permutation.  The second half is chosen
    to map ker(L1) bijectively onto F_2^m and to vanish on a complement.
    """
    ctx = f.ctx
    m = ctx.m
    if L1.n_in != 2 * m or L1.n_out != m:
        raise WrongDimensionError("need a map from the doubled space to the field")
    if map_rank(L1) < m:
        raise RankDeficientError("half map does not reach the whole field")
    xs = np.arange(ctx.size, dtype=np.int64)
    composite = L1.apply_many(xs | (f.as_array().astype(np.int64) << m))
    if int(np.unique(composite).size) != ctx.size:
        raise NotAPermutationError("x -> L1(x, f(x)) is not a permutation")
    ker = kernel_basis(L1)
    pivots = {p for p, _ in _echelon(ker)}
    free = [j for j in range(2 * m) if j not in pivots]
    M = _from_cols(2 * m, 2 * m, list(ker) + [1 << j for j in free])
    L2 = map_compose(
        BinLinearMap(2 * m, m, [1 << r for r in range(m)]), map_inverse(M)
    )
    full = BinLinearMap(2 * m, 2 * m, list(L1.rows) + list(L2.rows))
    if not map_invertible(full):
        raise RankDeficientError("completion failed to produce an invertible map")
    return full


def ea_to_ccz_map(
    outer: BinLinearMap,
    inner: BinLinearMap,
    summand: BinLinearMap | None = None,
    use_inverse: bool = False,
) -> BinLinearMap:
    """Doubled-space map realizing outer o F o inner + summand.

    With use_inverse=True the same composition is applied to the inverse of F
    instead (F must then be a permutation for the transform to succeed).
    """
    n = outer.n_in
    for blk, label in ((outer, "output-side"), (inner, "input-side")):
        if blk.n_in != n or blk.n_out != n:
            raise WrongDimensionError(f"{label} map is not square of size {n}")
        if not map_invertible(blk):
            raise SingularError(f"{label} map is singular")
    if summand is not None and (summand.n_in != n or summand.n_out != n):
        raise WrongDimensionError("additive summand has the wrong shape")
    inner_inv = map_inverse(inner)
    mix = map_compose(summand, inner_inv) if summand is not None else None
    if use_inverse:
        return block_map(n, None, inner_inv, outer, mix)
    return block_map(n, inner_inv, None, mix, outer)


# --------------------------------------------------------------------------
# inequivalence and permutation criteria


def component_degrees(f: FuncTable) -> np.ndarray:
    """deg[u] = ANF degree of the component x -> parity(u & F(x)), every u.

    The component's ANF coefficient of x^M is parity(u & A[M]) for the
    packed ANF A, so it reaches weight w exactly when parity(u & b) = 1 for
    some b in an echelon basis of the packed coefficients of weight-w
    monomials: at most m vectors per weight, one parity sweep each.
    """
    n = f.ctx.size
    anf = packed_anf(f)
    us = np.arange(n, dtype=np.uint32)
    weights = np.bitwise_count(us)
    deg = np.zeros(n, dtype=np.int64)
    for w in range(1, f.ctx.m + 1):
        coeffs = np.unique(anf[weights == w])
        reached = np.zeros(n, dtype=np.uint8)
        for _, b in _echelon(coeffs[coeffs != 0].tolist()):
            reached |= np.bitwise_count(us & np.uint32(b)) & 1
        deg[reached != 0] = w
    return deg


def power_inequivalence_witness(f: FuncTable) -> int | None:
    """A component whose degree rules out extended-affine equivalence to any
    power map; None when every component looks like a power map's.

    The witness is the smallest c >= 1 whose component trace(c*F(x)) has a
    degree outside {0, 1, deg F}.  All component degrees come from one
    packed ANF pass (``component_degrees``); trace(c*y) = parity(D[c] & y)
    with the dual index map D, so component c has degree deg[D[c]].
    """
    deg = component_degrees(f)
    top = int(deg.max())
    comp = deg[_dual_reindex(f.ctx)]
    odd = np.flatnonzero((comp > 1) & (comp != top))
    return int(odd[0]) if odd.size else None


def gold_perm_criterion(L: UnivariatePoly, Lp: UnivariatePoly, i: int) -> bool:
    """Is L(x^(2^i+1)) + L'(x) a permutation, decided without building it?

    Differences of the power part at step u sweep u^(2^i+1) * v over all v
    with trace(v) = trace(1), so the sum is a permutation exactly when
    L(u^(2^i+1) * v) != L'(u) everywhere on that set.
    """
    ctx = L.ctx
    if Lp.ctx != ctx:
        raise ContextMismatchError("summands live in different fields")
    m = ctx.m
    if math.gcd(i, m) != 1:
        raise GcdViolationError(f"gcd({i}, {m}) != 1")
    _linear_terms(L)
    _linear_terms(Lp)
    e = (1 << i) + 1
    Ltab = evaluate(L).as_array()
    Lptab = evaluate(Lp).as_array()
    vs = np.nonzero(ctx.trace_table() == ctx.trace(1))[0].astype(np.int64)
    us = np.arange(1, ctx.size, dtype=np.int64)
    prods = ctx.mul_many(ctx.pow_many(us, e)[:, None], vs[None, :])
    return not bool(np.any(Ltab[prods] == Lptab[us][:, None]))


def gold_perm_criterion_even(L: UnivariatePoly, i: int) -> bool:
    """Is L(x^(2^i+1)) + x a permutation over an even-degree field?

    Each component with adjoint value b = L*(v) != 0 is balanced exactly when
    b is a (2^i+1)-th power u^(2^i+1) and the relative trace onto the
    four-element subfield of v/u is nonzero; the verdict does not depend on
    which root u is picked.
    """
    ctx = L.ctx
    m = ctx.m
    if m & 1:
        raise OddDegreeError(f"extension degree {m} is odd")
    if math.gcd(i, m) != 1:
        raise GcdViolationError(f"gcd({i}, {m}) != 1")
    e = (1 << i) + 1
    adj = evaluate(linearized_adjoint(ctx, L)).as_array().astype(np.int64)
    us = np.arange(1, ctx.size, dtype=np.int64)
    root = np.zeros(ctx.size, dtype=np.int64)  # 0 marks a non-residue
    root[ctx.pow_many(us, e)[::-1].astype(np.int64)] = us[::-1]
    b = adj[us]
    live = b != 0
    roots = root[b[live]]
    if np.any(roots == 0):
        return False
    ratio = ctx.mul_many(us[live], ctx.inv_many(roots)).astype(np.int64)
    rel = ratio.copy()
    frob = ratio
    for _ in range(m // 2 - 1):
        frob = ctx.pow_many(frob, 4).astype(np.int64)
        rel = rel ^ frob
    return not bool(np.any(rel == 0))


# --------------------------------------------------------------------------
# search for a linear summand making a table a permutation


def linear_completion_search(
    f: FuncTable, budget: int | None = None, time_limit: float | None = None
) -> BinLinearMap | None:
    """Find a linear map L with x -> f(x) + L(x) a permutation, or None.

    f + L permutes exactly when W_f(L^T b, b) = 0 for every b != 0, with the
    dot-product Walsh transform.  The rows of L, which are L^T(e_k), are
    chosen from rows[m-1] down to rows[0]; a candidate for row k must put
    L^T(u + e_k) in the Walsh-zero set of row u + e_k for every u in the span
    fixed so far.  Candidates are tried in ascending order, so the result is
    the first witness of the row-major order on all 2^(m*m) maps, and None
    means no map exists.  ``budget`` caps the search nodes (partial
    assignments visited, the root included) and ``time_limit`` the seconds;
    running out of either raises BudgetExceededError.
    """
    m, n = f.ctx.m, f.ctx.size
    if m > _MATRIX_LIMIT:
        raise TooLargeError(f"the search holds 2^(2m) Walsh values; m={m} > {_MATRIX_LIMIT}")
    if budget is not None and budget < 1:
        raise ValueError("budget must be a positive node count")
    deadline = None if time_limit is None else time.monotonic() + float(time_limit)
    xs = np.arange(n, dtype=np.int64)
    zero = _fwht_rows(_sign_rows(f, xs)) == 0
    rows = [0] * m
    nodes = 0

    def extend(k: int, us: np.ndarray, images: np.ndarray) -> bool:
        # rows[k+1:] are fixed; us spans e_(k+1)..e_(m-1), images[j] = L^T us[j]
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(f"node budget of {budget} exhausted")
        if deadline is not None and time.monotonic() >= deadline:
            raise BudgetExceededError("time budget exhausted during search")
        if k < 0:
            return True
        ek = 1 << k
        fits = zero[(us ^ ek)[:, None], images[:, None] ^ xs[None, :]].all(axis=0)
        for c in np.flatnonzero(fits).tolist():
            rows[k] = c
            span = np.concatenate((us, us ^ ek))
            if extend(k - 1, span, np.concatenate((images, images ^ c))):
                return True
        return False

    if not extend(m - 1, xs[:1], xs[:1]):
        return None
    return BinLinearMap(m, m, rows)

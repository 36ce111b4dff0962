"""F_2-linear maps of the doubled space and graph-based transforms of tables.

A vectorial map F on a field of size 2^m has a graph {(x, F(x))} living in
F_2^(2m).  Invertible linear maps of that doubled space move graphs around;
whenever the image is again a graph, `ccz_transform` recovers the new table.
The module also holds the power-map inequivalence witness, permutation
criteria for tables of the shape L(x^(2^i+1)) + L'(x), and a search for
linear summands turning a table into a permutation.

Points of F_2^(2m) are packed as ``x | (y << m)`` -- input half in the low
bits.  Linear maps are stored row-major: output bit r of ``BinLinearMap`` is
the parity of ``rows[r] & x``.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf2m import Field, _dual_inverse, _dual_reindex, _linear_table, kept
from .spectra import TooLargeError, _walsh_blocks
from .vbf import (
    ContextMismatchError,
    FuncTable,
    NotAPermutationError,
    _monomial_weights,
    _top_weight,
    compose,
    invert,
    is_permutation,
    packed_anf,
)

_MATRIX_LIMIT = 14  # linear_completion_search keeps a 2^m x 2^m table of Walsh zeros
_GATHER_CELLS = 1 << 20  # zero-table cells a search node gathers at once


class SingularError(ValueError):
    """A linear map that had to be invertible is not."""


class NotLinearizedError(ValueError):
    """A summand table is not an F_2-linear map."""


class WrongDimensionError(ValueError):
    """Map dimensions do not fit the operation."""


class ConditionViolatedError(ValueError):
    """A family parameter fails a condition the construction needs."""


class GcdViolationError(ValueError):
    """Frobenius index shares a factor with the extension degree."""


class OddDegreeError(ValueError):
    """Criterion only applies to even extension degrees."""


class BudgetExceededError(RuntimeError):
    """Node or wall-clock budget ran out before the search finished."""


def _require_index(i: int, m: int, strict: bool = True) -> int:
    """Reject a Frobenius index i < 1 and, when ``strict``, gcd(i, m) != 1.
    Return i reduced to (i - 1) mod m + 1: i enters only through x^(2^i),
    which is x^(2^(i mod m)) on GF(2^m), so 2^i is never formed for a huge i."""
    if i < 1:
        raise ConditionViolatedError("Frobenius index must be positive")
    if strict and math.gcd(i, m) != 1:
        raise GcdViolationError(f"gcd({i}, {m}) != 1")
    return (i - 1) % m + 1


class BinLinearMap:
    """F_2-linear map given by row masks: output bit r = parity(rows[r] & x).
    The rows are fixed, so the columns are built once, on first use, and
    kept on the map; a map made from its columns (``_map_from_columns``)
    keeps those."""

    __slots__ = ("n_in", "n_out", "rows", "_tables")

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
        self._tables = {}

    @property
    @kept
    def columns(self) -> tuple:
        return tuple(_transpose_bits(self.rows, self.n_in))

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinLinearMap)
            and self.n_in == other.n_in
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n_in, self.rows))

    def __reduce__(self):
        # a pickled or deep-copied map is built anew, with no columns kept
        return BinLinearMap, (self.n_in, self.n_out, self.rows)

    def __repr__(self) -> str:
        return f"BinLinearMap({self.n_in}->{self.n_out})"


def _bit_columns(rows: np.ndarray, width: int) -> list[int]:
    """Columns j < width of the bit matrix whose row i holds the
    little-endian bytes ``rows[i]``: bit i of column j is bit j of row i."""
    bits = np.unpackbits(rows, axis=1, count=width, bitorder="little")
    raw = np.packbits(bits.T, axis=1, bitorder="little").tobytes()
    step = -(-len(rows) // 8)
    return [int.from_bytes(raw[j * step:(j + 1) * step], "little") for j in range(width)]


def _transpose_bits(vectors, width: int) -> list[int]:
    """The bit matrix with rows ``vectors`` (ints below 2^width) transposed:
    bit i of entry j is bit j of vectors[i], for j < width."""
    size = -(-width // 8)
    raw = b"".join(v.to_bytes(size, "little") for v in vectors)
    return _bit_columns(np.frombuffer(raw, dtype=np.uint8).reshape(len(vectors), size), width)


def _map_from_columns(columns: list[int]) -> BinLinearMap:
    """The square map whose column j is columns[j]: its rows are one
    transpose of the columns, which it keeps, so ``columns`` never
    transposes them back."""
    n = len(columns)
    L = BinLinearMap(n, n, _transpose_bits(columns, n))
    BinLinearMap.columns.fget.keep(L, tuple(columns))
    return L


def identity_map(n: int) -> BinLinearMap:
    return BinLinearMap(n, n, [1 << r for r in range(n)])


def _reduce(pivots: dict[int, int], v: int) -> int:
    """Reduce v by the kept rows of ``pivots`` with the same top bit, keep
    the remainder as a new row when it is not 0, and return it.  This is the
    one F_2 eliminator: rows of a map here, and in the completion search
    equations packed as ``coefficients << 1 | right-hand side``, where a
    remainder of 1 is the equation 0 = 1."""
    while v and v.bit_length() in pivots:
        v ^= pivots[v.bit_length()]
    if v:
        pivots[v.bit_length()] = v
    return v


def map_invertible(L: BinLinearMap) -> bool:
    """Is L square of full rank?  A row that reduces to 0 is dependent."""
    if L.n_in != L.n_out:
        return False
    pivots: dict[int, int] = {}
    return all(_reduce(pivots, v) for v in L.rows)


# --------------------------------------------------------------------------
# graphs and their images


@dataclass(frozen=True)
class CczWitness:
    """Image of a graph under L, projected to the two candidate tables."""

    L: BinLinearMap
    F1: FuncTable
    F2: FuncTable


def graph_image(L: BinLinearMap, f: FuncTable) -> CczWitness:
    """Image of the graph of f under L, from L(x, F(x)) = L_x(x) ^ L_y(F(x))
    for the maps L_x and L_y of the first and last m columns of L."""
    ctx = f.ctx
    m, n = ctx.m, ctx.size
    if L.n_in != 2 * m or L.n_out != 2 * m:
        raise WrongDimensionError("map must act on the doubled space")
    if not map_invertible(L):
        raise SingularError("graph map is singular")
    cols = L.columns
    halves = _linear_table([cols[:m], cols[m:]])  # the tables of L_x and L_y
    out = halves[0] ^ halves[1][f.as_array()]
    return CczWitness(L, FuncTable(ctx, out & (n - 1)), FuncTable(ctx, out >> m))


def ccz_transform(L: BinLinearMap, f: FuncTable) -> FuncTable:
    """Table of the transformed graph, when the image is again a graph."""
    w = graph_image(L, f)
    if not is_permutation(w.F1):
        raise NotAPermutationError("first projected coordinate is not a permutation")
    return compose(w.F2, invert(w.F1))


# --------------------------------------------------------------------------
# inequivalence and permutation criteria


def power_inequivalence_witness(f: FuncTable) -> int | None:
    """A component whose degree rules out extended-affine equivalence to any
    power map; None when every component looks like a power map's.

    The witness is the smallest c >= 1 whose component trace(c*F(x)) has a
    degree outside {0, 1, deg F}.  The component's coefficient of x^M is
    trace(c * A[M]) for the packed ANF A, and the trace form is symmetric:
    trace(c * v) = parity(c & D[v]) with the dual index map D.  So the
    degree lies in 2..deg F - 1 exactly when c lies in the subspace
    K = {c : parity(c & D[A[M]]) = 0 for every top-weight M}, and
    parity(c & D[A[M]]) = 1 for some M of weight 2..deg F - 1.

    A basis of K comes from ``_reduce`` on the rows image_j << m | 2^j,
    for j = 0, 1, ..., m - 1 in turn, where bit i of image_j is bit j of
    the i-th top-weight D[A[M]].  A row whose image part reduces to 0 is
    kept as an element of K: 2^j plus bits of earlier rows whose image
    parts were kept.  So no basis vector of K holds the top bit of another,
    and K's elements ascend with their coefficient vectors on the basis
    sorted by top bit.  The c in K that fail the second test form a
    subspace S, so the least c in K outside S is the first basis vector,
    ascending, outside S: every smaller element of K is a sum of the basis
    vectors before it.  Each test is one parity pass over the coefficients
    of weight 2..deg F - 1, through parity(c & D[v]) = parity(D[c] & v).
    A table with no nonzero coefficient of such a weight (every quadratic
    table, Gold included), or with K = {0}, has no witness.
    """
    ctx = f.ctx
    m = ctx.m
    anf = packed_anf(f)
    weights = _monomial_weights(ctx)
    top = _top_weight(ctx, anf)
    mid = anf[(weights > 1) & (weights < top)]
    if not mid.any():
        return None
    dual = _dual_reindex(ctx)
    # the top-weight D[A[M]], one row of little-endian bytes each
    rows = dual[anf[weights == top]].astype("<u4").view(np.uint8).reshape(-1, 4)
    pivots: dict[int, int] = {}
    for j, image in enumerate(_bit_columns(rows, m)):
        _reduce(pivots, image << m | 1 << j)
    for c in sorted(v for v in pivots.values() if v < ctx.size):
        if (np.bitwise_count(mid & np.uint32(dual[c])) & 1).any():
            return c
    return None


@kept
def _linear_pieces(ctx) -> tuple[np.ndarray, ...]:
    """Per field: x & (x-1) and x & -x for x >= 1, and the basis 2^k."""
    xs = np.arange(1, ctx.size)
    return xs & (xs - 1), xs & -xs, 1 << np.arange(ctx.m)


def _linear_rows(ctx: Field, tabs: np.ndarray) -> np.ndarray:
    """A table, or a stack of tables along the last axis, each checked
    F_2-linear in one pass: f(x) = f(x & (x-1)) ^ f(x & -x) for every x >= 1
    (x = 1 gives f(0) = 0)."""
    rest, low = _linear_pieces(ctx)[:2]
    if (tabs[..., 1:] != tabs[..., rest] ^ tabs[..., low]).any():
        raise NotLinearizedError("table is not F_2-linear")
    return tabs


def _adjoint_table(ctx: Field, tabs: np.ndarray) -> np.ndarray:
    """Table of the adjoint L* of a linear table: tr(v * L(x)) = tr(L*(v) * x),
    or the stack of adjoints of a stack of tables.

    Read off the trace form, L*(2^k) = sum_j tr(2^k * L(2^j)) * d_j with
    tr(2^k * y) = parity(D[2^k] & y) for the dual index map D, and spread
    from these m images; D^-1 sends 2^j to d_j."""
    bits, dual = _linear_pieces(ctx)[2], _dual_reindex(ctx)
    parities = np.bitwise_count(dual[bits, None] & _linear_rows(ctx, tabs)[..., None, bits]) & 1
    return _linear_table(_dual_inverse(ctx)[parities @ bits])


def _kernel_bases(tabs: np.ndarray) -> np.ndarray:
    """Per row of a stack of linear tables, the reduced echelon basis of its
    kernel, padded with 0s to the largest kernel dimension in the stack.
    A kernel listed ascending has its j-th basis vector at position 2^j."""
    rows, xs = np.nonzero(tabs == 0)  # each row's kernel, ascending, opened by x = 0
    position = np.arange(xs.size) - np.flatnonzero(xs == 0)[rows]
    basis = np.bitwise_count(position) == 1
    # a kernel of 2^d elements ends at position 2^d - 1, of weight d
    bases = np.zeros((len(tabs), int(np.bitwise_count(position.max()))), dtype=np.int64)
    bases[rows[basis], np.bitwise_count(position[basis] - 1)] = xs[basis]
    return bases


def _gold_perm_rows(ctx: Field, Ls: np.ndarray, Lps: np.ndarray, i: int) -> np.ndarray:
    """`gold_perm_criterion` on the rows of two stacks of linear tables,
    shape (T, 2^m): T verdicts, True where L(x^(2^i+1)) + L'(x) permutes.

    Differences of the power part at step u != 0 sweep u^(2^i+1) * v over
    all v with trace(v) = trace(1), so the sum fails to permute exactly when
    some u has such a v with L(u^(2^i+1) * v) = L'(u).  The solutions
    w = u^(2^i+1) * v of L(w) = L'(u) are empty unless L'(u) = L(w0) for
    some w0, and then they form the coset w0 + ker L, on which
    trace(v) = trace(w * s) with s = u^-(2^i+1).  That functional takes both
    values on the coset when trace(k * s) = 1 for some basis vector k of
    ker L, and otherwise only the value trace(w0 * s).  Each trace is read
    as trace(w * s) = parity(D[s] & w) with the dual index map D, so a row
    costs one parity pass for w0 and one per kernel basis vector.
    """
    i = _require_index(i, ctx.m)
    Ls, Lps = _linear_rows(ctx, Ls), _linear_rows(ctx, Lps)
    n = ctx.size
    offsets = np.arange(0, Ls.size, n)[:, None]  # row t's entries start at t * 2^m
    preimage = np.full(Ls.size, -1, dtype=np.int64)
    preimage[Ls + offsets] = np.arange(n)
    w0 = preimage[Lps[:, 1:] + offsets]  # -1 where L'(u) is not in the image of L
    us = np.arange(1, n)
    ds = _dual_reindex(ctx)[ctx.pow_many(us, -((1 << i) + 1) % ctx.order)]  # D[s] per u
    hit = (np.bitwise_count(ds & w0) & 1) == ctx.trace(1)
    for k in _kernel_bases(Ls).T:
        hit |= (np.bitwise_count(ds & k[:, None]) & 1).astype(bool)
    return ~(hit & (w0 >= 0)).any(axis=1)


def gold_perm_criterion(L: FuncTable, Lp: FuncTable, i: int) -> bool:
    """Is L(x^(2^i+1)) + L'(x) a permutation, decided without building it?

    L and L' are the tables of F_2-linear maps; a table that is not raises
    NotLinearizedError.  This is the one-row call of `_gold_perm_rows`,
    which says how the criterion decides.
    """
    if Lp.ctx != L.ctx:
        raise ContextMismatchError("summands live in different fields")
    return bool(_gold_perm_rows(L.ctx, L.as_array()[None], Lp.as_array()[None], i)[0])


def _gold_perm_even_rows(ctx: Field, Ls: np.ndarray, i: int) -> np.ndarray:
    """`gold_perm_criterion_even` on the rows of a stack of linear tables,
    shape (T, 2^m): T verdicts, True where L(x^(2^i+1)) + x permutes.

    Each component with adjoint value b = L*(v) != 0 is balanced exactly when
    b is a (2^i+1)-th power u^(2^i+1) and the relative trace onto the
    four-element subfield of v/u is nonzero; the verdict does not depend on
    which root u is picked.  The root table is built once for the stack,
    and the relative traces only on the rows whose every b != 0 has a root.
    """
    if ctx.m & 1:
        raise OddDegreeError(f"extension degree {ctx.m} is odd")
    i = _require_index(i, ctx.m)
    us = np.arange(1, ctx.size, dtype=np.int64)
    root = np.zeros(ctx.size, dtype=np.int64)  # 0 marks a non-residue
    root[ctx.pow_many(us, (1 << i) + 1)[::-1].astype(np.int64)] = us[::-1]
    b = _adjoint_table(ctx, Ls)[:, 1:]
    live = b != 0
    roots = root[b]
    verdicts = ~(live & (roots == 0)).any(axis=1)
    rows = np.flatnonzero(verdicts)
    if rows.size:
        # where b = 0 the root is 0, so v/u reads 0 there, which live masks out
        rel = ctx.subfield_trace_many(ctx.mul_many(us, ctx.inv_many(roots[rows])), 2)
        verdicts[rows] = ~(live[rows] & (rel == 0)).any(axis=1)
    return verdicts


def gold_perm_criterion_even(L: FuncTable, i: int) -> bool:
    """Is L(x^(2^i+1)) + x a permutation, for linear L over an even-degree field?

    A table L that is not F_2-linear raises NotLinearizedError.  This is the
    one-row call of `_gold_perm_even_rows`, which says how the criterion
    decides.
    """
    return bool(_gold_perm_even_rows(L.ctx, L.as_array()[None], i)[0])


# --------------------------------------------------------------------------
# search for a linear summand making a table a permutation


def _node_counter(budget: int | None, time_limit: float | None):
    """The function a search calls at each node: it raises BudgetExceededError
    past ``budget`` nodes, or ``time_limit`` seconds after this call."""
    if budget is not None and budget < 1:
        raise ValueError("budget must be a positive node count")
    deadline = None if time_limit is None else time.monotonic() + float(time_limit)
    nodes = itertools.count(1)  # counted only under a node budget

    def visit() -> None:
        if budget is not None and next(nodes) > budget:
            raise BudgetExceededError(f"node budget of {budget} exhausted")
        if deadline is not None and time.monotonic() >= deadline:
            raise BudgetExceededError("time budget exhausted during search")

    return visit


@lru_cache(maxsize=None)
def _level_offsets(m: int) -> tuple[np.ndarray, ...]:
    """Read-only offsets of the rows that level k of `linear_completion_search`
    checks, into its flat 2^m x 2^m zero table: offsets[k][j] = (u_j + e_k) * 2^m
    for the span u_j of e_(k+1)..e_(m-1), bit t of j standing for e_(m-1-t)."""
    offsets, us = [], np.zeros(1, dtype=np.int64)
    for k in reversed(range(m)):
        offsets.append((us ^ 1 << k) << m)
        offsets[-1].flags.writeable = False
        us = np.concatenate((us, us ^ 1 << k))
    return tuple(reversed(offsets))


def linear_completion_search(
    f: FuncTable, budget: int | None = None, time_limit: float | None = None
) -> BinLinearMap | None:
    """Find a linear map L with x -> f(x) + L(x) a permutation, or None.

    f + L permutes exactly when W_f(L^T b, b) = 0 for every b != 0, with the
    dot-product Walsh transform.  So a row b != 0 with no Walsh zero rules
    out every L: the zero table is filled a block of rows at a time, and the
    first block holding such a row settles the answer, None, with no further
    block and no branching (row 0 has its zeros, W(a, 0) = 0 for a != 0).
    Otherwise the rows of L, which are L^T(e_k), are chosen from rows[m-1]
    down to rows[0]; a candidate for row k must put L^T(u + e_k) in the
    Walsh-zero set of row u + e_k for every u in the span fixed so far.  The
    rows u + e_k of level k are fixed, so their offsets into the flat zero
    table are built once per m (`_level_offsets`), and a node tests all its
    candidates in gathers of at most ``_GATHER_CELLS`` cells, until none is
    left.  Candidates are tried in ascending order, so the result is the
    first witness of the row-major order on all 2^(m*m) maps, and None
    means no map exists.  ``budget`` caps the search nodes
    (partial assignments visited, the root included; a search that a
    zero-free row settles visits only the root) and ``time_limit`` the
    seconds; running out of either raises BudgetExceededError.
    """
    m, n = f.ctx.m, f.ctx.size
    if m > _MATRIX_LIMIT:
        raise TooLargeError(f"the search holds 2^(2m) Walsh values; m={m} > {_MATRIX_LIMIT}")
    visit = _node_counter(budget, time_limit)
    xs = np.arange(n, dtype=np.int64)
    zero = np.empty((n, n), dtype=bool)  # zero[b, a]: W(a, b) = 0
    settled = False
    for start, mat in _walsh_blocks(f, xs):
        block = np.equal(mat, 0, out=zero[start:start + len(mat)])
        if not block.any(axis=1).all():
            settled = True
            break
    flat, offsets = zero.ravel(), _level_offsets(m)
    images = np.zeros(n, dtype=np.int64)  # images[j] = L^T u_j, grown in place
    rows, chunk = [0] * m, max(1, _GATHER_CELLS >> m)

    def extend(k: int) -> bool:
        # rows[k+1:] are fixed, and so are images[:2^(m-1-k)]
        visit()
        if k < 0:
            return True
        if settled:  # the root: a row with no zero leaves it no candidate
            return False
        span = len(offsets[k])
        fixed, grown = images[:span], images[span:2 * span]
        # the offsets are multiples of n, so offset + (image ^ c) = (offset | image) ^ c
        starts = offsets[k] | fixed
        fits = flat[starts[:chunk, None] ^ xs].all(axis=0)
        for lo in range(chunk, span, chunk):
            if not fits.any():
                break
            fits &= flat[starts[lo:lo + chunk, None] ^ xs].all(axis=0)
        for c in fits.nonzero()[0].tolist():
            rows[k] = c
            np.bitwise_xor(fixed, c, out=grown)
            if extend(k - 1):
                return True
        return False

    if not extend(m - 1):
        return None
    return BinLinearMap(m, m, rows)


def gold_graph_completion_search(
    w: CczWitness, i: int, budget: int | None = None, time_limit: float | None = None
) -> BinLinearMap | None:
    """Find a linear map L with F + L a permutation, or None, for the table F
    whose graph is w = graph_image(M, G), the image of the graph of the Gold
    map G(x) = x^(2^i+1) under M = I + c u^T, without F's Walsh matrix.  It
    reads M off w, as `constructions.theorem12_ccz_witness` returns it, and
    checks that w.F1 permutes, rather than imaging G's graph again.

    As in `linear_completion_search`, F + L permutes exactly when
    W_F(L^T b, b) = 0 for every b != 0, and W_F(v) = W_G(M^T v), where
    (a', b') = M^T(a, b) = (a, b) + (c.(a, b)) u.  At odd m
    with gcd(i, m) = 1, the component b'.G has the radical {0, r} with
    r^(2^(2i)-1) = beta^(1-2^i) for tr(beta y) = b'.y, so for b' != 0,
    W_G(a', b') = 0 exactly when a'.r != b'.G(r): one affine hyperplane of
    a'.  Write c = (c_x, c_y), u = (u_x, u_y) and g = L c_x.  Then
    c.(L^T b, b) = (g + c_y).b, so once g is fixed, each b with b' != 0
    gives one linear equation in the m*m entries of L.  A b with b' = 0
    gives none: M^T is invertible and b != 0, so a' != 0, where W_G(a', 0)
    is 0.  The search walks b in the trace-dual coordinates, b = D(beta)
    with the dual index map D, and fixes the bits h_t = (g + c_y).D(2^t) in
    turn (both values, 0 first).  Fixing h_t adds that equation in L and
    the equations of every b = D(beta) with beta < 2^(t+1) and bit t of
    beta set, whose (g + c_y).b = parity(h & beta) is then known; a prefix
    whose system is inconsistent is pruned.  In these coordinates thm1
    (i = 1, 2) takes at most 30 nodes at m = 5-17, where the bits of b
    itself need 1023 nodes at m = 11 and 13.  The returned L solves the system
    of a full h with its free entries 0.  Every L lies in exactly one
    branch h, so None means no map exists.  ``budget`` caps the search
    nodes (prefixes of h visited, the root included) and ``time_limit`` the
    seconds, as there.  Level t reads D(beta) only at beta < 2^(t+1), so
    the search grows its lists of them a level at a time: thm1's searches
    stop by level 5 at m = 5-23, and no Python loop runs over 2^m entries.
    """
    visit = _node_counter(budget, time_limit)
    M, ctx = w.L, w.F1.ctx
    m, n = ctx.m, ctx.size
    if m % 2 == 0:
        raise ConditionViolatedError("the Gold radical roots need odd m")
    i = _require_index(i, m)
    e = (1 << i) + 1
    if M.n_in != 2 * m or M.n_out != 2 * m:
        raise WrongDimensionError("map must act on the doubled space")
    # the rows of M + I are c_r u^T
    rank1 = {row ^ (1 << r) for r, row in enumerate(M.rows)} - {0}
    if len(rank1) > 1:
        raise ValueError("graph map is not I + c u^T")
    if not is_permutation(w.F1):
        raise NotAPermutationError("the image of the Gold graph is not a graph")
    u = max(rank1, default=0)
    c = sum(1 << r for r, row in enumerate(M.rows) if row != 1 << r)
    cx, cy, ux, uy = c & (n - 1), c >> m, u & (n - 1), u >> m
    dual = _dual_reindex(ctx)  # tr(beta y) = D(beta).y
    exponent = (1 - (1 << i)) * ctx.inverse_exponent((1 << 2 * i) - 1) % ctx.order
    roots = ctx.pow_many(_dual_inverse(ctx), exponent)  # r = D^-1(b') for each b'
    # the Walsh zeros of row b' != 0 are the a' with a'.r = side[b'] = 1 + b'.G(r)
    sides = 1 ^ np.bitwise_count(np.arange(n, dtype=np.uint32) & ctx.pow_many(roots, e)) & 1
    root, side = roots.tolist(), sides.tolist()
    # entry (j, k) of L, bit k of L's row j, is unknown j*m + k at bit j*m + k + 1;
    # spread[beta] * r has r at the unknowns of every row j in bs[beta] = D(beta)
    bs, spread = [0], [0]

    def equations(t: int, h: int) -> list[int]:
        if len(bs) == 1 << t:  # the first visit of level t; spread o D is linear
            bs.extend(dual[1 << t:2 << t].tolist())
            top = sum(1 << j * m + 1 for j in range(m) if bs[1 << t] >> j & 1)
            spread.extend([s ^ top for s in spread])
        eqs = [cx * spread[1 << t] | ((h >> t) ^ (cy & bs[1 << t]).bit_count()) & 1]
        for beta in range(1 << t, 2 << t):
            b, s = bs[beta], (h & beta).bit_count() & 1
            bp = b ^ uy if s else b
            if bp:  # b' = 0 asks nothing, see above
                r = root[bp]
                eqs.append(r * spread[beta] | side[bp] ^ (s & (ux & r).bit_count() & 1))
        return eqs

    def extend(t: int, h: int, pivots: dict[int, int]) -> dict[int, int] | None:
        visit()
        if t == m:
            return pivots
        for h_t in (h, h | 1 << t):
            trial = dict(pivots)
            if all(_reduce(trial, v) != 1 for v in equations(t, h_t)):
                found = extend(t + 1, h_t, trial)
                if found is not None:
                    return found
        return None

    pivots = extend(0, 0, {})
    if pivots is None:
        return None
    sol = 0
    for top, v in sorted(pivots.items()):  # back-substitution, free unknowns 0
        sol |= ((v ^ (v & sol).bit_count()) & 1) << (top - 1)
    return BinLinearMap(m, m, [(sol >> j * m + 1) & (n - 1) for j in range(m)])

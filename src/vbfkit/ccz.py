"""Linear algebra over F_2 and graph-based transforms of lookup tables.

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

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf2m import _linear_table
from .spectra import _MATRIX_LIMIT, TooLargeError, _dual_reindex, _fwht_rows, _sign_rows
from .vbf import (
    ContextMismatchError,
    FuncTable,
    NotAPermutationError,
    _top_weight,
    compose,
    invert,
    is_permutation,
    packed_anf,
)


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


def _require_index(i: int, m: int, strict: bool = True) -> None:
    """Reject a Frobenius index i < 1 and, when ``strict``, gcd(i, m) != 1."""
    if i < 1:
        raise ConditionViolatedError("Frobenius index must be positive")
    if strict and math.gcd(i, m) != 1:
        raise GcdViolationError(f"gcd({i}, {m}) != 1")


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
    out = _linear_table(L.columns[:m]) ^ _linear_table(L.columns[m:])[f.as_array()]
    return CczWitness(L, FuncTable(ctx, out & (n - 1)), FuncTable(ctx, out >> m))


def ccz_transform(L: BinLinearMap, f: FuncTable) -> FuncTable:
    """Table of the transformed graph, when the image is again a graph."""
    w = graph_image(L, f)
    if not is_permutation(w.F1):
        raise NotAPermutationError("first projected coordinate is not a permutation")
    return compose(w.F2, invert(w.F1))


# --------------------------------------------------------------------------
# inequivalence and permutation criteria


def _off_dual(vectors: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Which of ``us`` have parity(u & v) = 1 for some v in the span of
    ``vectors``.  Each round sweeps the largest vector b left, then replaces
    every v by min(v, v ^ b), which clears b's top bit; the swept b form an
    echelon basis of the span, so there are at most m rounds."""
    off = np.zeros(us.shape, dtype=bool)
    while vectors.any():
        b = vectors.max()
        off |= (np.bitwise_count(us & b) & 1).astype(bool)
        vectors = np.minimum(vectors, vectors ^ b)
    return off


def power_inequivalence_witness(f: FuncTable) -> int | None:
    """A component whose degree rules out extended-affine equivalence to any
    power map; None when every component looks like a power map's.

    The witness is the smallest c >= 1 whose component trace(c*F(x)) has a
    degree outside {0, 1, deg F}.  For the packed ANF A, the component with
    mask u has coefficient parity(u & A[M]) at x^M, so its degree lies in
    2..deg F - 1 exactly when u is orthogonal to every top-weight A[M] but
    not to every A[M] of weight 2..deg F - 1.  trace(c*y) = parity(D[c] & y)
    with the dual index map D, so the test runs on u = D[c].
    """
    anf = packed_anf(f)
    weights = np.bitwise_count(np.arange(f.ctx.size, dtype=np.uint32))
    top = _top_weight(anf)
    us = _dual_reindex(f.ctx).astype(np.uint32)
    odd = _off_dual(anf[(weights > 1) & (weights < top)], us)
    odd &= ~_off_dual(anf[weights == top], us)
    return int(odd.argmax()) if odd.any() else None


@lru_cache(maxsize=8)
def _linear_pieces(ctx) -> tuple[np.ndarray, ...]:
    """Per field: x & (x-1) and x & -x for x >= 1, the basis 2^k, a column of
    the masks D[2^k] for the dual index map D of ``_dual_reindex``, and the
    table of D^-1, which sends 2^j to the trace-dual basis element d_j."""
    xs, bits, dual = np.arange(1, ctx.size), 1 << np.arange(ctx.m), _dual_reindex(ctx)
    return xs & (xs - 1), xs & -xs, bits, dual[bits, None].astype(np.uint32), np.argsort(dual)


def _linear_entries(f: FuncTable) -> np.ndarray:
    """The entries of f, checked F_2-linear in one pass:
    f(x) = f(x & (x-1)) ^ f(x & -x) for every x >= 1 (x = 1 gives f(0) = 0)."""
    tab = f.as_array()
    rest, low = _linear_pieces(f.ctx)[:2]
    if (tab[1:] != tab[rest] ^ tab[low]).any():
        raise NotLinearizedError("table is not F_2-linear")
    return tab


def _adjoint_table(L: FuncTable) -> np.ndarray:
    """Table of the adjoint L* of a linear table: tr(v * L(x)) = tr(L*(v) * x).

    Read off the trace form, L*(2^k) = sum_j tr(2^k * L(2^j)) * d_j with
    tr(2^k * y) = parity(D[2^k] & y), and spread from these m images."""
    *_, bits, masks, inverse = _linear_pieces(L.ctx)
    parities = np.bitwise_count(masks & _linear_entries(L)[bits]) & 1
    return _linear_table(inverse[parities @ bits].tolist())


def gold_perm_criterion(L: FuncTable, Lp: FuncTable, i: int) -> bool:
    """Is L(x^(2^i+1)) + L'(x) a permutation, decided without building it?

    L and L' are the tables of F_2-linear maps; a table that is not raises
    NotLinearizedError.  Differences of the power part at step u != 0 sweep
    u^(2^i+1) * v over all v with trace(v) = trace(1), so the sum fails to
    permute exactly when some u has such a v with L(u^(2^i+1) * v) = L'(u).
    The solutions w = u^(2^i+1) * v of L(w) = L'(u) are empty unless
    L'(u) = L(w0) for some w0, and then they form the coset w0 + ker L, on
    which trace(v) = trace(w * s) with s = u^-(2^i+1).  That functional takes
    both values on the coset when trace(k * s) = 1 for some basis vector k
    of ker L, and otherwise only the value trace(w0 * s).  So each u costs
    one product for w0 and one per kernel basis vector.
    """
    ctx = L.ctx
    if Lp.ctx != ctx:
        raise ContextMismatchError("summands live in different fields")
    _require_index(i, ctx.m)
    Ltab = _linear_entries(L)
    preimage = np.full(ctx.size, -1, dtype=np.int64)
    preimage[Ltab] = np.arange(ctx.size)
    w0 = preimage[_linear_entries(Lp)[1:]]
    reached = w0 >= 0
    # ker L listed ascending: entry 2^j is its j-th reduced echelon basis vector
    kernel = np.flatnonzero(Ltab == 0)
    basis = kernel[1 << np.arange(kernel.size.bit_length() - 1)]
    us = np.flatnonzero(reached) + 1
    s = ctx.pow_many(us, -((1 << i) + 1) % ctx.order)
    trace = ctx.trace_table()
    hit = trace[ctx.mul_many(w0[reached], s)] == trace[1]
    hit |= trace[ctx.mul_many(s[:, None], basis[None, :])].any(axis=1)
    return not bool(hit.any())


def gold_perm_criterion_even(L: FuncTable, i: int) -> bool:
    """Is L(x^(2^i+1)) + x a permutation, for linear L over an even-degree field?

    Each component with adjoint value b = L*(v) != 0 is balanced exactly when
    b is a (2^i+1)-th power u^(2^i+1) and the relative trace onto the
    four-element subfield of v/u is nonzero; the verdict does not depend on
    which root u is picked.
    """
    ctx = L.ctx
    if ctx.m & 1:
        raise OddDegreeError(f"extension degree {ctx.m} is odd")
    _require_index(i, ctx.m)
    us = np.arange(1, ctx.size, dtype=np.int64)
    root = np.zeros(ctx.size, dtype=np.int64)  # 0 marks a non-residue
    root[ctx.pow_many(us, (1 << i) + 1)[::-1].astype(np.int64)] = us[::-1]
    b = _adjoint_table(L)[1:]
    live = b != 0
    roots = root[b[live]]
    if np.any(roots == 0):
        return False
    rel = ctx.subfield_trace_many(ctx.mul_many(us[live], ctx.inv_many(roots)), 2)
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

"""Functions F: GF(2^m) -> GF(2^m) as lookup tables and univariate polynomials.

A function is stored either as its full value table (FuncTable) or as the
unique univariate polynomial of degree below 2^m that represents it
(UnivariatePoly).  Degrees come from the packed algebraic normal form:
one Moebius pass over the uint32 value table, kept on the table, gives
every output coordinate's ANF at once, and the algebraic degree is the
largest weight of a monomial whose packed coefficient is nonzero.  That
equals the maximum binary weight of a univariate exponent with a nonzero
coefficient and the maximum ANF degree over the components
x -> trace(c*F(x)).
"""

from __future__ import annotations

import array
import operator

import numpy as np

from vbfkit.gf2m import Field, kept


class NotAPermutationError(ValueError):
    """The table does not take every value exactly once."""


class ContextMismatchError(ValueError):
    """Operands live in different fields (degree or reduction polynomial)."""


class FuncTable:
    """Value table of F; entry at index x is F(x).  The table is read-only,
    so the values derived from it alone (its packed ANF, its spectrum
    orbits) are built once, on first use, and kept on it (``gf2m.kept``)."""

    __slots__ = ("ctx", "_arr", "_tables")

    def __init__(self, ctx: Field, values):
        arr = values
        if not (isinstance(arr, np.ndarray) and arr.dtype.kind in "biu"):
            if not isinstance(values, (list, tuple, np.ndarray)):
                values = list(values)  # an iterator, read once
            try:  # both refuse float entries, which np.asarray would truncate
                try:
                    arr = np.frombuffer(array.array("I", values), dtype=np.uintc)
                except OverflowError:  # entries outside uint32, named by the range check
                    arr = np.array([operator.index(v) for v in values], dtype=object)
            except TypeError as err:
                raise ValueError(f"table entries must be integers: {err}") from None
        if arr.shape != (ctx.size,):
            got = len(arr) if arr.ndim == 1 else arr.shape
            raise ValueError(f"table needs {ctx.size} entries, got {got}")
        high = arr >> ctx.m  # nonzero exactly at the negative entries and those >= 2^m
        if np.count_nonzero(high):
            raise ValueError(f"table entry {arr[np.flatnonzero(high)[0]]} outside [0, {ctx.size})")
        self.ctx = ctx
        self._arr = arr.astype(np.uint32)
        self._arr.setflags(write=False)
        self._tables = {}

    def as_array(self) -> np.ndarray:
        """The table as a read-only uint32 array."""
        return self._arr

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FuncTable)
            and self.ctx == other.ctx
            and np.array_equal(self._arr, other._arr)
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self._arr.tobytes()))

    def __reduce__(self):
        # a pickled or deep-copied table is built anew: read-only, nothing kept
        return FuncTable, (self.ctx, self._arr)

    def __repr__(self) -> str:
        return f"FuncTable(m={self.ctx.m}, {self.ctx.size} entries)"


class UnivariatePoly:
    """Sparse univariate polynomial: exponent -> nonzero coefficient."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Field, terms: dict):
        clean = {}
        for e, c in terms.items():
            e, c = int(e), int(c)
            if not 0 <= e < ctx.size:
                raise ValueError(f"exponent {e} outside [0, {ctx.size})")
            if not 0 < c < ctx.size:
                raise ValueError(f"coefficient {c} for x^{e} outside (0, {ctx.size})")
            clean[e] = c
        self.ctx = ctx
        self.terms = clean

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UnivariatePoly)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        body = " + ".join(f"{c:#x}*x^{e}" for e, c in sorted(self.terms.items())) or "0"
        return f"UnivariatePoly(m={self.ctx.m}, {body})"


# ---------------------------------------------------------------- conversions

def evaluate(p: UnivariatePoly) -> FuncTable:
    """Tabulate the polynomial at every field element (0^0 counts as 1).

    Works in the log domain: at x != 0 the term c*x^e is
    exp[(e*log x + log c) mod (2^m - 1)], and at x = 0 only the constant
    term survives.
    """
    ctx = p.ctx
    log, exp = ctx._logexp()
    logx = log[1:]
    acc = np.zeros(ctx.size, dtype=np.uint32)
    for e, c in p.terms.items():
        acc[1:] ^= exp[(logx * e + log[c]) % ctx.order]
    acc[0] = p.terms.get(0, 0)
    return FuncTable(ctx, acc)


def interpolate(f: FuncTable) -> UnivariatePoly:
    """The unique polynomial of degree < 2^m whose table is f.

    Coefficient extraction over the multiplicative group: the constant term
    is F(0), the top coefficient (exponent 2^m - 1) is the XOR of all
    values, and every middle coefficient c_i is the XOR over nonzero x of
    F(x) * x^(-i).
    """
    ctx = f.ctx
    mo = ctx.order
    vals = f.as_array()
    nz_x = np.arange(1, ctx.size, dtype=np.int64)
    nz_vals = vals[1:]
    terms = {}
    c0 = int(vals[0])
    if c0:
        terms[0] = c0
    for i in range(1, mo):
        xi = ctx.pow_many(nz_x, mo - i)
        ci = int(np.bitwise_xor.reduce(ctx.mul_many(nz_vals, xi)))
        if ci:
            terms[i] = ci
    ctop = int(np.bitwise_xor.reduce(vals))
    if ctop:
        terms[mo] = ctop
    return UnivariatePoly(ctx, terms)


def monomial(ctx: Field, e: int, c: int = 1) -> FuncTable:
    """Table of x -> c * x^e (0^0 counts as 1).

    Any e >= 0 is accepted: an e >= 2^m is first reduced to the exponent
    in [1, 2^m - 1] with the same table (x^e = x^(e mod 2^m - 1) at x != 0
    and 0^e = 0), so an index i > m gives x^(2^i+1) the table of i mod m.
    """
    if e < 0:
        raise ValueError(f"exponent {e} is negative")
    if e >= ctx.size:
        e = e % ctx.order or ctx.order
    return evaluate(UnivariatePoly(ctx, {e: c}))


# ---------------------------------------------------------------- degrees

def _mobius_levels(a: np.ndarray, h: int) -> None:
    """In place, the Moebius butterfly levels of half-width h, 2h, ... of a
    flat array: each XORs the lower half of every 2h-block into its upper."""
    while h < a.size:
        v = a.reshape(-1, 2 * h)
        v[:, h:] ^= v[:, :h]
        h *= 2


@kept
def packed_anf(f: FuncTable) -> np.ndarray:
    """ANF of every output coordinate at once: bit j of entry M is the
    coefficient of the monomial x^M in coordinate j of F.  Read-only, and
    kept on the table: later calls return the same array.

    One binary Moebius pass, one level per bit of M.  With m = p + q for
    q = m // 2, the table is a 2^p x 2^q array indexed by the high p and the
    low q bits of x.  The levels of the low bits run on its transpose, where
    those bits index the rows, and the levels of the high bits after one
    transpose back, so every level XORs contiguous blocks of at least
    2^q entries, not single entries."""
    q = f.ctx.m // 2
    p = f.ctx.m - q
    a = f.as_array().reshape(1 << p, 1 << q).T.copy()
    _mobius_levels(a.reshape(-1), 1 << p)
    a = a.T.copy().reshape(-1)
    _mobius_levels(a, 1 << q)
    return a


@kept
def _monomial_weights(ctx: Field) -> np.ndarray:
    """Per field: the weight of every monomial index M < 2^m, as uint8."""
    return np.bitwise_count(np.arange(ctx.size, dtype=np.uint32))


def _top_weight(ctx: Field, anf: np.ndarray) -> int:
    """Largest weight of a monomial index with a nonzero entry (0 if none)."""
    return int((_monomial_weights(ctx) * (anf != 0)).max())


def algebraic_degree(f: FuncTable) -> int:
    """Largest weight of a monomial with a nonzero packed ANF coefficient
    (0 for constants); equal to the maximum 2-weight over exponents of the
    univariate representation."""
    return _top_weight(f.ctx, packed_anf(f))


def component_degree(f: FuncTable, c: int) -> int:
    """ANF degree of the component x -> trace(c * F(x)); 0 when c = 0.

    Its coefficient of x^M is trace(c * A[M]) = parity(mask & A[M]) for the
    packed ANF A and the trace mask of c (``Field.trace_mask``).
    """
    mask = np.uint32(f.ctx.trace_mask(c))
    return _top_weight(f.ctx, np.bitwise_count(packed_anf(f) & mask) & 1)


# ---------------------------------------------------------------- algebra

def is_permutation(f: FuncTable) -> bool:
    return np.count_nonzero(np.bincount(f.as_array())) == f.ctx.size


def invert(f: FuncTable) -> FuncTable:
    if not is_permutation(f):
        raise NotAPermutationError("table has repeated values")
    out = np.empty(f.ctx.size, dtype=np.uint32)
    out[f.as_array()] = np.arange(f.ctx.size, dtype=np.uint32)
    return FuncTable(f.ctx, out)


def compose(f: FuncTable, g: FuncTable) -> FuncTable:
    """x -> f(g(x))."""
    if f.ctx != g.ctx:
        raise ContextMismatchError(f"operand fields differ: {f.ctx!r} vs {g.ctx!r}")
    return FuncTable(f.ctx, f.as_array()[g.as_array()])


"""Functions F: GF(2^m) -> GF(2^m) as lookup tables and univariate polynomials.

A function is stored either as its full value table (FuncTable) or as the
unique univariate polynomial of degree below 2^m that represents it
(UnivariatePoly).  Degrees come from the packed algebraic normal form:
one Moebius pass over the uint32 value table gives every output
coordinate's ANF at once, and the algebraic degree is the largest weight of
a monomial whose packed coefficient is nonzero.  That equals the maximum
binary weight of a univariate exponent with a nonzero coefficient and the
maximum ANF degree over the components x -> trace(c*F(x)).
"""

from __future__ import annotations

import numpy as np

from vbfkit.gf2m import Field


class NotAPermutationError(ValueError):
    """The table does not take every value exactly once."""


class ContextMismatchError(ValueError):
    """Operands live in different fields (degree or reduction polynomial)."""


def _require_same_ctx(a: FuncTable, b: FuncTable) -> None:
    if a.ctx != b.ctx:
        raise ContextMismatchError(f"operand fields differ: {a.ctx!r} vs {b.ctx!r}")


class FuncTable:
    """Value table of F; entry at index x is F(x)."""

    __slots__ = ("ctx", "values", "_arr")

    def __init__(self, ctx: Field, values):
        vals = tuple(int(v) for v in values)
        if len(vals) != ctx.size:
            raise ValueError(f"table needs {ctx.size} entries, got {len(vals)}")
        for v in vals:
            if not 0 <= v < ctx.size:
                raise ValueError(f"table entry {v} outside [0, {ctx.size})")
        self.ctx = ctx
        self.values = vals
        self._arr: np.ndarray | None = None

    def as_array(self) -> np.ndarray:
        if self._arr is None:
            self._arr = np.array(self.values, dtype=np.uint32)
        return self._arr

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FuncTable)
            and self.ctx == other.ctx
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.values))

    def __repr__(self) -> str:
        return f"FuncTable(m={self.ctx.m}, {len(self.values)} entries)"


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
    """Tabulate the polynomial at every field element (0^0 counts as 1)."""
    ctx = p.ctx
    xs = np.arange(ctx.size, dtype=np.int64)
    acc = np.zeros(ctx.size, dtype=np.uint32)
    for e, c in p.terms.items():
        acc ^= ctx.mul_many(c, ctx.pow_many(xs, e))
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
    """Table of x -> c * x^e."""
    return evaluate(UnivariatePoly(ctx, {e: c}))


# ---------------------------------------------------------------- degrees

def two_weight(k: int) -> int:
    """Number of ones in the binary expansion of k."""
    if k < 0:
        raise ValueError("exponents are nonnegative")
    return int(k).bit_count()


def _moebius(a: np.ndarray) -> np.ndarray:
    """In-place binary Moebius butterfly along a power-of-two length array."""
    n = a.shape[0]
    if n & (n - 1):
        raise ValueError("table length must be a power of two")
    h = 1
    while h < n:
        v = a.reshape(-1, 2 * h)
        v[:, h:] ^= v[:, :h]
        h *= 2
    return a


def mobius_transform(bits: np.ndarray) -> np.ndarray:
    """Binary Moebius transform (self-inverse): table of a Boolean function
    <-> its ANF coefficient table, index = monomial support mask."""
    return _moebius(np.array(bits, dtype=np.uint8, copy=True))


def packed_anf(f: FuncTable) -> np.ndarray:
    """ANF of every output coordinate at once: bit j of entry M is the
    coefficient of the monomial x^M in coordinate j of F."""
    return _moebius(f.as_array().copy())


def _top_weight(anf: np.ndarray) -> int:
    """Largest weight of a monomial index with a nonzero entry (0 if none)."""
    idx = np.flatnonzero(anf).astype(np.uint32)
    return int(np.bitwise_count(idx).max()) if idx.size else 0


def algebraic_degree(f: FuncTable) -> int:
    """Largest weight of a monomial with a nonzero packed ANF coefficient
    (0 for constants); equal to the maximum 2-weight over exponents of the
    univariate representation."""
    return _top_weight(packed_anf(f))


def anf_degree(bits: np.ndarray) -> int:
    """Degree of the ANF of a Boolean function given by its value table
    (0 for the constant functions)."""
    return _top_weight(mobius_transform(bits))


def component_table(f: FuncTable, c: int) -> np.ndarray:
    """Bit table of the component function x -> trace(c * F(x))."""
    ctx = f.ctx
    return ctx.trace_table()[ctx.mul_many(c, f.as_array())]


def component_degree(f: FuncTable, c: int) -> int:
    """ANF degree of the component x -> trace(c * F(x)); 0 when c = 0."""
    return anf_degree(component_table(f, c))


# ---------------------------------------------------------------- algebra

def is_permutation(f: FuncTable) -> bool:
    return len(set(f.values)) == f.ctx.size


def invert(f: FuncTable) -> FuncTable:
    if not is_permutation(f):
        raise NotAPermutationError("table has repeated values")
    out = [0] * f.ctx.size
    for x, y in enumerate(f.values):
        out[y] = x
    return FuncTable(f.ctx, out)


def compose(f: FuncTable, g: FuncTable) -> FuncTable:
    """x -> f(g(x))."""
    _require_same_ctx(f, g)
    return FuncTable(f.ctx, f.as_array()[g.as_array()])


def add(f: FuncTable, g: FuncTable) -> FuncTable:
    """Pointwise XOR."""
    _require_same_ctx(f, g)
    return FuncTable(f.ctx, f.as_array() ^ g.as_array())

"""APN/AB construction families over GF(2^m).

Two kinds of builders live here.  The power families (`family_exponent`)
catalogue the classical monomial exponents with their parameter conditions.
The twisted families (`theorem1` .. `theorem4`) modify a Gold power map by
trace-gated correction terms.

Every table taken from the Gold graph {(x, x^(2^i+1))} goes through one
helper, `_graph_map`, which builds the map L(x, y) = (x, y) + C(x, y) of
F_2^(2m) from the images of C at the basis.  `theorem3` and `theorem4` are
`ccz_transform(L, x^(2^i+1))`: the table F2 o F1^(-1) of the two projections
(F1, F2) of the image, as the paper builds them.  The graph witnesses
`theorem12_ccz_witness` and `example1_witness` return L with both
projections.  `theorem1` and `theorem2` stay closed-form, so they are the
references the witness identities are checked against on every call;
`theorem3_f1` and `theorem4_f1_tables` give the shifts F1 in closed form.

Every such L is linear with no shift, so W_F(u) = W_G(L^T u) for the Gold
map G, and the Walsh and difference-count distributions of all four
families are Gold's.  `vbfkit analyze --family` takes both spectra from
the Gold table on that ground: for thm3 and thm4 by construction, for thm1
and thm2 through `theorem12_ccz_witness`, whose whole-table check runs on
every call.  The builders here return the table alone, so `construct` and
the `verify` claims do not pay for a witness.

All builders take an explicit :class:`~vbfkit.gf2m.Field` context and return
plain lookup tables, so outputs from different reduction polynomials can be
compared spectrum-by-spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from vbfkit.ccz import (
    BinLinearMap,
    CczWitness,
    ConditionViolatedError,
    _require_index,
    ccz_transform,
    graph_image,
)
from vbfkit.gf2m import Field
from vbfkit.vbf import FuncTable, compose, invert, is_permutation, monomial

__all__ = [
    "ConditionViolatedError",
    "DivisibilityViolatedError",
    "FamilySpec",
    "ParityViolatedError",
    "ZeroElementError",
    "example1_witness",
    "f8_side_condition",
    "family_exponent",
    "theorem1",
    "theorem12_ccz_witness",
    "theorem2",
    "theorem3",
    "theorem3_f1",
    "theorem4",
    "theorem4_f1_inverse",
    "theorem4_f1_tables",
]


class ParityViolatedError(ConditionViolatedError):
    """The extension degree has the wrong parity for this family."""


class DivisibilityViolatedError(ConditionViolatedError):
    """The extension degree misses a required divisibility."""


class ZeroElementError(ConditionViolatedError):
    """A scaling element that must be nonzero is zero."""


@dataclass(frozen=True)
class FamilySpec:
    """Parameter bundle naming one instance of a function family.

    `family` is a case-insensitive tag: "gold", "kasami", "welch", "niho",
    "inverse", "dobbertin" for the power families, or "thm1" .. "thm4" for
    the twisted ones.  Only the parameters a family actually uses need to
    be set; redundant ones are cross-checked.
    """

    family: str
    m: int
    i: int | None = None
    t: int | None = None


def _checked_i(spec: FamilySpec) -> int:
    if spec.i is None:
        raise ConditionViolatedError(f"{spec.family} needs the index i")
    _require_index(spec.i, spec.m, strict=True)
    return spec.i


def _half_degree(spec: FamilySpec) -> int:
    """t with m = 2t + 1, cross-checked against an explicit t if given."""
    if spec.m % 2 == 0:
        raise ParityViolatedError(f"{spec.family} needs odd m (m = 2t + 1)")
    t = (spec.m - 1) // 2
    if spec.t is not None and spec.t != t:
        raise ConditionViolatedError(f"t = {spec.t} inconsistent with m = {spec.m}")
    return t


def family_exponent(spec: FamilySpec) -> int:
    """Exponent d of the named power family x^d, conditions checked."""
    fam = spec.family.lower()
    m = spec.m
    if m < 2:
        raise ConditionViolatedError("extension degree must be at least 2")
    if fam == "gold":
        return (1 << _checked_i(spec)) + 1
    if fam == "kasami":
        i = _checked_i(spec)
        return (1 << (2 * i)) - (1 << i) + 1
    if fam == "welch":
        return (1 << _half_degree(spec)) + 3
    if fam == "niho":
        t = _half_degree(spec)
        if t % 2 == 0:
            return (1 << t) + (1 << (t // 2)) - 1
        return (1 << t) + (1 << ((3 * t + 1) // 2)) - 1
    if fam == "inverse":
        return (1 << (2 * _half_degree(spec))) - 1
    if fam == "dobbertin":
        if m % 5:
            raise DivisibilityViolatedError("dobbertin needs m = 5i")
        i = m // 5
        if spec.i is not None and spec.i != i:
            raise ConditionViolatedError(f"i = {spec.i} inconsistent with m = {m}")
        return (1 << (4 * i)) + (1 << (3 * i)) + (1 << (2 * i)) + (1 << i) - 1
    raise ConditionViolatedError(f"not a power family: {spec.family!r}")


# ------------------------------------------------------- twisted families

def _graph_map(x_images: list[int], y_images: list[int]) -> BinLinearMap:
    """The map L = I + C of F_2^(2m) from the packed images C(2^k, 0) and
    C(0, 2^k), k < m, of a linear C; a point (x, y) is packed as x | y << m."""
    cols = [(1 << j) ^ c for j, c in enumerate(x_images + y_images)]
    rows = [sum(((c >> r) & 1) << j for j, c in enumerate(cols)) for r in range(len(cols))]
    return BinLinearMap(len(cols), len(cols), rows)


def theorem1(ctx: Field, i: int, relaxed: bool = False) -> FuncTable:
    """Gold map twisted by its own trace gate, for odd extension degrees.

    x^(2^i+1) + (x^(2^i) + x) tr(x^(2^i+1) + x).  With gcd(i, m) = 1 the
    result is AB of algebraic degree 3.  `relaxed` drops the gcd condition;
    the output is then merely plateaued, matching the power map's spectra.
    """
    if ctx.m % 2 == 0:
        raise ParityViolatedError("odd extension degree required")
    if ctx.m <= 3:
        raise ConditionViolatedError("the cubic twist needs m > 3")
    _require_index(i, ctx.m, strict=not relaxed)
    xs = np.arange(ctx.size, dtype=np.int64)
    e = (1 << i) + 1
    xe = ctx.pow_many(xs, e)
    x2i = ctx.pow_many(xs, 1 << i)
    gate = ctx.trace_table()[xe ^ xs].astype(np.int64)
    return FuncTable(ctx, xe ^ ((x2i ^ xs) * gate))


def theorem2(ctx: Field, i: int, relaxed: bool = False) -> FuncTable:
    """Gold map twisted by an affine trace gate, for even extension degrees.

    x^(2^i+1) + (x^(2^i) + x + 1) tr(x^(2^i+1)).  With gcd(i, m) = 1 the
    result is APN of algebraic degree 3.  `relaxed` allows gcd(i, m) = s > 1
    whenever m/s is odd; the output then shares the power map's spectra.
    """
    if ctx.m % 2:
        raise ParityViolatedError("even extension degree required")
    if ctx.m < 4:
        raise ConditionViolatedError("the cubic twist needs m >= 4")
    _require_index(i, ctx.m, strict=not relaxed)
    if relaxed and (ctx.m // math.gcd(i, ctx.m)) % 2 == 0:
        raise ConditionViolatedError("plateaued relaxation needs m / gcd(i, m) odd")
    xs = np.arange(ctx.size, dtype=np.int64)
    e = (1 << i) + 1
    xe = ctx.pow_many(xs, e)
    x2i = ctx.pow_many(xs, 1 << i)
    gate = ctx.trace_table()[xe].astype(np.int64)
    return FuncTable(ctx, xe ^ ((x2i ^ xs ^ 1) * gate))


def f8_side_condition(i: int) -> bool:
    """The F_8 condition gating the subfield-twist permutation.

    True iff (u^(2^i+1) w)^2 + (u^(2^i+1) w)^4 != u for every nonzero u and
    every nonzero w of trace zero.  Only i mod 3 matters, and a scan of the
    7 x 3 pairs holds for i = 1, 2 mod 3 and fails for i = 0 mod 3 (where
    u^(2^i+1) = u^2); the scan stays in the tests as the oracle.
    """
    _require_index(i, 3, strict=False)
    return i % 3 != 0


def _theorem3_preconditions(ctx: Field, i: int) -> None:
    if ctx.m % 6:
        raise DivisibilityViolatedError("m must be divisible by 6")
    _require_index(i, ctx.m, strict=True)


def theorem3_f1(ctx: Field, i: int) -> FuncTable:
    """The order-6 shift x + T^2 + T^4 with T = tr_{m/3}(x^(2^i+1)).

    Verified on construction: the table is a permutation and its sixth
    compositional power is the identity.
    """
    _theorem3_preconditions(ctx, i)
    xs = np.arange(ctx.size, dtype=np.int64)
    t = ctx.subfield_trace_many(ctx.pow_many(xs, (1 << i) + 1), 3)
    f1 = FuncTable(ctx, xs ^ ctx.mul_many(t, t) ^ ctx.pow_many(t, 4))
    if not is_permutation(f1):
        raise RuntimeError("subfield shift unexpectedly failed to permute")
    acc = f1
    for _ in range(5):
        acc = compose(f1, acc)
    if acc != monomial(ctx, 1):
        raise RuntimeError("sixth compositional power is not the identity")
    return f1


def theorem3(ctx: Field, i: int) -> FuncTable:
    """Quartic APN family on degrees divisible by 6.

    The image of the Gold graph under L(x, y) = (x + T^2 + T^4, y) with
    T = tr_{m/3}(y): the Gold map composed with the inverse of the order-6
    shift `theorem3_f1`, which the F_8 side condition makes a permutation.
    """
    _theorem3_preconditions(ctx, i)
    if not f8_side_condition(i):
        raise ConditionViolatedError("octic side condition fails for this index")
    traces = [ctx.subfield_trace(1 << k, 3) for k in range(ctx.m)]
    shifts = [ctx.mul(t, t) ^ ctx.pow(t, 4) for t in traces]
    return ccz_transform(_graph_map([0] * ctx.m, shifts), monomial(ctx, (1 << i) + 1))


def _theorem4_preconditions(ctx: Field, n: int, i: int) -> None:
    if ctx.m % 2 == 0:
        raise ParityViolatedError("odd extension degree required")
    _require_index(i, ctx.m, strict=True)
    if n < 1 or ctx.m % n:
        raise ConditionViolatedError("subfield degree must divide m")
    if n == ctx.m:
        raise ConditionViolatedError("a proper subfield is required (n != m)")
    if ctx.m <= 3:  # then n = 1, Theorem 1's formula, which fails at m = 3
        raise ConditionViolatedError("the subfield-trace family needs m > 3")


def theorem4(ctx: Field, n: int, i: int) -> FuncTable:
    """AB family of degree n + 2 mixing a Gold map with a subfield trace.

    With t = tr_{m/n}(x) and B = t^(2^i+1) + tr_{m/n}(x^(2^i+1)) + t:

        x^(2^i+1) + tr_{m/n}(x^(2^i+1)) + x^(2^i) t + x t^(2^i)
        + B^(1/(2^i+1)) (x^(2^i) + t^(2^i) + 1) + B^(2^i/(2^i+1)) (x + t)

    The fractional powers are the true e-th-root exponents (0 maps to 0);
    n = 1 collapses the formula onto `theorem1`, so m > 3 as there.  The
    image of the Gold graph under L(x, y) = (x + s, y + s) with
    s = tr_{m/n}(x) + tr_{m/n}(y): its projections are the shift
    F1(z) = z + tr_{m/n}(z) + tr_{m/n}(z^(2^i+1)) of `theorem4_f1_tables` and
    F2(z) = z^(2^i+1) + tr_{m/n}(z) + tr_{m/n}(z^(2^i+1)), and the table is
    F2 o F1^(-1).
    """
    _theorem4_preconditions(ctx, n, i)
    m = ctx.m
    mixes = [t | t << m for t in (ctx.subfield_trace(1 << k, n) for k in range(m))]
    return ccz_transform(_graph_map(mixes, mixes), monomial(ctx, (1 << i) + 1))


def theorem4_f1_tables(ctx: Field, n: int, i: int) -> tuple[FuncTable, FuncTable]:
    """Tables of the shift F1(x) = x + tr_{m/n}(x) + tr_{m/n}(x^(2^i+1)) and
    of its closed-form inverse (`theorem4_f1_inverse` at every point)."""
    _theorem4_preconditions(ctx, n, i)
    xs = np.arange(ctx.size, dtype=np.int64)
    e = (1 << i) + 1
    t = ctx.subfield_trace_many(xs, n)
    te = ctx.subfield_trace_many(ctx.pow_many(xs, e), n)
    root = ctx.pow_many(ctx.pow_many(t, e) ^ te ^ t, ctx.inverse_exponent(e))
    return FuncTable(ctx, xs ^ t ^ te), FuncTable(ctx, xs ^ root ^ t)


def theorem4_f1_inverse(ctx: Field, n: int, i: int, y: int) -> int:
    """Closed-form inverse of F1(x) = x + tr_{m/n}(x) + tr_{m/n}(x^(2^i+1)).

    Returns y + B^(1/(2^i+1)) + tr_{m/n}(y) with B as in `theorem4`, which
    composes with F1 to the identity at every point.
    """
    _theorem4_preconditions(ctx, n, i)
    if not 0 <= y < ctx.size:
        raise ValueError("element outside the field")
    e = (1 << i) + 1
    t = ctx.subfield_trace(y, n)
    b = ctx.pow(t, e) ^ ctx.subfield_trace(ctx.pow(y, e), n) ^ t
    return y ^ ctx.pow(b, ctx.inverse_exponent(e)) ^ t


# -------------------------------------------------------- graph witnesses

def theorem12_ccz_witness(ctx: Field, i: int, a: int = 1) -> CczWitness:
    """Graph-side witness carrying the Gold graph onto a twisted family.

    The parity of m picks the family.  With e = 2^i+1, odd m gets the witness
    of `theorem1`, L(x, y) = (x, y) + (tr(x/a) + tr(y/a^e)) (a, a^e), and
    even m that of `theorem2`, L(x, y) = (x + a tr(y/a^e), y).  L and its
    first projection F1 are involutions, and F2 o F1^(-1) equals the twisted
    table scaled by a — all three identities are re-verified here on every
    call, against the direct `theorem1`/`theorem2` output.  `a` = 1 gives
    the twisted table exactly.
    """
    if not 0 <= a < ctx.size:
        raise ValueError("element outside the field")
    if a == 0:
        raise ZeroElementError("the scaling element must be nonzero")
    m = ctx.m
    base = theorem1(ctx, i) if m % 2 else theorem2(ctx, i)  # checks i before 2^i
    e = (1 << i) + 1
    ae = ctx.pow(a, e)
    x_mask = ctx.trace_mask(ctx.inv(a)) if m % 2 else 0
    y_mask = ctx.trace_mask(ctx.inv(ae))
    image = a | ae << m if m % 2 else a
    L = _graph_map(
        [image * ((x_mask >> k) & 1) for k in range(m)],
        [image * ((y_mask >> k) & 1) for k in range(m)],
    )
    w = graph_image(L, monomial(ctx, e))
    if any(L.apply(col) != 1 << j for j, col in enumerate(L.columns)):
        raise RuntimeError("graph-side map is not an involution")
    if compose(w.F1, w.F1) != monomial(ctx, 1):
        raise RuntimeError("first projection is not an involution")
    xs = np.arange(ctx.size, dtype=np.int64)
    scaled = ctx.mul_many(ae, base.as_array()[ctx.mul_many(xs, ctx.inv(a))])
    if compose(w.F2, w.F1) != FuncTable(ctx, scaled):  # F1 is its own inverse
        raise RuntimeError("scaling identity failed")
    return w


def example1_witness(ctx: Field, i: int) -> CczWitness:
    """Two-variable graph witness that still lands in the Gold orbit.

    The first output half is x + tr(x) + M(y) where M inverts
    z -> z + z^(2^i) + tr(z); the second is y + tr(x).  Both projections of
    the Gold graph depend on both halves, yet the transformed table stays
    EA-equivalent to the inverted power map — the witness marks the boundary
    of what two-variable mixing alone can prove.
    """
    m = ctx.m
    if m % 2 == 0:
        raise ParityViolatedError("odd extension degree required")
    _require_index(i, m, strict=True)
    zs = np.arange(ctx.size, dtype=np.int64)
    M = invert(FuncTable(ctx, zs ^ ctx.pow_many(zs, 1 << i) ^ ctx.trace_table())).as_array()
    # tr(x) is a multiple of the element 1, the basis coordinate 0 of each half
    mixes = [t | t << m for t in (ctx.trace(1 << k) for k in range(m))]
    L = _graph_map(mixes, [int(M[1 << k]) for k in range(m)])
    return graph_image(L, monomial(ctx, (1 << i) + 1))

"""Component degrees for the tests: one component at a time on uint8 bit
tables, or every component mask at once from the packed ANF.

Oracles for the packed-ANF path of ``vbfkit``.  ``component_degree`` takes
the bit table of x -> trace(c*F(x)) from the trace table and ``mul_many``,
one uint8 Moebius pass, then the largest weight of a monomial with a nonzero
coefficient.  ``component_degrees`` gives the degree of every mask u, with
one echelon basis per monomial weight, from its own elimination over Python
ints (not the eliminator of ``vbfkit.ccz``).
"""

import numpy as np

from vbfkit.vbf import packed_anf


def echelon_basis(vectors) -> list[int]:
    """A basis of the span of the masks, kept in descending order, so that
    their top bits differ and min(v, v ^ b) clears b's top bit from v."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis = sorted(basis + [v], reverse=True)
    return basis


def mobius_transform(bits) -> np.ndarray:
    """Binary Moebius transform (self-inverse): table of a Boolean function
    <-> its ANF coefficient table, index = monomial support mask."""
    a = np.array(bits, dtype=np.uint8, copy=True)
    h = 1
    while h < a.size:
        v = a.reshape(-1, 2 * h)
        v[:, h:] ^= v[:, :h]
        h *= 2
    return a


def anf_degree(bits) -> int:
    """Degree of the ANF of a Boolean function given by its value table
    (0 for the constant functions)."""
    return max((int(M).bit_count() for M in np.flatnonzero(mobius_transform(bits))), default=0)


def component_table(f, c: int) -> np.ndarray:
    """Bit table of the component function x -> trace(c * F(x))."""
    ctx = f.ctx
    return ctx.trace_table()[ctx.mul_many(c, f.as_array())]


def component_degree(f, c: int) -> int:
    """ANF degree of the component x -> trace(c * F(x))."""
    return anf_degree(component_table(f, c))


def component_degrees(f) -> np.ndarray:
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
        for b in echelon_basis(coeffs[coeffs != 0].tolist()):
            reached |= np.bitwise_count(us & np.uint32(b)) & 1
        deg[reached != 0] = w
    return deg

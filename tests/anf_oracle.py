"""Component degrees one component at a time, on uint8 bit tables.

An oracle for the packed-ANF path of ``vbfkit``: the bit table of
x -> trace(c*F(x)) from the trace table and ``mul_many``, one uint8 Moebius
pass, then the largest weight of a monomial with a nonzero coefficient.
"""

import numpy as np


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

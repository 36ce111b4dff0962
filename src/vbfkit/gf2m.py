"""Arithmetic in GF(2^m) with bit-pattern elements.

An element is an int in [0, 2^m) for 2 <= m <= 24 (``_MAX_DEGREE``, the one
size bound: tables and spectra hold arrays of 2^m entries); bit k is the
coefficient of x^k in the polynomial basis determined by the reduction
polynomial.  The default reduction polynomial for each degree is the lowest
irreducible when read as an integer bitmask, overridable per field or
process-wide through the ``VBF_DEFAULT_POLY_TABLE`` environment variable (a
JSON file mapping the degree, as a string, to a polynomial bitmask).

``Field(m, poly)`` returns one shared instance per (m, polynomial) in a
process, and each table that depends on the field alone is built once, on
that instance, and kept read-only (see ``kept``).
"""

from __future__ import annotations

import json
import operator
import os
import threading
from collections import OrderedDict
from functools import lru_cache, wraps

import numpy as np

_MIN_DEGREE = 2
_MAX_DEGREE = 24  # every field builds 2^m-entry tables, and spectra cost 2^(2m)
# Fields kept alive by the intern table, least recently used first out;
# analyze-batch cycles through 12 (three polynomials at each m = 7-10).
_FIELDS_KEPT = 16


# ---------------------------------------------------------------- GF(2)[x]

def _poly_mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _poly_mod(a: int, p: int) -> int:
    dp = p.bit_length()
    da = a.bit_length()
    while da >= dp:
        a ^= p << (da - dp)
        da = a.bit_length()
    return a


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def is_irreducible(p: int) -> bool:
    """True iff p is an irreducible polynomial over GF(2).

    Checks that x^(2^k) - x is coprime with p for every k below the degree
    and that x^(2^m) = x holds modulo p; any proper factor of p would have
    degree below m and hence divide one of the x^(2^k) - x.
    """
    m = p.bit_length() - 1
    if p < 0 or m < 1:
        return False
    if m == 1:
        return True  # x and x+1
    t = 2  # the polynomial x
    for _ in range(1, m):
        t = _poly_mod(_poly_mul(t, t), p)
        if _poly_gcd(t ^ 2, p) != 1:
            return False
    t = _poly_mod(_poly_mul(t, t), p)
    return t == 2


@lru_cache(maxsize=None)
def _scan_lowest_irreducible(m: int) -> int:
    for p in range((1 << m) + 1, 1 << (m + 1), 2):
        if is_irreducible(p):
            return p
    raise AssertionError(f"no irreducible of degree {m}")  # unreachable


def default_poly(m: int) -> int:
    """The reduction polynomial used when none is given: the lowest-valued
    irreducible bitmask of degree m, unless the JSON table named by
    VBF_DEFAULT_POLY_TABLE supplies an entry for this degree."""
    if not _MIN_DEGREE <= m <= _MAX_DEGREE:
        raise ValueError(f"field degree must be in [{_MIN_DEGREE}, {_MAX_DEGREE}], got {m}")
    path = os.environ.get("VBF_DEFAULT_POLY_TABLE")
    if path:
        with open(path) as fh:
            table = json.load(fh)
        if not isinstance(table, dict):
            raise ValueError("VBF_DEFAULT_POLY_TABLE must hold a JSON object of degree: bitmask")
        entry = table.get(str(m))
        if isinstance(entry, int):
            return entry
        if entry is not None:
            try:
                return int(entry, 0)
            except (TypeError, ValueError):
                raise ValueError(
                    f"VBF_DEFAULT_POLY_TABLE entry for degree {m} is {entry!r}, "
                    "not an integer or a numeric string"
                ) from None
    return _scan_lowest_irreducible(m)


@lru_cache(maxsize=None)
def _factorize(n: int) -> tuple[int, ...]:
    """Distinct prime factors by trial division (n < 2^24 here)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def _linear_table(images) -> np.ndarray:
    """Table of the F_2-linear map that sends basis element 2^k to images[k].
    A stack of images, shape (..., m), gives a stack of tables, (..., 2^m),
    in the images' dtype (int64 for a list of Python ints)."""
    images = np.asarray(images)
    m = images.shape[-1]
    tab = np.zeros((*images.shape[:-1], 1 << m), dtype=images.dtype)
    for k in range(m):
        tab[..., 1 << k:2 << k] = tab[..., :1 << k] ^ images[..., k, None]
    return tab


def kept(build):
    """Decorator for a function of one read-only owner that has a ``_tables``
    dict (a ``Field``, a ``FuncTable`` or a ``BinLinearMap``): ``build(owner)``
    runs once per owner, its value is kept in that dict, so it dies with its
    owner, and every array in it, in nested tuples too, is made read-only.
    An exception is not kept; the next call runs ``build`` again.  Threads
    that build the same value at once all get the one kept first.  An owner
    made from the value at hand keeps it with ``cached.keep(owner, value)``,
    and ``build`` never runs for it."""
    @wraps(build)
    def cached(owner):
        tables = owner._tables
        if build in tables:
            return tables[build]
        return keep(owner, build(owner))

    def keep(owner, value):
        _freeze(value)
        return owner._tables.setdefault(build, value)

    cached.keep = keep
    return cached


def _freeze(value) -> None:
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    for item in value if isinstance(value, tuple) else ():
        _freeze(item)


# ---------------------------------------------------------------- the field

_FIELDS: OrderedDict[tuple[int, int], Field] = OrderedDict()
_FIELDS_LOCK = threading.Lock()


class Field:
    """GF(2^m) under a fixed irreducible reduction polynomial.

    ``Field(m, poly)`` returns this process's one instance for m and the
    polynomial (``default_poly(m)``, read on every call, when poly is None),
    so the tables built on it serve every caller.  The last ``_FIELDS_KEPT``
    fields used are kept; an evicted one is built again when asked for.
    A degree or polynomial that fails its check is never kept.
    """

    def __new__(cls, m: int, poly: int | None = None):
        if poly is None:
            poly = default_poly(m)
        key = m, poly = operator.index(m), operator.index(poly)  # 5.0 is no degree
        with _FIELDS_LOCK:
            if key in _FIELDS:
                _FIELDS.move_to_end(key)
                return _FIELDS[key]
        if not _MIN_DEGREE <= m <= _MAX_DEGREE:
            raise ValueError(f"field degree must be in [{_MIN_DEGREE}, {_MAX_DEGREE}], got {m}")
        if poly < 0 or poly.bit_length() - 1 != m:
            raise ValueError(f"reduction polynomial {poly:#x} does not have degree {m}")
        if not is_irreducible(poly):
            raise ValueError(f"reduction polynomial 0x{poly:x} is reducible")
        self = super().__new__(cls)
        self.m = m
        self.poly = poly
        self.size = 1 << m
        self.order = self.size - 1  # multiplicative group order
        self._tables = {}  # build function -> value, for kept
        with _FIELDS_LOCK:  # a thread that built the same field first wins
            self = _FIELDS.setdefault(key, self)
            _FIELDS.move_to_end(key)
            if len(_FIELDS) > _FIELDS_KEPT:
                _FIELDS.popitem(last=False)
        return self

    def __init__(self, m: int, poly: int | None = None):
        """Nothing to do: ``__new__`` returns a built, shared instance."""

    def __reduce__(self):
        return Field, (self.m, self.poly)

    # -- scalar arithmetic ------------------------------------------------

    def _outside(self, x: int) -> ValueError:
        return ValueError(f"element {x} outside the field GF(2^{self.m})")

    def mul(self, x: int, y: int) -> int:
        if not 0 <= x < self.size:
            raise self._outside(x)
        if not 0 <= y < self.size:
            raise self._outside(y)
        return self._mul(x, y)

    def _mul(self, x: int, y: int) -> int:
        p, m = self.poly, self.m
        top = 1 << m
        r = 0
        while y:
            if y & 1:
                r ^= x
            x <<= 1
            if x & top:
                x ^= p
            y >>= 1
        return r

    def pow(self, x: int, e: int) -> int:
        if not 0 <= x < self.size:
            raise self._outside(x)
        if e < 0:
            raise ValueError("negative exponent; use inv() or inverse_exponent()")
        return self._pow(x, e)

    def _pow(self, x: int, e: int) -> int:
        if e == 0:
            return 1
        if x == 0:
            return 0
        e %= self.order
        if e == 0:
            return 1
        r = 1
        while e:
            if e & 1:
                r = self._mul(r, x)
            x = self._mul(x, x)
            e >>= 1
        return r

    def inv(self, x: int) -> int:
        if not 0 <= x < self.size:
            raise self._outside(x)
        if x == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._pow(x, self.order - 1)

    def is_primitive(self, x: int) -> bool:
        """True iff x generates the multiplicative group GF(2^m)*."""
        if not 0 <= x < self.size:
            raise self._outside(x)
        return x != 0 and all(self._pow(x, self.order // q) != 1 for q in _factorize(self.order))

    @property
    @kept
    def generator(self) -> int:
        g = 2
        while not self.is_primitive(g):
            g += 1
        return g

    # -- traces -----------------------------------------------------------

    @kept
    def _basis_trace_mask(self) -> int:
        """Bit k is tr(2^k), which is 0 or 1."""
        return sum(self.subfield_trace(1 << k, 1) << k for k in range(self.m))

    def trace(self, x: int) -> int:
        """Absolute trace GF(2^m) -> GF(2)."""
        if not 0 <= x < self.size:
            raise self._outside(x)
        return (x & self._basis_trace_mask()).bit_count() & 1

    def trace_mask(self, c: int) -> int:
        """The mask of the functional x -> trace(c*x), which equals
        parity(mask & x): bit j is trace(c * 2^j)."""
        if not 0 <= c < self.size:
            raise self._outside(c)
        mask = self._basis_trace_mask()
        return sum(((self._mul(c, 1 << j) & mask).bit_count() & 1) << j for j in range(self.m))

    def subfield_trace(self, x: int, n: int) -> int:
        """Relative trace onto the subfield GF(2^n), n | m: the sum of the
        orbit of x under the n-th Frobenius power."""
        if not 0 <= x < self.size:
            raise self._outside(x)
        if n < 1 or self.m % n != 0:
            raise ValueError(f"{n} does not divide the field degree {self.m}")
        t = x
        acc = x
        for _ in range(self.m // n - 1):
            for _ in range(n):
                t = self._mul(t, t)
            acc ^= t
        return acc

    # -- exponent arithmetic ----------------------------------------------

    def inverse_exponent(self, e: int) -> int:
        """d with e*d = 1 (mod 2^m - 1), so x -> x^d undoes x -> x^e."""
        try:
            return pow(e, -1, self.order)
        except ValueError:
            raise ValueError(
                f"exponent {e} shares a factor with 2^{self.m}-1 = {self.order}"
            ) from None

    # -- vectorized arithmetic --------------------------------------------

    def scale_table(self, c: int) -> np.ndarray:
        """int64 table of x -> c*x, spread from the m products c * 2^k
        (multiplication by c is F_2-linear)."""
        if not 0 <= c < self.size:
            raise self._outside(c)
        return _linear_table([self._mul(c, 1 << k) for k in range(self.m)])

    @kept
    def _logexp(self) -> tuple[np.ndarray, np.ndarray]:
        """exp[k] = g^k for the generator g and 0 <= k < 2(2^m - 1), then
        zeros up to index 4(2^m - 1); log is its inverse on nonzero x, and
        log[0] = 2(2^m - 1).  So exp[log[x] + log[y]] = x*y for all x and y:
        a sum of two logs of nonzero elements needs no reduction, and one
        with log[0] lands in the zero tail.

        exp is filled by doubling: with step the table of x -> g^k * x,
        which starts as ``scale_table(generator)`` and is not kept,
        exp[k:2k] = step[exp[:k]], then step[step] is the table for g^(2k).
        Both log and exp are read-only.
        """
        order = self.order
        exp = np.zeros(4 * order + 1, dtype=np.uint32)
        exp[0] = 1
        step = self.scale_table(self.generator)
        k = 1
        while k < order:
            span = min(k, order - k)
            exp[k:k + span] = step[exp[:span]]
            step = step[step]
            k *= 2
        exp[order:2 * order] = exp[:order]
        log = np.full(self.size, 2 * order, dtype=np.int64)
        log[exp[:order]] = np.arange(order)
        return log, exp

    def _check_many(self, x) -> np.ndarray:
        """x as an int64 array, every entry checked to lie in [0, 2^m)."""
        x = np.asarray(x, dtype=np.int64)
        high = x >> np.int64(self.m)  # nonzero exactly at the negative entries and those >= 2^m
        if np.count_nonzero(high):
            raise self._outside(x.flat[np.flatnonzero(high)[0]])
        return x

    def mul_many(self, x, y) -> np.ndarray:
        log, exp = self._logexp()
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        if np.count_nonzero((x | y) >> np.int64(self.m)):  # one test for both operands
            self._check_many(x)
            self._check_many(y)
        return np.asarray(exp[log[x] + log[y]])  # an array for 0-d operands too

    def pow_many(self, x, e: int) -> np.ndarray:
        return self._pow_many(self._check_many(x), e)

    def _pow_many(self, x: np.ndarray, e: int) -> np.ndarray:
        if e == 0:
            return np.ones(x.shape, dtype=np.uint32)
        log, exp = self._logexp()
        nz = x != 0
        out = np.zeros(x.shape, dtype=np.uint32)
        idx = (log[x] * (e % self.order)) % self.order
        np.copyto(out, exp[idx], where=nz)
        return out

    def inv_many(self, x) -> np.ndarray:
        return self.pow_many(x, self.order - 1)

    def subfield_trace_many(self, x, n: int) -> np.ndarray:
        """`subfield_trace` elementwise: x + x^(2^n) + ... over the m/n
        conjugates, as a uint32 array."""
        if n < 1 or self.m % n != 0:
            raise ValueError(f"{n} does not divide the field degree {self.m}")
        acc = self._check_many(x).astype(np.uint32)
        cur = acc
        for _ in range(self.m // n - 1):
            cur = self._pow_many(cur, 1 << n)
            acc = acc ^ cur
        return acc

    @kept
    def trace_table(self) -> np.ndarray:
        """Read-only uint8 array t with t[x] = trace(x)."""
        xs = np.arange(self.size, dtype=np.uint32)
        return (np.bitwise_count(xs & np.uint32(self._basis_trace_mask())) & 1).astype(np.uint8)

    # -- plumbing -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.m, self.poly) == (other.m, other.poly)

    def __hash__(self) -> int:
        return hash((Field, self.m, self.poly))

    def __repr__(self) -> str:
        return f"Field(m={self.m}, poly=0x{self.poly:x})"


# ---------------------------------------------------------------- trace duality

@kept
def _dual_reindex(ctx: Field) -> np.ndarray:
    """Index map D with tr(alpha * x) = parity(D[alpha] & x) for all x.  D is
    F_2-linear, so it is spread from the m images D[2^k], whose bit j is
    tr(2^k * 2^j)."""
    return _linear_table([ctx.trace_mask(1 << k) for k in range(ctx.m)])


@kept
def _dual_inverse(ctx: Field) -> np.ndarray:
    """D^-1 for the D of ``_dual_reindex``: it sends 2^j to the trace-dual
    basis element d_j, with tr(d_j * 2^k) = 1 iff j = k."""
    inverse = np.empty(ctx.size, dtype=np.int64)
    inverse[_dual_reindex(ctx)] = np.arange(ctx.size)
    return inverse

"""Walsh and differential spectra, nonlinearity, and APN/AB verdicts.

The fast Walsh path builds one sign row (-1)^parity(b & F(x)) per
dot-product output mask b, with no field multiplication, and transforms the
rows with two dense matrix products: the Sylvester-Hadamard matrix factors
as H_(2^k) = H_(2^p) (x) H_(2^q), so a row reshaped to a 2^p x 2^q matrix X
transforms as H_p X H_q.  The products run in float32, which is exact here
because every partial sum is an integer of magnitude at most 2^k <= 2^24.

Since tr(ax) = parity(D[a] & x) for a bijection D fixing 0, the trace row
b is the dot-product row of mask D[b] with its columns permuted, so
``walsh_spectrum`` tallies the dot-product rows of masks D[b] directly;
``walsh_matrix`` reindexes rows and columns by D to match the trace inner
product <a, x> = tr(ax) used by the naive oracle ``walsh_value``.

Both spectra are reduced to one row per squaring orbit when F commutes
with squaring, F(x^2) = F(x)^2, as every polynomial with coefficients in
GF(2) does (the Gold, Theorem 1 and 2 and inverse maps among them).
Substituting x = y^2 gives W_F(a^2, b^2) = W_F(a, b) and
delta_F(a^2, b^2) = delta_F(a, b), so the multiset of Walsh values in row
b equals that of row b^2, and the fiber sizes of direction a equal those
of direction a^2: each orbit's row is computed once and counted once per
element.  ``_frobenius_orbits`` checks the identity on the whole table
and otherwise returns every nonzero element as its own orbit, so a table
without the symmetry (a random table, say) still gets every row and an
exact spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from vbfkit.vbf import FuncTable

_SPECTRUM_LIMIT = 24  # 2^(2m) work beyond this is out of scope
_MATRIX_LIMIT = 14  # full (2^m - 1) x 2^m matrix kept in memory


class TooLargeError(ValueError):
    """Field degree too large for a full-spectrum computation."""


class ParityMismatchError(ValueError):
    """m + s must be even for a {0, +-2^((m+s)/2)} support test."""


@dataclass(frozen=True)
class WalshSpectrum:
    m: int
    distribution: dict  # signed value -> count over all (a, b), b != 0
    max_abs: int


@dataclass(frozen=True)
class DifferentialSpectrum:
    m: int
    distribution: dict  # count value -> number of (a, b) pairs, a != 0
    max: int


# ---------------------------------------------------------------- oracle

def walsh_value(f: FuncTable, a: int, b: int) -> int:
    """Naive O(2^m) character sum with inner product tr(xy)."""
    ctx = f.ctx
    total = 0
    for x, y in enumerate(f.values):
        sign = ctx.trace(ctx.mul(b, y)) ^ ctx.trace(ctx.mul(a, x))
        total += -1 if sign else 1
    return total


# ---------------------------------------------------------------- fast path

@lru_cache(maxsize=None)
def _sylvester(k: int) -> np.ndarray:
    """Read-only float32 Sylvester-Hadamard matrix H[i, j] = (-1)^parity(i & j)
    of order 2^k."""
    idx = np.arange(1 << k, dtype=np.uint32)
    h = 1 - 2 * (np.bitwise_count(idx[:, None] & idx[None, :]) & 1).astype(np.float32)
    h.flags.writeable = False
    return h


def _fwht_rows(mat: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of each +-1 row (length 2^k), as a new int32 array.

    Row x = (x_hi, x_lo) with x_hi the top p = floor(k/2) bits is the matrix
    X[x_hi, x_lo]; since (-1)^(a.x) = (-1)^(a_hi.x_hi) (-1)^(a_lo.x_lo), the
    transform is H_p X H_q.  Each partial sum of either product is an integer
    of magnitude at most 2^k, and float32 holds every integer up to 2^24
    exactly, so the result is exact whatever the summation order; longer rows
    raise TooLargeError.
    """
    rows, n = mat.shape
    k = n.bit_length() - 1
    if k > _SPECTRUM_LIMIT:
        raise TooLargeError(f"float32 transform is exact up to 2^{_SPECTRUM_LIMIT}; row length 2^{k}")
    p = k // 2
    q = k - p
    x = mat.astype(np.float32).reshape(rows << p, 1 << q) @ _sylvester(q)
    out = _sylvester(p) @ x.reshape(rows, 1 << p, 1 << q)
    return out.reshape(rows, n).astype(np.int32)


def _linear_table(images: list[int]) -> np.ndarray:
    """Table of the F_2-linear map that sends basis element 2^k to images[k]."""
    tab = np.zeros(1 << len(images), dtype=np.int64)
    for k, image in enumerate(images):
        tab[1 << k:2 << k] = tab[:1 << k] ^ image
    return tab


def _dual_reindex(ctx) -> np.ndarray:
    """Index map D with tr(alpha * x) = parity(D[alpha] & x) for all x,
    converting dot-product transform columns to trace-convention columns.

    D is F_2-linear in alpha, so it is spread from the m images of the
    basis elements 2^k, whose bit j is tr(2^k * 2^j).
    """
    m = ctx.m
    return _linear_table([sum(ctx.trace(ctx.mul(1 << k, 1 << j)) << j for j in range(m))
                          for k in range(m)])


def _frobenius_orbits(f: FuncTable) -> tuple[np.ndarray, np.ndarray]:
    """Squaring-orbit minima on GF(2^m)* and their orbit sizes, if F commutes
    with squaring; otherwise every nonzero element, each with size 1.

    Squaring is F_2-linear, so its table is spread from the m scalar squares
    of the basis elements 2^k, with no log/exp tables.  The minimum of each
    orbit comes from m - 1 gathers through that table, and an orbit's size
    is the number of elements whose minimum it is.
    """
    ctx = f.ctx
    n = ctx.size
    sq = _linear_table([ctx.mul(1 << k, 1 << k) for k in range(ctx.m)])
    vals = f.as_array()
    if not np.array_equal(vals[sq], sq[vals]):
        return np.arange(1, n, dtype=np.int64), np.ones(n - 1, dtype=np.int64)
    low = np.arange(n, dtype=np.int64)
    cur = low
    for _ in range(ctx.m - 1):
        cur = sq[cur]
        np.minimum(low, cur, out=low)
    sizes = np.bincount(low, minlength=n)
    reps = np.flatnonzero(sizes)[1:]  # drop the orbit {0}
    return reps, sizes[reps]


def _sign_rows(f: FuncTable, masks: np.ndarray) -> np.ndarray:
    """Rows of (-1)^parity(b & F(x)) for each dot-product mask b, as int32."""
    prods = masks.astype(np.uint32)[:, None] & f.as_array()[None, :]
    return 1 - 2 * (np.bitwise_count(prods) & 1).astype(np.int32)


def walsh_matrix(f: FuncTable) -> np.ndarray:
    """Full matrix W[b-1, a] = walsh(a, b) for b = 1..2^m-1 (trace convention)."""
    ctx = f.ctx
    if ctx.m > _MATRIX_LIMIT:
        raise TooLargeError(f"walsh_matrix holds 2^(2m) ints; m={ctx.m} > {_MATRIX_LIMIT}")
    dual = _dual_reindex(ctx)
    mat = _fwht_rows(_sign_rows(f, dual[1:]))
    return mat[:, dual]


def walsh_spectrum(f: FuncTable) -> WalshSpectrum:
    """Multiset of walsh(a, b) over all a and all b != 0.

    Trace row b is the transformed dot-product sign row of mask D[b]; its
    values, all in [-2^m, 2^m], are tallied with one bincount per block.
    Only the orbit minima b from ``_frobenius_orbits`` are transformed, each
    tally counted once per orbit element: if F(x^2) = F(x)^2, then
    W(a^2, b^2) = W(a, b), so rows b and b^2 hold the same multiset.  A
    table without that symmetry gets every row b != 0.
    """
    ctx = f.ctx
    if ctx.m > _SPECTRUM_LIMIT:
        raise TooLargeError(f"walsh_spectrum costs m*2^(2m); m={ctx.m} > {_SPECTRUM_LIMIT}")
    n = ctx.size
    reps, sizes = _frobenius_orbits(f)
    masks = _dual_reindex(ctx)[reps]
    block = max(1, (1 << 18) // n)  # rows per block: each float32 temporary stays near 1 MB
    counts = np.zeros(2 * n + 1, dtype=np.int64)
    for size in np.unique(sizes).tolist():
        group = masks[sizes == size]
        for start in range(0, len(group), block):
            mat = _fwht_rows(_sign_rows(f, group[start:start + block]))
            mat += n
            counts += size * np.bincount(mat.ravel(), minlength=2 * n + 1)
    values = np.flatnonzero(counts)
    dist = {int(v) - n: int(counts[v]) for v in values}
    max_abs = max(abs(v) for v in dist)
    return WalshSpectrum(ctx.m, dist, max_abs)


def nonlinearity(f: FuncTable, spectrum: WalshSpectrum | None = None) -> int:
    if spectrum is None:
        spectrum = walsh_spectrum(f)
    return (1 << (f.ctx.m - 1)) - spectrum.max_abs // 2


# ---------------------------------------------------------------- verdicts

def is_ab(f: FuncTable, spectrum: WalshSpectrum | None = None) -> bool:
    """Maximum-nonlinearity test; only odd m qualifies.

    Computed two ways — spectrum support equal to {0, +-2^((m+1)/2)} and
    nonlinearity meeting 2^(m-1) - 2^((m-1)/2) — which provably coincide;
    a disagreement would mean a broken spectrum computation.
    """
    m = f.ctx.m
    if m % 2 == 0:
        return False
    if spectrum is None:
        spectrum = walsh_spectrum(f)
    peak = 1 << ((m + 1) // 2)
    by_support = set(spectrum.distribution) <= {0, peak, -peak}
    by_nl = nonlinearity(f, spectrum) == (1 << (m - 1)) - (1 << ((m - 1) // 2))
    if by_support != by_nl:
        raise RuntimeError(
            f"AB characterizations disagree (support={by_support}, nl={by_nl}); "
            "spectrum computation is inconsistent"
        )
    return by_support


def is_three_valued(f: FuncTable, s: int, spectrum: WalshSpectrum | None = None) -> bool:
    """Spectrum support contained in {0, +-2^((m+s)/2)} for 0 <= s < m."""
    m = f.ctx.m
    if not 0 <= s < m:
        raise ValueError(f"s must lie in [0, {m}), got {s}")
    if (m + s) % 2:
        raise ParityMismatchError(f"m + s = {m + s} is odd; no integer peak 2^((m+s)/2)")
    if spectrum is None:
        spectrum = walsh_spectrum(f)
    peak = 1 << ((m + s) // 2)
    return set(spectrum.distribution) <= {0, peak, -peak}


def differential_spectrum(f: FuncTable) -> DifferentialSpectrum:
    """Multiset of fiber sizes |{x : F(x+a)+F(x) = b}| over a != 0, all b.

    Only the orbit minima a from ``_frobenius_orbits`` are scanned, each
    direction's histogram counted once per orbit element: if
    F(x^2) = F(x)^2, then delta(a^2, b^2) = delta(a, b), so directions a and
    a^2 have the same fiber sizes.  A table without that symmetry gets every
    direction a != 0.
    """
    ctx = f.ctx
    if ctx.m > _SPECTRUM_LIMIT:
        raise TooLargeError(f"differential_spectrum costs 2^(2m); m={ctx.m} > {_SPECTRUM_LIMIT}")
    n = ctx.size
    vals = f.as_array()
    xs = np.arange(n, dtype=np.int64)
    hist = np.zeros(n + 1, dtype=np.int64)  # fiber size -> number of (a, b)
    reps, weights = _frobenius_orbits(f)
    for a, w in zip(reps.tolist(), weights.tolist()):
        hist += w * np.bincount(np.bincount(vals[xs ^ a] ^ vals, minlength=n), minlength=n + 1)
    sizes = np.flatnonzero(hist)
    dist = {int(v): int(hist[v]) for v in sizes}
    dmax = int(sizes[-1])
    return DifferentialSpectrum(ctx.m, dist, dmax)


def differential_uniformity(f: FuncTable, spectrum: DifferentialSpectrum | None = None) -> int:
    if spectrum is None:
        spectrum = differential_spectrum(f)
    return spectrum.max


def is_apn(f: FuncTable, spectrum: DifferentialSpectrum | None = None) -> bool:
    """Differentially 2-uniform: every nontrivial derivative is 2-to-1 or misses."""
    return differential_uniformity(f, spectrum) == 2

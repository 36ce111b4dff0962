"""Walsh and differential spectra, nonlinearity, and APN/AB verdicts.

The fast Walsh path builds one sign row (-1)^parity(b & F(x)) per
dot-product output mask b, with no field multiplication, and transforms the
rows with a vectorized Walsh-Hadamard butterfly.  The multiset over all
(a, b != 0) is the same in the dot-product and the trace convention, since
tr(ax) = parity(D[a] & x) for a bijection D fixing 0, so ``walsh_spectrum``
counts the dot-product values directly; ``walsh_matrix`` reindexes rows and
columns by D to match the trace inner product <a, x> = tr(ax) used by the
naive oracle ``walsh_value``.
"""

from __future__ import annotations

from dataclasses import dataclass

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

def _fwht_rows(mat: np.ndarray) -> np.ndarray:
    """In-place Walsh-Hadamard transform along axis 1 (length a power of 2)."""
    rows, n = mat.shape
    h = 1
    while h < n:
        m3 = mat.reshape(rows, -1, 2, h)
        top = m3[:, :, 0, :].copy()
        bot = m3[:, :, 1, :]
        m3[:, :, 0, :] = top + bot
        m3[:, :, 1, :] = top - bot
        h *= 2
    return mat


def _dual_reindex(ctx) -> np.ndarray:
    """Index map D with tr(alpha * x) = parity(D[alpha] & x) for all x,
    converting dot-product transform columns to trace-convention columns.

    D is F_2-linear in alpha, so it is spread from the m images of the
    basis elements 2^k, whose bit j is tr(2^k * 2^j).
    """
    m = ctx.m
    alphas = np.arange(ctx.size, dtype=np.int64)
    mask = np.zeros(ctx.size, dtype=np.int64)
    for k in range(m):
        dk = sum(ctx.trace(ctx.mul(1 << k, 1 << j)) << j for j in range(m))
        mask ^= ((alphas >> k) & 1) * dk
    return mask


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

    Counted in the dot-product convention, whose multiset is the trace
    convention's: the sign rows need no field multiplication, and the
    values, all in [-2^m, 2^m], are tallied with one bincount per block.
    """
    ctx = f.ctx
    if ctx.m > _SPECTRUM_LIMIT:
        raise TooLargeError(f"walsh_spectrum costs m*2^(2m); m={ctx.m} > {_SPECTRUM_LIMIT}")
    n = ctx.size
    block = max(1, (1 << 22) // n)
    counts = np.zeros(2 * n + 1, dtype=np.int64)
    for start in range(1, n, block):
        bs = np.arange(start, min(start + block, n), dtype=np.int64)
        mat = _fwht_rows(_sign_rows(f, bs))
        mat += n
        counts += np.bincount(mat.ravel(), minlength=2 * n + 1)
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
    """Multiset of fiber sizes |{x : F(x+a)+F(x) = b}| over a != 0, all b."""
    ctx = f.ctx
    if ctx.m > _SPECTRUM_LIMIT:
        raise TooLargeError(f"differential_spectrum costs 2^(2m); m={ctx.m} > {_SPECTRUM_LIMIT}")
    n = ctx.size
    vals = f.as_array()
    xs = np.arange(n, dtype=np.int64)
    dist: dict[int, int] = {}
    dmax = 0
    for a in range(1, n):
        diffs = vals[xs ^ a] ^ vals
        counts = np.bincount(diffs, minlength=n)
        cv, cc = np.unique(counts, return_counts=True)
        for v, c in zip(cv.tolist(), cc.tolist()):
            dist[v] = dist.get(v, 0) + c
            if v > dmax:
                dmax = v
    return DifferentialSpectrum(ctx.m, dist, dmax)


def differential_uniformity(f: FuncTable, spectrum: DifferentialSpectrum | None = None) -> int:
    if spectrum is None:
        spectrum = differential_spectrum(f)
    return spectrum.max


def is_apn(f: FuncTable, spectrum: DifferentialSpectrum | None = None) -> bool:
    """Differentially 2-uniform: every nontrivial derivative is 2-to-1 or misses."""
    return differential_uniformity(f, spectrum) == 2

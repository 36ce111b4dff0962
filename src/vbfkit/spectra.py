"""Walsh and differential spectra, nonlinearity, and APN/AB verdicts.

The fast Walsh path builds one sign row (-1)^parity(b & F(x)) per
dot-product output mask b, with no field multiplication, and transforms the
rows with dense matrix products: the Sylvester-Hadamard matrix factors as
H_(2^k) = H_(2^s_0) (x) ... (x) H_(2^s_(t-1)) into t near-equal factors
(t = 2 below k = 12, t = 3 from there on), and each factor is one product
along its axis of the row reshaped to a 2^s_0 x ... x 2^s_(t-1) array.
The products run in float32, which is exact here because every partial
sum, in any factor order, is an integer of magnitude at most 2^k <= 2^24.
The difference counts visit each pair {x, x + a} once, so a direction
costs one pass over half the domain.  Both spectra scan their rows (Walsh
rows b, difference directions a) in blocks of about 2^14 cells, or of 16
Walsh rows where those are more (``_block_rows``), with one tally per
block: a block of Walsh rows is transformed and counted by one bincount,
and a block of directions keys each pair of row r as r*2^m + b, so one
bincount gives the pair counts of every row and a second one their
histogram.

Since tr(ax) = parity(D[a] & x) for a bijection D fixing 0, the trace row
b is the dot-product row of mask D[b] with its columns permuted, so
``walsh_spectrum`` tallies the dot-product rows of masks D[b] directly:
entry a of that row, reindexed to column D[a], is the value that the naive
oracle ``walsh_value`` computes with the trace inner product <a, x> = tr(ax).

Both spectra are reduced to one row per orbit of a symmetry group of F.
If F commutes with squaring, F(x^2) = F(x)^2, as every polynomial with
coefficients in GF(2) does (the Gold, Theorem 1 and 2 and inverse maps
among them), substituting x = y^2 gives W(a^2, b^2) = W(a, b) and
delta(a^2, b^2) = delta(a, b).  If F scales, F(gx) = lam*F(x) for the
generator g, as every power map c*x^d does, substituting x = gy gives
W(a, b) = W(ga, lam*b) and delta(a, b) = delta(ga, lam*b).  So the
multiset of Walsh values in row b is that of rows b^2 and lam*b, and the
fiber sizes of direction a are those of a^2 and ga: each orbit's row is
computed once and counted once per element.  For a power map the
directions form one orbit, and the rows one orbit when
gcd(d, 2^m - 1) = 1 (Gold at odd m, the inverse map).
``_symmetry_orbits`` checks each identity on the whole table; a table
with neither (a random table, say) still gets every row and an exact
spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from vbfkit.gf2m import _dual_reindex, kept
from vbfkit.vbf import FuncTable

_SPECTRUM_LIMIT = 24  # 2^(2m) work beyond this is out of scope
# linear_completion_search (remark4 --lut) keeps a 2^m x 2^m table of Walsh
# zeros; gold_graph_completion_search (remark4 --m) holds no such table
_MATRIX_LIMIT = 14


class TooLargeError(ValueError):
    """Field degree too large for a full-spectrum computation."""


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
    for x, y in enumerate(f.as_array().tolist()):
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

    The row index x splits into bit fields x = (x_0, ..., x_(t-1)) of
    near-equal widths s_0 <= ... <= s_(t-1), top field first: t = 2 factors
    for k < 12 and t = 3 from k = 12 on, where the third factor pays for its
    extra pass.  Since (-1)^(a.x) is the product of the (-1)^(a_j.x_j), the
    transform is H_(s_0) (x) ... (x) H_(s_(t-1)): a right product with
    H_(s_(t-1)) on the last field, then one batched left product with
    H_(s_j) per field j, with the rows and the fields above j as the batch.
    Every partial sum of every product, in any factor order, is a signed
    sum of at most 2^k of the +-1 inputs, and float32 holds every integer up
    to 2^24 exactly, so the result is exact whatever the summation order;
    longer rows raise TooLargeError.
    """
    rows, n = mat.shape
    k = n.bit_length() - 1
    if k > _SPECTRUM_LIMIT:
        raise TooLargeError(f"float32 transform is exact up to 2^{_SPECTRUM_LIMIT}; row length 2^{k}")
    t = 2 if k < 12 else 3
    widths = [(k + j) // t for j in range(t)]
    outer, inner = k - widths[-1], widths[-1]
    y = mat.astype(np.float32).reshape(rows << outer, 1 << inner) @ _sylvester(inner)
    for s in reversed(widths[:-1]):
        outer -= s
        y = np.matmul(_sylvester(s), y.reshape(rows << outer, 1 << s, 1 << inner))
        inner += s
    return y.reshape(rows, n).astype(np.int32)


@kept
def _symmetry_orbits(f: FuncTable) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(row orbits, direction orbits), each as (minima, sizes): the orbit
    minima on GF(2^m)* and their orbit sizes, for the Walsh rows b and the
    difference directions a, under the symmetries that F shows on the whole
    table (see the module docstring).  Both come from one pass over the
    table, kept on it, so a report that asks for both spectra checks the
    identities once.  The arrays are read-only.

    If F(gx) = lam*F(x), the directions form one orbit, and the rows the
    cycles of b -> lam*b: one if lam is primitive, else their minima come
    from m rounds of pointer doubling, low = min(low, low[P]), P = P[P].
    If F(x^2) = F(x)^2, the minimum of low[x], low[x^2], ... merges orbits,
    through m - 1 gathers.  A table with neither gets every nonzero
    element, each with size 1, for rows and directions alike.
    """
    ctx = f.ctx
    n = ctx.size
    vals = f.as_array()
    one = (np.ones(1, dtype=np.int64), np.full(1, n - 1, dtype=np.int64))
    step = None  # the table of b -> lam*b while F(gx) = lam*F(x) holds
    f1 = int(vals[1])
    if f1:
        lam = ctx.mul(int(vals[ctx.generator]), ctx.inv(f1))
        step = ctx.scale_table(lam)
        if not np.array_equal(vals[ctx._generator_table()], step[vals]):
            step = None
    if step is not None and ctx.is_primitive(lam):  # one cycle of b -> lam*b
        rows = one
    else:
        low = np.arange(n, dtype=np.int64)
        if step is not None:
            for _ in range(ctx.m):  # each cycle is shorter than 2^m
                np.minimum(low, low[step], out=low)
                step = step[step]
        sq = ctx._square_table()
        if np.array_equal(vals[sq], sq[vals]):
            base = low.copy()
            cur = np.arange(n, dtype=np.int64)
            for _ in range(ctx.m - 1):
                cur = sq[cur]
                np.minimum(low, base[cur], out=low)
        sizes = np.bincount(low, minlength=n)
        reps = np.flatnonzero(sizes)[1:]  # drop the orbit {0}
        rows = (reps, sizes[reps])
    return rows, (one if step is not None else rows)  # x -> gx is one cycle of directions


def _sign_rows(f: FuncTable, masks: np.ndarray) -> np.ndarray:
    """Rows of (-1)^parity(b & F(x)) for each dot-product mask b, as int32."""
    prods = masks.astype(np.uint32)[:, None] & f.as_array()[None, :]
    return 1 - 2 * (np.bitwise_count(prods) & 1).astype(np.int32)


def _block_rows(n: int, floor: int = 1) -> int:
    """Rows of a spectrum scan per block, for rows of length n: about 2^14
    cells, so that a block's temporaries stay in L2, but at least
    ``floor`` rows while that keeps a block under 2^22 cells.

    On a 2-core Xeon, 2^14 to 2^15 cells were fastest at m = 7 to 13 with
    one BLAS thread.  With OpenBLAS's two, the first transform product of
    2^15-cell blocks at m = 9 and 10 stalled for 8 ms a call, and those of
    2^14-cell blocks did not.
    """
    return max((1 << 14) // n, min(floor, (1 << 22) // n), 1)


def walsh_spectrum(f: FuncTable) -> WalshSpectrum:
    """Multiset of walsh(a, b) over all a and all b != 0.

    Trace row b is the transformed dot-product sign row of mask D[b]; its
    values, all in [-2^m, 2^m], are tallied with one bincount per block of
    ``_block_rows`` rows.  A block has at least 16 rows up to m = 18, as
    each block's tally costs passes over all 2^(m+1) + 1 counts (at
    m = 17, blocks of 2 rows spent about 40 % of the time there).
    Only the row orbit minima b from ``_symmetry_orbits`` are transformed,
    each tally counted once per orbit element: rows b, b^2 (if
    F(x^2) = F(x)^2) and lam*b (if F(gx) = lam*F(x)) hold the same
    multiset.  A table without either symmetry gets every row b != 0.
    """
    ctx = f.ctx
    if ctx.m > _SPECTRUM_LIMIT:
        raise TooLargeError(f"walsh_spectrum costs m*2^(2m); m={ctx.m} > {_SPECTRUM_LIMIT}")
    n = ctx.size
    reps, sizes = _symmetry_orbits(f)[0]
    masks = _dual_reindex(ctx)[reps]
    block = _block_rows(n, floor=16)
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


def differential_spectrum(f: FuncTable) -> DifferentialSpectrum:
    """Multiset of fiber sizes |{x : F(x+a)+F(x) = b}| over a != 0, all b.

    Only the direction orbit minima a from ``_symmetry_orbits`` are
    scanned, each histogram counted once per orbit element: directions a,
    a^2 (if F(x^2) = F(x)^2) and ga (if F(gx) = lam*F(x)) have the same
    fiber sizes, so a power map needs the one direction a = 1.  A table
    without either symmetry gets every direction a != 0.

    Each pair {x, x + a} lies in one fiber, so a direction is scanned over
    the half domain where bit h, the top bit of a, is clear: one x per
    pair, and a pair count c is a fiber of size 2c.  The minima of one
    orbit size ascend, so the directions with top bit h form one run,
    which shares that half domain and its values.  A run is scanned in
    blocks of ``_block_rows`` directions: row r of a block keys its pair
    (x, a) as r*2^m + F(x + a) + F(x), one bincount of the keys gives the
    pair counts of every (a, b) in the block, and a second one their
    histogram.  From m = 14 on a block is one direction.
    """
    ctx = f.ctx
    if ctx.m > _SPECTRUM_LIMIT:
        raise TooLargeError(f"differential_spectrum costs 2^(2m); m={ctx.m} > {_SPECTRUM_LIMIT}")
    n = ctx.size
    vals = f.as_array().astype(np.intp)
    xs = np.arange(n, dtype=np.intp)
    hist = np.zeros(n // 2 + 1, dtype=np.int64)  # pair count -> number of (a, b)
    block = _block_rows(n)
    reps, sizes = _symmetry_orbits(f)[1]
    for size in np.unique(sizes).tolist():
        group = reps[sizes == size]
        start = 0
        while start < len(group):  # one run of directions with top bit h per pass
            h = int(group[start]).bit_length() - 1
            stop = int(np.searchsorted(group, 2 << h))  # the minima ascend
            half = xs.reshape(-1, 2, 1 << h)[:, 0, :].ravel()
            # row r's keys are r*n + b: as b < n, the xor sets the bits above m
            rows = min(block, stop - start)
            base = vals[half] ^ (np.arange(rows, dtype=np.intp)[:, None] << ctx.m)
            for lo in range(start, stop, rows):
                a = group[lo:min(lo + rows, stop)]
                keys = vals[half ^ a[:, None]]
                keys ^= base[:len(a)]
                pair_counts = np.bincount(keys.ravel(), minlength=len(a) * n)
                hist += size * np.bincount(pair_counts, minlength=n // 2 + 1)
            start = stop
    pairs = np.flatnonzero(hist)
    dist = {2 * int(c): int(hist[c]) for c in pairs}
    dmax = 2 * int(pairs[-1])
    return DifferentialSpectrum(ctx.m, dist, dmax)


def differential_uniformity(f: FuncTable, spectrum: DifferentialSpectrum | None = None) -> int:
    if spectrum is None:
        spectrum = differential_spectrum(f)
    return spectrum.max


def is_apn(f: FuncTable, spectrum: DifferentialSpectrum | None = None) -> bool:
    """Differentially 2-uniform: every nontrivial derivative is 2-to-1 or misses."""
    return differential_uniformity(f, spectrum) == 2

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
rows b, difference directions a) in blocks of ``_block_rows``, one tally per
block; ``_walsh_blocks`` also fills the Walsh-zero table of ``vbfkit.ccz``.

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
``_symmetry_orbits`` checks each identity on the whole table and finds
the orbits in exponent coordinates, from the field's log/exp tables: with
lam = g^ell, the cycles of b -> lam*b are the residue classes of log b
modulo gcd(ell, 2^m - 1), and squaring doubles log b.  A table with neither
identity (a random table, say) still gets every row and an exact
spectrum.

Some tables skip the orbits, and each spectrum takes every row at once
(``_every_row``; the figures are beside ``_ONE_BLOCK_CELLS``).  Every
table does while the n x n block of an n-entry table has at most 2^12
cells (m <= 6): from m = 7 on, the orbits of x^3 take under half the time
of every row.  A table whose orbits are all trivial, as when neither
identity holds, has every row to take anyway; its Walsh rows take them at
once up to m = 10, and so do its difference directions.  The Walsh
rows come from the Sylvester matrix H, whose row F(x), sliced to a block
of masks, holds the signs (-1)^parity(b & F(x)) of those masks: H times
the rows gathered at every x is W(a, b) for every a, and the blocks
together hold the masks 0..n - 1, whose column b = 0 is taken out once.
The masks 1..n - 1 come in their natural order rather than as the masks
D[b]; as D is a bijection fixing 0, {D[b] : b != 0} is the same set of
masks, so the multiset is the same.  The difference counts key a pair
{x, y} by G(x) ^ G(y) on the graph G(x) = x << m | F(x), which packs
(a, F(x + a) + F(x)) for a = x ^ y.  Up to m = 7 the block keys every
ordered pair, and a bincount of the keys gives the fiber sizes, a second
one their histogram.  From m = 8 each unordered pair is keyed once, a
bincount gives the pair counts, and the counts, sorted in place, are
tallied by binary search: most of them are 0, and a second bincount's
repeated increments of one bin run one after another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from vbfkit.gf2m import _MAX_DEGREE, _dual_reindex, kept
from vbfkit.vbf import FuncTable


class TooLargeError(ValueError):
    """A Walsh-zero search above m = 14, or a transform row too long for float32."""


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


def _factor_widths(k: int) -> list[int]:
    """Bit widths s_0 <= ... <= s_(t-1) of the t near-equal factors
    H_(2^s_j) of H_(2^k): t = 2 below k = 12 and t = 3 from there on."""
    t = 2 if k < 12 else 3
    return [(k + j) // t for j in range(t)]


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
    if k > _MAX_DEGREE:
        raise TooLargeError(f"float32 transform is exact up to 2^{_MAX_DEGREE}; row length 2^{k}")
    widths = _factor_widths(k)
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

    Both identities are read through the log/exp tables, with q = 2^m - 1.
    F(gx) = lam*F(x) on x != 0, for lam = F(g)/F(1) = g^ell, says
    F(g^k) = lam^k F(1) = (g^k)^ell F(1), that is F(x) = F(1)*x^ell on
    GF(2^m)*, which one gather of exp at ell*log x + log F(1) checks; at
    x = 0 it asks F(0) = 0 or lam = 1.  On v[k] = F(g^k), F(x^2) = F(x)^2
    is exp[2 log v[k]] = v[2k mod q], with F(0) in {0, 1}; as q is odd,
    the list of v[2k mod q] is v's even positions, then its odd ones.  If
    F scales, the directions form one orbit, and the rows the cycles of
    b -> lam*b, which are the residue classes of log b modulo
    d = gcd(ell, q): one if d = 1, else their minima are the column minima
    of exp[:q] as q/d rows of d.  If F commutes with squaring, residue r
    joins 2r mod d, and m - 1 re-listings of the d minima, as above, take
    each minimum over its class's squares.  A table with neither gets every
    nonzero element, each with size 1, for rows and directions alike.
    """
    ctx = f.ctx
    order = ctx.order
    log, exp = ctx._logexp()
    vals = f.as_array()
    f0, f1 = int(vals[0]), int(vals[1])
    one = (np.ones(1, dtype=np.int64), np.full(1, order, dtype=np.int64))
    ell = int(log[vals[ctx.generator]] - log[f1]) % order  # F(g)/F(1) = g^ell while F(1) != 0
    scales = (f1 != 0 and (f0 == 0 or ell == 0)
              and np.array_equal(exp[(log[1:] * ell) % order + log[f1]], vals[1:]))
    d = math.gcd(ell, order) if scales else order
    if d == 1:
        rows = one
    else:
        powers = exp[:order].astype(np.intp)  # g^k; intp indices gather faster than uint32
        v = vals[powers]
        logv = log[v.astype(np.intp)]
        low = powers.reshape(order // d, d).min(axis=0)
        if f0 in (0, 1) and np.array_equal(exp[2 * logv], np.concatenate((v[::2], v[1::2]))):
            cur = low
            for _ in range(ctx.m - 1):
                cur = np.concatenate((cur[::2], cur[1::2]))  # class 2^k r mod d at r
                low = np.minimum(low, cur)
        counts = np.bincount(low)
        reps = np.flatnonzero(counts)
        rows = (reps, counts[reps] * (order // d))
    return rows, (one if scales else rows)  # x -> gx is one cycle of directions


def _sign_rows(f: FuncTable, masks: np.ndarray) -> np.ndarray:
    """Rows of (-1)^parity(b & F(x)) for each dot-product mask b, as int32."""
    prods = masks.astype(np.uint32)[:, None] & f.as_array()[None, :]
    return 1 - 2 * (np.bitwise_count(prods) & 1).astype(np.int32)


# Every-row routes.  Both spectra take every row at once, with no orbits,
# while the n x n block of an n-entry table has at most _ONE_BLOCK_CELLS
# cells: m <= 6.  Both spectra of a fresh table, median of 300 calls on a
# 2-core Xeon with one BLAS thread, over runs in two host states: at m = 6,
# 55-86 us one block against 117-361 us through the orbits (random, x^3,
# x^3 + x^5, thm2); at m = 7, x^3 took 72-147 us through the orbits against
# 188-285 us one block.  From m = 7 on the orbit path wins for power maps,
# whose rows and directions are one orbit each, and ties on tables that
# only commute with squaring.  A table whose orbits (of Walsh rows, or of
# difference directions) are all trivial has every row to take anyway, and
# takes it at once while its n x n block has at most _NO_SYMMETRY_CELLS
# cells (m <= 10).  The Walsh gather kernel keeps H_n, at most 4 MiB: on a
# random table, median of 3 rounds with one BLAS thread, the orbit path
# took 123, 382, 1427 and 5773 us at m = 7-10 and the gather kernel 79,
# 254, 887 and 4182 us (with two threads, 8 rounds: 476 -> 323 us at m = 8
# and 6162 -> 4510 us at m = 10).  The difference directions take the
# ordered graph block while it has at most _GRAPH_BLOCK_CELLS cells (m = 7;
# a random table took 0.09 ms one block against 0.16 ms through the
# orbits, and at m = 8 0.59 against 0.39 ms, medians of 50), and from
# m = 8 the unordered pair keys, with n(n - 1)/2 keys of 8 bytes and n^2
# pair counts, 12 MiB at m = 10: differential_spectrum of a fresh random
# permutation, its orbits taken first, median of 3 rounds with one BLAS
# thread, took 180, 803 and 3162 us at m = 8-10 against 372, 1185 and
# 4420 us through the orbits.  At m = 11 the pair keys took 16.2-17.9 ms
# against 16.6-17.6 ms through the orbits (three rounds), so there the
# orbit loop stays.  The in-place sort is fast with numpy's AVX2 and
# AVX-512 sort kernels; without AVX2 the pair keys took 3.9 ms at m = 9.
_ONE_BLOCK_CELLS = 1 << 12
_NO_SYMMETRY_CELLS = 1 << 20
_GRAPH_BLOCK_CELLS = 1 << 14


def _every_row(f: FuncTable, spectrum: int) -> bool:
    """Whether spectrum 0 (Walsh) or 1 (differences) of f takes every row
    at once, by the rule above; index ``spectrum`` of ``_symmetry_orbits``
    holds that spectrum's orbits, which are read only from m = 7 on."""
    n = f.ctx.size
    if n * n <= _ONE_BLOCK_CELLS:
        return True
    return n * n <= _NO_SYMMETRY_CELLS and len(_symmetry_orbits(f)[spectrum][0]) == n - 1


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


def _walsh_blocks(f: FuncTable, masks: np.ndarray):
    """(start, block) pairs of the transformed sign rows of ``masks``, in
    int32 blocks of ``_block_rows(2^m, floor=16)`` rows, one alive at a time:
    entry a of row j is the dot-product W(a, masks[start + j]).  The floor
    serves ``walsh_spectrum``, whose tally of a block has up to 2^(m+1) + 1
    bins (at m = 17, blocks of 2 rows spent about 40 % of the time there)."""
    block = _block_rows(f.ctx.size, floor=16)
    for start in range(0, len(masks), block):
        yield start, _fwht_rows(_sign_rows(f, masks[start:start + block]))


def _gather_walsh_blocks(f: FuncTable):
    """(start, block) pairs of the dot-product Walsh values of every mask,
    in float32 blocks of ``_block_rows(2^m, floor=64)`` masks, one alive at
    a time: entry (a, j) is W(a, b) for mask b = start + j, the mask b = 0
    included.

    Row F(x) of the Sylvester matrix H = H_(2^m), sliced to a block of
    masks, holds (-1)^parity(b & F(x)) for every mask b of the block, so
    the rows gathered at every x are the block's sign rows as columns, with
    no popcount.  H times them is W(a, b) at row a: one product per factor
    of the split (``_factor_widths``), down the x axis, with the fields
    above the factor's as the batch.  Up to ``_ONE_BLOCK_CELLS`` the block
    holds every mask and H itself is the one factor; that case skips the
    loop, whose Python steps cost about 1.3 us of a 15 us spectrum at m = 5.
    Every partial sum is an integer of magnitude at most 2^m, exact in
    float32.  With two OpenBLAS threads, blocks of 128 masks at m = 9
    stalled for about 30 ms a call, and blocks of 64 did not.
    """
    ctx = f.ctx
    n = ctx.size
    h = _sylvester(ctx.m)
    vals = f.as_array()
    if n * n <= _ONE_BLOCK_CELLS:  # one block, with H itself as the one factor
        yield 0, h @ h[vals]
        return
    block = _block_rows(n, floor=64)
    for start in range(0, n, block):
        y = h[vals, start:start + block]
        outer = 1
        for s in _factor_widths(ctx.m):
            y = np.matmul(_sylvester(s), y.reshape(outer, 1 << s, -1))
            outer <<= s
        yield start, y.reshape(n, -1)


def walsh_spectrum(f: FuncTable) -> WalshSpectrum:
    """Multiset of walsh(a, b) over all a and all b != 0.

    Trace row b is the transformed dot-product sign row of mask D[b]; its
    values, all in [-2^m, 2^m], are tallied with one bincount per block of
    ``_walsh_blocks``, up to the block's largest value.  Only the row orbit
    minima b from ``_symmetry_orbits`` are transformed, each tally counted
    once per orbit element: rows b, b^2 (if F(x^2) = F(x)^2) and lam*b (if
    F(gx) = lam*F(x)) hold the same multiset.  A table without either
    symmetry gets every row b != 0.

    Where ``_every_row`` holds (every table up to m = 6, and up to m = 10 a
    table whose row orbits are all trivial), ``_gather_walsh_blocks`` takes
    the dot-product rows of the masks 1..n - 1 in their natural order
    instead, with one bincount per block and column b = 0 taken out once at
    the end: the masks are the D[b] in another order, so the multiset is the
    same.
    """
    ctx = f.ctx
    n = ctx.size
    if _every_row(f, 0):
        counts = np.zeros(2 * n + 1, dtype=np.int64)
        counts[n], counts[2 * n] = 1 - n, -1  # column b = 0: W(0, 0) = n, else W(a, 0) = 0
        for _, mat in _gather_walsh_blocks(f):
            mat += n
            counts += np.bincount(mat.astype(np.intp).ravel(), minlength=2 * n + 1)
    else:
        reps, sizes = _symmetry_orbits(f)[0]
        masks = _dual_reindex(ctx)[reps]
        counts = np.zeros(2 * n + 1, dtype=np.int64)
        used = 0  # counts[used:] is still zero
        for size in np.unique(sizes).tolist():
            for _, mat in _walsh_blocks(f, masks[sizes == size]):
                mat += n
                tally = np.bincount(mat.ravel())
                if size != 1:
                    tally *= size
                counts[:len(tally)] += tally
                used = max(used, len(tally))
        counts = counts[:used]
    values = np.flatnonzero(counts)
    dist = dict(zip((values - n).tolist(), counts[values].tolist()))
    return WalshSpectrum(ctx.m, dist, int(max(n - values[0], values[-1] - n)))


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

    Where ``_every_row`` holds (every table up to m = 6, and up to m = 10
    a table whose direction orbits are all trivial) there are no orbits or
    half domains: the key of a pair (x, y) is G(x) ^ G(y) for the graph
    G(x) = x << m | F(x), that is (x ^ y) << m | F(x) ^ F(y), at
    a << m | b for a = x ^ y and b = F(x + a) + F(x).  Up to
    ``_GRAPH_BLOCK_CELLS`` (m = 7) every ordered pair is keyed, so one
    bincount of all n^2 keys gives every fiber size, and a second one,
    past the n keys of a = 0, their histogram.  Above it
    ``_pair_keys`` keys every unordered pair once, one bincount past the
    a = 0 keys gives every pair count, and the counts, sorted in place,
    are tallied up to n/2 by binary search.
    """
    ctx = f.ctx
    n = ctx.size
    vals = f.as_array().astype(np.intp)
    xs = np.arange(n, dtype=np.intp)
    if _every_row(f, 1):
        graph = xs << ctx.m | vals
        if n * n <= _GRAPH_BLOCK_CELLS:
            keys = graph[:, None] ^ graph[None, :]  # (x ^ y) << m | F(x) ^ F(y)
            # fiber sizes are even, so every other bin of their histogram is 0
            hist = np.bincount(np.bincount(keys.ravel(), minlength=n * n)[n:])[::2]
        else:
            pairs = np.bincount(_pair_keys(graph, ctx.m), minlength=n * n)[n:]
            pairs.sort()  # in place: a second bincount serializes on its many zeros
            hist = np.diff(np.searchsorted(pairs, np.arange(n // 2 + 2)))
        return _differential_distribution(ctx, hist)
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
                tally = np.bincount(np.bincount(keys.ravel(), minlength=len(a) * n))
                if size != 1:
                    tally *= size
                hist[:len(tally)] += tally
            start = stop
    return _differential_distribution(ctx, hist)


def _pair_keys(graph: np.ndarray, m: int) -> np.ndarray:
    """The key G(x) ^ G(y) = (x ^ y) << m | F(x) ^ F(y) of every unordered
    pair {x, y} of the graph G(x) = x << m | F(x), once each.

    The pairs whose top differing bit is h join each x in the lower half
    of a block of 2^(h+1) entries to each y in its upper half: the graph
    seen as (n / 2^(h+1), 2, 2^h) gives them as one broadcast xor of its
    two halves, written into the run of n * 2^(h-1) keys for h.
    """
    n = len(graph)
    keys = np.empty(n * (n - 1) // 2, dtype=graph.dtype)
    start = 0
    for h in range(m):
        g = graph.reshape(-1, 2, 1 << h)
        stop = start + (n << h >> 1)
        np.bitwise_xor(g[:, 0, :, None], g[:, 1, None, :], out=keys[start:stop].reshape(-1, 1 << h, 1 << h))
        start = stop
    return keys


def _differential_distribution(ctx, hist: np.ndarray) -> DifferentialSpectrum:
    """The spectrum whose (a, b) pairs with c pairs {x, x + a} number hist[c]."""
    pairs = np.flatnonzero(hist)
    dist = dict(zip((2 * pairs).tolist(), hist[pairs].tolist()))
    return DifferentialSpectrum(ctx.m, dist, 2 * int(pairs[-1]))


def differential_uniformity(f: FuncTable, spectrum: DifferentialSpectrum | None = None) -> int:
    if spectrum is None:
        spectrum = differential_spectrum(f)
    return spectrum.max


def is_apn(f: FuncTable, spectrum: DifferentialSpectrum | None = None) -> bool:
    """Differentially 2-uniform: every nontrivial derivative is 2-to-1 or misses."""
    return differential_uniformity(f, spectrum) == 2

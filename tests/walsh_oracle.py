"""Dot-product Walsh rows for the tests, with none of ``vbfkit.spectra``'s
transform: popcount sign rows (-1)^parity(b & F(x)) and log2(n) integer
butterfly passes.  Oracles for ``_fwht_rows``, ``_walsh_blocks`` and the
Walsh spectrum built from them.
"""

import numpy as np

from vbfkit.vbf import FuncTable


def butterfly(mat: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along axis 1 by log2(n) int butterfly passes,
    on a transposed copy, so that each pass adds and subtracts runs of
    h * rows contiguous entries."""
    rows, n = mat.shape
    cols = mat.T.copy()
    h = 1
    while h < n:
        pairs = cols.reshape(-1, 2, h * rows)
        top, bot = pairs[:, 0], pairs[:, 1]
        top += bot  # top + bot
        bot *= -2
        bot += top  # (top + bot) - 2 bot = top - bot
        h *= 2
    return np.ascontiguousarray(cols.T)


def walsh_rows(f: FuncTable, masks) -> np.ndarray:
    """Row j, entry a: the dot-product W(a, masks[j]), as int32."""
    prods = np.asarray(masks, dtype=np.int64)[:, None] & f.as_array().astype(np.int64)[None, :]
    return butterfly(1 - 2 * (np.bitwise_count(prods) & 1).astype(np.int32))

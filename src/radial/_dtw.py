"""Dynamic-programming kernel for time-warping alignment costs."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def pad(series: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Series as the columns of a zero-padded (max length, P) array, and
    their lengths."""
    lengths = np.array([len(s) for s in series], dtype=np.int64)
    out = np.zeros((int(lengths.max()), len(series)))
    out.T[np.arange(out.shape[0]) < lengths[:, None]] = np.concatenate(series)
    return out, lengths


def warp_sqcost(a: np.ndarray, B: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Minimal accumulated squared difference over monotone alignments of
    the nonempty 1-d float64 series ``a`` with each column ``B[:lengths[p], p]``
    of the zero-padded array ``B``.

    Three-way step pattern (insert, delete, match), no window constraint:
    ``D[i, j] = (a[i-1] - b[j-1])**2 + min(D[i-1, j], D[i, j-1], D[i-1, j-1])``
    with ``D[0, 0] = 0`` and the rest of row and column 0 infinite. The P
    tables are swept one anti-diagonal ``i + j = k`` at a time, all at once,
    keeping the last two diagonals, so memory is O(P * (len(a) + max
    length)). A cell depends only on cells above and left of it, so padding
    never reaches a column's own table, whose cost is cell
    ``(len(a), lengths[p])``. Each cell takes the same floating-point
    operations as the scalar recurrence, so results are bitwise equal to it.
    """
    la, P = a.shape[0], B.shape[1]
    lb = int(lengths.max())
    # Row i of a diagonal holds cell i of every table, so its cells are
    # consecutive rows. Reversed, B's entries along a diagonal are too: cell
    # (i, k - i) needs B[k - i - 1], which is b_rev[lb - k + i].
    b_rev = B[lb - 1::-1]
    a = a[:, None]
    # Cells off the table stay infinite.
    prev2, prev, cur = (np.full((la + 1, P), np.inf) for _ in range(3))
    prev2[0] = 0.0
    # Column p's cost is on diagonal la + lengths[p], in row la.
    last = np.empty((lb, P))
    for k in range(2, la + lb + 1):
        lo, hi = max(1, k - lb), min(k - 1, la)
        d = a[lo - 1:hi] - b_rev[lb - k + lo:lb - k + hi + 1]
        d *= d
        c = cur[lo:hi + 1]
        np.minimum(prev[lo - 1:hi], prev[lo:hi + 1], out=c)
        np.minimum(c, prev2[lo - 1:hi], out=c)
        np.add(d, c, out=c)
        if k == 2:
            prev2[0] = np.inf  # D[0, 0] is read only by cell (1, 1)
        if k > la:
            last[k - la - 1] = cur[la]
        prev2, prev, cur = prev, cur, prev2
    return last[lengths - 1, np.arange(P)]

"""Dynamic-programming kernel for time-warping alignment costs."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _pad(series: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Series as the columns of a zero-padded (max length, P) array, and
    their lengths."""
    lengths = np.array([len(s) for s in series], dtype=np.int64)
    out = np.zeros((int(lengths.max()), len(series)))
    out.T[np.arange(out.shape[0]) < lengths[:, None]] = np.concatenate(series)
    return out, lengths


def warp_sqcost(A: Sequence[np.ndarray], B: Sequence[np.ndarray]) -> np.ndarray:
    """Minimal accumulated squared difference over monotone alignments of
    each pair ``(A[p], B[p])`` of nonempty 1-d float64 series.

    Three-way step pattern (insert, delete, match), no window constraint:
    ``D[i, j] = (a[i-1] - b[j-1])**2 + min(D[i-1, j], D[i, j-1], D[i-1, j-1])``
    with ``D[0, 0] = 0`` and the rest of row and column 0 infinite. The table
    is swept one anti-diagonal ``i + j = k`` at a time for all pairs at once,
    keeping the last two diagonals, so memory is O(P * max length). Shorter
    series are zero-padded; a cell depends only on cells above and left of
    it, so padding never reaches a pair's own table, whose cost is read off
    diagonal ``len(a) + len(b)``. Each cell takes the same floating-point
    operations as the scalar recurrence, so results are bitwise equal to it.
    """
    a, n = _pad(A)
    b, m = _pad(B)
    la, P = a.shape
    lb = b.shape[0]
    # Row i of a table holds cell i of every pair, so a diagonal's cells are
    # consecutive rows. Reversed, b's entries along a diagonal are too: cell
    # (i, k - i) needs b[k - i - 1], which is b_rev[lb - k + i].
    b_rev = b[::-1]
    # Diagonals are indexed by the row i; cells off the table stay infinite.
    prev2 = np.full((la + 1, P), np.inf)
    prev2[0] = 0.0
    prev = np.full((la + 1, P), np.inf)
    cur = np.full((la + 1, P), np.inf)
    ends = n + m
    finish = {int(k): np.flatnonzero(ends == k) for k in np.unique(ends)}
    out = np.empty(P)
    for k in range(2, int(ends.max()) + 1):
        lo, hi = max(1, k - lb), min(k - 1, la)
        d = a[lo - 1:hi] - b_rev[lb - k + lo:lb - k + hi + 1]
        d *= d
        best = np.minimum(prev[lo - 1:hi], prev[lo:hi + 1])
        np.minimum(best, prev2[lo - 1:hi], out=best)
        np.add(d, best, out=cur[lo:hi + 1])
        if k == 2:
            prev2[0] = np.inf  # D[0, 0] is read only by cell (1, 1)
        sel = finish.get(k)
        if sel is not None:
            out[sel] = cur[n[sel], sel]
        prev2, prev, cur = prev, cur, prev2
    return out

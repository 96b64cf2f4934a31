"""Shortest monotone paths on a sampled lattice of the parameter space:
the numpy kernel behind the grid oracles in ``baselines``.

An edge's weight is the exact integral of |h| along it, h(a, b) =
pv[a] - qv[b] the signed height at the lattice nodes: the trapezoid where
h keeps its sign, a two-triangle closed form on the few edges where it
crosses zero.  The column sweep does not look for those crossings; they
are found beforehand, a block of columns at a time: qv does not turn
inside a Q segment, so one binary search of the block's pv per monotone
run of qv gives every sign change, and the same product test as a full
scan (``a0 * a1 < 0``) keeps exactly the crossing edges.  Grid values are
bit-identical to a sweep that tests every edge of every column
(``tests/helpers.reference_lattice_value``) while tick spacings and
nonzero heights stay above 2**-1021, where halving is exact.

Imported only when a grid value is asked for, so ``import cdtw`` and the
exact measures never load numpy.
"""

from typing import List, Tuple

import numpy as np

from .curves import Curve
from .errors import TooLarge

# Most ticks on one lattice axis: far above the few thousand of resolution
# 256 on curves of arc length about 10, and low enough that a runaway count
# is refused before any tick array is built.
MAX_TICKS = 1 << 20

# Crossing edges of one family, grouped by column: (off, rows, vals), the
# rows of the crossing edges of column c being rows[off[c]:off[c + 1]] and
# vals their weights.
Crossings = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _pow2_at_least(x: float) -> int:
    k = 1
    while k < x - 1e-12:
        k *= 2
    return k


def _axis_ticks(curve: Curve, res: float, pow2: bool) -> np.ndarray:
    """Lattice ticks along one curve's arc length, per segment uniform.

    Raises TooLarge before building any tick when a segment's tick count
    is not finite or the axis would hold more than MAX_TICKS ticks.
    """
    ends = curve.prefix_lengths
    counts: List[int] = []
    for i in range(1, curve.num_segments + 1):
        x = (ends[i] - ends[i - 1]) * res
        if not x <= MAX_TICKS:
            raise TooLarge(f"segment {i} asks for {x} lattice ticks, more than {MAX_TICKS}")
        counts.append(_pow2_at_least(x) if pow2 else max(1, int(np.ceil(x - 1e-12))))
    if sum(counts) >= MAX_TICKS:
        raise TooLarge(f"a lattice axis asks for {sum(counts) + 1} ticks, more than {MAX_TICKS}")
    parts = [np.zeros(1)]
    for i, k in enumerate(counts, start=1):
        parts.append(np.linspace(ends[i - 1], ends[i], k + 1)[1:])
    return np.concatenate(parts)


def _monotone_runs(qv: np.ndarray) -> List[Tuple[int, int, float]]:
    """(first, last, sign) of maximal index runs over which sign * qv
    never falls; consecutive runs share their turning index."""
    dq = np.diff(qv)
    nz = np.flatnonzero(dq)
    up = dq[nz] > 0
    turns = nz[1:][up[1:] ^ up[:-1]].tolist()
    bounds = [0, *turns, len(qv) - 1]
    signs = [1.0 if dq[k] > 0 else -1.0 for k in [*nz[:1].tolist(), *turns]]
    return list(zip(bounds[:-1], bounds[1:], signs or [1.0]))


# (column step, row step) from the start of an edge to its end, for the
# horizontal, diagonal and vertical edges
_STEPS = ((1, 0), (1, 1), (0, 1))

# Columns whose crossings are found together: enough to spread the set-up
# calls thin, few enough that the crossing arrays stay small.
_BLOCK = 128


def _crossings(
    pv: np.ndarray, qv: np.ndarray, runs: List[Tuple[int, int, float]],
    dxs: np.ndarray, dys: np.ndarray,
) -> Tuple[Crossings, Crossings, Crossings]:
    """Horizontal, diagonal and vertical crossing edges of the columns
    with x-heights pv, x-spacings dxs and the monotone runs of qv.

    Horizontal and diagonal edges of column c run from x-tick c to c + 1;
    vertical ones run inside column c.  Within a run, flipped to rise,
    entry i lies below pv[c] exactly for i < L[c], L[c] found by binary
    search; so the height at (c, i) is positive exactly there, and an edge
    from (c, i) to (c + dc, i + dr) can have ends of strictly opposite
    signs only for i between L[c] and L[c + dc] - dr.  Candidates come out
    ordered by column, then row, because the runs follow each other.  The
    product test on them then keeps exactly the edges of ``a0 * a1 < 0``,
    also where that product underflows to zero.
    """
    n, m = len(pv), len(qv)
    first = np.array([f for f, _, _ in runs])
    edges = np.array([last - f for f, last, _ in runs])
    # a row shared with the next run belongs to that run
    rows_top = np.array([last - f + (last == m - 1) for f, last, _ in runs])
    L = np.stack([np.searchsorted(s * qv[f:last + 1], s * pv) for f, last, s in runs], axis=1)
    out = []
    for dc, dr in _STEPS:
        top = edges if dr else rows_top
        # A >= 0, so with B clipped to [0, top] these clip min(A, B) and
        # max(A, B) to [0, top]
        A, B = L[:n - dc], np.clip(L[dc:] - dr, 0, top)
        lo = np.clip(A, 0, B)
        cnt = (np.clip(A, B, top) - lo).ravel()
        starts = np.cumsum(cnt) - cnt
        rows = np.repeat((lo + first).ravel() - starts, cnt) + np.arange(cnt.sum())
        cols = np.repeat(np.repeat(np.arange(n - dc), len(runs)), cnt)
        a0 = pv[cols] - qv[rows]
        a1 = pv[cols + dc] - qv[rows + dr]
        keep = a0 * a1 < 0
        cols, rows, a0, a1 = cols[keep], rows[keep], a0[keep], a1[keep]
        # adding 0.0 leaves a positive spacing unchanged
        length = (dxs[cols] if dc else 0.0) + (dys[rows] if dr else 0.0)
        vals = length * ((a0 * a0 + a1 * a1) / (2.0 * (np.abs(a0) + np.abs(a1))))
        off = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n - dc))))
        out.append((off, rows, vals))
    return out[0], out[1], out[2]


def _put_crossings(w: np.ndarray, crossings: Crossings, c: int) -> np.ndarray:
    """w with the crossing edges of column c set to their weights."""
    off, rows, vals = crossings
    lo, hi = off[c], off[c + 1]
    w[rows[lo:hi]] = vals[lo:hi]
    return w


def _lattice_value(P: Curve, Q: Curve, xs: np.ndarray, ys: np.ndarray) -> float:
    """Shortest monotone path value on the lattice, column by column.

    Each x-tick is one vectorised step over the column of y-ticks: the
    horizontal and diagonal edges from the previous column, then a prefix
    sweep up the vertical edges of the new one.  Every edge starts at the
    trapezoid, half its length times s = |a0| + |a1|; the crossing edges,
    found a block of columns at a time, then take their closed form.
    """
    pv = np.interp(xs, P.prefix_lengths, P.vertices)
    qv = np.interp(ys, Q.prefix_lengths, Q.vertices)
    runs = _monotone_runs(qv)
    dxs, dy = np.diff(xs), np.diff(ys)
    half_dy = 0.5 * dy
    m = len(ys)
    cum_up = np.zeros(m)

    def sweep_up(cand: np.ndarray, abs_h: np.ndarray, vertical: Crossings, c: int) -> np.ndarray:
        """Best value at each node of column c of vertical, entering it
        from cand or from any node below by vertical edges."""
        w_up = _put_crossings(half_dy * (abs_h[:-1] + abs_h[1:]), vertical, c)
        np.cumsum(w_up, out=cum_up[1:])
        return cum_up + np.minimum.accumulate(cand - cum_up)

    abs_left = np.abs(pv[0] - qv)
    cand = np.full(m, np.inf)
    cand[0] = 0.0
    dp = sweep_up(cand, abs_left, _crossings(pv[:1], qv, runs, dxs[:0], dy)[2], 0)

    prev_dx = None
    for start in range(0, len(dxs), _BLOCK):
        stop = min(start + _BLOCK, len(dxs))
        horizontal, diagonal, vertical = _crossings(
            pv[start:stop + 1], qv, runs, dxs[start:stop], dy
        )
        for c, (p, dx) in enumerate(zip(pv[start + 1:stop + 1], dxs[start:stop])):
            abs_right = np.abs(p - qv)
            w_h = _put_crossings((0.5 * dx) * (abs_left + abs_right), horizontal, c)
            cand = dp + w_h
            # ticks are uniform per segment, so dx often repeats
            if dx != prev_dx:
                half_d, prev_dx = 0.5 * (dx + dy), dx
            w_d = _put_crossings(half_d * (abs_left[:-1] + abs_right[1:]), diagonal, c)
            np.minimum(cand[1:], dp[:-1] + w_d, out=cand[1:])
            dp = sweep_up(cand, abs_right, vertical, c + 1)
            abs_left = abs_right
    return float(dp[-1])

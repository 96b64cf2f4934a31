"""Shortest monotone paths on a sampled lattice of the parameter space:
the numpy kernel behind the grid oracle in ``baselines``.

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

The sweep writes in place into buffers allocated once per lattice and
takes prefix minima with ``np.fmin``, equal to ``np.minimum`` bit for bit
where no NaN arises.  None can: every vertex ends a segment of nonzero
length, at least an ulp of its value and at most MAX_TICKS / resolution
<= 2**20, so |values| stay below about 2**72 and every weight and sum is
finite; the only inf is column 0's unreachable candidates, minus a
finite sum still inf.

Imported only when a grid value is asked for, so ``import cdtw`` and the
exact measures never load numpy.
"""

from typing import List, Tuple

import numpy as np

from .curves import Curve
from .errors import TooLarge
from .piecewise import ARC_SLACK

# Most ticks on one lattice axis: far above the few thousand of resolution
# 256 on curves of arc length about 10, and low enough that a runaway count
# is refused before any tick array is built.
MAX_TICKS = 1 << 20

# Crossing edges of one family, grouped by column: (off, rows, vals), the
# rows of the crossing edges of column c being rows[off[c]:off[c + 1]] and
# vals their weights.
Crossings = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _axis_ticks(curve: Curve, res: float) -> np.ndarray:
    """Lattice ticks along one curve's arc length, per segment uniform,
    each segment's count rounded up to a power of two.

    Raises TooLarge before building any tick when a segment's tick count
    is not finite or the axis would hold more than MAX_TICKS ticks.
    """
    ends = curve.prefix_lengths
    counts: List[int] = []
    for i in range(1, curve.num_segments + 1):
        x = (ends[i] - ends[i - 1]) * res
        if not x <= MAX_TICKS:
            raise TooLarge(f"segment {i} asks for {x} lattice ticks, more than {MAX_TICKS}")
        k = 1
        while k < x - ARC_SLACK:
            k *= 2
        counts.append(k)
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


def _lattice_value(P: Curve, Q: Curve, xs: np.ndarray, ys: np.ndarray) -> float:
    """Shortest monotone path value on the lattice, column by column.

    Each x-tick is one step over the column of y-ticks, written in place
    into buffers allocated once per lattice: the horizontal and diagonal
    edges from the previous column, then a prefix sweep up the vertical
    edges of the new one.  Every edge starts at the trapezoid, half its
    length times s = |a0| + |a1|; the crossing edges, found a block of
    columns at a time, then take their closed form.
    """
    pv = np.interp(xs, P.prefix_lengths, P.vertices)
    qv = np.interp(ys, Q.prefix_lengths, Q.vertices)
    runs = _monotone_runs(qv)
    dxs, dy = np.diff(xs), np.diff(ys)
    half_dy = 0.5 * dy
    m = len(ys)
    # |h| on the column reached and on the one before it, each with its
    # views without the top and without the bottom node; swapped by reference
    now, before = [(a, a[:-1], a[1:]) for a in (np.abs(pv[0] - qv), np.empty(m))]
    w_h, scan, dp, cum_up = np.empty(m), np.empty(m), np.empty(m), np.zeros(m)
    w_d, w_v, half_d = np.empty(m - 1), np.empty(m - 1), np.empty(m - 1)
    cand = np.full(m, np.inf)
    cand[0] = 0.0
    cand_up, dp_low, cum_high = cand[1:], dp[:-1], cum_up[1:]
    p_list, dx_list = pv.tolist(), dxs.tolist()
    prev_dx = None
    for start in range(0, len(dxs), _BLOCK):
        stop = min(start + _BLOCK, len(dxs))
        (h_off, h_rows, h_vals), (d_off, d_rows, d_vals), (v_off, v_rows, v_vals) = _crossings(
            pv[start:stop + 1], qv, runs, dxs[start:stop], dy
        )
        h_off, d_off, v_off = h_off.tolist(), d_off.tolist(), v_off.tolist()
        # column k of the block is x-tick start + k; column 0 of the
        # lattice is reached from the origin alone
        for k in range(0 if start == 0 else 1, stop - start + 1):
            if k:
                before, now = now, before
                dx = dx_list[start + k - 1]
                np.subtract(p_list[start + k], qv, out=now[0])
                np.abs(now[0], out=now[0])
                np.add(before[0], now[0], out=w_h)
                np.multiply(w_h, 0.5 * dx, out=w_h)
                lo, hi = h_off[k - 1], h_off[k]
                if hi > lo:
                    w_h[h_rows[lo:hi]] = h_vals[lo:hi]
                np.add(dp, w_h, out=cand)
                # ticks are uniform per segment, so dx often repeats
                if dx != prev_dx:
                    np.add(dy, dx, out=half_d)
                    np.multiply(half_d, 0.5, out=half_d)
                    prev_dx = dx
                np.add(before[1], now[2], out=w_d)
                np.multiply(w_d, half_d, out=w_d)
                lo, hi = d_off[k - 1], d_off[k]
                if hi > lo:
                    w_d[d_rows[lo:hi]] = d_vals[lo:hi]
                np.add(dp_low, w_d, out=w_d)
                np.minimum(cand_up, w_d, out=cand_up)
            # best value at each node, entering it from cand or from any
            # node below by vertical edges
            np.add(now[1], now[2], out=w_v)
            np.multiply(w_v, half_dy, out=w_v)
            lo, hi = v_off[k], v_off[k + 1]
            if hi > lo:
                w_v[v_rows[lo:hi]] = v_vals[lo:hi]
            np.add.accumulate(w_v, out=cum_high)
            np.subtract(cand, cum_up, out=scan)
            np.fmin.accumulate(scan, out=dp)
            np.add(cum_up, dp, out=dp)
    return float(dp[-1])

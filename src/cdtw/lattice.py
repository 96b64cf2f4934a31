"""Shortest monotone paths on a sampled lattice of the parameter space:
the numpy kernel behind the grid oracles in ``baselines``.

Imported only when a grid value is asked for, so ``import cdtw`` and the
exact measures never load numpy.
"""

from typing import List

import numpy as np

from .curves import Curve


def _pow2_at_least(x: float) -> int:
    k = 1
    while k < x - 1e-12:
        k *= 2
    return k


def _axis_ticks(curve: Curve, res: float, pow2: bool) -> np.ndarray:
    parts: List[np.ndarray] = [np.zeros(1)]
    for i in range(1, curve.num_segments + 1):
        lo, hi = curve.prefix_lengths[i - 1], curve.prefix_lengths[i]
        w = hi - lo
        if pow2:
            k = _pow2_at_least(w * res)
        else:
            k = max(1, int(np.ceil(w * res - 1e-12)))
        parts.append(np.linspace(lo, hi, k + 1)[1:])
    return np.concatenate(parts)


def _seg_weight(a0: np.ndarray, a1: np.ndarray, s: np.ndarray, length) -> np.ndarray:
    """Exact integral of |linear| along segments with endpoint signed
    heights a0, a1, s = |a0| + |a1| and L1 length given.

    Where the height keeps its sign the integral is the trapezoid
    length * s / 2; only the few segments where it crosses zero
    (a0 * a1 < 0, so s > 0) take the two-triangle closed form.
    """
    w = 0.5 * s
    k = np.flatnonzero(a0 * a1 < 0)
    if k.size:
        c0, c1 = a0[k], a1[k]
        w[k] = (c0 * c0 + c1 * c1) / (2.0 * s[k])
    return length * w


def _lattice_value(P: Curve, Q: Curve, xs: np.ndarray, ys: np.ndarray) -> float:
    """Shortest monotone path value on the lattice, column by column.

    Each x-tick is one vectorised step over the column of y-ticks: the
    horizontal and diagonal edges from the previous column, then a prefix
    sweep up the vertical edges of the new one.
    """
    pv = np.interp(xs, P.prefix_lengths, P.vertices)
    qv = np.interp(ys, Q.prefix_lengths, Q.vertices)
    dy = np.diff(ys)
    m = len(ys)
    cum_up = np.zeros(m)

    def sweep_up(cand: np.ndarray, h: np.ndarray, abs_h: np.ndarray) -> np.ndarray:
        """Best value at each node of a column, entering it from cand or
        from any node below by vertical edges."""
        w_up = _seg_weight(h[:-1], h[1:], abs_h[:-1] + abs_h[1:], dy)
        np.cumsum(w_up, out=cum_up[1:])
        return cum_up + np.minimum.accumulate(cand - cum_up)

    h_left = pv[0] - qv
    abs_left = np.abs(h_left)
    cand = np.full(m, np.inf)
    cand[0] = 0.0
    dp = sweep_up(cand, h_left, abs_left)

    for a in range(len(xs) - 1):
        h_right = pv[a + 1] - qv
        abs_right = np.abs(h_right)
        dx = xs[a + 1] - xs[a]
        cand = dp + _seg_weight(h_left, h_right, abs_left + abs_right, dx)
        w_d = _seg_weight(h_left[:-1], h_right[1:], abs_left[:-1] + abs_right[1:], dx + dy)
        np.minimum(cand[1:], dp[:-1] + w_d, out=cand[1:])
        dp = sweep_up(cand, h_right, abs_right)
        h_left, abs_left = h_right, abs_right
    return float(dp[-1])

"""Reference measures: discrete DTW, discrete Frechet distance, and a
sampled-grid approximation of the continuous warping distance.

The grid oracle restricts alignment paths to a lattice and uses exact
closed-form integrals of the height along each lattice edge, so its value
is always an upper bound on the continuous optimum and its only error is
discretisation.  Per-segment subdivision counts are rounded up to powers
of two, which makes every coarse lattice an exact subgraph of any lattice
whose resolution is a power-of-two multiple (diagonal edges included,
because each coarse diagonal is a chain of finer diagonals on the same
straight line).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from .curves import Curve
from .errors import EmptyInput, ResolutionZero, TooLarge


def _alignment_dp(p_vertices, q_vertices, combine: Callable[[float, float], float]) -> float:
    """Min over monotone vertex alignments of the pointwise distances
    folded with combine (sum for DTW, max for discrete Frechet)."""
    n, m = len(p_vertices), len(q_vertices)
    inf = float("inf")
    prev = [inf] * m
    for i in range(n):
        cur = [inf] * m
        for j in range(m):
            c = abs(p_vertices[i] - q_vertices[j])
            if i == 0 and j == 0:
                best = 0.0
            else:
                best = inf
                if i > 0:
                    best = min(best, prev[j], prev[j - 1] if j > 0 else inf)
                if j > 0:
                    best = min(best, cur[j - 1])
            cur[j] = combine(c, best)
        prev = cur
    return prev[m - 1]


def dtw(p_vertices: Sequence[float], q_vertices: Sequence[float]) -> float:
    """Discrete dynamic time warping: min over monotone vertex alignments
    of the summed pointwise distances."""
    if len(p_vertices) == 0 or len(q_vertices) == 0:
        raise EmptyInput("dtw needs nonempty vertex lists")
    return _alignment_dp(p_vertices, q_vertices, operator.add)


def discrete_frechet(p_vertices: Sequence[float], q_vertices: Sequence[float]) -> float:
    """Discrete Frechet distance: min over monotone vertex alignments of
    the maximum pointwise distance."""
    if len(p_vertices) == 0 or len(q_vertices) == 0:
        raise EmptyInput("discrete_frechet needs nonempty vertex lists")
    return _alignment_dp(p_vertices, q_vertices, max)


@dataclass(frozen=True)
class GridConfig:
    """Lattice density for the sampled approximation.

    resolution counts lattice points per unit of arc length before
    rounding each segment's subdivision up to a power of two.
    """

    resolution: int


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


def cdtw_grid(P: Curve, Q: Curve, cfg: GridConfig) -> float:
    """Sampled-grid approximation of the continuous warping distance.

    Always >= the exact value (grid paths are a subset of all monotone
    paths) and nonincreasing as the resolution grows through powers of
    two times the same base.
    """
    if cfg.resolution < 1:
        raise ResolutionZero(f"resolution must be >= 1, got {cfg.resolution}")
    xs = _axis_ticks(P, float(cfg.resolution), pow2=True)
    ys = _axis_ticks(Q, float(cfg.resolution), pow2=True)
    return _lattice_value(P, Q, xs, ys)


def cdtw_bruteforce_small(P: Curve, Q: Curve, segments: int) -> float:
    """Independent fine-lattice oracle for tiny instances.

    Uses a uniform staircase lattice with the given subdivisions per unit
    of arc length; no power-of-two rounding, no shared configuration with
    the main grid entry point beyond the lattice solver itself.
    """
    if len(P.vertices) > 4 or len(Q.vertices) > 4:
        raise TooLarge("bruteforce oracle accepts at most 4 vertices per curve")
    if segments > 2048:
        raise TooLarge("bruteforce oracle accepts at most 2048 segments per unit")
    if segments < 1:
        raise ResolutionZero(f"segments must be >= 1, got {segments}")
    xs = _axis_ticks(P, float(segments), pow2=False)
    ys = _axis_ticks(Q, float(segments), pow2=False)
    return _lattice_value(P, Q, xs, ys)

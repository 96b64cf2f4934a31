"""Reference measures: discrete DTW, discrete Frechet distance, and a
sampled-grid approximation of the continuous warping distance.

The grid oracle restricts alignment paths to a lattice and uses exact
closed-form integrals of the height along each lattice edge, so its value
is always an upper bound on the continuous optimum and its only error is
discretisation.  Per-segment subdivision counts are rounded up to powers
of two, which makes every coarse lattice an exact subgraph of any lattice
whose resolution is a power-of-two multiple (diagonal edges included,
because each coarse diagonal is a chain of finer diagonals on the same
straight line).  The lattice kernel is in ``lattice``, the one module that
imports numpy; the grid oracle imports it on its first call.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple, Sequence

from .curves import Curve, build_curve
from .errors import EmptyInput, ResolutionZero


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
    return float(prev[m - 1])


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


class GridConfig(NamedTuple):
    """Lattice density for the sampled approximation.

    resolution counts lattice points per unit of arc length before
    rounding each segment's subdivision up to a power of two.
    """

    resolution: int


def cdtw_grid(P: Curve, Q: Curve, cfg: GridConfig) -> float:
    """Sampled-grid approximation of the continuous warping distance.

    Always >= the exact value (grid paths are a subset of all monotone
    paths) and nonincreasing as the resolution grows through powers of
    two times the same base.  A resolution below 1, NaN or infinite
    raises ResolutionZero before any tick is built.  Value lists pass
    through build_curve.
    """
    P, Q = (C if isinstance(C, Curve) else build_curve(C) for C in (P, Q))
    if not 1 <= cfg.resolution < math.inf:
        raise ResolutionZero(f"resolution must be finite and >= 1, got {cfg.resolution}")
    from .lattice import _axis_ticks, _lattice_value
    xs = _axis_ticks(P, float(cfg.resolution))
    ys = _axis_ticks(Q, float(cfg.resolution))
    return _lattice_value(P, Q, xs, ys)

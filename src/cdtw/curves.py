"""Polygonal 1D curves, arc-length parametrisation, and parameter-space cells.

A curve is a sequence of real values linearly interpolated and parametrised
by arc length, so that |dP/dx| = 1 inside every segment.  Two curves P and Q
span the parameter space R = [0, p] x [0, q] (p, q their total lengths),
subdivided into cells by the segment boundaries.  The height function
h(x, y) = |P(x) - Q(y)| is the integrand of the continuous warping distance.

Inside one cell both curves are linear, so h is an absolute value of an
affine function: |x - y - c| when the segments run in the same direction
(the zero set is a slope-1 "valley" line) and |x + y - c'| when they run in
opposite directions (no valley).
"""

from __future__ import annotations

import bisect
import math
from typing import NamedTuple, Optional, Sequence, Tuple

from .errors import IndexOutOfRange, InsufficientVertices, OutOfDomain
from .piecewise import ARC_SLACK, VALLEY_POINT_SLACK


class Curve(NamedTuple):
    """An arc-length parametrised polygonal curve over 1D values.

    vertices holds the (deduplicated) values, prefix_lengths the cumulative
    L1 arc length, so segment i covers arc positions
    [prefix_lengths[i-1], prefix_lengths[i]] for i in 1..len(vertices)-1.
    """

    vertices: Tuple[float, ...]
    prefix_lengths: Tuple[float, ...]

    @property
    def length(self) -> float:
        return self.prefix_lengths[-1]

    @property
    def num_segments(self) -> int:
        return len(self.vertices) - 1

    def segment_dir(self, i: int) -> int:
        """Sign (+1 or -1) of segment i's slope in value per arc length."""
        if not 1 <= i <= self.num_segments:
            raise IndexOutOfRange(f"segment index {i} not in 1..{self.num_segments}")
        return 1 if self.vertices[i] > self.vertices[i - 1] else -1


class Cell(NamedTuple):
    """One parameter-space cell, spanned by segment i of P and j of Q.

    offset is the constant of the in-cell height line: for same-direction
    cells h = |x - y - offset| (valley line x - y = offset), for
    opposite-direction cells h = |x + y - offset|.  valley is the clipped
    slope-1 zero segment ((x_lo, y_lo), (x_hi, y_hi)) that a path can
    ride, or None when the line misses the cell, touches it for no longer
    than VALLEY_POINT_SLACK relative to its ends (the single-turn families
    cover such a point), or the directions differ.
    A named tuple: the solver builds one per cell.
    """

    i: int
    j: int
    x_range: Tuple[float, float]
    y_range: Tuple[float, float]
    dir_p: int
    dir_q: int
    offset: float
    valley: Optional[Tuple[Tuple[float, float], Tuple[float, float]]]

    @property
    def same_direction(self) -> bool:
        return self.dir_p == self.dir_q


def build_curve(values: Sequence[float]) -> Curve:
    """Build a Curve, collapsing consecutive duplicate values.

    Args:
        values: nonempty sequence of real positions.

    Returns:
        Curve with strictly increasing prefix lengths.

    Raises:
        InsufficientVertices: a value is not a finite number, fewer than
            2 distinct consecutive values remain, or a segment vanishes in
            or overflows the arc length.
    """
    verts = []
    for v in values:
        try:
            fv = float(v)
        except (TypeError, ValueError, OverflowError):  # an int past the float range overflows
            fv = math.nan
        if not math.isfinite(fv):
            raise InsufficientVertices(f"value {v!r} is not a finite number")
        if not verts or fv != verts[-1]:
            verts.append(fv)
    if len(verts) < 2:
        raise InsufficientVertices(
            f"need at least 2 distinct consecutive values, got {len(verts)}"
        )
    prefix = [0.0]
    for k, (a, b) in enumerate(zip(verts, verts[1:]), 1):
        prefix.append(prefix[-1] + abs(b - a))
        if not prefix[-2] < prefix[-1] < math.inf:
            how = "vanishes in" if prefix[-1] == prefix[-2] else "overflows"
            raise InsufficientVertices(
                f"segment {k} from {a!r} to {b!r} {how} the arc length {prefix[-2]!r}"
            )
    return Curve(tuple(verts), tuple(prefix))


def point_at(curve: Curve, s: float) -> float:
    """Value of the curve at arc-length position s."""
    total = curve.length
    if s < -ARC_SLACK * (1.0 + total) or s > total * (1.0 + ARC_SLACK) + ARC_SLACK:
        raise OutOfDomain(f"arc length {s} outside [0, {total}]")
    s = min(max(s, 0.0), total)
    # Right-open bisect keeps interior breakpoints on the left segment; both
    # sides agree at the breakpoint so the choice is immaterial.
    k = bisect.bisect_left(curve.prefix_lengths, s)
    if k == 0:
        return curve.vertices[0]
    d = curve.segment_dir(k)
    return curve.vertices[k - 1] + d * (s - curve.prefix_lengths[k - 1])


def height(P: Curve, Q: Curve, x: float, y: float) -> float:
    """h(x, y) = |P(x) - Q(y)|, the pointwise matching cost."""
    return abs(point_at(P, x) - point_at(Q, y))


def cell_info(P: Curve, Q: Curve, i: int, j: int) -> Cell:
    """Geometry of cell (i, j): direction signs, height-line offset, valley.

    Args:
        P, Q: the two curves.
        i, j: 1-based segment indices into P and Q.

    Returns:
        Cell with the valley clipped to the cell rectangle; the one
        decision whether a path can ride it (None otherwise, see Cell).

    Raises:
        IndexOutOfRange: index outside 1..num_segments.
    """
    vp, vq = P.vertices, Q.vertices
    if not (0 < i < len(vp) and 0 < j < len(vq)):
        P.segment_dir(i)  # raises IndexOutOfRange for a bad i or j
        Q.segment_dir(j)
    p0, q0 = vp[i - 1], vq[j - 1]
    dp = 1 if vp[i] > p0 else -1
    dq = 1 if vq[j] > q0 else -1
    x0, x1 = P.prefix_lengths[i - 1], P.prefix_lengths[i]
    y0, y1 = Q.prefix_lengths[j - 1], Q.prefix_lengths[j]
    if dp == dq:
        # P(x) - Q(y) = dp * (x - y - c) inside the cell.
        c = (x0 - y0) - dp * (p0 - q0)
        # the clamps break ties as max and min do, without their call cost
        vx_lo = y0 + c if y0 + c > x0 else x0
        vx_hi = y1 + c if y1 + c < x1 else x1
        if vx_hi - vx_lo <= VALLEY_POINT_SLACK * (1.0 + abs(vx_lo) + abs(vx_hi)):
            valley = None  # a miss, or a point: nothing to ride
        else:
            valley = ((vx_lo, vx_lo - c), (vx_hi, vx_hi - c))
        return tuple.__new__(Cell, (i, j, (x0, x1), (y0, y1), dp, dq, c, valley))
    # P(x) - Q(y) = dp * (x + y - c') inside the cell.
    c = (x0 + y0) - dp * (p0 - q0)
    return tuple.__new__(Cell, (i, j, (x0, x1), (y0, y1), dp, dq, c, None))

"""Dynamic program over the whole parameter space.

A cell pairs two monotone runs of the curves, not two input segments: a
vertex between segments that run the same way is no turning point, so the
value does not depend on the sampling rate.  Cells are solved in
nondecreasing level order (level = i + j), so both input edges of a cell
are ready when it is visited.  The final distance is the cost at the
top-right corner, the smaller of the last cell's two output edges read
there, as every cell reads its far corner.  The edges are the sweep's
only state; their per-piece provenance supports exact path
reconstruction by backtracking.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from .curves import Curve, build_curve, cell_info, height
from .errors import CdtwError, InvariantViolation, ProvenanceMissing, TooLarge
from . import piecewise as pw
from .propagation import BoundaryCost, Prov, base_case, far_corner_cost, solve_cell, valley_ride


class EngineConfig(NamedTuple):
    record_path: bool = True


class SolveStats(NamedTuple):
    """Piece-count bookkeeping for the complexity bounds.

    total_pieces counts quadratic pieces over all stored (reduced) edges,
    the n' + m' base-case edges and both outputs of every cell, where
    n' and m' count the monotone runs between turning points; edges is
    the number of those edges, 2n'm' + n' + m', and
    max_edge_pieces the most pieces on one.  cells_solved is n * m, one
    cell per pair of segments of the curves as built.
    """

    total_pieces: int = 0
    edges: int = 0
    max_edge_pieces: int = 0
    wall_time: float = 0.0
    cells_solved: int = 0


class WarpPath(NamedTuple):
    """Monotone polyline from (0,0) to (p,q) realising the optimal cost.

    annotations has one label per leg: 'axis-parallel', 'valley-ride', or
    'diagonal'.
    """

    points: Tuple[Tuple[float, float], ...]
    annotations: Tuple[str, ...]


class SolveRun(NamedTuple):
    """Everything produced by one solve, kept for backtracking and stats.

    P and Q are the curves reduced to their turning points, which the
    cells index.
    """

    P: Curve
    Q: Curve
    top: Dict[Tuple[int, int], BoundaryCost]
    right: Dict[Tuple[int, int], BoundaryCost]
    bottoms: List[BoundaryCost]
    lefts: List[BoundaryCost]

    def inputs(self, i: int, j: int) -> Tuple[BoundaryCost, BoundaryCost]:
        """The bottom and left input edges of cell (i, j)."""
        return (self.top[(i, j - 1)] if j > 1 else self.bottoms[i - 1],
                self.right[(i - 1, j)] if i > 1 else self.lefts[j - 1])


class CdtwResult(NamedTuple):
    value: float
    stats: SolveStats
    path: Optional[WarpPath] = None
    run: Optional[SolveRun] = None


def _count_edge(counts: List[int], f: pw.PiecewiseQuadratic) -> None:
    """Add edge f to counts: total_pieces, edges, max_edge_pieces."""
    n = len(f.raw)
    counts[0] += n
    counts[1] += 1
    if n > counts[2]:
        counts[2] = n


def _turning_points(C: Curve) -> Tuple[Curve, List[int]]:
    """C with only its first, last and direction-changing vertices, and
    their indices.  Arc-length coordinates are kept, not re-summed, so the
    cells and the path need no mapping back."""
    v = C.vertices
    keep = [k for k in range(1, len(v) - 1) if (v[k] > v[k - 1]) != (v[k + 1] > v[k])]
    keep = [0, *keep, len(v) - 1]
    return Curve(tuple(v[k] for k in keep), tuple(C.prefix_lengths[k] for k in keep)), keep


def cdtw_exact(P: Curve, Q: Curve, config: Optional[EngineConfig] = None) -> CdtwResult:
    """Exact continuous warping distance between two 1D polygonal curves.

    Propagates boundary cost functions cell by cell; the returned value is
    the cost of the cheapest monotone unit-speed alignment path through the
    whole parameter space.  Symmetric in its arguments up to tolerance.
    Value lists pass through build_curve.
    """
    t_start = time.perf_counter()
    P, Q = (C if isinstance(C, Curve) else build_curve(C) for C in (P, Q))
    cells_solved = P.num_segments * Q.num_segments
    counts = [0, 0, 0]
    (P, kp), (Q, kq) = _turning_points(P), _turning_points(Q)
    bottoms, lefts = base_case(P, Q)
    n, m = P.num_segments, Q.num_segments
    for bc in [*bottoms, *lefts]:
        _count_edge(counts, bc.cost)

    run = SolveRun(P, Q, {}, {}, bottoms, lefts)
    for k in range(2, n + m + 1):
        for i in range(max(1, k - m), min(n, k - 1) + 1):
            j = k - i
            try:
                t_bc, r_bc = solve_cell(cell_info(P, Q, i, j), *run.inputs(i, j))
            except (CdtwError, OverflowError) as exc:
                where = (f"cell ({i},{j}), level {k} (segments {kp[i - 1] + 1}..{kp[i]} of P, "
                         f"{kq[j - 1] + 1}..{kq[j]} of Q as built)")
                if isinstance(exc, OverflowError):
                    raise TooLarge(f"{where}: overflow ({exc})") from exc
                raise type(exc)(f"{where}: {exc}") from exc
            run.top[(i, j)], run.right[(i, j)] = t_bc, r_bc
            _count_edge(counts, t_bc.cost)
            _count_edge(counts, r_bc.cost)

    value = far_corner_cost(cell_info(P, Q, n, m), run.top[(n, m)], run.right[(n, m)])
    if not math.isfinite(value):
        raise TooLarge(f"distance {value} is not finite")
    if value < -pw.DRIFT_SLACK * (1.0 + P.length + Q.length):
        raise InvariantViolation(f"negative distance {value}")
    value = max(value, 0.0)

    path = _trace(run) if config is None or config.record_path else None
    stats = SolveStats(*counts, time.perf_counter() - t_start, cells_solved)
    return CdtwResult(value, stats, path, run)


# ---------------------------------------------------------------------------
# path reconstruction


def _departure(bc: BoundaryCost, t: float) -> Tuple[float, Prov]:
    """Where a path to point t of an edge (or the valley) got onto it, t
    or the start of its travel, and the provenance of that arrival."""
    prov = bc.prov[pw.locate(bc.cost.raw, t)]
    if prov.kind != "travel":
        return t, prov
    if prov.inner is None or prov.inner.kind == "travel":
        raise ProvenanceMissing("malformed travel provenance")
    return prov.data[0], prov.inner


def _trace(run: SolveRun) -> WarpPath:
    """Backtrack provenance from the top-right corner to the origin.

    Each step reads an edge at one coordinate t, undoes any travel along
    it (and, for a valley ride, re-derives the valley from the cell's
    inputs, hops onto it and undoes the travel there), then runs from the
    turn point to the source s on an input edge and onto that edge: s is
    the source map at t, or the input edge's end for a corner route.  The
    level i + j drops by one per cell, so the walk terminates.
    """
    P, Q = run.P, run.Q
    pts: List[Tuple[float, float]] = [(P.length, Q.length)]
    edge, i, j, t = "right", P.num_segments, Q.num_segments, Q.length

    while i and j:
        bc = run.right[(i, j)] if edge == "right" else run.top[(i, j)]
        cell = cell_info(P, Q, i, j)
        x0, x1 = cell.x_range
        y0, y1 = cell.y_range
        t0 = t
        t, prov = _departure(bc, t)
        ox, oy = (x1, t) if edge == "right" else (t, y1)
        if t != t0:  # travel: the path turned onto the edge here
            pts.append((ox, oy))
        if prov.kind == "B":
            if cell.valley is None:
                raise ProvenanceMissing(f"valley ride in cell ({i},{j}), which has no valley")
            valley = BoundaryCost(*valley_ride(cell, *run.inputs(i, j)))
            c = cell.offset
            v = t if edge == "top" else t + c
            pts.append((v, v - c))
            v, prov = _departure(valley, v)
            ox, oy = v, v - c
            pts.append((ox, oy))
            t = ox if prov.side == "bottom" else oy

        if prov.kind == "corner":
            s = x1 if prov.side == "bottom" else y1
        elif len(prov.data) == 2:
            alpha, beta = prov.data
            s = alpha * t + beta
        else:
            raise ProvenanceMissing(f"no source for provenance {prov.kind!r} in cell ({i},{j})")
        if prov.side == "bottom":
            pts += [(s, oy), (s, y0)]
            edge, j, t = "top", j - 1, s
        else:
            pts += [(ox, s), (x0, s)]
            edge, i, t = "right", i - 1, s

    pts.append((0.0, 0.0))
    return _polish_path(P, Q, pts)


def _polish_path(P: Curve, Q: Curve, rev_pts: List[Tuple[float, float]]) -> WarpPath:
    """Reverse, deduplicate, clamp drift, merge collinear legs, and
    annotate the legs.

    Points are clamped into [0, len(P)] x [0, len(Q)] first: a cell edge
    coordinate and the curve length can round to neighbouring floats, and
    a point one ulp beyond the end would make the last leg step back.  A
    point within about tol of the line through its neighbours, of any
    slope, is dropped: the legs' cross product is at most tol times the
    merged leg's x + y span (the path is monotone).
    """
    scale = 1.0 + P.length + Q.length
    tol = pw.PATH_MERGE_SLACK * scale
    drift = pw.DRIFT_SLACK * scale
    pts = [
        (min(max(x, 0.0), P.length), min(max(y, 0.0), Q.length))
        for x, y in reversed(rev_pts)
    ]
    pts[0] = (0.0, 0.0)
    pts[-1] = (P.length, Q.length)
    clean: List[Tuple[float, float]] = [pts[0]]
    for x, y in pts[1:]:
        px, py = clean[-1]
        if x - px < -drift or y - py < -drift:
            raise InvariantViolation(f"non-monotone path leg ({px},{py}) -> ({x},{y})")
        x, y = max(x, px), max(y, py)
        if abs(x - px) <= tol and abs(y - py) <= tol:
            continue
        if len(clean) > 1:
            ax, ay = clean[-2]
            if abs((px - ax) * (y - ay) - (py - ay) * (x - ax)) <= tol * (x - ax + y - ay):
                clean[-1] = (x, y)
                continue
        clean.append((x, y))
    if len(clean) == 1:
        clean.append((P.length, Q.length))
    clean[-1] = (P.length, Q.length)

    annots: List[str] = []
    for (ax, ay), (bx, by) in zip(clean, clean[1:]):
        dx, dy = bx - ax, by - ay
        if dx <= tol or dy <= tol:
            annots.append("axis-parallel")
        elif abs(dx - dy) <= drift and height(P, Q, 0.5 * (ax + bx), 0.5 * (ay + by)) <= drift:
            annots.append("valley-ride")
        else:
            annots.append("diagonal")
    return WarpPath(tuple(clean), tuple(annots))


def reconstruct_path(result: CdtwResult) -> WarpPath:
    """Optimal warping path for a finished solve.

    Requires the solve to have run with path recording enabled; among
    equal-cost paths the construction prefers sources with the larger
    y coordinate and direct fragments over edge travel.
    """
    if result.path is None:
        raise ProvenanceMissing("solve ran without path recording")
    return result.path

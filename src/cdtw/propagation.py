"""Per-cell propagation of boundary cost functions.

For every cell edge the dynamic program keeps the cheapest cost f of
reaching each point of it as the reduced cost g = f - R, a continuous
piecewise quadratic over the edge coordinate; R(t) is the integral of
the height h along the edge from its start (edge_height_running).  A
path may reach t by way of any s < t and travel along the edge, so
f(t) <= f(s) + R(t) - R(s): g never rises.  This module computes a
cell's output edges (top, right) from its input edges (bottom, left),
all in reduced costs.  With S(u) = u|u|/2, the integral of |u|:

* opposite-direction cells: the height along every monotone path is the
  same function of x + y, so all paths between two boundary points cost
  the same, the path's integral and the two edges' R cancel up to a
  constant, and an entry earlier on an input edge costs no less.  Each
  output is a capped copy of one input (propagate_type_a).
* same-direction cells: write u = x - y - c (the signed offset from the
  zero-height valley line).  Along a monotone path, u changes at rate at
  most 1 per unit of L1 arc length, so optimal paths dip towards u = 0 as
  fast as allowed: ride the valley if reachable (the B family), otherwise
  turn once at the dip (the C2 families), or transport straight across
  (C1 families).  The edges' R double a path's S-terms here.  A lower
  envelope merges the fragments, and the travel pass along an output
  edge is its cumulative minimum from the corner route.  The valley is
  one more edge, of zero height, so its R is 0: the ride along it is the
  same travel pass, with no corner route (valley_ride).

Every emitted fragment is the exact cost of a realisable path family, so
the envelope is a true upper bound everywhere and tight where some family
is optimal; the families above cover all optimal shapes.  Work that
cannot change a cell's output is skipped:

* no fragment for the route through an output edge's start corner: it
  is a constant k, so travel starts at k.
* single turns only from the one sign region where they can win, at
  stationary points (_c2_catalogue says why nothing else can).
* no straight transport on the valley span where B applies: [vx0, vx1]
  on top, [vx0 - c, vx1 - c] on the right.  There the transport crosses
  the valley line; it is the B path that enters and leaves the valley at
  one point, so B = b2 + up <= B1 + up = C1T, and C1 likewise.  Off the
  span it misses the line and adds one quadratic to its input (_across).
* no span-by-span comparison in type A but at the cut: the output is the
  cap up to where the input falls through it and the input after it
  (piecewise.capped).
* no function object per fragment: every family hands the envelope raw
  pieces (the valley entries and exits, like the transports, are one
  pass over an input, _leg); each output edge is normalised once, by
  piecewise.normalize, which ends capped, the envelope and travel alike.
* travel returns the envelope as it is when its minimum from k follows
  every piece (piecewise.is_own_minimum).
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import piecewise as pw
from .curves import Cell, Curve
from .errors import InvariantViolation, OutOfDomain
from .piecewise import PiecewiseQuadratic

# Tie-break preferences: fragments sourced from the left edge beat fragments
# sourced from the bottom edge (the optimal-path convention keeps the largest
# y coordinate among equal-cost paths).
PREF_BOTTOM = 1.0
PREF_B = 1.5
PREF_LEFT = 2.0


# The records below are named tuples rather than dataclasses: the solver
# makes tens of them per cell, and a named tuple is both quicker to build
# and smaller than a dataclass instance with its attribute dict.


class Prov(NamedTuple):
    """Per-piece provenance: which path family produced the winning cost.

    pref leads the tag, as the lower envelope's tie-break.  kind is one of
    'base', 'Av', 'Ah', 'corner', 'B', 'B1', 'C1', 'C1T', 'C2', 'C2T',
    'travel'; side is the input edge ('' for B: the valley).  data is the
    source map (alpha, beta) of a route from an input edge (source
    coordinate alpha * t + beta at exit coordinate t; none for a corner
    route, which leaves at the edge's end) or travel's departure
    coordinate.  inner nests the pre-travel provenance.
    """

    pref: float
    kind: str
    side: str
    data: Tuple = ()
    inner: Optional["Prov"] = None


class BoundaryCost(NamedTuple):
    """Reduced cost g = f - R along one cell edge (see the module
    docstring) plus per-piece provenance."""

    cost: PiecewiseQuadratic
    prov: Tuple[Prov, ...]


# The fixed tags, made once rather than per cell.  A route that leaves
# its input edge where it exits, at the same coordinate, maps by identity.
IDENTITY = (1.0, 0.0)
B_TAG = Prov(PREF_B, "B", "")
B1_BOTTOM_TAG = Prov(PREF_BOTTOM, "B1", "bottom", IDENTITY)
B1_LEFT_TAG = Prov(PREF_LEFT, "B1", "left", IDENTITY)
C1T_TAG = Prov(PREF_BOTTOM, "C1T", "bottom", IDENTITY)
C1_TAG = Prov(PREF_LEFT, "C1", "left", IDENTITY)
AV_TAG = Prov(PREF_BOTTOM, "Av", "bottom", IDENTITY)
AH_TAG = Prov(PREF_LEFT, "Ah", "left", IDENTITY)
CORNER_LEFT_TAG = Prov(PREF_LEFT, "corner", "left")
CORNER_BOTTOM_TAG = Prov(PREF_BOTTOM, "corner", "bottom")
BASE_BOTTOM_TAG = Prov(PREF_BOTTOM, "base", "bottom")
BASE_LEFT_TAG = Prov(PREF_LEFT, "base", "left")
C2_HEAD = (PREF_BOTTOM, "C2", "bottom")  # a single turn: head + (source map, None)
C2T_HEAD = (PREF_LEFT, "C2T", "left")
# A candidate cost over part of an output edge, raw pieces in order, and its tag.
Fragment = Tuple[Sequence[pw.Raw], Prov]
# A route through an output edge's start corner: (constant cost, tag).
Corner = Tuple[float, Prov]


def _end_value(f: PiecewiseQuadratic) -> float:
    """f at its upper end, from the end piece."""
    a, b, c, _, hi = f.raw[-1]
    return (a * hi + b) * hi + c


# ---------------------------------------------------------------------------
# closed-form height integrals


def _s_halfsq(u: float) -> float:
    """Signed half square: integral of |w| from 0 to u."""
    return u * abs(u) / 2.0


def _s_combination_raw(
    terms: Sequence[Tuple[float, float, float]], const: float, lo: float, hi: float
) -> List[pw.Raw]:
    """Raw pieces of sum(coef * S(sgn*t + p)) + const on [lo, hi], where
    S(u) = u|u|/2.  Each term contributes one potential breakpoint."""
    tol = pw.TOLERANCE * (1.0 + abs(lo) + abs(hi))
    inner_lo, inner_hi = lo + tol, hi - tol
    xs = [lo, hi]
    for _, sgn, p in terms:
        t_star = -p * sgn  # sgn is +1 or -1, so this solves sgn*t + p = 0
        if inner_lo < t_star < inner_hi:
            xs.append(t_star)
    if len(xs) > 2:
        xs = sorted(set(xs))
    pieces = []
    a0 = xs[0]
    for b0 in xs[1:]:
        mid = 0.5 * (a0 + b0)
        qa = qb = 0.0
        qc = const
        for coef, sgn, p in terms:
            sig = 1.0 if sgn * mid + p >= 0 else -1.0
            qa += coef * sig / 2.0
            qb += coef * sig * sgn * p
            qc += coef * sig * p * p / 2.0
        pieces.append((qa, qb, qc, a0, b0))
        a0 = b0
    return pieces


def _leg(
    raw: Sequence[pw.Raw], beta: float, q: Sequence[float], lo: float, hi: float
) -> List[pw.Raw]:
    """f(t + beta) + q(t) on [lo, hi] for f given by raw pieces covering
    [lo + beta, hi + beta] and q = (a, b, c, ...) one quadratic: one pass
    that clips, shifts and adds, with no normalisation."""
    qa, qb, qc = q[0], q[1], q[2]
    out = []
    for a, b, c, l, h in raw:
        l -= beta
        h -= beta
        if l < hi and h > lo:  # the clamps break ties as max and min do
            out.append((a + qa, 2.0 * a * beta + b + qb, (a * beta + b) * beta + c + qc,
                        lo if lo > l else l, hi if hi < h else h))
    return out


def _across(
    f: PiecewiseQuadratic, sgn: float, p0: float, p1: float, const: float, lo: float, hi: float,
    skip: Optional[Tuple[float, float]] = None,
) -> List[pw.Raw]:
    """The reduced cost after a straight transport across a same-direction
    cell from every point t of f's edge [lo, hi] off skip, as raw pieces:
    f(t) + 2 S(sgn*t + p0) - 2 S(sgn*t + p1) + const with p0 >= p1, the
    transport's integral doubled by the entry and exit edges' R.  skip is
    the span where the transports cross the valley, which B covers; the
    result has a hole there, and is empty if nothing is left."""
    out: List[pw.Raw] = []
    for plo, phi in ((lo, hi),) if skip is None else ((lo, skip[0]), (skip[1], hi)):
        if phi - plo > pw.TOLERANCE:
            for q in _s_combination_raw([(2.0, sgn, p0), (-2.0, sgn, p1)], const, plo, phi):
                out += _leg(f.raw, 0.0, q, q[3], q[4])
    return out


def _edge_integrals(cell: Cell) -> Tuple[float, float, float, float]:
    """Integrals of h along the bottom, left, top and right edges: h = |u|
    with u = x + dy*y - c, dy = -1 in a same-direction cell, else +1."""
    x0, x1 = cell.x_range
    y0, y1 = cell.y_range
    c = cell.offset
    dy = -1.0 if cell.same_direction else 1.0
    u00, u10, u01, u11 = x0 + dy * y0 - c, x1 + dy * y0 - c, x0 + dy * y1 - c, x1 + dy * y1 - c
    s00, s10 = u00 * abs(u00) / 2.0, u10 * abs(u10) / 2.0  # S(u), inlined per cell
    s01, s11 = u01 * abs(u01) / 2.0, u11 * abs(u11) / 2.0
    return s10 - s00, dy * (s01 - s00), s11 - s01, dy * (s11 - s10)


def edge_height_running(cell: Cell, side: str) -> PiecewiseQuadratic:
    """Running integral R of h along one cell edge, from the edge's start;
    the cost along an edge is its stored reduced cost plus R.

    On the edge h = |sgn*t + p| with sgn = +1 or -1, so R(t) =
    sgn * (S(sgn*t + p) - S(sgn*t0 + p)), t0 the edge's start.
    """
    x0, x1 = cell.x_range
    y0, y1 = cell.y_range
    c = cell.offset
    same = cell.same_direction
    if side in ("right", "left"):  # h(x, y) at fixed x, y in [y0, y1]
        x = x1 if side == "right" else x0
        sgn, p, lo, hi = (-1.0 if same else 1.0), x - c, y0, y1
    elif side in ("top", "bottom"):  # h(x, y) at fixed y, x in [x0, x1]
        y = y1 if side == "top" else y0
        sgn, p, lo, hi = 1.0, (-(y + c) if same else y - c), x0, x1
    else:
        raise OutOfDomain(f"unknown side {side!r}")
    start = -sgn * _s_halfsq(sgn * lo + p)
    return pw.from_raw(_s_combination_raw([(sgn, sgn, p)], start, lo, hi))


def far_corner_cost(cell: Cell, top: BoundaryCost, right: BoundaryCost) -> float:
    """The cost at a cell's top-right corner from its output edges: the
    smaller of the two end reads, which solve_cell checks agree."""
    _, _, h_top, v_right = _edge_integrals(cell)
    return min(_end_value(top.cost) + h_top, _end_value(right.cost) + v_right)


# ---------------------------------------------------------------------------
# base case


def base_case(P: Curve, Q: Curve) -> Tuple[List[BoundaryCost], List[BoundaryCost]]:
    """Boundary costs along the two axes.

    The only monotone path to (x, 0) runs along the x axis, so the cost is
    the integral of h(z, 0) from 0 to x; on each axis edge that is the
    integral up to the edge's start plus the edge's own R, a constant
    reduced cost.  The y axis is symmetric.  Returns one BoundaryCost per
    bottom edge of row 1 and per left edge of column 1.
    """
    axes = []
    for curve, start, tags in ((P, Q.vertices[0], (BASE_BOTTOM_TAG,)),
                               (Q, P.vertices[0], (BASE_LEFT_TAG,))):
        costs: List[BoundaryCost] = []
        acc = 0.0
        for k in range(1, curve.num_segments + 1):
            u0, u1 = curve.prefix_lengths[k - 1], curve.prefix_lengths[k]
            costs.append(tuple.__new__(BoundaryCost, (pw.constant(acc, u0, u1), tags)))
            # h on the segment runs linearly, at unit slope, between these
            h0, h1 = curve.vertices[k - 1] - start, curve.vertices[k] - start
            acc += abs(_s_halfsq(h1) - _s_halfsq(h0))
        axes.append(costs)
    return axes[0], axes[1]


# ---------------------------------------------------------------------------
# type A: opposite-direction cells


def _corner_routes(
    bottom: BoundaryCost, left: BoundaryCost, h_bottom: float, v_left: float
) -> Tuple[Corner, Corner]:
    """The routes to the top and the right edge through their start corners:
    an input's end cost plus V (or H), then free travel along the edge."""
    return ((_end_value(left.cost) + v_left, CORNER_LEFT_TAG),
            (_end_value(bottom.cost) + h_bottom, CORNER_BOTTOM_TAG))


def propagate_type_a(
    bottom: BoundaryCost, left: BoundaryCost, h_bottom: float, v_left: float,
    top_k: Corner, right_k: Corner,
) -> Tuple[Tuple[PiecewiseQuadratic, List], Tuple[PiecewiseQuadratic, List]]:
    """(top, right) outputs of an opposite-direction cell, each with one
    provenance tag per piece: top = V + min(g_bottom, k_top) and right =
    H + min(g_left, k_right), V and H the integrals of h up the left and
    along the bottom edge, k the corner routes.  These stand for all paths
    (see the module docstring).  Ties go to PREF_LEFT: the left corner on
    top, the horizontal transport on right."""
    top = pw.capped(bottom.cost, v_left, AV_TAG, *top_k)
    right = pw.capped(left.cost, h_bottom, AH_TAG, *right_k)
    return top, right


# ---------------------------------------------------------------------------
# type B: valley riding


def valley_ride(
    cell: Cell, bottom: BoundaryCost, left: BoundaryCost
) -> Tuple[PiecewiseQuadratic, Sequence[Prov]]:
    """The valley's cost over x on its span [vx0, vx1] (cell.valley), one
    tag per piece: the ride, a travel pass with no corner route (R is 0 on
    the valley), over both inputs' transports to it, tagged with their entry
    (B1) and wrapped in travel where the path rides.  Each entry, like
    each exit in propagate_type_b, is one pass over an input (_leg): clip
    to the span, which cell_info keeps inside both inputs, shift by c
    where the frames differ, and add one quadratic (on the span the input
    edge's R is one, which doubles the transport's square).
    """
    (vx0, _), (vx1, _) = cell.valley
    x0 = cell.x_range[0]
    y0 = cell.y_range[0]
    c = cell.offset
    s00 = _s_halfsq(x0 - y0 - c)
    # Entry from the bottom edge at (v, y0), climbing to the valley.
    b1_bottom = _leg(bottom.cost.raw, 0.0, (1.0, -2.0 * (y0 + c), (y0 + c) ** 2 - s00), vx0, vx1)
    # Entry from the left edge at (x0, v - c), moving right to the valley.
    b1_left = _leg(left.cost.raw, -c, (1.0, -2.0 * x0, x0 * x0 + s00), vx0, vx1)
    return apply_edge_travel(*pw.lower_envelope(
        [(b1_bottom, B1_BOTTOM_TAG), (b1_left, B1_LEFT_TAG)], vx0, vx1), (math.inf, None))


def propagate_type_b(
    cell: Cell, bottom: BoundaryCost, left: BoundaryCost
) -> Tuple[List[Fragment], List[Fragment]]:
    """(top, right) valley-riding fragments on cell.valley's span: ride
    the valley and transport to the outputs.  The transport from the
    valley to an output point does not depend on where the path leaves it
    (any reachable exit gives the same dip integral), so the ride captures
    every entry point."""
    b2 = valley_ride(cell, bottom, left)[0].raw
    (vx0, vy0), (vx1, vy1) = cell.valley
    x0, x1 = cell.x_range
    y0, y1 = cell.y_range
    c = cell.offset
    # Exit upward to the top edge at (t, y1): transport (y1 - t + c)^2 / 2.
    up = (1.0, -2.0 * (y1 + c), (y1 + c) ** 2 + _s_halfsq(x0 - y1 - c))
    # Exit rightward to (x1, tau): valley coordinate tau + c.
    side = (1.0, -2.0 * (x1 - c), (x1 - c) ** 2 - _s_halfsq(x1 - y0 - c))
    return ([(_leg(b2, 0.0, up, vx0, vx1), B_TAG)],
            [(_leg(b2, c, side, vy0, vy1), B_TAG)])


# ---------------------------------------------------------------------------
# type C: straight transports and single-turn paths


def _c2_catalogue(
    f: PiecewiseQuadratic, X0: float, X1: float, Y0: float, Y1: float, C: float, head: Tuple
) -> List[Fragment]:
    """Single-turn path costs from the bottom edge to the right edge,
    in normalised frame coordinates and reduced costs.

    A path enters at (s, Y0), runs up to level t, then right to (X1, t);
    with f the entry edge's reduced cost, its reduced cost (its S-terms
    doubled by the two edges' R) is

        pathcost(s, t) = f(s) + 2 [S(s - Y0 - C) + S(X1 - t - C) - S(s - t - C)]
                         - S(X0 - Y0 - C) - S(X1 - Y0 - C)

    with S(u) = u|u|/2.  This emits, per input piece, the stationary turns
    with s - Y0 - C >= 0 and s - t - C >= 0: paths that enter at or right
    of the valley's foot and turn at or below the valley line.  There
    t <= s - C <= X1 - C, so the ride term 2 S(X1 - t - C) is
    (X1 - t - C)^2, and pathcost is f(s) + 2 (t - Y0) s plus terms free
    of s.  On a piece a s^2 + b s + c of f with a > 0 its minimum over s
    is at s(t) = alpha * t + beta, alpha = -1/a.  Each entry is a fragment:
    the cost over the t where s(t) stays in the piece and the region, one
    raw piece, tagged with head and the source map (alpha, beta).

    The inputs never rise (travel closure) and kink only concavely (an
    edge is a minimum of costs smooth in its coordinate).  So nothing
    else can win:

    * s < Y0 + C with s - t - C >= 0 is empty: u = x - y - C only falls
      on the way up, so the path would turn below Y0.
    * s < Y0 + C with s - t - C < 0: d pathcost / d s = f'(s) - 2(t - Y0)
      < 0 for t > Y0, so the minimum lies on the region's boundary: at
      the valley's foot, which the valley ride covers, or at X1, which is
      the corner route.
    * s >= Y0 + C with s - t - C < 0: the vertical leg crosses the valley
      line at V = (s, s - C).  The valley ride from s reaches V at the
      same cost and rides to (t + C, t) for free, where the turn pays
      (t - s + C)^2 / 2; past X1 it leaves at (X1, X1 - C) and travels up
      for (t - X1 + C)^2 / 2, less still.  Without a valley segment in
      the cell this region is at most a point.
    * a kink of f: a minimum over s cannot sit at a concave kink unless
      both one-sided slopes are 0, which makes it a stationary point.

    A path entering at X0 first runs along the other input edge, whose
    cost meets f there and whose reduced cost never rises, so C1 from
    that edge at level t costs no more.  The transposed frame (swap axes,
    negate C) yields the left-to-top family, where C1T covers X0.
    """
    tol = pw.TOLERANCE * (1.0 + abs(X0) + abs(X1) + abs(Y0) + abs(Y1))
    out: List[Fragment] = []
    y0c = Y0 + C
    x1c = X1 - C  # the ride term (t - x1c)^2, its constant kept in const
    const = -_s_halfsq(X0 - y0c) - _s_halfsq(X1 - y0c) + x1c * x1c
    for pa, pb, pc, p_lo, p_hi in f.raw:
        sl = y0c if p_lo + tol < y0c < p_hi - tol else p_lo
        kappa = 2.0 * pa
        if p_hi - sl <= tol or 0.5 * (sl + p_hi) < y0c or kappa <= pw.TOLERANCE:
            continue  # off the region, or no minimum in s
        alpha = -2.0 / kappa
        beta = (2.0 * y0c - 2.0 * C - pb) / kappa
        # t where s(t) <= p_hi, s(t) >= sl and s(t) - t - C >= 0, each g0 * t + g1 >= 0 at
        # x = -g1 / g0: g0 = -alpha > 0 bounds t from below, g0 = alpha, alpha - 1 < 0 above
        t_lo, t_hi = Y0, Y1
        x = -(p_hi - beta) / -alpha
        if x > t_lo:
            t_lo = x
        x = -(beta - sl) / alpha
        if x < t_hi:
            t_hi = x
        x = -(beta - C) / (alpha - 1.0)
        if x < t_hi:
            t_hi = x
        if t_hi - t_lo <= tol:
            continue
        qa, qb, qc = pw.compose_linear(pa, pb, pc, alpha, beta)
        # 2 S(s(t) - Y0 - C) and -2 S(s(t) - t - C) with s(t) linear
        ea, eb, ec = pw.compose_linear(1.0, -2.0 * y0c, y0c ** 2, alpha, beta)
        da, db, dc = pw.compose_linear(-1.0, 0.0, 0.0, alpha - 1.0, beta - C)
        piece = (1.0 + qa + ea + da, -2.0 * x1c + qb + eb + db, const + qc + ec + dc, t_lo, t_hi)
        out.append(((piece,), tuple.__new__(Prov, (*head, (alpha, beta), None))))
    return out


def propagate_type_c(
    cell: Cell, bottom: BoundaryCost, left: BoundaryCost, h_bottom: float, v_left: float
) -> Tuple[List[Fragment], List[Fragment]]:
    """(top, right) fragments of the straight transports (C1 families)
    and single-turn paths (C2 families) of a same-direction cell, with or
    without a valley; H and V are the integrals of h along the bottom and
    up the left edge."""
    x0, x1 = cell.x_range
    y0, y1 = cell.y_range
    c = cell.offset
    gb, gl = bottom.cost, left.cost
    # C1 transposed: bottom to top, vertical transport; C1: left to right,
    # horizontal transport across the full cell width; both off the valley.
    skip_x, skip_y = (None, None) if cell.valley is None else zip(*cell.valley)
    c1t = _across(gb, 1.0, -(y0 + c), -(y1 + c), -v_left, x0, x1, skip_x)
    c1 = _across(gl, -1.0, x1 - c, x0 - c, -h_bottom, y0, y1, skip_y)
    top = [(c1t, C1T_TAG)] if c1t else []
    right = [(c1, C1_TAG)] if c1 else []
    # C2: bottom to right, single turn; C2T: left to top, the same with the
    # axes swapped and the valley offset negated.
    right += _c2_catalogue(gb, x0, x1, y0, y1, c, C2_HEAD)
    top += _c2_catalogue(gl, y0, y1, x0, x1, -c, C2T_HEAD)
    return top, right


# ---------------------------------------------------------------------------
# travel along an output edge, cell driver


def apply_edge_travel(
    env: PiecewiseQuadratic, tags: Sequence[Prov], start: Corner
) -> Tuple[PiecewiseQuadratic, Sequence[Prov]]:
    """Allow paths to continue along the output edge (or valley) after any exit.

    Travel along the edge is free in reduced costs, so the result is the
    tagged cumulative minimum of env started at the corner route start =
    (k, tag), or env and tags themselves (not copied) when that minimum
    follows every piece of env (piecewise.is_own_minimum).  Flat pieces
    at k keep tag; ties prefer the direct fragment (no travel).
    """
    if pw.is_own_minimum(env, start[0]):
        return env, tags  # no travel wins
    g, args, mtags = pw.cumulative_min(env, tags, start)
    # A flat piece departs from the argmin s*: wrap its source's provenance.
    return g, [
        tag if arg is None else tuple.__new__(Prov, (tag.pref, "travel", "", (arg,), tag))
        for arg, tag in zip(args, mtags)
    ]


def solve_cell(
    cell: Cell, bottom: BoundaryCost, left: BoundaryCost
) -> Tuple[BoundaryCost, BoundaryCost]:
    """Output-edge reduced costs (top, right) of one cell from its
    input-edge reduced costs.  The inputs must never rise, as every
    base-case edge and every output of this function does.  Outputs whose
    far-corner reads differ past rounding raise InvariantViolation.
    """
    h_bottom, v_left, h_top, v_right = _edge_integrals(cell)
    top_k, right_k = _corner_routes(bottom, left, h_bottom, v_left)
    if not cell.same_direction:
        (fin_top, prov_top), (fin_right, prov_right) = propagate_type_a(
            bottom, left, h_bottom, v_left, top_k, right_k)
    else:
        frags_top, frags_right = propagate_type_c(cell, bottom, left, h_bottom, v_left)
        if cell.valley is not None:
            b_top, b_right = propagate_type_b(cell, bottom, left)
            frags_top += b_top
            frags_right += b_right
        fin_top, prov_top = apply_edge_travel(*pw.lower_envelope(frags_top, *cell.x_range), top_k)
        fin_right, prov_right = apply_edge_travel(
            *pw.lower_envelope(frags_right, *cell.y_range), right_k)

    # Both output edges end at the far corner, so each prices it in full:
    # the families reach it on either edge.  Their reads agree to rounding.
    at_top = _end_value(fin_top) + h_top
    at_right = _end_value(fin_right) + v_right
    if abs(at_top - at_right) > pw.TOLERANCE * (1.0 + abs(at_top) + abs(at_right)):
        raise InvariantViolation(f"corner value mismatch: top {at_top} vs right {at_right}")

    return (tuple.__new__(BoundaryCost, (fin_top, tuple(prov_top))),
            tuple.__new__(BoundaryCost, (fin_right, tuple(prov_right))))

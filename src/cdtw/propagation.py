"""Per-cell propagation of boundary cost functions.

The dynamic program keeps, for every cell edge, the cost-to-reach function
(a continuous piecewise quadratic over the edge coordinate).  This module
computes a cell's output-edge functions (top, right) from its input-edge
functions (bottom, left) by generating candidate cost fragments from every
optimal path shape, merging them with a lower envelope, and finishing with
a travel pass along each output edge.

Path shapes inside one cell:

* opposite-direction cells: the height along every monotone path is the
  same function of x + y, so a straight transport (vertical, horizontal,
  or through the corner) represents all paths between two boundary points;
* same-direction cells: write u = x - y - c (the signed offset from the
  zero-height valley line).  Along a monotone path, u changes at rate at
  most 1 per unit of L1 arc length, so optimal paths dip towards u = 0 as
  fast as allowed: ride the valley if reachable (the B family), otherwise
  turn once at the dip (the C2 families), or transport straight across
  (C1 families).  The final edge-travel pass accounts for continuing along
  an output edge past any of these exits.

Every emitted fragment is the exact cost of a realisable path family, so
the envelope is a true upper bound everywhere and tight where some family
is optimal; the families above cover all optimal shapes.

Every input edge is travel-closed: f - R never rises along the edge, R
being the running integral of h along it.  A base-case edge is R itself,
a same-direction cell's output comes from a travel pass, and an
opposite-direction cell's output is travel-closed by the first point
below.  Work that cannot change a cell's output is skipped:

* no travel pass in opposite-direction cells.  Every monotone path
  between two boundary points costs the same there, so the vertical
  transport satisfies av(t) - R_top(t) = fb(t) - R_bottom(t) + V, with V
  the integral of h up the left edge, which never rises; the corner
  route minus R_top is the constant fl(y1).  The envelope minus R_top
  never rises, so travel would return it as it is; the right edge is
  the same with the axes swapped.  Outputs stay travel-closed.
* no entry at the bottom edge's start in the bottom-to-right single
  turns: C1 covers it, and the entry at an edge's end is the corner
  route (see _c2_catalogue).  Other entries sit only where the minimum
  over entries can lie (stationary points, convex kinks of the input).
* no single turn across the valley where B applies.  Entering at (s, y0)
  with s - c >= y0 and turning at t > s - c, it crosses the valley line
  at V = (s, s - c).  The B path from s reaches V at the same cost and
  rides to (t + c, t) for free, where the turn pays (t - s + c)^2 / 2;
  past x1 it leaves at (x1, x1 - c) and travels up for (t - x1 + c)^2 / 2,
  less still.  The transposed frame is the same.
* in same-direction cells the travel pass returns the envelope as it is
  when the envelope minus the edge integral never rises, since then no
  departure earlier on the edge wins.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import piecewise as pw
from .curves import Cell, Curve, cell_info
from .errors import InvariantViolation, WrongCellType
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

    kind is one of 'base', 'Av', 'Ah', 'corner', 'B', 'C1', 'C1T', 'C2',
    'C2T', 'travel'.  data holds family parameters (for C2 kinds the linear
    map t -> source coordinate; for corners the corner point; for travel
    the departure coordinate).  inner nests the pre-travel provenance.
    """

    kind: str
    side: str
    data: Tuple = ()
    inner: Optional["Prov"] = None


class BoundaryCost(NamedTuple):
    """Cost function along one cell edge plus per-piece provenance."""

    cost: PiecewiseQuadratic
    prov: Tuple


class BRecord(NamedTuple):
    """Valley data kept for path reconstruction through the B family."""

    valley_env: PiecewiseQuadratic
    vtags: Tuple
    b2: PiecewiseQuadratic
    argmins: Tuple


# A candidate cost over part of an output edge, tagged (pref, provenance).
Fragment = Tuple[PiecewiseQuadratic, Tuple[float, Prov]]


def _lifted(f: PiecewiseQuadratic, dc: float) -> PiecewiseQuadratic:
    """f + dc, piece by piece."""
    return pw.from_raw([(a, b, c + dc, lo, hi) for a, b, c, lo, hi in f.raw])


def _end_value(f: PiecewiseQuadratic, where: str) -> float:
    """f at its lower ("lo") or upper ("hi") end, from the end piece."""
    a, b, c, lo, hi = f.raw[0 if where == "lo" else -1]
    s = lo if where == "lo" else hi
    return (a * s + b) * s + c


# ---------------------------------------------------------------------------
# closed-form height integrals


def _s_halfsq(u: float) -> float:
    """Signed half square: integral of |w| from 0 to u."""
    return u * abs(u) / 2.0


def _s_combination_raw(
    terms: Sequence[Tuple[float, float, float]],
    const: float,
    lo: float,
    hi: float,
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
    if len(xs) > 2 or not lo < hi:
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
    if not pieces:
        raise InvariantViolation("cannot build an empty piecewise function")
    return pieces


def _across(
    f: PiecewiseQuadratic, sgn: float, p0: float, p1: float, lo: float, hi: float
) -> PiecewiseQuadratic:
    """The cost after a straight transport across the cell from every point
    t of f's edge: f(t) + S(sgn*t + p0) - S(sgn*t + p1) with p0 >= p1, the
    band term being the integral of the in-cell height along the transport."""
    band = _s_combination_raw([(1.0, sgn, p0), (-1.0, sgn, p1)], 0.0, lo, hi)
    pieces, _ = pw.add_raw(f.raw, None, band)
    return pw.from_raw(pieces)


def edge_height_running(cell: Cell, side: str) -> PiecewiseQuadratic:
    """Running integral of h along one cell edge, from the edge's start.

    h is |x - y - c| in a same-direction cell and |x + y - c'| otherwise.
    """
    x0, x1 = cell.x_range
    y0, y1 = cell.y_range
    c = cell.offset
    same = cell.same_direction
    if side in ("right", "left"):  # h(x, y) at fixed x, y in [y0, y1]
        x = x1 if side == "right" else x0
        return pw.integrate_abs_linear(-1.0 if same else 1.0, x - c, y0, y1)
    if side in ("top", "bottom"):  # h(x, y) at fixed y, x in [x0, x1]
        y = y1 if side == "top" else y0
        return pw.integrate_abs_linear(1.0, -(y + c) if same else y - c, x0, x1)
    raise ValueError(f"unknown side {side!r}")


# ---------------------------------------------------------------------------
# base case


def base_case(P: Curve, Q: Curve) -> Tuple[List[BoundaryCost], List[BoundaryCost]]:
    """Boundary costs along the two axes.

    The only monotone path to (x, 0) runs along the x axis, so the cost is
    the running integral of h(z, 0); the y axis is symmetric.  Returns one
    BoundaryCost per bottom edge of row 1 and per left edge of column 1.
    """
    axes = []
    for R, start, sgn, tag in (
        (P, Q.vertices[0], 1.0, (PREF_BOTTOM, Prov("base", "bottom"))),
        (Q, P.vertices[0], -1.0, (PREF_LEFT, Prov("base", "left"))),
    ):
        costs: List[BoundaryCost] = []
        acc = 0.0
        for k in range(1, R.num_segments + 1):
            u0, u1 = R.prefix_lengths[k - 1], R.prefix_lengths[k]
            d = R.segment_dir(k)
            # R(u) = d*u + line here; h on the axis is |R(u) - start|
            line = R.vertices[k - 1] - d * u0
            beta = line - start if sgn > 0 else start - line
            cost = _lifted(pw.integrate_abs_linear(sgn * d, beta, u0, u1), acc)
            acc = cost.value(u1)
            costs.append(BoundaryCost(cost, (tag,) * len(cost)))
        axes.append(costs)
    return axes[0], axes[1]


# ---------------------------------------------------------------------------
# type A: opposite-direction cells


def _corner(
    f: PiecewiseQuadratic, ride: PiecewiseQuadratic, side: str, at: Tuple[float, float]
) -> Fragment:
    """The corner route through f's end point at: f there plus ride, the
    integral of h along the output edge."""
    pref = PREF_LEFT if side == "left" else PREF_BOTTOM
    return _lifted(ride, _end_value(f, "hi")), (pref, Prov("corner", side, at))


def propagate_type_a(
    cell: Cell,
    bottom: BoundaryCost,
    left: BoundaryCost,
    ride_top: PiecewiseQuadratic,
    ride_right: PiecewiseQuadratic,
) -> Tuple[List[Fragment], List[Fragment]]:
    """(top, right) fragments of an opposite-direction cell.

    All monotone paths between two fixed boundary points cost the same
    here, so a vertical transport (bottom to top), a horizontal transport
    (left to right), and the corner route (bottom to right through the
    bottom-right corner, left to top through the top-left corner)
    represent every optimum.  ride_top and ride_right are the
    edge_height_running of the output edges the corner routes end on.
    """
    if cell.same_direction:
        raise WrongCellType("type A applies to opposite-direction cells")
    x0, x1 = cell.x_range
    y0, y1 = cell.y_range
    cp = cell.offset
    fb, fl = bottom.cost, left.cost
    av = _across(fb, 1.0, y1 - cp, y0 - cp, x0, x1)
    ah = _across(fl, 1.0, x1 - cp, x0 - cp, y0, y1)
    top = [(av, (PREF_BOTTOM, Prov("Av", "bottom"))), _corner(fl, ride_top, "left", (x0, y1))]
    right = [_corner(fb, ride_right, "bottom", (x1, y0)), (ah, (PREF_LEFT, Prov("Ah", "left")))]
    return top, right


# ---------------------------------------------------------------------------
# type B: valley riding


def _valley_span(cell: Cell) -> Optional[Tuple[float, float]]:
    if cell.valley is None:
        return None
    (vx0, _), (vx1, _) = cell.valley
    if vx1 - vx0 <= pw.TOLERANCE * (1.0 + abs(vx0) + abs(vx1)):
        return None  # point valley: no riding possible, handled as type C
    return vx0, vx1


def propagate_type_b(
    cell: Cell, bottom: BoundaryCost, left: BoundaryCost
) -> Tuple[List[Fragment], List[Fragment], BRecord]:
    """(top, right) valley-riding fragments and the valley record: transport
    both inputs to the valley, take the cumulative minimum along it, and
    transport to the outputs.

    The transport cost from the valley to an output point does not depend
    on where the path leaves the valley (any reachable exit gives the same
    dip integral), so the cumulative minimum captures every entry point.
    """
    span = _valley_span(cell)
    if not cell.same_direction or span is None:
        raise WrongCellType("type B needs a same-direction cell with a valley")
    vx0, vx1 = span
    x0, x1 = cell.x_range
    y0, y1 = cell.y_range
    c = cell.offset

    # Entry from the bottom edge at (v, y0), climbing to the valley.
    fb = pw.restrict_raw(bottom.cost.raw, vx0, vx1)
    climb = (0.5, -(y0 + c), (y0 + c) ** 2 / 2.0, vx0, vx1)
    b1_bottom, _ = pw.add_raw(fb, None, (climb,))

    # Entry from the left edge at (x0, v - c), moving right to the valley.
    fl = pw.restrict_raw(pw.shift_raw(left.cost.raw, -c), vx0, vx1)
    walk = (0.5, -x0, x0 * x0 / 2.0, vx0, vx1)
    b1_left, _ = pw.add_raw(fl, None, (walk,))

    valley_env, vtags = pw.lower_envelope(
        [
            (pw.from_raw(b1_bottom), (PREF_BOTTOM, Prov("B1", "bottom"))),
            (pw.from_raw(b1_left), (PREF_LEFT, Prov("B1", "left"))),
        ],
        vx0,
        vx1,
    )
    b2, argmins, _ = pw.cumulative_min(valley_env)

    # Exit upward to the top edge at (t, y1): transport (y1 - t + c)^2 / 2.
    up = (0.5, -(y1 + c), (y1 + c) ** 2 / 2.0, vx0, vx1)
    b3_top, _ = pw.add_raw(b2.raw, None, (up,))
    top = [(pw.from_raw(b3_top), (PREF_B, Prov("B", "", ("top",))))]
    # Exit rightward to (x1, tau): valley coordinate tau + c.
    shifted = pw.shift_raw(b2.raw, c)
    t_lo, t_hi = vx0 - c, vx1 - c
    side = (0.5, -(x1 - c), (x1 - c) ** 2 / 2.0, t_lo, t_hi)
    b3_right, _ = pw.add_raw(shifted, None, (side,))
    right = [(pw.from_raw(b3_right), (PREF_B, Prov("B", "", ("right",))))]
    return top, right, BRecord(valley_env, tuple(vtags), b2, tuple(argmins))


# ---------------------------------------------------------------------------
# type C: straight transports and single-turn paths


def _c2_catalogue(
    f: PiecewiseQuadratic,
    X0: float,
    X1: float,
    Y0: float,
    Y1: float,
    C: float,
    lo_entry: bool,
    valley: bool,
) -> List[Tuple[PiecewiseQuadratic, float, float]]:
    """Single-turn path costs from the bottom edge to the right edge,
    in normalised frame coordinates.

    A path enters at (s, Y0-edge), runs "up" to level t, then "right" to
    the output edge; its cost is

        pathcost(s, t) = f(s) + S(s - Y0 - C) + S(X1 - t - C) - 2 S(s - t - C)

    with S(u) = u|u|/2.  Since S'(u) = |u|, pathcost is C^1 in s wherever
    f is, so for each t its minimum over s lies at a stationary point
    inside a stretch where pathcost is one convex quadratic in s, at a
    domain end, or at a convex kink of f.  This emits exactly those:

    * per input piece and sign region of s - Y0 - C and s - t - C, the
      stationary solution s(t) of d pathcost / d s = 0 where the
      curvature is positive (linear in t);
    * fixed entries at X0 when lo_entry is set and at every inner
      breakpoint where f kinks convexly.  The entry at X1 costs
      f(X1) + S(X1 - Y0 - C) - S(X1 - t - C), the corner route: the
      caller builds it from the output edge's integral.

    Nothing else can win: a minimum cannot sit at a concave kink, and at
    the sign breaklines s = Y0 + C and s = t + C pathcost is C^1, so a
    minimum there is a stationary point of the region on its left.  With
    valley set (B applies), region s - Y0 - C >= 0 > s - t - C is left
    out: the valley ride beats those paths (see the module docstring).
    Each returned entry is (cost fragment over t, alpha, beta) with
    source coordinate s = alpha * t + beta.

    A path entering at X0 first runs along the other input edge, whose
    cost meets f there and is travel-closed (see the module docstring).
    So in the bottom frame the straight transport C1 from the left edge
    at level t costs no more, as fl(t) <= fb(x0) + the integral of h from
    (x0, y0) to (x0, t), and C1 wins the ties (PREF_LEFT); the bottom
    frame passes lo_entry=False.  The transposed frame (swap axes, negate
    C) yields the left-to-top family, which is required for exactness and
    symmetric to this one; it keeps X0 (lo_entry=True), whose entry there
    wins its ties against C1T under the larger-y convention.
    """
    tol = pw.TOLERANCE * (1.0 + abs(X0) + abs(X1) + abs(Y0) + abs(Y1))
    out: List[Tuple[PiecewiseQuadratic, float, float]] = []
    y0c = Y0 + C
    ride = (1.0, -1.0, X1 - C)  # the S(X1 - t - C) term of every family

    # Fixed entry coordinates: the domain ends and the convex kinks.
    raw = f.raw
    s_candidates = [raw[0][3]] if lo_entry else []
    for (la, lb, _, _, s), (ra, rb, _, _, _) in zip(raw, raw[1:]):
        dl, dr = 2.0 * la * s + lb, 2.0 * ra * s + rb
        if dr - dl > 1e-9 * (abs(dl) + abs(dr)):
            s_candidates.append(s)
    for s_hat in s_candidates:
        const = pw.evaluate(f, s_hat) + _s_halfsq(s_hat - Y0 - C)
        frag = _s_combination_raw([ride, (-2.0, -1.0, s_hat - C)], const, Y0, Y1)
        out.append((pw.from_raw(frag), 0.0, s_hat))

    for pa, pb, pc, p_lo, p_hi in raw:
        # Interior stationary solutions, split by the sign of s - Y0 - C
        # (entry side) and of s - t - C (turn side).
        s_splits = [p_lo, p_hi]
        if p_lo + tol < y0c < p_hi - tol:
            s_splits = [p_lo, y0c, p_hi]
        for sl, sh in zip(s_splits, s_splits[1:]):
            if sh - sl <= tol:
                continue
            sig_s = 1.0 if 0.5 * (sl + sh) - Y0 - C >= 0 else -1.0
            for sig_d in (1.0,) if valley and sig_s > 0 else (1.0, -1.0):
                kappa = 2.0 * pa + sig_s - 2.0 * sig_d
                if kappa <= pw.TOLERANCE:
                    continue  # not a minimum in s
                alpha = -2.0 * sig_d / kappa
                beta = (sig_s * y0c - 2.0 * sig_d * C - pb) / kappa
                # t range where s(t) stays in [sl, sh] and on the sig_d side:
                # keep t with g0 * t + g1 >= 0 for each constraint.
                t_lo, t_hi = Y0, Y1
                for g0, g1 in (
                    (alpha, beta - sl),  # s(t) >= sl
                    (-alpha, sh - beta),  # s(t) <= sh
                    (sig_d * (alpha - 1.0), sig_d * (beta - C)),  # sig_d * (s(t) - t - C) >= 0
                ):
                    if abs(g0) <= pw.TOLERANCE:
                        if g1 < -pw.TOLERANCE:
                            t_lo, t_hi = 1.0, 0.0
                            break
                        continue
                    bound = -g1 / g0
                    if g0 > 0:
                        t_lo = max(t_lo, bound)
                    else:
                        t_hi = min(t_hi, bound)
                if t_hi - t_lo <= tol:
                    continue
                qa, qb, qc = pw.compose_linear(pa, pb, pc, alpha, beta)
                ea, eb, ec = pw.compose_linear(
                    sig_s * 0.5, -sig_s * y0c, sig_s * y0c ** 2 / 2.0, alpha, beta
                )
                # -2 * sig_d * (s(t) - t - C)^2 / 2 with s(t) linear
                da, db, dc = pw.compose_linear(
                    -sig_d, 0.0, 0.0, alpha - 1.0, beta - C
                )
                base = _s_combination_raw([ride], 0.0, t_lo, t_hi)
                pieces = [
                    (a + qa + ea + da, b + qb + eb + db, c + qc + ec + dc, lo, hi)
                    for a, b, c, lo, hi in base
                ]
                out.append((pw.from_raw(pieces), alpha, beta))
    return out


def propagate_type_c(
    cell: Cell,
    bottom: BoundaryCost,
    left: BoundaryCost,
    ride_top: PiecewiseQuadratic,
    ride_right: PiecewiseQuadratic,
) -> Tuple[List[Fragment], List[Fragment]]:
    """(top, right) fragments of the straight transports (C1 families),
    corner routes and single-turn paths (C2 families) of a same-direction
    cell, with or without a valley; the rides are as for type A."""
    if not cell.same_direction:
        raise WrongCellType("type C applies to same-direction cells")
    x0, x1 = cell.x_range
    y0, y1 = cell.y_range
    c = cell.offset
    fb, fl = bottom.cost, left.cost
    # C1 transposed: bottom to top, vertical transport.
    c1t = _across(fb, 1.0, -(y0 + c), -(y1 + c), x0, x1)
    # C1: left to right, horizontal transport across the full cell width.
    c1 = _across(fl, -1.0, x1 - c, x0 - c, y0, y1)
    top = [(c1t, (PREF_BOTTOM, Prov("C1T", "bottom"))), _corner(fl, ride_top, "left", (x0, y1))]
    right = [(c1, (PREF_LEFT, Prov("C1", "left"))), _corner(fb, ride_right, "bottom", (x1, y0))]
    # C2: bottom to right, single turn; C2T: left to top, the same with the
    # axes swapped and the valley offset negated.
    valley = _valley_span(cell) is not None
    for frag, alpha, beta in _c2_catalogue(fb, x0, x1, y0, y1, c, False, valley):
        right.append((frag, (PREF_BOTTOM, Prov("C2", "bottom", (alpha, beta)))))
    for frag, alpha, beta in _c2_catalogue(fl, y0, y1, x0, x1, -c, True, valley):
        top.append((frag, (PREF_LEFT, Prov("C2T", "left", (alpha, beta)))))
    return top, right


# ---------------------------------------------------------------------------
# travel along an output edge, envelope merge, cell driver


def _nonincreasing(raw: Sequence[pw.Raw]) -> bool:
    """True when every piece has a derivative <= 0 at both ends and no
    piece starts above the lowest value before it by more than the slack
    cumulative_min allows (an envelope of partial fragments can jump
    upward at a breakpoint).  The cumulative minimum of such a function
    follows it everywhere."""
    low = math.inf
    for a, b, c, lo, hi in raw:
        if 2.0 * a * lo + b > 0.0 or 2.0 * a * hi + b > 0.0:
            return False
        if (a * lo + b) * lo + c > low + pw.TOLERANCE:
            return False
        end = (a * hi + b) * hi + c
        if end < low:
            low = end
    return True


def apply_edge_travel(
    env: PiecewiseQuadratic,
    tags: Sequence[Tuple[float, Prov]],
    q_edge: PiecewiseQuadratic,
) -> Tuple[PiecewiseQuadratic, List[Tuple[float, Prov]]]:
    """Allow paths to continue along the output edge after any exit.

    g(t) = min over s <= t of (env(s) + integral of h between s and t along
    the edge): subtract the running edge integral, take the tagged
    cumulative minimum, and add the integral back.  Ties prefer the direct
    fragment (no travel).
    """
    edge = q_edge.raw
    diff, dtags = pw.add_raw(env.raw, tags, edge, sign=-1.0)
    if _nonincreasing(diff):
        return env, list(tags)  # no travel wins: env is its own minimum
    dmin, args, mtags = pw.cumulative_min(pw.from_raw(diff), dtags)
    # A flat piece departs from the argmin s*: wrap its source's provenance.
    new_tags = [
        tag if arg is None else (tag[0], Prov("travel", "", (arg,), tag[1]))
        for arg, tag in zip(args, mtags)
    ]
    g, gtags = pw.normalize_raw(*pw.add_raw(dmin.raw, new_tags, edge))
    return pw.from_raw(g), gtags


def _pin_end(
    f: PiecewiseQuadratic, where: str, target: float
) -> PiecewiseQuadratic:
    """Nudge an end piece so the endpoint value matches target exactly.

    Suppresses sub-tolerance drift at cell corners; a genuine mismatch is
    an invariant violation.
    """
    cur = _end_value(f, where)
    delta = target - cur
    if delta == 0.0:
        return f
    if abs(delta) > 1e-6 * (1.0 + abs(target)):
        raise InvariantViolation(
            f"corner value mismatch: {cur} vs {target} at {where} end"
        )
    idx = 0 if where == "lo" else -1
    a, b, c, lo, hi = f.raw[idx]
    pieces = list(f.raw)
    pieces[idx] = (a, b, c + delta, lo, hi)
    return pw.from_raw(pieces)


def solve_cell(
    cell: Cell,
    bottom: BoundaryCost,
    left: BoundaryCost,
) -> Tuple[BoundaryCost, BoundaryCost, Optional[BRecord]]:
    """Output-edge boundary costs of one cell from its input-edge costs,
    and the valley record of a cell the B family rides (None elsewhere).

    The inputs must be travel-closed, as every base-case edge and every
    output of this function is.  The travel pass then runs only in
    same-direction cells: in an opposite-direction cell envelope minus
    edge integral never rises (see the module docstring), so it would
    give the envelope back.
    """
    x0, x1 = cell.x_range
    y0, y1 = cell.y_range
    b_rec: Optional[BRecord] = None
    ride_top = edge_height_running(cell, "top")
    ride_right = edge_height_running(cell, "right")

    if not cell.same_direction:
        frags_top, frags_right = propagate_type_a(cell, bottom, left, ride_top, ride_right)
    else:
        frags_top, frags_right = propagate_type_c(cell, bottom, left, ride_top, ride_right)
        if _valley_span(cell) is not None:
            b_top, b_right, b_rec = propagate_type_b(cell, bottom, left)
            frags_top += b_top
            frags_right += b_right

    fin_top, prov_top = pw.lower_envelope(frags_top, x0, x1)
    fin_right, prov_right = pw.lower_envelope(frags_right, y0, y1)
    if cell.same_direction:
        fin_top, prov_top = apply_edge_travel(fin_top, prov_top, ride_top)
        fin_right, prov_right = apply_edge_travel(fin_right, prov_right, ride_right)

    # Corner continuity: the output functions meet known values at three
    # corners; pin away sub-tolerance drift.  Every edge function spans
    # its edge, so its corner values are those of its end pieces.
    right_lo = min(_end_value(fin_right, "lo"), _end_value(bottom.cost, "hi"))
    top_lo = min(_end_value(fin_top, "lo"), _end_value(left.cost, "hi"))
    fin_right = _pin_end(fin_right, "lo", right_lo)
    fin_top = _pin_end(fin_top, "lo", top_lo)
    shared = min(_end_value(fin_top, "hi"), _end_value(fin_right, "hi"))
    fin_top = _pin_end(fin_top, "hi", shared)
    fin_right = _pin_end(fin_right, "hi", shared)

    top_bc = BoundaryCost(fin_top, tuple(prov_top))
    right_bc = BoundaryCost(fin_right, tuple(prov_right))
    return top_bc, right_bc, b_rec

"""Shared numeric oracles and generators for the test suite.

Everything here is deliberately independent of the production algorithms:
dense sampling, brute-force enumeration, and direct numerical integration.
Slower and cruder, but with failure modes unrelated to the code under test.
The exceptions are reference implementations that a rework must match
exactly (the lattice solver, one-piece envelope insertion, and _leg,
locate and PiecewiseQuadratic.value clamping with builtin max and min),
the small-instance lattice oracle on ticks not rounded to powers of two, the
invariant checks on piecewise functions that only tests run, a piece as a
Quadratic object for the oracles that read pieces by name, the sum,
shift and restriction of raw pieces that only tests use, the conversion
between a cost along a cell edge and the reduced cost the solver stores
for it, and the multi-precision twin, which runs the solver itself on
mpmath numbers.
"""

from __future__ import annotations

import math
import random
import types
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from cdtw import curves, engine, lattice, propagation
from cdtw import piecewise as pw
from cdtw.curves import Cell, Curve, build_curve, height, point_at
from cdtw.errors import InvariantViolation, OutOfDomain, ResolutionZero, TooLarge
from cdtw.piecewise import TOLERANCE, _compare_span
from cdtw.propagation import edge_height_running

# The start of apply_edge_travel on an edge with no corner route.
NO_CORNER = (math.inf, None)


# ---------------------------------------------------------------------------
# random instances


def random_values(
    rng: random.Random, n: int, lo: float = 0.0, hi: float = 2.0
) -> List[float]:
    """n values with distinct consecutive entries (valid curve input)."""
    vals = [rng.uniform(lo, hi)]
    while len(vals) < n:
        v = rng.uniform(lo, hi)
        if abs(v - vals[-1]) > 1e-3:
            vals.append(v)
    return vals


def random_curve(rng: random.Random, n: int, lo: float = 0.0, hi: float = 2.0) -> Curve:
    return build_curve(random_values(rng, n, lo, hi))


@dataclass(frozen=True)
class Quadratic:
    """a*s^2 + b*s + c restricted to the closed interval [lo, hi]: one raw
    piece as an object, for oracles that read a piece by name."""

    a: float
    b: float
    c: float
    lo: float
    hi: float

    def value(self, s: float) -> float:
        return (self.a * s + self.b) * s + self.c


def quadratics(f) -> List[Quadratic]:
    """The pieces of a PiecewiseQuadratic as Quadratic objects."""
    return [Quadratic(*p) for p in f.raw]


def breakpoints(f) -> List[float]:
    """Piece boundaries of a PiecewiseQuadratic, from its raw pieces."""
    return [p[3] for p in f.raw] + [f.raw[-1][4]]


def lifted(f, dc: float):
    """f + dc, piece by piece."""
    return pw.from_raw([(a, b, c + dc, lo, hi) for a, b, c, lo, hi in f.raw])


# ---------------------------------------------------------------------------
# sum, shift and restriction of raw pieces


def add_raw(f: Sequence[pw.Raw], g: Sequence[pw.Raw]) -> List[pw.Raw]:
    """f + g, cut at the union of both breakpoint sets.

    Cuts closer than the tolerance are merged; each span takes the pieces
    of f and g covering its midpoint, found by pointers that only move
    forward.  The sum is left unnormalised.
    """
    lo, hi = f[0][3], f[-1][4]
    glo, ghi = g[0][3], g[-1][4]
    tol = TOLERANCE * (1.0 + abs(lo) + abs(hi))
    if abs(glo - lo) > 1e3 * tol or abs(ghi - hi) > 1e3 * tol:
        raise InvariantViolation(
            f"domain mismatch in addition: [{lo},{hi}] vs [{glo},{ghi}]"
        )
    if len(f) == 1 and len(g) == 1 and glo <= lo < hi <= ghi:
        # One span, both pieces covering it: the loop below, unrolled.
        pf, pg = f[0], g[0]
        return [(pf[0] + pg[0], pf[1] + pg[1], pf[2] + pg[2], lo, hi)]
    g_tol = TOLERANCE * (1.0 + abs(glo) + abs(ghi))
    g_min, g_max = glo - g_tol, ghi + g_tol

    inner_lo, inner_hi = lo + tol, hi - tol
    cuts = [lo, hi]
    for p in f:
        if inner_lo < p[4] < inner_hi:
            cuts.append(p[4])
    for p in g:
        if inner_lo < p[4] < inner_hi:
            cuts.append(p[4])
    # Without inner cuts, as on any domain narrower than the tolerance,
    # the sum is one span, [lo, hi].
    if len(cuts) > 2:
        cuts = sorted(set(cuts))
        merged = [cuts[0]]
        for x in cuts[1:]:
            if x - merged[-1] > tol:
                merged.append(x)
        merged[-1] = hi
        cuts = merged

    last_f, last_g = len(f) - 1, len(g) - 1
    kf = kg = 0
    out: List[pw.Raw] = []
    a = cuts[0]
    for b in cuts[1:]:
        mid = 0.5 * (a + b)
        while kf < last_f and mid > f[kf][4]:
            kf += 1
        if mid < g_min or mid > g_max:
            raise OutOfDomain(f"{mid} outside [{glo}, {ghi}]")
        s = glo if glo > mid else mid
        s = ghi if ghi < s else s
        while kg < last_g and s > g[kg][4]:
            kg += 1
        pf, pg = f[kf], g[kg]
        out.append((pf[0] + pg[0], pf[1] + pg[1], pf[2] + pg[2], a, b))
        a = b
    return out


def shift_raw(f: Sequence[pw.Raw], beta: float) -> List[pw.Raw]:
    """g(t) = f(t + beta) on the domain moved by -beta, normalised."""
    out = [(*pw.compose_linear(a, b, c, 1.0, beta), lo - beta, hi - beta)
           for a, b, c, lo, hi in f]
    return list(pw.normalize([(*p, None) for p in out], out[0][3], out[-1][4])[0].raw)


def restrict_raw(raw: Sequence[pw.Raw], lo: float, hi: float) -> List[pw.Raw]:
    """Restriction of raw pieces to [lo, hi] (must lie inside their domain
    up to tolerance), normalised."""
    f_lo, f_hi = raw[0][3], raw[-1][4]
    span_tol = TOLERANCE * (1.0 + abs(f_lo) + abs(f_hi))
    if lo < f_lo - 1e3 * span_tol or hi > f_hi + 1e3 * span_tol:
        raise OutOfDomain(f"[{lo},{hi}] not inside [{f_lo},{f_hi}]")
    lo, hi = max(lo, f_lo), min(hi, f_hi)
    out = [(p[0], p[1], p[2], max(p[3], lo), min(p[4], hi)) for p in raw]
    out = [p for p in out if p[4] - p[3] > 0]
    if not out:
        # Degenerate (point) restriction: keep the covering piece.
        p = raw[pw.locate(raw, 0.5 * (lo + hi))]
        out = [(p[0], p[1], p[2], lo, hi)]
    return list(pw.normalize([(*p, None) for p in out], out[0][3], out[-1][4])[0].raw)


# ---------------------------------------------------------------------------
# costs along cell edges and their reduced form


def _plus_ride(cell: Cell, side: str, f, sign: float):
    ride = restrict_raw(edge_height_running(cell, side).raw, f.lo, f.hi)
    ride = [(sign * a, sign * b, sign * c, lo, hi) for a, b, c, lo, hi in ride]
    return pw.from_raw(add_raw(f.raw, ride))


def reduced(cell: Cell, side: str, f):
    """The reduced cost g = f - R the solver stores for the cost f along
    one side of a cell, R being the running integral of the height along
    that edge (over f's domain, which may be part of the edge)."""
    return _plus_ride(cell, side, f, -1.0)


def full(cell: Cell, side: str, g):
    """The cost f = g + R along one side of a cell, from a reduced cost g:
    a stored edge or a fragment of one."""
    return _plus_ride(cell, side, g, 1.0)


# ---------------------------------------------------------------------------
# checks on piecewise functions


def validate(f) -> None:
    """Check tiling, continuity, and the concave-kink rule of a
    PiecewiseQuadratic; InvariantViolation on the first breach.

    The kink rule requires the left derivative at every interior breakpoint
    to be at least the right derivative (minus tolerance): boundary cost
    functions never kink convexly.
    """
    tol = TOLERANCE
    pieces = quadratics(f)
    if not pieces:
        raise InvariantViolation("empty piecewise function")
    span = abs(f.hi - f.lo) + 1.0
    for k, p in enumerate(pieces):
        if not (math.isfinite(p.a) and math.isfinite(p.b) and math.isfinite(p.c)):
            raise InvariantViolation(f"non-finite coefficients in piece {k}")
        if p.hi < p.lo:
            raise InvariantViolation(f"inverted domain in piece {k}")
        if k == 0:
            continue
        prev = pieces[k - 1]
        if abs(p.lo - prev.hi) > tol * span:
            raise InvariantViolation(
                f"gap between pieces {k - 1} and {k}: {prev.hi} vs {p.lo}"
            )
        x = prev.hi
        vl, vr = prev.value(x), p.value(x)
        if abs(vl - vr) > 1e3 * tol * (1.0 + abs(vl) + abs(vr)):
            raise InvariantViolation(
                f"discontinuity at breakpoint {x}: {vl} vs {vr}"
            )
        dl, dr = 2.0 * prev.a * x + prev.b, 2.0 * p.a * x + p.b
        if dl < dr - 1e4 * tol * (1.0 + abs(dl) + abs(dr)):
            raise InvariantViolation(
                f"convex kink at breakpoint {x}: left deriv {dl} < right deriv {dr}"
            )


def minimum(f) -> Tuple[float, float]:
    """(min value, argmin) of a PiecewiseQuadratic over its whole domain."""
    best, arg = math.inf, f.lo
    for p in quadratics(f):
        for x in (p.lo, p.hi):
            v = p.value(x)
            if v < best:
                best, arg = v, x
        if p.a > 0.0:
            v = -p.b / (2.0 * p.a)
            if p.lo < v < p.hi and p.value(v) < best:
                best, arg = p.value(v), v
    return best, arg


def reference_env_insert(env: List[tuple], q: tuple) -> List[tuple]:
    """Envelope of the (a, b, c, lo, hi, tag) entries env and the one entry
    q, compared span by span with piecewise._compare_span: the insertion
    of one piece at a time that the envelope's one-pass merge must equal."""
    tol = TOLERANCE
    ql, qh = q[3], q[4]
    if qh - ql <= tol:
        return env
    if not env:
        return [q] if ql < qh - tol else []
    out: List[tuple] = []
    cur = ql
    right = -1  # index in out of the first entry lying wholly right of q
    for e in env:
        elo, ehi = e[3], e[4]
        if ehi <= ql:
            out.append(e)
            continue
        if elo >= qh:
            if right < 0:
                right = len(out)
            out.append(e)
            continue
        if elo > cur + tol:
            out.append((q[0], q[1], q[2], cur, elo, q[5]))
            cur = elo
        a = cur if cur > elo else elo
        b = qh if qh < ehi else ehi
        if elo < a - tol:
            out.append((e[0], e[1], e[2], elo, a, e[5]))
        if b > a:
            _compare_span(out, e, q, a, b)
            cur = b
        if ehi > b + tol:
            out.append((e[0], e[1], e[2], b, ehi, e[5]))
    if cur < qh - tol:
        tail = (q[0], q[1], q[2], cur, qh, q[5])
        if right < 0:
            out.append(tail)
        else:
            out.insert(right, tail)
    return out


def reference_leg(
    raw: Sequence[pw.Raw], beta: float, q: Sequence[float], lo: float, hi: float
) -> List[pw.Raw]:
    """propagation._leg as a comprehension clamping with builtin max and
    min: the tie order (and so the signed zeros) its plain loop must keep."""
    qa, qb, qc = q[0], q[1], q[2]
    return [(a + qa, 2.0 * a * beta + b + qb, (a * beta + b) * beta + c + qc,
             max(l - beta, lo), min(h - beta, hi))
            for a, b, c, l, h in raw if l - beta < hi and h - beta > lo]


def reference_locate(raw: Sequence[pw.Raw], s: float) -> int:
    """piecewise.locate with s clamped to the domain by builtin max and min."""
    lo, hi = raw[0][3], raw[-1][4]
    tol = TOLERANCE * (1.0 + abs(lo) + abs(hi))
    if s < lo - tol or s > hi + tol:
        raise OutOfDomain(f"{s} outside [{lo}, {hi}]")
    s = min(max(s, lo), hi)
    for k, p in enumerate(raw):
        if s <= p[4]:
            return k
    return len(raw) - 1


def reference_value(f, s: float) -> float:
    """PiecewiseQuadratic.value with the builtin clamp."""
    a, b, c, _, _ = f.raw[reference_locate(f.raw, s)]
    s = min(max(s, f.raw[0][3]), f.raw[-1][4])
    return (a * s + b) * s + c


# ---------------------------------------------------------------------------
# numeric integration of the height along paths


def integrate_height_on_leg(
    P: Curve,
    Q: Curve,
    a: Tuple[float, float],
    b: Tuple[float, float],
    samples: int = 512,
) -> float:
    """Integral of h along the straight leg a -> b, in L1 arc length.

    Uses midpoint sampling; exact enough at the default density for the
    1e-6-relative certificates because h is piecewise linear along any
    straight leg.
    """
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    length = abs(dx) + abs(dy)
    if length == 0.0:
        return 0.0
    total = 0.0
    for k in range(samples):
        t = (k + 0.5) / samples
        total += height(P, Q, a[0] + t * dx, a[1] + t * dy)
    return total * length / samples


def path_cost(
    P: Curve,
    Q: Curve,
    points: Sequence[Tuple[float, float]],
    samples_per_leg: int = 512,
) -> float:
    """Numerically integrate h along a polyline path in parameter space."""
    total = 0.0
    for a, b in zip(points, points[1:]):
        total += integrate_height_on_leg(P, Q, a, b, samples_per_leg)
    return total


def exact_path_cost(
    P: Curve, Q: Curve, points: Sequence[Tuple[float, float]]
) -> float:
    """Integral of h along a polyline path in parameter space, in closed
    form.

    Each leg is cut where it crosses a vertex line of P or of Q; between
    cuts both curves are linear along the leg, so P - Q is linear in the
    leg's arc length.  Each sub-leg is cut once more where P - Q is zero,
    so h is linear on every part and the trapezoid rule is exact there.
    """
    total = 0.0
    for (ax, ay), (bx, by) in zip(points, points[1:]):
        dx, dy = bx - ax, by - ay
        length = abs(dx) + abs(dy)
        if length == 0.0:
            continue
        cuts = {0.0, 1.0}
        for lo, hi, d, ends in ((ax, bx, dx, P.prefix_lengths), (ay, by, dy, Q.prefix_lengths)):
            cuts.update((u - lo) / d for u in ends if min(lo, hi) < u < max(lo, hi))
        cuts = sorted(cuts)
        d = [point_at(P, ax + t * dx) - point_at(Q, ay + t * dy) for t in cuts]
        for t0, t1, d0, d1 in zip(cuts, cuts[1:], d, d[1:]):
            w = (t1 - t0) * length
            if d0 * d1 < 0.0:  # h is zero at w * |d0| / (|d0| + |d1|) into the part
                total += w * (d0 * d0 + d1 * d1) / (2.0 * (abs(d0) + abs(d1)))
            else:
                total += w * (abs(d0) + abs(d1)) / 2.0
    return total


def random_staircase(
    rng: random.Random,
    start: Tuple[float, float],
    end: Tuple[float, float],
    steps: int = 12,
) -> List[Tuple[float, float]]:
    """Random monotone axis-parallel staircase from start to end."""
    xs = sorted(rng.uniform(start[0], end[0]) for _ in range(steps))
    ys = sorted(rng.uniform(start[1], end[1]) for _ in range(steps))
    pts = [start]
    for x, y in zip(xs, ys):
        # Alternate horizontal/vertical moves through the waypoint.
        pts.append((x, pts[-1][1]))
        pts.append((x, y))
    pts.append((end[0], pts[-1][1]))
    pts.append(end)
    return pts


# ---------------------------------------------------------------------------
# closed-form through-cost inside one cell (independent of the solver)


def cell_through_cost(
    cell_offset: float,
    same_direction: bool,
    a: Tuple[float, float],
    b: Tuple[float, float],
) -> float:
    """Optimal cost of any monotone path from a to b inside one cell.

    For same-direction cells (h = |x - y - c|) write u = x - y - c and
    z = x + y; along any monotone path z increases at unit L1 speed and u
    may change at rate at most 1, so the problem is: minimise the integral
    of |u| over z with |du/dz| <= 1.  The optimum dips towards u = 0 as
    fast as allowed, giving

        cost = (u_a^2 + u_b^2) / 2 - m^2,
        m = max(0, (|u_a| + |u_b| - dz) / 2).

    For opposite-direction cells (h = |x + y - c'|) the height along every
    monotone path is the same function of z, so the cost is the fixed
    integral of |z - c'| between the endpoints.
    """
    if b[0] < a[0] - 1e-12 or b[1] < a[1] - 1e-12:
        raise ValueError("b must dominate a componentwise")
    if same_direction:
        ua = a[0] - a[1] - cell_offset
        ub = b[0] - b[1] - cell_offset
        dz = (b[0] + b[1]) - (a[0] + a[1])
        m = max(0.0, (abs(ua) + abs(ub) - dz) / 2.0)
        return (ua * ua + ub * ub) / 2.0 - m * m

    def s_halfsq(u: float) -> float:
        return u * abs(u) / 2.0

    ua = a[0] + a[1] - cell_offset
    ub = b[0] + b[1] - cell_offset
    return s_halfsq(ub) - s_halfsq(ua)


# ---------------------------------------------------------------------------
# dense-sampling oracles for piecewise functions


def prefix_min(f: pw.PiecewiseQuadratic):
    """pw.cumulative_min with a None tag on every piece and no start value:
    the plain prefix minimum, its argmin annotations and the None tags."""
    return pw.cumulative_min(f, [None] * len(f.raw), NO_CORNER)


def numeric_cumulative_min(
    f: Callable[[float], float], lo: float, hi: float, t: float, n: int = 4000
) -> float:
    """min over s in [lo, t] of f(s) via dense sampling."""
    best = f(t)
    span = t - lo
    for k in range(n + 1):
        s = lo + span * k / n
        v = f(s)
        if v < best:
            best = v
    return best


def quad_min_on(a: float, b: float, c: float, lo: float, hi: float) -> float:
    """Exact minimum of a*s^2 + b*s + c on [lo, hi]."""
    cands = [lo, hi]
    if a > 0:
        v = -b / (2.0 * a)
        if lo < v < hi:
            cands.append(v)
    return min((a * s + b) * s + c for s in cands)


def pwq_prefix_min(pieces, t: float) -> float:
    """Exact min over s <= t of a piecewise quadratic given as objects with
    a, b, c, lo, hi attributes (closed-form per-piece minima, no sampling)."""
    best = math.inf
    for p in pieces:
        if p.lo > t:
            continue
        hi = min(p.hi, t)
        if hi < p.lo:
            continue
        best = min(best, quad_min_on(p.a, p.b, p.c, p.lo, hi))
    return best


# ---------------------------------------------------------------------------
# reference lattice solver for the grid oracle


def reference_seg_weight(a0: np.ndarray, a1: np.ndarray, length) -> np.ndarray:
    """Exact integral of |linear| along segments with endpoint signed
    heights a0, a1: the closed form evaluated on every entry, then the
    trapezoid or the two-triangle value picked by sign."""
    s = np.abs(a0) + np.abs(a1)
    same = a0 * a1 >= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        crossing = (a0 * a0 + a1 * a1) / (2.0 * s)
    crossing = np.where(s > 0, crossing, 0.0)
    return length * np.where(same, 0.5 * s, crossing)


def reference_lattice_value(P: Curve, Q: Curve, xs: np.ndarray, ys: np.ndarray) -> float:
    """Shortest monotone path value on the lattice xs x ys, one column at
    a time, with every edge weight from reference_seg_weight.  The grid
    oracles must equal it bit for bit."""
    pv = np.interp(xs, P.prefix_lengths, P.vertices)
    qv = np.interp(ys, Q.prefix_lengths, Q.vertices)
    dy = np.diff(ys)
    m = len(ys)

    h_left = pv[0] - qv
    w_up = reference_seg_weight(h_left[:-1], h_left[1:], dy)
    cum_up = np.concatenate(([0.0], np.cumsum(w_up)))
    cand = np.full(m, np.inf)
    cand[0] = 0.0
    dp = cum_up + np.minimum.accumulate(cand - cum_up)

    for a in range(len(xs) - 1):
        h_right = pv[a + 1] - qv
        dx = xs[a + 1] - xs[a]
        w_h = reference_seg_weight(h_left, h_right, dx)
        w_d = reference_seg_weight(h_left[:-1], h_right[1:], dx + dy)
        cand = dp + w_h
        cand[1:] = np.minimum(cand[1:], dp[:-1] + w_d)
        w_up = reference_seg_weight(h_right[:-1], h_right[1:], dy)
        cum_up = np.concatenate(([0.0], np.cumsum(w_up)))
        dp = cum_up + np.minimum.accumulate(cand - cum_up)
        h_left = h_right
    return float(dp[-1])


def axis_ticks(curve: Curve, res: float, pow2: bool) -> np.ndarray:
    """Lattice ticks of cdtw_grid (pow2) or of cdtw_bruteforce_small: the
    same per-segment uniform ticks and TooLarge rule, each segment's count
    rounded up to a power of two or to an integer."""
    if pow2:
        return lattice._axis_ticks(curve, res)
    ends = curve.prefix_lengths
    counts = []
    for i in range(1, curve.num_segments + 1):
        x = (ends[i] - ends[i - 1]) * res
        if not x <= lattice.MAX_TICKS:
            raise TooLarge(f"segment {i} asks for {x} lattice ticks")
        counts.append(max(1, math.ceil(x - 1e-12)))
    if sum(counts) >= lattice.MAX_TICKS:
        raise TooLarge(f"a lattice axis asks for {sum(counts) + 1} ticks")
    return np.concatenate(
        [np.zeros(1)]
        + [np.linspace(ends[i - 1], ends[i], k + 1)[1:] for i, k in enumerate(counts, 1)]
    )


def cdtw_bruteforce_small(P: Curve, Q: Curve, segments: int) -> float:
    """Fine-lattice oracle for tiny instances.

    Uses a uniform staircase lattice with the given subdivisions per unit
    of arc length; no power-of-two rounding, no shared configuration with
    cdtw_grid beyond the lattice solver itself.
    """
    if len(P.vertices) > 4 or len(Q.vertices) > 4:
        raise TooLarge("bruteforce oracle accepts at most 4 vertices per curve")
    if segments > 2048:
        raise TooLarge("bruteforce oracle accepts at most 2048 segments per unit")
    if not segments >= 1:
        raise ResolutionZero(f"segments must be >= 1, got {segments}")
    xs = axis_ticks(P, float(segments), False)
    ys = axis_ticks(Q, float(segments), False)
    return lattice._lattice_value(P, Q, xs, ys)


# ---------------------------------------------------------------------------
# brute-force alignment enumeration (DTW / discrete Frechet ground truth)


def enumerate_alignments(n: int, m: int) -> List[List[Tuple[int, int]]]:
    """All monotone alignments of [0..n-1] and [0..m-1] with step moves
    (1,0), (0,1), (1,1), starting at (0,0) and ending at (n-1, m-1)."""
    out: List[List[Tuple[int, int]]] = []

    def rec(i: int, j: int, acc: List[Tuple[int, int]]) -> None:
        if i == n - 1 and j == m - 1:
            out.append(list(acc))
            return
        if i + 1 < n:
            acc.append((i + 1, j))
            rec(i + 1, j, acc)
            acc.pop()
        if j + 1 < m:
            acc.append((i, j + 1))
            rec(i, j + 1, acc)
            acc.pop()
        if i + 1 < n and j + 1 < m:
            acc.append((i + 1, j + 1))
            rec(i + 1, j + 1, acc)
            acc.pop()

    rec(0, 0, [(0, 0)])
    return out


def brute_dtw(p: Sequence[float], q: Sequence[float]) -> float:
    best = math.inf
    for al in enumerate_alignments(len(p), len(q)):
        cost = sum(abs(p[i] - q[j]) for i, j in al)
        best = min(best, cost)
    return best


def brute_discrete_frechet(p: Sequence[float], q: Sequence[float]) -> float:
    best = math.inf
    for al in enumerate_alignments(len(p), len(q)):
        cost = max(abs(p[i] - q[j]) for i, j in al)
        best = min(best, cost)
    return best


# ---------------------------------------------------------------------------
# multi-precision twin


@contextmanager
def mp_twin(dps: int = 40, shrink: float = 1e-20) -> Iterator[None]:
    """Run the solver unchanged on mpmath numbers of dps digits: a
    reference free of float rounding.  Build its curves with mp_curve.

    Binds math in piecewise, propagation and engine to a shim with
    mpmath's sqrt, inf, isfinite, frexp and ldexp (engine's short-curve
    frame), and piecewise.from_raw, which makes every function the solver
    stores, to a wrapper that lifts each piece's coefficients a, b, c to
    mpf.  Leading coefficients grow from float literals alone (the base
    case's 0.0, a transport's 1.0), so without the lift they stay floats
    and round the single turn's source map alpha = -2 / (2a) to binary64.
    Sets mpmath.mp.dps, and scales TOLERANCE and every *_SLACK entry of
    the precision table by shrink, with the copies of ARC_SLACK and
    VALLEY_POINT_SLACK that curves imports (the frame's UNIT_FRAME_BELOW
    is a length, not a slack, and stays).  Everything is restored on exit,
    also after an exception.
    """
    import mpmath

    shim = types.SimpleNamespace(sqrt=mpmath.sqrt, inf=mpmath.inf, isfinite=mpmath.isfinite,
                                 frexp=mpmath.frexp, ldexp=mpmath.ldexp)
    mpf, from_raw = mpmath.mpf, pw.from_raw

    def from_raw_mpf(raw):
        return from_raw([(mpf(a), mpf(b), mpf(c), lo, hi) for a, b, c, lo, hi in raw])

    table = [name for name in vars(pw) if name == "TOLERANCE" or name.endswith("_SLACK")]
    new = {(module, "math"): shim for module in (pw, propagation, engine)}
    new[(pw, "from_raw")] = from_raw_mpf
    new.update({(pw, name): getattr(pw, name) * shrink for name in table})
    new.update({(curves, name): getattr(curves, name) * shrink
                for name in ("ARC_SLACK", "VALLEY_POINT_SLACK")})
    old = {key: getattr(*key) for key in new}
    old_dps = mpmath.mp.dps
    try:
        mpmath.mp.dps = dps
        for (module, name), value in new.items():
            setattr(module, name, value)
        yield
    finally:
        mpmath.mp.dps = old_dps
        for (module, name), value in old.items():
            setattr(module, name, value)


def mp_curve(values: Sequence[float]) -> Curve:
    """A Curve of mpf vertices with prefix lengths summed in mpf, for
    mp_twin (build_curve rounds to float).  Consecutive values must
    differ; call it inside mp_twin, whose precision the sums take."""
    import mpmath

    verts = [mpmath.mpf(v) for v in values]
    prefix = [mpmath.mpf(0)]
    for a, b in zip(verts, verts[1:]):
        prefix.append(prefix[-1] + abs(b - a))
    return Curve(tuple(verts), tuple(prefix))

"""Algebra of continuous piecewise-quadratic functions on an interval.

Boundary cost functions of the warping dynamic program are continuous
piecewise quadratics.  This module implements the operations the solver
needs: evaluation, substitution of the argument, the cumulative minimum
g(t) = min_{s <= t} f(s), the minimum with a constant, and the lower
envelope of a set of partially overlapping fragments.

Pieces are plain (a, b, c, lo, hi) tuples, "raw" pieces: a*s^2 + b*s + c
restricted to the closed interval [lo, hi].  The tagged operations
(cumulative_min, capped, lower_envelope) build their result as one list of
(a, b, c, lo, hi, tag) entries, sorted by lo, and hand it to normalize,
which makes it a function with one tag per piece.  lower_envelope takes
its fragments as raw pieces too, unnormalised, as the solver makes them.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import CoverageGap, OutOfDomain

# ---------------------------------------------------------------------------
# precision policy: every slack of the package, one entry per role
#
# Binary64 throughout: envelope breakpoints are irrational roots.  "Relative
# to x, y" means times (1 + |x| + |y|), written in that order at every site
# so that it rounds the same.  Constants, not knobs: moving one moves values.

# The algebra's rounding, a few ulps of order-1 values after a few steps.
# Absolute in slivers, degenerate coefficients, roots, end slopes (the
# travel rule) and the comparisons of cumulative_min, _env_merge and
# is_own_minimum's start; relative to the operands in locate,
# _s_combination_raw, _c2_catalogue, capped's clearance, _span_entry's tie,
# normalize's merge and solve_cell's far-corner check.
TOLERANCE = 1e-9
# A hole in an edge's coverage, relative to its ends: a thousand TOLERANCE.
COVERAGE_SLACK = 1e3 * TOLERANCE
# TOLERANCE per cell summed over a solve, relative to the curves' lengths:
# a negative distance, a path leg stepping back or riding the valley.
DRIFT_SLACK = 1e-6
# _polish_path merges points this close, relative to the curves' lengths.
PATH_MERGE_SLACK = 1e-9
# Arc-length rounding: point_at's clamp, relative to the length, and
# _axis_ticks' count just above a power of two, absolute.
ARC_SLACK = 1e-12
# cell_info gives a cell no valley to ride when the valley is no longer
# than this, relative to its ends (a ride within the algebra's slack; type C
# covers the point).
VALLEY_POINT_SLACK = 1e-9
# oracle-check: a grid value below the exact one by more, relative to it.
ORACLE_SLACK = 1e-9
# cdtw_exact scales curves whose longer length is below this by a power of
# two, exactly, so that it lies in [0.5, 1): the scale of the slacks above.
UNIT_FRAME_BELOW = 0.5

Raw = Tuple[float, float, float, float, float]


class PiecewiseQuadratic(NamedTuple):
    """Ordered abutting raw pieces tiling one closed interval.  Build one
    with ``from_raw``."""

    raw: Tuple[Raw, ...]

    @property
    def pieces(self) -> Tuple[Raw, ...]:
        # the raw pieces; bench/workloads.py reads only their number
        return self.raw

    @property
    def lo(self) -> float:
        return self.raw[0][3]

    @property
    def hi(self) -> float:
        return self.raw[-1][4]

    def value(self, s: float) -> float:
        """Value of the covering piece at s; OutOfDomain outside [lo, hi]."""
        raw = self.raw
        a, b, c, _, _ = raw[locate(raw, s)]
        lo, hi = raw[0][3], raw[-1][4]
        s = lo if lo > s else s  # max(s, lo), then min(s, hi), ties as theirs
        s = hi if hi < s else s
        return (a * s + b) * s + c


def from_raw(raw: Iterable[Raw]) -> PiecewiseQuadratic:
    """PiecewiseQuadratic over raw pieces taken as they are."""
    return tuple.__new__(PiecewiseQuadratic, (tuple(raw),))


def constant(value: float, lo: float, hi: float) -> PiecewiseQuadratic:
    return from_raw(((0.0, 0.0, value, lo, hi),))


# ---------------------------------------------------------------------------
# construction hygiene


def normalize(entries: List[tuple], lo: float, hi: float) -> Tuple[PiecewiseQuadratic, List[Any]]:
    """The function and the tags of entries tiling [lo, hi] in order.

    One pass: a hole past COVERAGE_SLACK before the first start, between a
    start and the furthest end before it, or after the last end raises
    CoverageGap.  The first entry starts at lo and the last ends at hi
    (rewritten in place if they differ, after their check); a sub-tolerance
    sliver is dropped, widening the next entry down to its start or the
    last kept piece up to hi; an entry snaps to the last kept piece and
    merges into it when tags are equal and coefficients within tolerance.
    """
    gap = COVERAGE_SLACK * (1.0 + abs(lo) + abs(hi))
    a, b, c, l, h, t = entries[0]
    if l != lo:
        if l > lo + gap:
            raise CoverageGap(f"gap [{lo}, {l}] in envelope coverage")
        entries[0] = (a, b, c, lo, h, t)
    a, b, c, l, h, t = entries[-1]
    if h != hi:
        if h < hi - gap:
            raise CoverageGap(f"gap [{h}, {hi}] in envelope coverage")
        entries[-1] = (a, b, c, l, hi, t)
    reach = lo
    tol = TOLERANCE
    out: List[Raw] = []
    out_tags: List[Any] = []
    pending: Optional[float] = None
    for a, b, c, lo, hi, t in entries:
        if lo > reach + gap:
            raise CoverageGap(f"gap [{reach}, {lo}] in envelope coverage")
        if hi > reach:
            reach = hi
        if pending is not None:
            lo = min(lo, pending)
        if hi - lo <= tol:
            pending = lo
            continue
        pending = None
        if out:
            pa, pb, pc, plo, phi = out[-1]
            if lo != phi:
                lo = phi
                hi = max(hi, phi)
            if out_tags[-1] == t and (  # about half the merges are exact
                pa == a and pb == b and pc == c
                or abs(pa - a) <= tol * (1.0 + abs(pa) + abs(a))
                and abs(pb - b) <= tol * (1.0 + abs(pb) + abs(b))
                and abs(pc - c) <= tol * (1.0 + abs(pc) + abs(c))
            ):
                out[-1] = (pa, pb, pc, plo, hi)
                continue
        out.append((a, b, c, lo, hi))
        out_tags.append(t)
    if pending is not None:
        if out:
            pa, pb, pc, plo, _ = out[-1]
            out[-1] = (pa, pb, pc, plo, entries[-1][4])
        else:
            out = [entries[-1][:5]]
            out_tags = [entries[-1][5]]
    return from_raw(out), out_tags


# ---------------------------------------------------------------------------
# evaluation


def locate(raw: Sequence[Raw], s: float) -> int:
    """Index of the piece covering s (breakpoints resolve to the left piece);
    OutOfDomain outside the domain."""
    lo, hi = raw[0][3], raw[-1][4]
    tol = TOLERANCE * (1.0 + abs(lo) + abs(hi))
    if s < lo - tol or s > hi + tol:
        raise OutOfDomain(f"{s} outside [{lo}, {hi}]")
    # unclamped: s below lo stops at the first piece, s above hi falls to the last
    for k, p in enumerate(raw):
        if s <= p[4]:
            return k
    return len(raw) - 1


# ---------------------------------------------------------------------------
# substitution


def compose_linear(
    qa: float, qb: float, qc: float, alpha: float, beta: float
) -> Tuple[float, float, float]:
    """Coefficients of q(alpha * t + beta) as a quadratic in t."""
    a = qa * alpha * alpha
    b = 2.0 * qa * alpha * beta + qb * alpha
    c = (qa * beta + qb) * beta + qc
    return a, b, c


# ---------------------------------------------------------------------------
# roots


def stable_roots(a: float, b: float, c: float) -> Tuple[float, ...]:
    """Real roots of a*x^2 + b*x + c with the numerically stable formula."""
    if abs(a) <= TOLERANCE:
        if abs(b) <= TOLERANCE:
            return ()
        return (-c / b,)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    sq = math.sqrt(disc)
    if b >= 0.0:
        qv = -0.5 * (b + sq)
    else:
        qv = -0.5 * (b - sq)
    if qv != 0.0:
        r0, r1 = qv / a, c / qv
    else:
        r0, r1 = 0.0, -b / a
    if r0 < r1:
        return (r0, r1)
    if r1 < r0:
        return (r1, r0)
    return (r0,)


def _root_of_piece(p: Raw, target: float, lo: float, hi: float) -> float:
    """Solve p(x) = target for x in [lo, hi], where p(lo) > target > p(hi)
    (cumulative_min's one call); falls back to bisection."""
    pa, pb, pc = p[0], p[1], p[2]
    for r in stable_roots(pa, pb, pc - target):
        if lo - TOLERANCE <= r <= hi + TOLERANCE:
            return min(max(r, lo), hi)
    a, b = lo, hi
    for _ in range(80):
        m = 0.5 * (a + b)
        fm = (pa * m + pb) * m + pc - target
        if fm == 0.0:
            return m
        if fm > 0.0:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# cumulative minimum


def _travel_rule(a: float, b: float, l: float, h: float) -> Tuple[bool, float]:
    """(follow, x): the prefix minimum of the piece a*s^2 + b*s + c on
    [l, h] follows it on [l, x] if follow, else is flat at its start value
    there, and does the other on [x, h]; x = h for no switch.  From the
    slopes at the ends, with TOLERANCE the slack: both at most it, the
    piece falls (near-constant ones keep their direct provenance); both at
    least minus it, it rises; else they differ in sign, so a != 0 and x is
    the vertex v of a convex piece or 2v - l, where a concave one is back
    at its start value (no switch if past h)."""
    slack = TOLERANCE
    d0 = 2.0 * a * l + b
    d1 = 2.0 * a * h + b
    if d0 <= slack and d1 <= slack:
        return True, h
    if d0 >= -slack and d1 >= -slack:
        return False, h
    v = -b / (2.0 * a)
    x = v if a > 0.0 else 2.0 * v - l
    return a > 0.0, x if x < h - TOLERANCE else h


def is_own_minimum(f: PiecewiseQuadratic, low: float) -> bool:
    """True when cumulative_min of f started at low follows every piece of
    f whole: _travel_rule follows each to its end, and none starts more
    than TOLERANCE above low or the lowest value before it (an envelope of
    partial fragments can jump upward at a breakpoint)."""
    for a, b, c, l, h in f.raw:
        if _travel_rule(a, b, l, h) != (True, h) or (a * l + b) * l + c > low + TOLERANCE:
            return False
        end = (a * h + b) * h + c
        if end < low:
            low = end
    return True


def cumulative_min(
    f: PiecewiseQuadratic, tags: Sequence[Any], start: Tuple[float, Any]
) -> Tuple[PiecewiseQuadratic, List[Optional[float]], List[Any]]:
    """g(t) = min(k, min over s <= t of f(s)) with start = (k, tag), and
    per-piece argmin annotations and tags.

    Annotation None means the output piece follows f itself (the minimum at
    t is attained at t) or is flat at k; a float s* means the piece is flat
    and the minimum was attained earlier, at s*.  Of the tags (one per
    piece of f), a follow piece carries the tag of the piece it follows, a
    flat piece at k the start's tag and one at s* the tag of the piece
    covering s* (a breakpoint resolves to the left piece, as in locate);
    pieces merge only where annotation and tag both agree.  k may be inf.
    """
    tol = TOLERANCE
    raw = f.raw
    out: List[tuple] = []  # entries tagged (annotation, tag)
    # The running minimum (k at first), where f attains it, and the key of
    # a flat piece at it (None until looked up).
    m, m_arg, m_key = start[0], None, (None, start[1])

    for k, p in enumerate(raw):
        a, b, c, l, h = p
        follow, x = _travel_rule(a, b, l, h)
        # Each stage [sl, sh] of the piece's own prefix minimum, follow or
        # flat, is flat at m on [sl, flat_hi], then follows f on
        # [follow_lo, sh]; either part may be absent (None).
        sl = l
        for sh in (x, h) if x < h else (h,):
            flat_hi = follow_lo = None
            if not follow:
                w = (a * sl + b) * sl + c
                if w < m:
                    m, m_arg, m_key = w, sl, None
                flat_hi = sh
            else:
                v_end = (a * sh + b) * sh + c
                if (a * sl + b) * sl + c <= m + tol:
                    follow_lo = sl
                elif v_end >= m - tol:
                    flat_hi = sh
                else:
                    flat_hi = follow_lo = _root_of_piece(p, m, sl, sh)
            if flat_hi is not None:
                if m_key is None:
                    m_key = (m_arg, tags[locate(raw, m_arg)])
                out.append((0.0, 0.0, m, sl, flat_hi, m_key))
            if follow_lo is not None:
                out.append((a, b, c, follow_lo, sh, (None, tags[k])))
                if v_end < m:
                    m, m_arg, m_key = v_end, sh, None
            follow, sl = not follow, sh

    # The stages tile f's domain, so the end rewrite changes nothing.  A
    # piece has at most two stages, a flat stage appends one entry and a
    # follow stage two, and a piece with two stages has one of each, so g
    # has at most 3 * len(raw) pieces by construction.
    g, keys = normalize(out, raw[0][3], raw[-1][4])
    return g, [key[0] for key in keys], [key[1] for key in keys]


# ---------------------------------------------------------------------------
# lower envelope: a list of entries tiling the part covered so far


def _span_entry(
    out: List[tuple], e: tuple, q: tuple, da: float, db: float, dc: float, s0: float, s1: float
) -> None:
    """Append the entry of e or q that is lower on [s0, s1], where their
    difference q - e = da*s^2 + db*s + dc has no root inside."""
    tol = TOLERANCE
    mid = 0.5 * (s0 + s1)
    dv = (da * mid + db) * mid + dc
    scale = 1.0 + abs((e[0] * mid + e[1]) * mid + e[2]) + abs((q[0] * mid + q[1]) * mid + q[2])
    if abs(dv) <= tol * scale:
        # A difference that only touches zero (its discriminant rounded
        # below zero, so no root split the span) ties at its vertex,
        # which can sit at the midpoint; the end farther from zero
        # decides, and only a tie there too goes to the preference.
        d0 = (da * s0 + db) * s0 + dc
        d1 = (da * s1 + db) * s1 + dc
        x, dv = (s0, d0) if abs(d0) > abs(d1) else (s1, d1)
        scale = 1.0 + abs((e[0] * x + e[1]) * x + e[2]) + abs((q[0] * x + q[1]) * x + q[2])
    if abs(dv) <= tol * scale:
        w = q if q[5][0] > e[5][0] else e
    else:
        w = q if dv < 0.0 else e
    out.append((w[0], w[1], w[2], s0, s1, w[5]))


def _compare_span(out: List[tuple], e: tuple, q: tuple, a: float, b: float) -> None:
    """Append the pointwise minimum of envelope entries e and q on [a, b]
    to out, as entries."""
    tol = TOLERANCE
    da, db, dc = q[0] - e[0], q[1] - e[1], q[2] - e[2]
    s0 = a
    if abs(da) > tol or abs(db) > tol:
        # Spans end at the difference's roots inside (a, b), which come
        # sorted and distinct.
        for s1 in stable_roots(da, db, dc):
            if a + tol < s1 < b - tol:
                _span_entry(out, e, q, da, db, dc, s0, s1)
                s0 = s1
    _span_entry(out, e, q, da, db, dc, s0, b)


def _env_merge(
    env: List[tuple], raw: Sequence[Raw], tag: tuple, lo: float, hi: float
) -> List[tuple]:
    """Envelope of env and one fragment's pieces clipped to [lo, hi].

    One walk over both: where a piece overlaps an entry the two are
    compared span by span, where it overlaps nothing it fills the gap,
    and an entry reaching past the piece's end is carried, cut there, to
    the next piece.  The pieces tile their domain in order, so nothing
    emitted for one piece reaches into the next, and the result is the
    same as inserting the pieces one at a time.  It stays sorted by lo.
    """
    tol = TOLERANCE
    out: List[tuple] = []
    todo = env[::-1]  # entries not yet passed, the next one last
    for p in raw:
        ql = lo if lo > p[3] else p[3]
        qh = hi if hi < p[4] else p[4]
        if qh - ql <= tol:
            continue
        q = (p[0], p[1], p[2], ql, qh, tag)
        cur = ql
        while todo:
            e = todo[-1]
            elo, ehi = e[3], e[4]
            if ehi <= ql:
                out.append(todo.pop())
                continue
            if elo >= qh:
                break
            todo.pop()
            if elo > cur + tol:
                out.append((q[0], q[1], q[2], cur, elo, tag))
                cur = elo
            a = cur if cur > elo else elo
            b = qh if qh < ehi else ehi
            if elo < a - tol:
                out.append((e[0], e[1], e[2], elo, a, e[5]))
            if b > a:
                _compare_span(out, e, q, a, b)
                cur = b
            if ehi > b + tol:
                todo.append((e[0], e[1], e[2], b, ehi, e[5]))
        if cur < qh - tol:
            out.append((q[0], q[1], q[2], cur, qh, tag))
    out.extend(reversed(todo))
    return out


def capped(
    f: PiecewiseQuadratic, shift: float, tag: tuple, cap: float, cap_tag: tuple
) -> Tuple[PiecewiseQuadratic, List[Tuple]]:
    """min(f + shift, cap) with one tag per output piece: tag where
    f + shift is lower, cap_tag where the cap is.  Ties go, and the result
    comes out, as in lower_envelope.

    f never rises, so the cap wins up to one cut and f + shift after it.
    A piece whose range clears the cap by more than the envelope's tie
    margin is taken whole; only one that meets the cap (the one holding
    the cut, or more where f rises) is compared span by span.
    """
    tol = TOLERANCE
    raw = f.raw
    f_lo, f_hi = raw[0][3], raw[-1][4]
    q = (0.0, 0.0, cap, f_lo, f_hi, cap_tag)
    env: List[tuple] = []
    for a, b, c, lo, hi in raw:
        c += shift
        low = (a * lo + b) * lo + c
        high = (a * hi + b) * hi + c
        if low > high:
            low, high = high, low
        if a != 0.0 and lo < -b / (2.0 * a) < hi:
            v = c - b * b / (4.0 * a)
            if v < low:  # min(low, v) and max(high, v), ties as theirs
                low = v
            elif v > high:
                high = v
        if low - cap > tol * (1.0 + abs(low) + abs(cap)):
            env.append((0.0, 0.0, cap, lo, hi, cap_tag))
        elif cap - high > tol * (1.0 + abs(high) + abs(cap)):
            env.append((a, b, c, lo, hi, tag))
        else:
            _compare_span(env, (a, b, c, lo, hi, tag), q, lo, hi)
    return normalize(env, f_lo, f_hi)


def lower_envelope(
    items: Sequence[Tuple[Sequence[Raw], Tuple]],
    lo: float,
    hi: float,
) -> Tuple[PiecewiseQuadratic, List[Tuple]]:
    """Pointwise minimum of (fragment, tag) items, fragments as raw pieces
    in order, with one tag per output piece: the tag of the fragment that
    piece comes from.

    A tag is a tuple led by a preference number; ties go to the larger
    one.  Fragments may cover only parts of [lo, hi]; jointly they must
    cover it (CoverageGap otherwise).
    """
    if not items:
        raise CoverageGap("no candidate fragments")
    env: List[tuple] = []
    for raw, tag in items:
        env = _env_merge(env, raw, tag, lo, hi)
    if not env:
        raise CoverageGap(f"no coverage of [{lo}, {hi}]")
    return normalize(env, lo, hi)

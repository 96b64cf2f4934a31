"""Algebra of continuous piecewise-quadratic functions on an interval.

Boundary cost functions of the warping dynamic program are continuous
piecewise quadratics.  This module implements the operations the solver
needs: evaluation, substitution of the argument, the cumulative minimum
g(t) = min_{s <= t} f(s), the minimum with a constant, and the lower
envelope of a set of partially overlapping fragments.  Operations that
take per-piece tags carry them through to the pieces of their result.

All arithmetic is binary64 with one fixed tolerance, TOLERANCE, used for
breakpoint merging, continuity checks, and quadratic-intersection roots.
Exact rational arithmetic is not an option here: envelope breakpoints are
roots of quadratics and irrational in general.

Pieces are plain (a, b, c, lo, hi) tuples, "raw" pieces: a*s^2 + b*s + c
restricted to the closed interval [lo, hi].
"""

from __future__ import annotations

import math
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from .errors import CoverageGap, InvariantViolation, OutOfDomain

TOLERANCE = 1e-9

# Bucket width for counting distinct leading-coefficient pairs; exact float
# equality would fragment counts meaninglessly.
AB_BUCKET = 1e-7

Raw = Tuple[float, float, float, float, float]


class PiecewiseQuadratic:
    """Ordered abutting raw pieces tiling one closed interval.  Build one
    with ``from_raw``; it is immutable, hashable and equal to another with
    the same pieces."""

    __slots__ = ("raw",)
    raw: Tuple[Raw, ...]

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.raw == other.raw

    def __hash__(self) -> int:
        return hash(self.raw)

    # copy and pickle rebuild through from_raw, as __setattr__ refuses
    def __reduce__(self) -> Tuple[Any, Tuple[Tuple[Raw, ...]]]:
        return from_raw, (self.raw,)

    def __repr__(self) -> str:
        return f"PiecewiseQuadratic(pieces={self.pieces!r})"

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

    def __len__(self) -> int:
        return len(self.raw)

    def value(self, s: float) -> float:
        return evaluate(self, s)


_set_raw = PiecewiseQuadratic.raw.__set__


def from_raw(raw: Iterable[Raw]) -> PiecewiseQuadratic:
    """PiecewiseQuadratic over raw pieces taken as they are."""
    f = object.__new__(PiecewiseQuadratic)
    _set_raw(f, tuple(raw))
    return f


def constant(value: float, lo: float, hi: float) -> PiecewiseQuadratic:
    return from_raw(((0.0, 0.0, value, lo, hi),))


# ---------------------------------------------------------------------------
# construction hygiene


def normalize_raw(pieces: Sequence[Raw], tags: Sequence[Any]) -> Tuple[List[Raw], List[Any]]:
    """Snap abutting domains, drop sub-tolerance slivers, merge equal pieces.

    One pass: drop each sliver (widening the next piece down to its start,
    or the last kept piece up to the end), snap the piece to the last kept
    one and merge it into that one.  Merging only happens between pieces
    with equal tags (one per piece), and the surviving tag list is returned.
    """
    n = len(pieces)
    if n < 2:
        return list(pieces), list(tags)
    tol = TOLERANCE
    out: List[Raw] = []
    out_tags: List[Any] = []
    pending: Optional[float] = None
    last_hi = 0.0  # the last kept piece's own upper end, before snapping
    last_snap: Optional[float] = None  # where that piece was snapped to
    for k in range(n):
        a, b, c, lo, hi = pieces[k]
        if pending is not None:
            lo = min(lo, pending)
        if hi - lo <= tol:
            pending = lo
            continue
        pending = None
        last_hi, last_snap = hi, None
        t = tags[k]
        if out:
            pa, pb, pc, plo, phi = out[-1]
            if lo != phi:
                last_snap = phi
                lo = phi
                hi = max(hi, phi)
            if (
                out_tags[-1] == t
                and abs(pa - a) <= tol * (1.0 + abs(pa) + abs(a))
                and abs(pb - b) <= tol * (1.0 + abs(pb) + abs(b))
                and abs(pc - c) <= tol * (1.0 + abs(pc) + abs(c))
            ):
                out[-1] = (pa, pb, pc, plo, hi)
                continue
        out.append((a, b, c, lo, hi))
        out_tags.append(t)
    if pending is not None:
        if out:
            hi = max(last_hi, max(p[4] for p in pieces))
            if last_snap is not None:
                hi = max(hi, last_snap)
            pa, pb, pc, plo, _ = out[-1]
            out[-1] = (pa, pb, pc, plo, hi)
        else:
            out = [pieces[-1]]
            out_tags = [tags[-1]]
    return out, out_tags


# ---------------------------------------------------------------------------
# evaluation


def evaluate(f: PiecewiseQuadratic, s: float) -> float:
    """Value of the covering piece at s; OutOfDomain outside [lo, hi]."""
    raw = f.raw
    a, b, c, _, _ = raw[locate(raw, s)]
    s = min(max(s, raw[0][3]), raw[-1][4])
    return (a * s + b) * s + c


def locate(raw: Sequence[Raw], s: float) -> int:
    """Index of the piece covering s (breakpoints resolve to the left piece);
    OutOfDomain outside the domain."""
    lo, hi = raw[0][3], raw[-1][4]
    tol = TOLERANCE * (1.0 + abs(lo) + abs(hi))
    if s < lo - tol or s > hi + tol:
        raise OutOfDomain(f"{s} outside [{lo}, {hi}]")
    s = min(max(s, lo), hi)
    for k, p in enumerate(raw):
        if s <= p[4]:
            return k
    return len(raw) - 1


def distinct_ab(raw: Sequence[Raw]) -> int:
    """Distinct (a, b) coefficient pairs among raw pieces, in AB_BUCKET buckets."""
    return len({(round(p[0] / AB_BUCKET), round(p[1] / AB_BUCKET)) for p in raw})


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
    """Solve p(x) = target for x in [lo, hi]; falls back to bisection."""
    pa, pb, pc = p[0], p[1], p[2]
    for r in stable_roots(pa, pb, pc - target):
        if lo - TOLERANCE <= r <= hi + TOLERANCE:
            return min(max(r, lo), hi)
    f_lo = (pa * lo + pb) * lo + pc - target
    f_hi = (pa * hi + pb) * hi + pc - target
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        # No sign change: report the endpoint closer to the target.
        return lo if abs(f_lo) <= abs(f_hi) else hi
    a, b = lo, hi
    for _ in range(80):
        m = 0.5 * (a + b)
        fm = (pa * m + pb) * m + pc - target
        if fm == 0.0:
            return m
        if (fm > 0.0) == (f_lo > 0.0):
            a = m
        else:
            b = m
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# cumulative minimum


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
    out: List[Raw] = []
    keys: List[Tuple[Optional[float], Any]] = []  # (annotation, tag) per piece
    # The running minimum (k at first), where f attains it, and the key of
    # a flat piece at it (None until looked up).
    m, m_arg, m_key = start[0], None, (None, start[1])

    for k, p in enumerate(raw):
        a, b, c, l, h = p
        # Split the piece into monotone stages of its own prefix minimum:
        # 'follow' stages where the prefix minimum is the piece itself
        # (nonincreasing stretches) and 'const' stages where it is flat,
        # each (kind, lo, hi, arg).
        if a > tol:
            v = -b / (2.0 * a)
            if v <= l + tol:
                stages = (("const", l, h, l),)
            elif v >= h - tol:
                stages = (("follow", l, h, 0.0),)
            else:
                stages = (("follow", l, v, 0.0), ("const", v, h, v))
        elif a < -tol:
            v = -b / (2.0 * a)
            if l >= v - tol:
                stages = (("follow", l, h, 0.0),)
            elif h <= v + tol:
                stages = (("const", l, h, l),)
            else:
                x2 = 2.0 * v - l  # where the concave arc returns to its start value
                if x2 >= h - tol:
                    stages = (("const", l, h, l),)
                else:
                    stages = (("const", l, x2, l), ("follow", x2, h, 0.0))
        elif b > tol:
            stages = (("const", l, h, l),)
        else:
            # Constant or decreasing linear pieces follow themselves;
            # constants count as 'follow' so no-op travel keeps direct
            # provenance on ties.
            stages = (("follow", l, h, 0.0),)

        # Each stage is flat at m on [sl, flat_hi], then follows f on
        # [follow_lo, sh]; either part may be absent (None).
        for kind, sl, sh, arg in stages:
            flat_hi = follow_lo = None
            if kind == "const":
                w = (a * arg + b) * arg + c
                if w < m:
                    m, m_arg, m_key = w, arg, None
                flat_hi = sh
            else:
                v_start = (a * sl + b) * sl + c
                v_end = (a * sh + b) * sh + c
                if v_start <= m + tol:
                    follow_lo = sl
                elif v_end >= m - tol:
                    flat_hi = sh
                else:
                    flat_hi = follow_lo = _root_of_piece(p, m, sl, sh)
            if flat_hi is not None and flat_hi >= sl:
                if m_key is None:
                    m_key = (m_arg, tags[locate(raw, m_arg)])
                out.append((0.0, 0.0, m, sl, flat_hi))
                keys.append(m_key)
            if follow_lo is not None:
                if sh >= follow_lo:
                    out.append((a, b, c, follow_lo, sh))
                    keys.append((None, tags[k]))
                if v_end < m:
                    m, m_arg, m_key = v_end, sh, None

    pieces, keys = normalize_raw(out, keys)
    if len(pieces) > len(raw) + 1:
        distinct = distinct_ab(raw)
        if len(pieces) > len(raw) + distinct + 1:
            raise InvariantViolation(
                f"cumulative minimum grew from {len(raw)} to {len(pieces)} pieces "
                f"with only {distinct} distinct coefficient pairs"
            )
    args = [key[0] for key in keys]
    return from_raw(pieces), args, [key[1] for key in keys]


# ---------------------------------------------------------------------------
# lower envelope
#
# The envelope under construction is a list of (a, b, c, lo, hi, tag)
# entries, sorted by lo and tiling the part of the interval covered so far.
# A tag is a tuple whose first item is its preference number.


def _span_entry(
    e: tuple, q: tuple, d: Tuple[float, float, float], s0: float, s1: float
) -> tuple:
    """The entry of e or q that is lower on [s0, s1], where their
    difference q - e = d = (da, db, dc) has no root inside."""
    tol = TOLERANCE
    da, db, dc = d[0], d[1], d[2]
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
    return (w[0], w[1], w[2], s0, s1, w[5])


def _compare_span(e: tuple, q: tuple, a: float, b: float) -> List[tuple]:
    """Pointwise minimum of envelope entries e and q on [a, b], as entries."""
    tol = TOLERANCE
    d = (q[0] - e[0], q[1] - e[1], q[2] - e[2])
    if abs(d[0]) > tol or abs(d[1]) > tol:
        # Spans end at the difference's roots inside (a, b), which come
        # sorted and distinct.
        out: List[tuple] = []
        s0 = a
        for s1 in stable_roots(*d):
            if a + tol < s1 < b - tol:
                out.append(_span_entry(e, q, d, s0, s1))
                s0 = s1
        if out:
            out.append(_span_entry(e, q, d, s0, b))
            return out
    return [_span_entry(e, q, d, a, b)]


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
    todo = env[::-1]  # entries not yet passed, the next one last
    out: List[tuple] = []
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
                out.extend(_compare_span(e, q, a, b))
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
    q = (0.0, 0.0, cap, f.lo, f.hi, cap_tag)
    env: List[tuple] = []
    for a, b, c, lo, hi in f.raw:
        c += shift
        low = (a * lo + b) * lo + c
        high = (a * hi + b) * hi + c
        if low > high:
            low, high = high, low
        if a != 0.0 and lo < -b / (2.0 * a) < hi:
            v = c - b * b / (4.0 * a)
            low, high = min(low, v), max(high, v)
        if low - cap > tol * (1.0 + abs(low) + abs(cap)):
            env.append((0.0, 0.0, cap, lo, hi, cap_tag))
        elif cap - high > tol * (1.0 + abs(high) + abs(cap)):
            env.append((a, b, c, lo, hi, tag))
        else:
            env += _compare_span((a, b, c, lo, hi, tag), q, lo, hi)
    pieces, tags = normalize_raw([e[:5] for e in env], [e[5] for e in env])
    return from_raw(pieces), tags


def lower_envelope(
    items: Sequence[Tuple[PiecewiseQuadratic, Tuple]],
    lo: float,
    hi: float,
) -> Tuple[PiecewiseQuadratic, List[Tuple]]:
    """Pointwise minimum of (fragment, tag) items, with one tag per
    output piece: the tag of the fragment that piece comes from.

    A tag is a tuple led by a preference number; ties go to the larger
    one.  Fragments may cover only parts of [lo, hi]; jointly they must
    cover it (CoverageGap otherwise).
    """
    if not items:
        raise CoverageGap("no candidate fragments")
    env: List[tuple] = []
    for f, tag in items:
        env = _env_merge(env, f.raw, tag, lo, hi)
    if not env:
        raise CoverageGap(f"no coverage of [{lo}, {hi}]")
    span_tol = 1e3 * TOLERANCE * (1.0 + abs(lo) + abs(hi))
    cur = lo
    for e in env:
        if e[3] > cur + span_tol:
            raise CoverageGap(f"gap [{cur}, {e[3]}] in envelope coverage")
        if e[4] > cur:
            cur = e[4]
    if cur < hi - span_tol:
        raise CoverageGap(f"gap [{cur}, {hi}] in envelope coverage")
    pieces = [e[:5] for e in env]
    tags = [e[5] for e in env]
    a0, b0, c0, _, h0 = pieces[0]
    pieces[0] = (a0, b0, c0, lo, h0)
    a0, b0, c0, l0, _ = pieces[-1]
    pieces[-1] = (a0, b0, c0, l0, hi)
    pieces, tags = normalize_raw(pieces, tags)
    return from_raw(pieces), tags

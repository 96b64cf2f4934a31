"""Per-cell propagation tests: base case, the three path families,
envelope merging, edge travel, and the closed-form through-cost oracle."""

import math
import random

import numpy as np
import pytest

from cdtw import build_curve, cell_info, point_at
from cdtw import piecewise as pw
from cdtw.curves import Cell
from cdtw.errors import InvariantViolation, OutOfDomain
from cdtw.propagation import (
    PREF_BOTTOM,
    PREF_LEFT,
    C2_HEAD,
    C2T_HEAD,
    BoundaryCost,
    Prov,
    _across,
    _c2_catalogue,
    _corner_routes,
    _edge_integrals,
    _leg,
    _pin_end,
    _s_combination_raw,
    apply_edge_travel,
    base_case,
    edge_height_running,
    propagate_type_a,
    propagate_type_b,
    propagate_type_c,
    solve_cell,
    valley_ride,
)

from helpers import (
    NO_CORNER,
    breakpoints,
    cell_through_cost,
    full,
    integrate_height_on_leg,
    lifted,
    minimum,
    path_cost,
    prefix_min,
    quadratics,
    random_curve,
    random_staircase,
    reduced,
    reference_leg,
    validate,
)

INF = float("inf")


def through_cost(cell: Cell, a, b) -> float:
    """Feasibility-guarded closed-form optimal cost between two cell
    boundary points; infinite when b is not reachable from a."""
    if b[0] < a[0] - 1e-12 or b[1] < a[1] - 1e-12:
        return INF
    a = (min(a[0], b[0]), min(a[1], b[1]))
    return cell_through_cost(cell.offset, cell.same_direction, a, b)


def type_a(cell: Cell, bottom: BoundaryCost, left: BoundaryCost):
    """propagate_type_a with the edge integrals and corner routes that
    solve_cell hands it."""
    h_bottom, v_left, _, _ = _edge_integrals(cell)
    corners = _corner_routes(bottom, left, h_bottom, v_left)
    return propagate_type_a(cell, bottom, left, h_bottom, v_left, *corners)


def type_c(cell: Cell, bottom: BoundaryCost, left: BoundaryCost):
    """propagate_type_c with the edge integrals that solve_cell hands it."""
    h_bottom, v_left, _, _ = _edge_integrals(cell)
    return propagate_type_c(cell, bottom, left, h_bottom, v_left)


def type_b(cell: Cell, bottom: BoundaryCost, left: BoundaryCost):
    """propagate_type_b as solve_cell calls it."""
    return propagate_type_b(cell, bottom, left)


def valley(cell: Cell, bottom: BoundaryCost, left: BoundaryCost) -> BoundaryCost:
    """The valley's cost and tags, as the path trace re-derives them."""
    return BoundaryCost(*valley_ride(cell, bottom, left))


def random_consistent_input(rng, cell: Cell, side: str) -> BoundaryCost:
    """Random boundary cost shaped like a propagated one: a lower envelope
    of smooth candidates (concave kinks only), made travel-consistent along
    its edge so moving along the edge never beats re-entering it, and
    stored as the solver stores it, in reduced form."""
    lo, hi = cell.x_range if side == "bottom" else cell.y_range
    items = []
    for _ in range(rng.randint(2, 4)):
        qa = rng.uniform(0.1, 1.5)
        s0 = rng.uniform(lo, hi)
        qb = -2 * qa * s0
        qc = rng.uniform(0, 1.5) + qa * s0 * s0
        items.append(([(qa, qb, qc, lo, hi)], (0,)))
    f, _ = pw.lower_envelope(items, lo, hi)
    g = reduced(cell, side, f)
    pref = PREF_BOTTOM if side == "bottom" else PREF_LEFT
    g, _ = apply_edge_travel(g, [Prov(pref, "base", side)] * len(g.raw), NO_CORNER)
    mn, _ = minimum(full(cell, side, g))
    g = lifted(g, 0.1 - min(mn, 0.0))
    tags = tuple(Prov(pref, "base", side) for _ in g.pieces)
    return BoundaryCost(g, tags)


def random_cell_inputs(rng, cell: Cell):
    bottom = random_consistent_input(rng, cell, "bottom")
    left = random_consistent_input(rng, cell, "left")
    # both edges meet at (x0, y0), where each edge's running integral is 0;
    # force agreement there
    d = bottom.cost.value(cell.x_range[0]) - left.cost.value(cell.y_range[0])
    lc = lifted(left.cost, d)
    return bottom, BoundaryCost(lc, left.prov)


def costs(cell: Cell, bottom: BoundaryCost, left: BoundaryCost):
    """The full costs along a cell's input edges."""
    return full(cell, "bottom", bottom.cost), full(cell, "left", left.cost)


def outputs(cell: Cell, top: BoundaryCost, right: BoundaryCost):
    """The full costs along a cell's output edges."""
    return full(cell, "top", top.cost), full(cell, "right", right.cost)


def base_costs(P, Q):
    """The full costs along the axis edges of the base case."""
    bottoms, lefts = base_case(P, Q)
    return (
        [full(cell_info(P, Q, i, 1), "bottom", bc.cost) for i, bc in enumerate(bottoms, 1)],
        [full(cell_info(P, Q, 1, j), "left", bc.cost) for j, bc in enumerate(lefts, 1)],
    )


def straight_transport(cell: Cell, bottom: BoundaryCost, left: BoundaryCost, side: str):
    """t -> the full cost of the straight transport to a same-direction
    cell's output edge, C1T on top and C1 on right: read from that
    fragment where it is built and from the valley ride's fragment on the
    span, where the ride stands for it (the smaller where both cover t)."""
    top, right = type_c(cell, bottom, left)
    frags = top if side == "top" else right
    if cell.valley is not None:
        b_top, b_right = type_b(cell, bottom, left)
        frags = frags + (b_top if side == "top" else b_right)
    kinds = ("C1T" if side == "top" else "C1", "B")
    pieces = [p for f, tag in frags if tag.kind in kinds for p in f]
    ride = edge_height_running(cell, side)

    def value(t: float) -> float:
        near = [p for p in pieces if p[3] - 1e-9 <= t <= p[4] + 1e-9]
        return min((a * t + b) * t + c for a, b, c, _, _ in near) + ride.value(t)

    return value


def random_cell(rng, want_same=None, nmax=4):
    while True:
        P = random_curve(rng, rng.randint(2, nmax))
        Q = random_curve(rng, rng.randint(2, nmax))
        i = rng.randint(1, P.num_segments)
        j = rng.randint(1, Q.num_segments)
        cell = cell_info(P, Q, i, j)
        if want_same is None or cell.same_direction == want_same:
            return P, Q, cell


def point_valley_cells(rng, count):
    """count same-direction cells whose valley line meets the cell only at
    a point (so cell_info gives them no valley), from curves with small
    integer values."""
    cells = []
    while len(cells) < count:
        P = build_curve([float(rng.randint(0, 4)) for _ in range(rng.randint(3, 5))])
        Q = build_curve([float(rng.randint(0, 4)) for _ in range(rng.randint(3, 5))])
        for i in range(1, P.num_segments + 1):
            for j in range(1, Q.num_segments + 1):
                cell = cell_info(P, Q, i, j)
                x0, x1 = cell.x_range
                y0, y1 = cell.y_range
                meets = max(x0, y0 + cell.offset) <= min(x1, y1 + cell.offset)
                if cell.same_direction and meets and cell.valley is None:
                    cells.append(cell)
    return cells[:count]


class TestBandIntegrals:
    def test_s_combination_matches_numeric(self):
        rng = random.Random(3)
        for _ in range(40):
            terms = [
                (rng.uniform(-2, 2), rng.choice([1.0, -1.0]), rng.uniform(-2, 2))
                for _ in range(rng.randint(1, 3))
            ]
            lo = rng.uniform(-1, 0)
            hi = lo + rng.uniform(0.5, 2)
            f = pw.from_raw(_s_combination_raw(terms, 0.3, lo, hi))

            def direct(t):
                v = 0.3
                for coef, sgn, p in terms:
                    u = sgn * t + p
                    v += coef * u * abs(u) / 2.0
                return v

            for t in np.linspace(lo, hi, 37):
                assert f.value(t) == pytest.approx(direct(t), abs=1e-10)

    def test_abs_band_is_transport_integral(self):
        # vertical full-height transport in a same-direction cell
        P = build_curve([0, 1])
        Q = build_curve([0.5, 1.5])
        cell = cell_info(P, Q, 1, 1)
        y0, y1 = cell.y_range
        c = cell.offset
        zero = pw.constant(0.0, *cell.x_range)
        _, v_left, _, _ = _edge_integrals(cell)
        # from a zero full cost on the bottom edge to the top edge
        g = reduced(cell, "bottom", zero)
        g = _across(g, 1.0, -(y0 + c), -(y1 + c), -v_left, *cell.x_range)
        band = full(cell, "top", pw.from_raw(g))
        for t in np.linspace(*cell.x_range, 17):
            want = integrate_height_on_leg(P, Q, (t, y0), (t, y1), samples=4096)
            assert band.value(t) == pytest.approx(want, abs=1e-6)

    def test_edge_height_running_examples(self):
        P = build_curve([0, 1])
        for qvals in ([0.5, 1.5], [1, 0]):
            Q = build_curve(qvals)
            cell = cell_info(P, Q, 1, 1)
            for side, fix, axis in (
                ("right", cell.x_range[1], "y"),
                ("top", cell.y_range[1], "x"),
            ):
                qr = edge_height_running(cell, side)
                lo = cell.y_range[0] if axis == "y" else cell.x_range[0]
                for t in np.linspace(qr.lo, qr.hi, 13):
                    a = (fix, lo) if axis == "y" else (lo, fix)
                    b = (fix, t) if axis == "y" else (t, fix)
                    want = integrate_height_on_leg(P, Q, a, b, samples=4096)
                    assert qr.value(t) == pytest.approx(want, abs=1e-6)


class TestEdgeHeightRunning:
    """R along every side of same- and opposite-direction cells, with h
    crossing zero inside some of the edges."""

    @staticmethod
    def each_edge():
        """(P, Q, cell, side) for every side of the cells below."""
        P = build_curve([0, 1])
        cells = [
            # h = |x - y - 0.5|: crosses zero on the bottom and right edges
            (P, build_curve([0.5, 1.5])),
            # h = |x + y - 0.6|: crosses zero on the bottom and left edges
            (P, build_curve([0.6, -0.4])),
        ]
        cells = [(P, Q, cell_info(P, Q, 1, 1)) for P, Q in cells]
        rng = random.Random(21)
        cells += [random_cell(rng, want_same=same) for same in (True, False) * 4]
        for P, Q, cell in cells:
            for side in ("bottom", "left", "top", "right"):
                yield P, Q, cell, side

    @staticmethod
    def ends(cell, side):
        """The edge's start and end points in the parameter plane."""
        (x0, x1), (y0, y1) = cell.x_range, cell.y_range
        if side in ("bottom", "top"):
            y = y1 if side == "top" else y0
            return (x0, y), (x1, y)
        x = x1 if side == "right" else x0
        return (x, y0), (x, y1)

    def test_starts_at_zero_and_never_falls(self):
        for _, _, cell, side in self.each_edge():
            r = edge_height_running(cell, side)
            assert r.value(r.lo) == pytest.approx(0.0, abs=1e-12)
            prev = 0.0
            for t in np.linspace(r.lo, r.hi, 21):
                assert r.value(t) >= prev - 1e-12
                prev = r.value(t)

    def test_matches_numeric_integral(self):
        for P, Q, cell, side in self.each_edge():
            r = edge_height_running(cell, side)
            start, _ = self.ends(cell, side)
            for t in np.linspace(r.lo, r.hi, 7):
                b = (t, start[1]) if side in ("bottom", "top") else (start[0], t)
                want = integrate_height_on_leg(P, Q, start, b, samples=4000)
                assert r.value(t) == pytest.approx(want, abs=1e-6)

    def test_one_breakpoint_where_h_crosses_zero(self):
        crossings = 0
        for P, Q, cell, side in self.each_edge():
            r = edge_height_running(cell, side)
            start, end = self.ends(cell, side)
            # P(x) - Q(y) is linear along the edge: it crosses zero inside
            # the edge where its end values have strictly opposite signs.
            d0 = point_at(P, start[0]) - point_at(Q, start[1])
            d1 = point_at(P, end[0]) - point_at(Q, end[1])
            inner = breakpoints(r)[1:-1]
            if d0 * d1 < 0:
                crossings += 1
                assert len(inner) == 1
                zero = r.lo + (r.hi - r.lo) * d0 / (d0 - d1)
                assert inner[0] == pytest.approx(zero, abs=1e-12)
            else:
                assert inner == []
        assert crossings >= 4

    def test_end_matches_edge_integrals(self):
        for _, _, cell, side in self.each_edge():
            r = edge_height_running(cell, side)
            want = _edge_integrals(cell)[("bottom", "left", "top", "right").index(side)]
            assert r.value(r.hi) == pytest.approx(want, abs=1e-12)

    def test_unknown_side_names_it(self):
        _, _, cell, _ = next(self.each_edge())
        with pytest.raises(OutOfDomain, match="'middle'"):
            edge_height_running(cell, "middle")


class TestBaseCase:
    def test_running_integral_simple(self):
        # h(z, 0) = z when Q starts at the same value
        P = build_curve([0, 2])
        Q = build_curve([0, 1])
        bottoms, lefts = base_costs(P, Q)
        f = bottoms[0]
        assert f.value(2.0) == pytest.approx(2.0, abs=1e-12)
        assert f.value(1.0) == pytest.approx(0.5, abs=1e-12)
        assert f.value(0.0) == 0.0

    def test_two_piece_absolute_integral(self):
        # h(z, 0) = |z - 1| when Q starts at 1
        P = build_curve([0, 2])
        Q = build_curve([1, 2])
        bottoms, _ = base_costs(P, Q)
        f = bottoms[0]
        assert f.value(2.0) == pytest.approx(1.0, abs=1e-12)
        assert len(f.pieces) == 2
        assert f.raw[0][4] == pytest.approx(1.0, abs=1e-12)

    def test_origin_zero_and_monotone(self):
        rng = random.Random(5)
        for _ in range(20):
            P = random_curve(rng, rng.randint(2, 5))
            Q = random_curve(rng, rng.randint(2, 5))
            bottoms, lefts = base_costs(P, Q)
            assert bottoms[0].value(0.0) == pytest.approx(0.0, abs=1e-12)
            assert lefts[0].value(0.0) == pytest.approx(0.0, abs=1e-12)
            prev = 0.0
            for f in bottoms:
                for s in np.linspace(f.lo, f.hi, 9):
                    v = f.value(s)
                    assert v >= prev - 1e-9
                    prev = v

    def test_piece_budget(self):
        rng = random.Random(6)
        for _ in range(20):
            P = random_curve(rng, rng.randint(2, 6))
            Q = random_curve(rng, rng.randint(2, 6))
            bottoms, lefts = base_case(P, Q)
            for bc in bottoms + lefts:
                assert len(bc.cost.pieces) <= 2

    def test_matches_numeric_integral(self):
        rng = random.Random(7)
        P = random_curve(rng, 4)
        Q = random_curve(rng, 3)
        bottoms, lefts = base_costs(P, Q)
        for f in bottoms:
            for s in np.linspace(f.lo, f.hi, 7):
                want = integrate_height_on_leg(P, Q, (0, 0), (s, 0), samples=8192)
                assert f.value(s) == pytest.approx(want, abs=1e-6)
        for f in lefts:
            for s in np.linspace(f.lo, f.hi, 7):
                want = integrate_height_on_leg(P, Q, (0, 0), (0, s), samples=8192)
                assert f.value(s) == pytest.approx(want, abs=1e-6)


class TestTypeA:
    def test_opposite_pair_corner_value(self):
        P = build_curve([0, 1])
        Q = build_curve([1, 0])
        bottoms, lefts = base_case(P, Q)
        cell = cell_info(P, Q, 1, 1)
        top, right = outputs(cell, *solve_cell(cell, bottoms[0], lefts[0]))
        assert right.value(1.0) == pytest.approx(1.0, abs=1e-9)
        assert top.value(1.0) == pytest.approx(1.0, abs=1e-9)

    def test_constant_input_vertical_transport(self):
        # constant-zero bottom input and a left input too dear to use: the
        # top output is the vertical transport alone
        P = build_curve([0, 1])
        Q = build_curve([1, 0])
        cell = cell_info(P, Q, 1, 1)
        zero = reduced(cell, "bottom", pw.constant(0.0, *cell.x_range))
        bc = BoundaryCost(zero, (Prov(PREF_BOTTOM, "base", "bottom"),) * len(zero.raw))
        dear = reduced(cell, "left", pw.constant(100.0, *cell.y_range))
        left = BoundaryCost(dear, (Prov(PREF_LEFT, "base", "left"),) * len(dear.raw))
        (top, tags), _right = type_a(cell, bc, left)
        assert {tag.kind for tag in tags} == {"Av"}
        top = full(cell, "top", top)
        for t in np.linspace(*cell.x_range, 15):
            want = integrate_height_on_leg(P, Q, (t, 0), (t, 1), samples=4096)
            assert top.value(t) == pytest.approx(want, abs=1e-6)

    def test_staircase_paths_equal_cost(self):
        # any two monotone paths between the same boundary points agree
        rng = random.Random(31)
        for _ in range(8):
            P, Q, cell = random_cell(rng, want_same=False)
            x0, x1 = cell.x_range
            y0, y1 = cell.y_range
            a = (rng.uniform(x0, x1), y0)
            b = (x1, rng.uniform(y0, y1))
            if b[0] < a[0]:
                continue
            ref = None
            for _ in range(25):
                stair = random_staircase(rng, a, b, steps=rng.randint(2, 8))
                cost = path_cost(P, Q, stair, samples_per_leg=512)
                if ref is None:
                    ref = cost
                assert cost == pytest.approx(ref, abs=5e-6 * (1 + abs(ref)))

    def test_sliver_input_piece_is_dropped(self):
        rng = random.Random(33)
        _, _, cell = random_cell(rng, want_same=False)
        x0, x1 = cell.x_range
        eps = 1e-13
        pieces = [(0.0, 0.0, 1.0, x0, x0 + eps), (0.0, 0.0, 1.0, x0 + eps, x1)]
        f, _ = pw.normalize([(*p, None) for p in pieces], x0, x1)
        assert len(f.raw) == 1  # hygiene collapses the sliver before propagation

    def test_one_cut_matches_the_envelope(self):
        # capped takes pieces that clear the cap whole and compares only
        # the rest; it must equal the lower envelope of f + shift and the
        # cap, tags included, with either side winning ties, on inputs
        # that never rise, meet the cap on a span, or rise slightly.
        def check(f, shift, cap):
            lo, hi = f.lo, f.hi
            lifted_f = lifted(f, shift)
            for tag, cap_tag in (((PREF_BOTTOM, "f"), (PREF_LEFT, "k")),
                                 ((PREF_LEFT, "f"), (PREF_BOTTOM, "k"))):
                got, got_tags = pw.capped(f, shift, tag, cap, cap_tag)
                want, want_tags = pw.lower_envelope(
                    [(lifted_f.raw, tag), (pw.constant(cap, lo, hi).raw, cap_tag)], lo, hi)
                assert got_tags == want_tags
                assert len(got.raw) == len(want.raw)
                for p, q in zip(got.raw, want.raw):
                    for x, y in zip(p, q):
                        assert abs(x - y) <= 1e-12 * (1.0 + abs(y))

        rng = random.Random(61)
        for _ in range(60):
            lo = rng.uniform(-2.0, 2.0)
            hi = lo + rng.uniform(0.1, 3.0)
            items = []
            for _ in range(rng.randint(1, 4)):
                qa = rng.uniform(-1.0, 1.5)
                s0 = rng.uniform(lo, hi)
                qc = rng.uniform(0.0, 1.5) + qa * s0 * s0
                items.append(([(qa, -2.0 * qa * s0, qc, lo, hi)], (0,)))
            f, _, _ = prefix_min(pw.lower_envelope(items, lo, hi)[0])
            top, bottom = f.value(lo), f.value(hi)
            shift = rng.uniform(-1.0, 1.0)
            for cap in (top + 1.0, bottom - 1.0, rng.uniform(bottom, top)):
                check(f, shift, cap + shift)
            # equal to the cap on each flat piece
            for a, b, c, _, _ in f.raw:
                if a == 0.0 and b == 0.0:
                    check(f, shift, c + shift)
        # a flat span equal to the cap, with exact values
        flat = pw.from_raw([(0.0, -1.0, 2.0, 0.0, 1.0), (0.0, 0.0, 1.0, 1.0, 2.0),
                            (0.0, -1.0, 3.0, 2.0, 3.0)])
        check(flat, 0.25, 1.25)
        # rising by 5e-10 in the middle, the cap meeting the rise or not
        rise = pw.from_raw([(0.0, -0.5, 1.0, 0.0, 1.0), (0.0, 1e-9, 0.5 - 1e-9, 1.0, 1.5),
                            (0.0, -0.5, 1.25 + 5e-10, 1.5, 2.5)])
        for cap in (0.5, 0.5 + 2e-10, 0.5 + 5e-10, 0.5 + 3e-9, 0.4, 0.75):
            check(rise, 0.0, cap)
            check(rise, 1.0, cap + 1.0)
        # a piece narrower than the tolerance, which normalisation drops
        sliver = pw.from_raw([(0.0, -1.0, 1.0, 0.0, 0.5), (0.0, -2.0, 1.5, 0.5, 0.5 + 5e-10),
                              (0.0, -1.0, 1.0 - 5e-10, 0.5 + 5e-10, 1.0)])
        for cap in (0.25, 0.5, 0.75):
            check(sliver, 0.0, cap)
        # any input: a piece bulging 0.025 above or below its ends
        for a in (-0.4, 0.4):
            bump = pw.from_raw([(0.0, -0.5, 1.0, 0.0, 1.0),
                                (a, -2.5 * a, 0.5 + 1.5 * a, 1.0, 1.5)])
            for cap in (0.45, 0.49, 0.5, 0.51, 0.55):
                check(bump, 0.0, cap)

    def test_travel_returns_the_envelope(self):
        # With travel-closed inputs, the reduced cost never rises on an
        # output edge of an opposite-direction cell, so edge travel gives
        # the output back and solve_cell skips it.
        rng = random.Random(47)
        for _ in range(40):
            _, _, cell = random_cell(rng, want_same=False)
            bottom, left = random_cell_inputs(rng, cell)
            for env, tags in type_a(cell, bottom, left):
                out, out_tags = apply_edge_travel(env, tags, NO_CORNER)
                xs = {x for f in (env, out) for p in f.raw for x in (p[3], 0.5 * (p[3] + p[4]), p[4])}
                scale = 1.0 + max(abs(env.value(x)) for x in xs)
                for x in xs:
                    assert abs(out.value(x) - env.value(x)) <= 1e-9 * scale
                assert all(tag.kind != "travel" for tag in out_tags)


class TestTypeB:
    def test_shifted_pair_through_cost(self):
        P = build_curve([0, 1])
        Q = build_curve([0.5, 1.5])
        bottoms, lefts = base_case(P, Q)
        cell = cell_info(P, Q, 1, 1)
        top, right = solve_cell(cell, bottoms[0], lefts[0])
        f_top, f_right = outputs(cell, top, right)
        assert f_right.value(1.0) == pytest.approx(0.25, abs=1e-9)
        assert f_top.value(1.0) == pytest.approx(0.25, abs=1e-9)
        # the pre-travel B fragment reaches (1, 0.5) at cost 0.125
        assert f_right.value(0.5) == pytest.approx(0.125, abs=1e-9)
        # winner at the corner rides the edge after a valley exit
        k = pw.locate(right.cost.raw, 1.0)
        prov = right.prov[k]
        assert prov.kind == "travel" and prov.inner.kind == "B"

    def test_zero_at_valley_endpoint_gives_pure_transport(self):
        P = build_curve([0, 1])
        Q = build_curve([0.5, 1.5])
        cell = cell_info(P, Q, 1, 1)
        (vx0, vy0), (vx1, vy1) = cell.valley
        zero_b = reduced(cell, "bottom", pw.constant(0.0, *cell.x_range))
        zero_l = reduced(cell, "left", pw.constant(0.0, *cell.y_range))
        bottom = BoundaryCost(zero_b, (Prov(PREF_BOTTOM, "base", "bottom"),) * len(zero_b.raw))
        left = BoundaryCost(zero_l, (Prov(PREF_LEFT, "base", "left"),) * len(zero_l.raw))
        top, _right = type_b(cell, bottom, left)
        (b3_top, _), = top
        b3_top = full(cell, "top", pw.from_raw(b3_top))
        # exit at top coordinate t costs only the climb from the valley
        c = cell.offset
        y1 = cell.y_range[1]
        for t in np.linspace(vx0, vx1, 9):
            assert b3_top.value(t) == pytest.approx((y1 - t + c) ** 2 / 2.0, abs=1e-9)

    def test_cumulative_min_against_dense_sampling(self):
        rng = random.Random(13)
        done = 0
        while done < 10:
            P, Q, cell = random_cell(rng, want_same=True)
            if cell.valley is None:
                continue
            (vx0, _), (vx1, _) = cell.valley
            if vx1 - vx0 < 1e-3:
                continue
            bottom, left = random_cell_inputs(rng, cell)
            rec = valley(cell, bottom, left)
            done += 1
            # The valley's cost before the ride: enter from the bottom at
            # (v, y0) and climb, or from the left at (x0, v - c) and walk
            # right, to the valley point (v, v - c).
            fb, fl = costs(cell, bottom, left)
            x0, y0, c = cell.x_range[0], cell.y_range[0], cell.offset
            vs = np.linspace(vx0, vx1, 800)
            sampled = [min(fb.value(v) + (v - y0 - c) ** 2 / 2, fl.value(v - c) + (v - x0) ** 2 / 2)
                       for v in vs]
            running = np.minimum.accumulate(sampled)
            for k, v in enumerate(vs):
                assert rec.cost.value(v) <= running[k] + 1e-9
                assert rec.cost.value(v) >= running[k] - 1e-3  # sampling slack

    def test_b_covers_valley_grazing_paths(self):
        # The single-turn path that turns on the valley line enters it and
        # leaves at once, a B path; the C2 catalogue emits no such fragment,
        # so B must cost no more than it (in both frames).
        rng = random.Random(23)
        done = 0
        while done < 10:
            P, Q, cell = random_cell(rng, want_same=True)
            if cell.valley is None:
                continue
            (vx0, _), (vx1, _) = cell.valley
            if vx1 - vx0 < 1e-3:
                continue
            done += 1
            bottom, left = random_cell_inputs(rng, cell)
            top, right = type_b(cell, bottom, left)
            (b_top, _), = top
            (b_right, _), = right
            b_top = full(cell, "top", pw.from_raw(b_top))
            b_right = full(cell, "right", pw.from_raw(b_right))
            fb, fl = costs(cell, bottom, left)
            x0, x1 = cell.x_range
            y0, y1 = cell.y_range
            c = cell.offset
            for v in np.linspace(vx0, vx1, 50):
                t = v - c  # right edge: turn at (v, t) after climbing from (v, y0)
                graze = fb.value(v) + (t - y0) ** 2 / 2 + (x1 - v) ** 2 / 2
                assert b_right.value(t) <= graze + 1e-9
                # top edge: turn at (v, v - c) after walking from (x0, v - c)
                graze = fl.value(v - c) + (v - x0) ** 2 / 2 + (y1 + c - v) ** 2 / 2
                assert b_top.value(v) <= graze + 1e-9


class TestTypeC:
    def test_catalogue_range_ties_keep_the_range_end(self):
        # On f = s^2 - 2s over [0, 1] the turn s(t) = t + 1 stays inside
        # the piece from t = -(1 - 1) / 1 = -0.0 on: a tie with Y0 = 0.0,
        # which keeps Y0, as max(0.0, -0.0) does.
        f = pw.from_raw([(1.0, -2.0, 0.0, 0.0, 1.0)])
        ((piece,), tag), = _c2_catalogue(f, 0.0, 1.0, 0.0, 1.0, 0.0, C2_HEAD)
        alpha, beta = tag.data
        assert (alpha, beta, piece[3:]) == (-1.0, 1.0, (0.0, 0.5))
        assert math.copysign(1.0, piece[3]) > 0

    def test_c1_constant_shift(self):
        # A cell without a valley, where C1 spans the whole right edge.
        rng = random.Random(17)
        cell = None
        while cell is None or cell.valley is not None:
            _, _, cell = random_cell(rng, want_same=True)
        k = 0.7
        y0, y1 = cell.y_range
        const_l = reduced(cell, "left", pw.constant(k, y0, y1))
        const_b = reduced(cell, "bottom", pw.constant(0.0, *cell.x_range))
        bottom = BoundaryCost(const_b, (Prov(PREF_BOTTOM, "base", "bottom"),) * len(const_b.raw))
        left = BoundaryCost(const_l, (Prov(PREF_LEFT, "base", "left"),) * len(const_l.raw))
        _top, right = type_c(cell, bottom, left)
        c1 = next(
            (f, t) for f, t in right if t.kind == "C1"
        )[0]
        c1 = full(cell, "right", pw.from_raw(c1))
        x0, x1 = cell.x_range
        c = cell.offset
        for tau in np.linspace(y0, y1, 11):
            # the integral of |x - tau - c| over [x0, x1], by S(u) = u|u|/2
            u0, u1 = x0 - tau - c, x1 - tau - c
            want = k + (u1 * abs(u1) - u0 * abs(u0)) / 2.0
            assert c1.value(tau) == pytest.approx(want, abs=1e-9)
        assert len(c1.pieces) <= 3

    def test_c2_interior_matches_dense_min(self):
        # travel-closed inputs on the bottom edge; compare the full
        # bottom->right candidate set against brute-force minimisation
        # over entry points, in cells with a valley segment, with a point
        # valley and with none
        rng = random.Random(19)
        cells = []
        spans = others = 0
        while spans < 4 or others < 6:
            _, _, cell = random_cell(rng, want_same=True)
            has_span = cell.valley is not None
            if (spans if has_span else others) < (4 if has_span else 6):
                cells.append(cell)
                spans += has_span
                others += not has_span
        cells += point_valley_cells(random.Random(57), 2)
        cases = [(cell, *random_cell_inputs(rng, cell)) for cell in cells]
        for cell, bottom, left in cases:
            _top, right = type_c(cell, bottom, left)
            _top_bc, right_bc = solve_cell(cell, bottom, left)
            right = [(full(cell, "right", pw.from_raw(f)), t) for f, t in right]
            right_f = full(cell, "right", right_bc.cost)
            x0, x1 = cell.x_range
            y0, y1 = cell.y_range
            bots = [(f, t) for f, t in right if t.kind == "C2"]
            c1 = straight_transport(cell, bottom, left, "right")
            ss = np.linspace(x0, x1, 1000)
            f_bottom = full(cell, "bottom", bottom.cost)
            fb = [f_bottom.value(s) for s in ss]
            for tau in np.linspace(y0, y1, 9):
                brute = INF
                for s, v in zip(ss, fb):
                    leg = through_cost(cell, (s, y0), (s, tau))
                    leg += through_cost(cell, (s, tau), (x1, tau))
                    brute = min(brute, v + leg)
                best = INF
                for f, _t in bots:
                    if f.lo - 1e-12 <= tau <= f.hi + 1e-12:
                        best = min(best, f.value(min(max(tau, f.lo), f.hi)))
                # the catalogue with C1 (or the valley ride that stands
                # for it on the span), which covers the entry at the
                # corner (x0, y0), and the cell's output, which holds the
                # corner route and the valley ride that stands for the
                # valley-crossing single turns, attain the exact minimum
                # over entry points; the sampled brute force can only
                # overshoot it.  Every C2 fragment is a real path.
                got = min(best, c1(tau), right_f.value(tau))
                assert got <= brute + 1e-9
                assert best >= brute - 5e-3

    def test_c1_covers_the_corner_entry(self):
        # The single turn entering the bottom edge at its start (x0, y0)
        # runs up the left edge and then right; the left input is
        # travel-closed and meets the bottom input there, so C1 (or the
        # valley ride, on the span) costs no more, and the bottom-frame
        # catalogue leaves that entry out.
        rng = random.Random(49)
        for _ in range(40):
            _, _, cell = random_cell(rng, want_same=True)
            bottom, left = random_cell_inputs(rng, cell)
            c1 = straight_transport(cell, bottom, left, "right")
            fb, _ = costs(cell, bottom, left)
            x0, x1 = cell.x_range
            y0, y1 = cell.y_range
            for t in np.linspace(y0, y1, 25):
                route = fb.value(x0) + through_cost(cell, (x0, y0), (x0, t))
                route += through_cost(cell, (x0, t), (x1, t))
                assert c1(t) <= route + 1e-9 * (1.0 + abs(route))

    def test_c1t_covers_the_left_start_entry(self):
        # The single turn entering the left edge at its start (x0, y0)
        # runs along the bottom edge and then up; the bottom input is
        # travel-closed and meets the left input there, so C1T (or the
        # valley ride, on the span) costs no more, and the
        # transposed-frame catalogue leaves that entry out.
        rng = random.Random(50)
        for _ in range(40):
            _, _, cell = random_cell(rng, want_same=True)
            bottom, left = random_cell_inputs(rng, cell)
            c1t = straight_transport(cell, bottom, left, "top")
            _, fl = costs(cell, bottom, left)
            x0, x1 = cell.x_range
            y0, y1 = cell.y_range
            for t in np.linspace(x0, x1, 25):
                route = fl.value(y0) + through_cost(cell, (x0, y0), (t, y0))
                route += through_cost(cell, (t, y0), (t, y1))
                assert c1t(t) <= route + 1e-9 * (1.0 + abs(route))

    def test_straight_transport_never_beats_the_ride(self):
        # On the valley span a straight transport crosses the valley: it
        # is the valley ride that enters and leaves at one point, so the
        # ride's fragment costs no more there and C1T and C1 are built
        # only off the span.
        rng = random.Random(59)
        done = 0
        while done < 40:
            _, _, cell = random_cell(rng, want_same=True)
            if cell.valley is None:
                continue
            done += 1
            bottom, left = random_cell_inputs(rng, cell)
            h_bottom, v_left, _, _ = _edge_integrals(cell)
            x0, x1 = cell.x_range
            y0, y1 = cell.y_range
            c = cell.offset
            c1t = _across(bottom.cost, 1.0, -(y0 + c), -(y1 + c), -v_left, x0, x1)
            c1 = _across(left.cost, -1.0, x1 - c, x0 - c, -h_bottom, y0, y1)
            [(b_top, _)], [(b_right, _)] = type_b(cell, bottom, left)
            (vx0, vy0), (vx1, vy1) = cell.valley
            for side, straight, ride, lo, hi in (
                ("top", c1t, b_top, vx0, vx1),
                ("right", c1, b_right, vy0, vy1),
            ):
                straight = full(cell, side, pw.from_raw(straight))
                ride = full(cell, side, pw.from_raw(ride))
                for t in np.linspace(lo, hi, 25):
                    want = straight.value(t)
                    assert ride.value(t) <= want + 1e-12 * (1.0 + abs(want))

    def test_no_fixed_entry_at_either_end(self):
        # Every C2 and C2T entry is a stationary turn, never a fixed entry
        # (alpha = 0): at the middle of its domain the source s(t) =
        # alpha * t + beta lies on an input piece a s^2 + b s + c with
        # a > 0 and alpha = -1/a.  No corner fragment either: the entry at
        # the domain end is the corner route, the input's end cost
        # travelling along the output edge, which starts the travel pass
        # as it caps type A.
        rng = random.Random(51)
        turns = 0
        for _ in range(20):
            _, _, cell = random_cell(rng, want_same=True)
            bottom, left = random_cell_inputs(rng, cell)
            top, right = type_c(cell, bottom, left)
            x0, x1 = cell.x_range
            y0, y1 = cell.y_range
            for frags, kind, f in ((right, "C2", bottom.cost), (top, "C2T", left.cost)):
                for frag, tag in frags:
                    if tag.kind != kind:
                        continue
                    alpha, beta = tag.data
                    a = f.raw[pw.locate(f.raw, alpha * 0.5 * (frag[0][3] + frag[-1][4]) + beta)][0]
                    assert a > 0 and alpha == pytest.approx(-1.0 / a, rel=1e-12), tag
                    turns += 1
            assert all(t.kind != "corner" for _f, t in top + right)
            h_bottom, v_left, _, _ = _edge_integrals(cell)
            (k_top, tag_t), (k_right, tag_r) = _corner_routes(bottom, left, h_bottom, v_left)
            assert tag_r == Prov(PREF_BOTTOM, "corner", "bottom")
            assert tag_t == Prov(PREF_LEFT, "corner", "left")
            corner_right = full(cell, "right", pw.constant(k_right, y0, y1))
            corner_top = full(cell, "top", pw.constant(k_top, x0, x1))
            fb, fl = costs(cell, bottom, left)
            fb_end, fl_end = fb.value(x1), fl.value(y1)
            for t in np.linspace(y0, y1, 9):
                want = fb_end + through_cost(cell, (x1, y0), (x1, t))
                assert corner_right.value(t) == pytest.approx(want, rel=1e-12, abs=1e-12)
            for t in np.linspace(x0, x1, 9):
                want = fl_end + through_cost(cell, (x0, y1), (t, y1))
                assert corner_top.value(t) == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert turns >= 10

    def test_valley_ride_beats_crossing_single_turns(self):
        # A single turn that rises across the valley line at V = (s, s - c)
        # and turns above it is not in the catalogue of a cell B applies
        # to: the valley ride enters at the same s, reaches V for the same
        # cost and rides the valley for free, where the turn pays
        # (t - s + c)^2 / 2.  The cell's output must still be below every
        # such path, in both frames.
        rng = random.Random(53)
        done = 0
        while done < 10:
            _, _, cell = random_cell(rng, want_same=True)
            if cell.valley is None:
                continue
            done += 1
            bottom, left = random_cell_inputs(rng, cell)
            top, right = outputs(cell, *solve_cell(cell, bottom, left))
            fb, fl = costs(cell, bottom, left)
            x0, x1 = cell.x_range
            y0, y1 = cell.y_range
            c = cell.offset
            scale = 1.0 + abs(x1) + abs(y1) + fb.value(x0)
            # bottom frame: enter at (s, y0) with y0 <= s - c, turn at t > s - c
            for s in np.linspace(max(x0, y0 + c), min(x1, y1 + c), 15):
                for t in np.linspace(s - c, y1, 9)[1:]:
                    turn = fb.value(s) + through_cost(cell, (s, y0), (s, t))
                    turn += through_cost(cell, (s, t), (x1, t))
                    assert right.value(t) <= turn + 1e-9 * scale
            # transposed frame: enter at (x0, r) with x0 <= r + c, turn at t > r + c
            for r in np.linspace(max(y0, x0 - c), min(y1, x1 - c), 15):
                for t in np.linspace(r + c, x1, 9)[1:]:
                    turn = fl.value(r) + through_cost(cell, (x0, r), (t, r))
                    turn += through_cost(cell, (t, r), (t, y1))
                    assert top.value(t) <= turn + 1e-9 * scale

    def test_catalogue_turns_on_the_near_side_of_the_valley_line(self):
        # Every emitted single turn enters at or right of the valley's foot
        # (s >= Y0 + C) and turns at or below the valley line
        # (s - t - C >= 0) over its whole domain, in both frames, and
        # propagate_type_c emits the catalogue as it is: in cells with a
        # valley segment, with a point valley and with none.
        rng = random.Random(55)
        cells = [random_cell(rng, want_same=True)[2] for _ in range(40)]
        cells += point_valley_cells(random.Random(57), 10)
        checked = 0
        for cell in cells:
            bottom, left = random_cell_inputs(rng, cell)
            top, right = type_c(cell, bottom, left)
            x0, x1 = cell.x_range
            y0, y1 = cell.y_range
            c = cell.offset
            for head, f, (X0, X1, Y0, Y1, C) in (
                (C2_HEAD, bottom.cost, (x0, x1, y0, y1, c)),
                (C2T_HEAD, left.cost, (y0, y1, x0, x1, -c)),
            ):
                cat = _c2_catalogue(f, X0, X1, Y0, Y1, C, head)
                emitted = [(g, t) for g, t in top + right if t.kind == head[1]]
                assert emitted == cat
                tol = 1e-9 * (1.0 + abs(X0) + abs(X1) + abs(Y0) + abs(Y1))
                for g, (*_, (a, b), _) in cat:
                    for t in (g[0][3], g[-1][4]):
                        s = a * t + b
                        assert X0 - tol <= s <= X1 + tol
                        assert s >= Y0 + C - tol
                        assert s - t - C >= -tol
                    checked += 1
        assert checked > 40

    def test_travel_with_zero_offset_is_cumulative_min(self):
        rng = random.Random(21)
        _, _, cell = random_cell(rng, want_same=True)
        bottom, _ = random_cell_inputs(rng, cell)
        f = bottom.cost
        tags = list(bottom.prov)
        out, _prov = apply_edge_travel(f, tags, NO_CORNER)
        want, _, _ = prefix_min(f)
        for s in np.linspace(f.lo, f.hi, 200):
            assert out.value(s) == pytest.approx(want.value(s), abs=1e-9)


class TestLeg:
    def test_clamps_break_ties_as_the_builtins(self):
        # Window ends at -0.0 and 0.0, pieces ending exactly at a window end
        # and pieces touching the window at one point: the plain loop gives
        # the comprehension's pieces, signed zeros included.
        rng = random.Random(30)
        marks = [-1.0, -0.0, 0.0, 0.5, 1.0]
        for _ in range(500):
            beta = 0.0 if rng.random() < 0.5 else rng.uniform(-1.0, 1.0)
            xs = sorted(rng.sample(marks, 3) + [rng.uniform(-1.5, 1.5) for _ in range(2)])
            raw = [(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2), l, h)
                   for l, h in zip(xs, xs[1:])]
            lo, hi = sorted(rng.sample(marks, 2))
            q = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert repr(_leg(raw, beta, q, lo, hi)) == repr(reference_leg(raw, beta, q, lo, hi))
        # max(-0.0, 0.0) is -0.0 and min(-0.0, 0.0) is -0.0
        piece = (1.0, 0.0, 0.0)
        assert math.copysign(1.0, _leg([(*piece, -0.0, 1.0)], 0.0, piece, 0.0, 1.0)[0][3]) < 0
        assert math.copysign(1.0, _leg([(*piece, -1.0, -0.0)], 0.0, piece, -1.0, 0.0)[0][4]) < 0


class TestPinEnd:
    def test_mismatch_past_bound_raises(self):
        with pytest.raises(InvariantViolation, match="corner value mismatch"):
            _pin_end(pw.constant(1.0, 0.0, 1.0), -1, 1.0, 1.0 + 1e-4)
        # The bound is 1e-6 * (1 + |target|): 3e-6 * (1 + 2) past target 2.
        with pytest.raises(InvariantViolation, match="corner value mismatch"):
            _pin_end(pw.constant(2.0 - 9e-6, 0.0, 1.0), 0, 2.0 - 9e-6, 2.0)

    def test_drift_within_bound_is_pinned_exactly(self):
        target = 1.0 + 1e-7
        g = _pin_end(pw.constant(1.0, 0.0, 1.0), -1, 1.0, target)
        assert g.value(1.0) == target


class TestSolveCell:
    def test_identical_segment_cell(self):
        P = build_curve([0, 1])
        Q = build_curve([0, 1])
        bottoms, lefts = base_case(P, Q)
        cell = cell_info(P, Q, 1, 1)
        _top, right = outputs(cell, *solve_cell(cell, bottoms[0], lefts[0]))
        assert right.value(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_outputs_validate_and_cover(self):
        rng = random.Random(25)
        for _ in range(30):
            P, Q, cell = random_cell(rng)
            bottom, left = random_cell_inputs(rng, cell)
            top, right = solve_cell(cell, bottom, left)
            assert top.cost.lo == pytest.approx(cell.x_range[0], abs=1e-9)
            assert top.cost.hi == pytest.approx(cell.x_range[1], abs=1e-9)
            assert right.cost.lo == pytest.approx(cell.y_range[0], abs=1e-9)
            assert right.cost.hi == pytest.approx(cell.y_range[1], abs=1e-9)
            for f in outputs(cell, top, right):
                validate(f)

    def test_corner_agreement(self):
        rng = random.Random(27)
        for _ in range(30):
            P, Q, cell = random_cell(rng)
            bottom, left = random_cell_inputs(rng, cell)
            top, right = outputs(cell, *solve_cell(cell, bottom, left))
            bottom, left = costs(cell, bottom, left)
            assert top.value(top.hi) == pytest.approx(right.value(right.hi), abs=1e-9)
            # output corner meeting an input edge equals the input's value
            assert right.value(right.lo) == pytest.approx(bottom.value(bottom.hi), abs=1e-9)
            assert top.value(top.lo) == pytest.approx(left.value(left.hi), abs=1e-9)

    def test_outputs_at_or_below_the_corner_routes(self):
        # A same-direction cell builds no corner fragment: the route
        # through an output edge's start corner, the input's end cost
        # travelling along the edge, starts the travel pass instead.
        # Each output still lies at or below it everywhere.
        rng = random.Random(59)
        corner_wins = 0
        for _ in range(40):
            _, _, cell = random_cell(rng, want_same=True)
            bottom, left = random_cell_inputs(rng, cell)
            top_bc, right_bc = solve_cell(cell, bottom, left)
            top, right = outputs(cell, top_bc, right_bc)
            fb, fl = costs(cell, bottom, left)
            x0, x1 = cell.x_range
            y0, y1 = cell.y_range
            scale = 1.0 + abs(fb.value(x1)) + abs(fl.value(y1))
            for t in np.linspace(y0, y1, 25):
                route = fb.value(x1) + through_cost(cell, (x1, y0), (x1, t))
                assert right.value(t) <= route + 1e-9 * scale
            for t in np.linspace(x0, x1, 25):
                route = fl.value(y1) + through_cost(cell, (x0, y1), (t, y1))
                assert top.value(t) <= route + 1e-9 * scale
            corner_wins += any(tag.kind == "corner" for tag in top_bc.prov + right_bc.prov)
        assert corner_wins > 0

    def test_against_through_cost_oracle(self):
        # strict side: the output never beats any single true path;
        # loose side: a refined dense minimisation comes within sampling
        # error, so no family is missing
        rng = random.Random(29)
        for _ in range(40):
            P, Q, cell = random_cell(rng)
            x0, x1 = cell.x_range
            y0, y1 = cell.y_range
            scale = 1 + abs(x1) + abs(y1)
            bottom, left = random_cell_inputs(rng, cell)
            top, right = outputs(cell, *solve_cell(cell, bottom, left))
            fb, fl = costs(cell, bottom, left)

            def oracle(o):
                best = INF
                for fin, lo, hi, is_bottom in ((fb, x0, x1, True), (fl, y0, y1, False)):
                    def v(s):
                        pnt = (s, y0) if is_bottom else (x0, s)
                        w = through_cost(cell, pnt, o)
                        return fin.value(s) + w if w < INF else INF
                    ss = np.linspace(lo, hi, 401)
                    vals = [v(s) for s in ss]
                    best = min(best, min(vals))
                    for k in range(401):
                        l = vals[k - 1] if k > 0 else INF
                        r = vals[k + 1] if k < 400 else INF
                        if vals[k] <= l and vals[k] <= r and vals[k] < INF:
                            a, b = ss[max(0, k - 1)], ss[min(400, k + 1)]
                            for s in np.linspace(a, b, 300):
                                best = min(best, v(s))
                return best

            for t in np.linspace(x0, x1, 7):
                got = top.value(t)
                want = oracle((t, y1))
                assert got <= want + 1e-7 * scale
                assert got >= want - 1e-4 * scale
            for t in np.linspace(y0, y1, 7):
                got = right.value(t)
                want = oracle((x1, t))
                assert got <= want + 1e-7 * scale
                assert got >= want - 1e-4 * scale

    def test_exchange_argument_spot_check(self):
        # solver output <= cost of random monotone staircases through the cell
        rng = random.Random(37)
        for _ in range(12):
            P, Q, cell = random_cell(rng, want_same=True)
            bottom, left = random_cell_inputs(rng, cell)
            _top, right = outputs(cell, *solve_cell(cell, bottom, left))
            fb, _ = costs(cell, bottom, left)
            x0, x1 = cell.x_range
            y0, y1 = cell.y_range
            for _ in range(20):
                s = rng.uniform(x0, x1)
                tau = rng.uniform(y0, y1)
                start = (s, y0)
                end = (x1, tau)
                if end[0] < start[0]:
                    continue
                got = right.value(tau)
                base_v = fb.value(s)
                for _ in range(10):
                    stair = random_staircase(rng, start, end, steps=rng.randint(1, 6))
                    cost = base_v + path_cost(P, Q, stair, samples_per_leg=256)
                    assert got <= cost + 1e-5 * (1 + abs(cost))

    def test_provenance_routes_are_feasible(self):
        # every winning tag must describe a monotone route: travel rewinds
        # only backwards along the edge, valley entries precede exits, a
        # corner route leaves the input edge that ends at the output's
        # start, and every source map sends the exit coordinate onto the
        # input edge named by the tag's side
        rng = random.Random(41)
        for _ in range(25):
            P, Q, cell = random_cell(rng)
            bottom, left = random_cell_inputs(rng, cell)
            top, right = solve_cell(cell, bottom, left)
            x0, x1 = cell.x_range
            y0, y1 = cell.y_range
            c = cell.offset
            tol = 1e-7 * (1 + abs(x1) + abs(y1))

            def on_source(prov, t):
                alpha, beta = prov.data
                s = alpha * t + beta
                lo, hi = (x0, x1) if prov.side == "bottom" else (y0, y1)
                assert prov.side in ("bottom", "left"), prov
                assert lo - tol <= s <= hi + tol, prov

            def check(prov, t, edge):
                if prov.kind == "travel":
                    assert prov.data[0] <= t + tol
                    check(prov.inner, prov.data[0], edge)
                elif prov.kind == "B":
                    # the valley cost's tag at the exit: the entry, wrapped
                    # in travel where the path rides from an earlier point
                    v_exit = t if edge == "top" else t + c
                    rec = valley(cell, bottom, left)
                    entry = rec.prov[pw.locate(rec.cost.raw, v_exit)]
                    v_in = v_exit
                    if entry.kind == "travel":
                        v_in, entry = entry.data[0], entry.inner
                    assert v_in <= v_exit + tol
                    assert entry.kind == "B1"
                    on_source(entry, v_in if entry.side == "bottom" else v_in - c)
                elif prov.kind == "corner":
                    assert prov.data == ()
                    assert prov.side == ("left" if edge == "top" else "bottom")
                else:
                    on_source(prov, t)

            for edge, bc in (("top", top), ("right", right)):
                for piece, prov in zip(quadratics(bc.cost), bc.prov):
                    check(prov, 0.5 * (piece.lo + piece.hi), edge)

    def test_valley_argmins_nondecreasing(self):
        # the cumulative minimum along the valley can only look backwards,
        # and its flat-piece sources advance with the exit coordinate
        rng = random.Random(43)
        seen = 0
        while seen < 10:
            P, Q, cell = random_cell(rng, want_same=True)
            bottom, left = random_cell_inputs(rng, cell)
            if cell.valley is None:
                continue
            rec = valley(cell, bottom, left)
            seen += 1
            last = -INF
            for piece, prov in zip(quadratics(rec.cost), rec.prov):
                arg = prov.data[0] if prov.kind == "travel" else None
                src = piece.lo if arg is None else arg
                assert src >= last - 1e-9
                if arg is not None:
                    assert arg <= piece.lo + 1e-9
                last = src

    def test_fragments_within_source_pieces_plus_two(self):
        # A transport adds a band of at most three pieces to its source, a
        # corner route is a constant, a single turn has at most three
        # pieces, a valley exit adds one piece to b2, and an
        # opposite-direction output is its source capped by a constant.
        rng = random.Random(45)
        kinds = set()
        for _ in range(60):
            P, Q, cell = random_cell(rng)
            bottom, left = random_cell_inputs(rng, cell)
            sources = {"bottom": len(bottom.cost.raw), "left": len(left.cost.raw)}
            if cell.same_direction:
                top, right = type_c(cell, bottom, left)
                if cell.valley is not None:
                    b_top, b_right = type_b(cell, bottom, left)
                    rec = valley(cell, bottom, left)
                    top, right = top + b_top, right + b_right
                    sources[""] = len(rec.cost.raw)
            else:
                (top, top_tags), (right, right_tags) = type_a(cell, bottom, left)
                assert len(top.raw) <= sources["bottom"] + 2
                assert len(right.raw) <= sources["left"] + 2
                kinds.update(tag.kind for tag in top_tags + right_tags)
                continue
            for frag, prov in top + right:
                kinds.add(prov.kind)
                assert len(frag) <= sources[prov.side] + 2, prov
        assert kinds == {"Av", "Ah", "corner", "B", "C1", "C1T", "C2", "C2T"}

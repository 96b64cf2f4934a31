"""Curve model: construction, interpolation, height, cell geometry."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdtw.curves import Cell, build_curve, cell_info, height, point_at
from cdtw.errors import IndexOutOfRange, InsufficientVertices, OutOfDomain

from helpers import random_curve


class TestBuildCurve:
    def test_simple_lengths(self):
        c = build_curve([0, 1, 0])
        assert c.prefix_lengths == (0.0, 1.0, 2.0)
        assert c.length == 2.0

    def test_duplicate_collapse(self):
        c = build_curve([0, 1, 1, 2])
        assert c.vertices == (0.0, 1.0, 2.0)
        assert c.length == 2.0

    def test_single_value_rejected(self):
        with pytest.raises(InsufficientVertices):
            build_curve([5])

    def test_all_equal_rejected(self):
        with pytest.raises(InsufficientVertices):
            build_curve([3, 3, 3])

    def test_vanishing_segment_rejected(self):
        # 1e-3 is below half an ulp of 2e17, so the last prefix length
        # would repeat the one before it.
        with pytest.raises(InsufficientVertices, match="segment 3 from 0.0 to 0.001 vanishes"):
            build_curve([0, 1e17, 0, 1e-3])

    def test_overflowing_arc_length_rejected(self):
        # The segment from -1e308 to 1e308 is longer than the largest float:
        # its prefix length would be inf, and every cell cost nan.
        with pytest.raises(InsufficientVertices, match=r"segment 1 from -1e\+308 to 1e\+308 overflows"):
            build_curve([-1e308, 1e308])

    def test_non_numeric_value_rejected(self):
        with pytest.raises(InsufficientVertices, match="value 'a' is not a finite number"):
            build_curve(["a", 1])

    def test_huge_integer_value_rejected(self):
        # float() of an int past the float range overflows rather than
        # giving inf
        with pytest.raises(InsufficientVertices, match=r"0 is not a finite number"):
            build_curve([10**400, 1.0])

    def test_none_value_rejected(self):
        with pytest.raises(InsufficientVertices, match="value None is not a finite number"):
            build_curve([None, 1])

    def test_prefix_strictly_increasing(self):
        rng = random.Random(7)
        for _ in range(50):
            c = random_curve(rng, rng.randint(2, 10))
            diffs = [b - a for a, b in zip(c.prefix_lengths, c.prefix_lengths[1:])]
            assert all(d > 0 for d in diffs)


class TestPointAt:
    def test_endpoints_and_midpoint(self):
        c = build_curve([0, 1, 0])
        assert point_at(c, 0) == 0.0
        assert point_at(c, 1.5) == pytest.approx(0.5)
        assert point_at(c, 2) == pytest.approx(0.0)

    def test_out_of_domain(self):
        c = build_curve([0, 1])
        with pytest.raises(OutOfDomain):
            point_at(c, -0.5)
        with pytest.raises(OutOfDomain):
            point_at(c, 1.5)

    def test_clamp_slack_is_relative_to_the_length(self):
        # A position up to about 1e-12 * (1 + length) outside the curve is
        # clamped onto it; 3x that is out of domain.
        c = build_curve([0, 2])
        assert point_at(c, 2 + 9e-13) == 2.0
        assert point_at(c, -9e-13) == 0.0
        for s in (2 + 9e-12, -9e-12):
            with pytest.raises(OutOfDomain):
                point_at(c, s)

    def test_vertex_values_recovered(self):
        c = build_curve([0.3, 1.7, 0.2, 0.9])
        for v, s in zip(c.vertices, c.prefix_lengths):
            assert point_at(c, s) == pytest.approx(v, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**6), st.floats(0, 1), st.floats(0, 1e-3))
    def test_unit_speed_lipschitz(self, seed, frac, eps):
        rng = random.Random(seed)
        c = random_curve(rng, rng.randint(2, 8))
        s = frac * c.length
        e = min(eps, c.length - s)
        assert abs(point_at(c, s + e) - point_at(c, s)) <= e + 1e-12


class TestHeight:
    def test_identical_zero(self):
        p = build_curve([0, 1])
        assert height(p, p, 0.25, 0.25) == 0.0

    def test_corner(self):
        p = build_curve([0, 1])
        assert height(p, p, 1, 0) == pytest.approx(1.0)

    def test_opposite_midpoint_zero(self):
        p = build_curve([0, 1])
        q = build_curve([1, 0])
        assert height(p, q, 0.5, 0.5) == pytest.approx(0.0)

    def test_l1_lipschitz(self):
        rng = random.Random(11)
        for _ in range(200):
            P = random_curve(rng, rng.randint(2, 6))
            Q = random_curve(rng, rng.randint(2, 6))
            x1, x2 = (rng.uniform(0, P.length) for _ in range(2))
            y1, y2 = (rng.uniform(0, Q.length) for _ in range(2))
            lhs = abs(height(P, Q, x1, y1) - height(P, Q, x2, y2))
            assert lhs <= abs(x1 - x2) + abs(y1 - y2) + 1e-9


class TestCellInfo:
    def test_shifted_pair_valley(self):
        P = build_curve([0, 1])
        Q = build_curve([0.5, 1.5])
        cell = cell_info(P, Q, 1, 1)
        assert cell.same_direction
        assert cell.valley is not None
        (a, b) = cell.valley
        assert a == pytest.approx((0.5, 0.0))
        assert b == pytest.approx((1.0, 0.5))

    def test_opposite_no_valley(self):
        P = build_curve([0, 1])
        Q = build_curve([1, 0])
        cell = cell_info(P, Q, 1, 1)
        assert not cell.same_direction
        assert cell.valley is None

    def test_missed_valley(self):
        P = build_curve([0, 1])
        Q = build_curve([3, 4])
        cell = cell_info(P, Q, 1, 1)
        assert cell.same_direction
        assert cell.valley is None

    def test_touch_or_near_miss_is_no_valley(self):
        # Q = [1 + d, 2 + d] puts the valley line x - y = 1 + d a distance d
        # right of cell (1, 1); at d = 0 it touches the corner (1, 0).  A
        # point has nothing to ride, so neither a touch nor a near miss
        # gives the cell a valley.
        P = build_curve([0, 1])
        for d in (0.0, 3e-13, 3e-12):
            cell = cell_info(P, build_curve([1 + d, 2 + d]), 1, 1)
            assert cell.same_direction and cell.valley is None, d

    def test_valley_slack_is_relative_to_its_ends(self):
        # P = [0, 1] against Q = [1 - L, 2 - L] has the valley [1 - L, 1] in
        # cell (1, 1).  It is a valley only if L exceeds about
        # 1e-9 * (1 + |1 - L| + 1) = 3e-9; a shorter one is a point.
        P = build_curve([0, 1])
        cell = cell_info(P, build_curve([1 - 9e-9, 2 - 9e-9]), 1, 1)
        assert cell.valley == ((cell.offset, 0.0), (1.0, 1.0 - cell.offset))
        assert cell_info(P, build_curve([1 - 9e-10, 2 - 9e-10]), 1, 1).valley is None

    def test_index_range(self):
        P = build_curve([0, 1])
        Q = build_curve([0, 1])
        with pytest.raises(IndexOutOfRange):
            cell_info(P, Q, 2, 1)
        with pytest.raises(IndexOutOfRange):
            cell_info(P, Q, 1, 0)

    @pytest.mark.parametrize(
        "i, j", [(0, 1), (1, 0), (-1, 1), (1, -1), (-2, 2), (2, -2), (-3, 1), (3, 1), (1, 3)]
    )
    def test_index_out_of_range_in_either_curve(self, i, j):
        # Two segments each: a negative index would read vertices from the
        # end, so it must be rejected before any vertex is read.
        P = build_curve([0, 1, 0.5])
        Q = build_curve([0.2, 1.2, 0])
        bad = i if not 1 <= i <= 2 else j
        with pytest.raises(IndexOutOfRange, match=rf"segment index {bad} not in 1\.\.2"):
            cell_info(P, Q, i, j)

    def test_cell_fields_and_directions(self):
        assert Cell._fields == ("x_range", "y_range", "same_direction", "offset", "valley")
        rng = random.Random(11)
        for _ in range(30):
            P = random_curve(rng, rng.randint(2, 6))
            Q = random_curve(rng, rng.randint(2, 6))
            p, q = P.vertices, Q.vertices
            for i in range(1, P.num_segments + 1):
                for j in range(1, Q.num_segments + 1):
                    cell = cell_info(P, Q, i, j)
                    assert cell.x_range == (P.prefix_lengths[i - 1], P.prefix_lengths[i])
                    assert cell.y_range == (Q.prefix_lengths[j - 1], Q.prefix_lengths[j])
                    assert cell.same_direction is ((p[i] > p[i - 1]) == (q[j] > q[j - 1]))

    def test_cell_is_immutable(self):
        cell = cell_info(build_curve([0, 1]), build_curve([0.5, 1.5]), 1, 1)
        with pytest.raises(AttributeError):
            cell.offset = 0.0
        with pytest.raises(AttributeError):
            cell.same_direction = False
        with pytest.raises(TypeError):
            cell[6] = 0.0
        assert cell == cell_info(build_curve([0, 1]), build_curve([0.5, 1.5]), 1, 1)

    def test_valley_height_is_zero(self):
        rng = random.Random(3)
        checked = 0
        while checked < 40:
            P = random_curve(rng, rng.randint(2, 6))
            Q = random_curve(rng, rng.randint(2, 6))
            scale = max(P.length, Q.length)
            for i in range(1, P.num_segments + 1):
                for j in range(1, Q.num_segments + 1):
                    cell = cell_info(P, Q, i, j)
                    if cell.valley is None:
                        continue
                    (ax, ay), (bx, by) = cell.valley
                    for t in range(10):
                        f = t / 9.0
                        x = ax + f * (bx - ax)
                        y = ay + f * (by - ay)
                        assert height(P, Q, x, y) <= 1e-12 * (1.0 + scale)
                    checked += 1

    def test_offset_consistent_with_height(self):
        rng = random.Random(5)
        for _ in range(60):
            P = random_curve(rng, rng.randint(2, 6))
            Q = random_curve(rng, rng.randint(2, 6))
            i = rng.randint(1, P.num_segments)
            j = rng.randint(1, Q.num_segments)
            cell = cell_info(P, Q, i, j)
            x = rng.uniform(*cell.x_range)
            y = rng.uniform(*cell.y_range)
            if cell.same_direction:
                expect = abs(x - y - cell.offset)
            else:
                expect = abs(x + y - cell.offset)
            assert height(P, Q, x, y) == pytest.approx(expect, abs=1e-9)

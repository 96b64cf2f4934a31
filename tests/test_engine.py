"""Whole-curve solver tests: closed-form values, warp path reconstruction,
invariances, statistics, and serialization."""

import importlib.util
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from cdtw import build_curve, cell_info, engine
from cdtw.baselines import GridConfig, cdtw_grid
from cdtw.engine import (
    EngineConfig,
    CdtwResult,
    SolveStats,
    WarpPath,
    cdtw_exact,
    reconstruct_path,
)
from cdtw.errors import CoverageGap, InsufficientVertices, ProvenanceMissing, TooLarge
from cdtw.propagation import B_TAG, PREF_BOTTOM, Prov, _valley_span, propagate_type_b

from helpers import full, path_cost, random_curve, random_values, validate


def solve(p_vals, q_vals, **kw):
    return cdtw_exact(build_curve(p_vals), build_curve(q_vals), **kw)


class TestClosedFormValues:
    def test_identical_curves_zero(self):
        res = solve([0, 1, 0.5, 2], [0, 1, 0.5, 2])
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_identical_path_is_main_diagonal(self):
        res = solve([0, 1, 0.5, 2], [0, 1, 0.5, 2])
        path = reconstruct_path(res)
        for x, y in path.points:
            assert x == pytest.approx(y, abs=1e-9)
        assert path.points[0] == (0.0, 0.0)
        assert path.points[-1][0] == pytest.approx(path.points[-1][1], abs=1e-9)

    def test_shifted_pair_value_and_path(self):
        res = solve([0, 1], [0.5, 1.5])
        assert res.value == pytest.approx(0.25, abs=1e-9)
        pts = reconstruct_path(res).points
        want = [(0, 0), (0.5, 0), (1, 0.5), (1, 1)]
        assert len(pts) == len(want)
        for (gx, gy), (wx, wy) in zip(pts, want):
            assert gx == pytest.approx(wx, abs=1e-9)
            assert gy == pytest.approx(wy, abs=1e-9)

    def test_value_is_the_lower_full_cost_read_of_the_last_cell(self):
        rng = random.Random(71)
        for _ in range(6):
            P = random_curve(rng, rng.randint(2, 7))
            Q = random_curve(rng, rng.randint(2, 7))
            res = cdtw_exact(P, Q, EngineConfig(record_path=False))
            P, Q = res.run.P, res.run.Q
            n, m = P.num_segments, Q.num_segments
            last = cell_info(P, Q, n, m)
            f_top = full(last, "top", res.run.top[(n, m)].cost)
            f_right = full(last, "right", res.run.right[(n, m)].cost)
            want = min(f_top.value(f_top.hi), f_right.value(f_right.hi))
            assert res.value == pytest.approx(want, rel=1e-12)

    def test_opposite_pair_value_and_path(self):
        res = solve([0, 1], [1, 0])
        assert res.value == pytest.approx(1.0, abs=1e-9)
        pts = reconstruct_path(res).points
        want = [(0, 0), (0, 1), (1, 1)]
        assert len(pts) == len(want)
        for (gx, gy), (wx, wy) in zip(pts, want):
            assert gx == pytest.approx(wx, abs=1e-9)
            assert gy == pytest.approx(wy, abs=1e-9)

    def test_shift_family_quadratic_in_delta(self):
        for delta in (0.1, 0.25, 0.5, 0.8):
            res = solve([0, 1], [delta, 1 + delta])
            assert res.value == pytest.approx(delta * delta, rel=1e-9)

    def test_long_opposite_ramp(self):
        # every monotone path sees h = |x + y - 2|, so the cost is the
        # fixed integral of |z - 2| for z in [0, 4]
        res = solve([0, 2], [2, 0])
        assert res.value == pytest.approx(4.0, abs=1e-9)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(InsufficientVertices):
            build_curve([])
        with pytest.raises(InsufficientVertices):
            build_curve([1.0])
        with pytest.raises(InsufficientVertices):
            build_curve([2.0, 2.0, 2.0])


class TestPathCertificates:
    def test_random_paths_certify_value(self):
        rng = random.Random(51)
        for _ in range(20):
            P = random_curve(rng, rng.randint(2, 5))
            Q = random_curve(rng, rng.randint(2, 5))
            res = cdtw_exact(P, Q)
            path = reconstruct_path(res)
            pts = path.points
            assert pts[0] == (0.0, 0.0)
            assert pts[-1][0] == pytest.approx(P.length, abs=1e-9)
            assert pts[-1][1] == pytest.approx(Q.length, abs=1e-9)
            for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
                assert x1 >= x0 - 1e-9
                assert y1 >= y0 - 1e-9
            cost = path_cost(P, Q, pts, samples_per_leg=512)
            assert cost == pytest.approx(res.value, abs=2e-5 * (1 + res.value))

    def test_last_leg_never_steps_back(self):
        # A cell edge sits at y = 8.0 while len(Q) rounds to
        # 7.999999999999999; unclamped, the last leg ended one ulp below
        # the point before it.
        p = [0.0, -0.47668846274811905, 0.11303847149710455, -0.3232889636984945,
             0.2950938274605612, -0.06204005059183637, -1.0238755212564592,
             -0.6478962798525238, -1.0606321046207028, -2.2408999729693635,
             -1.4846269465424138, -0.7703641585177214, 0.3500221204448426]
        q = [0.0, -0.7314605771759091, -0.019690222356746667, -0.852232776594723,
             -1.730060465451537, -2.13146270617762, -1.1791999368093526,
             -1.5038673936087905, -2.483911712041177, -2.0606384054436075,
             -1.1090834094490423, -0.731554120473191, -0.2958896724572136]
        P, Q = build_curve(p), build_curve(q)
        pts = reconstruct_path(cdtw_exact(P, Q)).points
        assert pts[-1] == (P.length, Q.length)
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            assert x1 >= x0 and y1 >= y0

    def test_legs_on_one_axis_parallel_line_merge(self):
        # The trace steps back cell by cell along the x axis here and used
        # to return all six of these points for one bend.
        p = [0.8903095537446775, 0.8919893213583602, 0.6730165413939632,
             0.6424396531375273, 0.15715567288979448, 0.9980576600610257,
             0.32773910268098183, 0.6384682422724465]
        q = [0.9211312108961252, 0.945976134559492]
        stepped = [(0.0, 0.0), (1.500488954088579, 0.0), (1.5774154032534797, 0.0),
                   (2.2477339606335236, 0.0), (2.558463100224988, 0.0),
                   (2.558463100224988, 0.02484492366336688)]
        P, Q = build_curve(p), build_curve(q)
        res = cdtw_exact(P, Q)
        pts = reconstruct_path(res).points
        assert len(pts) == 3
        for a, b, c in zip(pts, pts[1:], pts[2:]):
            assert not a[0] == b[0] == c[0] and not a[1] == b[1] == c[1]
        slack = 2e-5 * (1 + res.value)
        cost = path_cost(P, Q, pts, samples_per_leg=4096)
        assert cost == pytest.approx(path_cost(P, Q, stepped, samples_per_leg=4096), abs=slack)
        assert cost == pytest.approx(res.value, abs=slack)

    def test_collinear_legs_of_any_slope_merge(self):
        # A valley ride that crosses a vertex line keeps no point there.
        P, Q = build_curve([0, 2]), build_curve([0.5, 2.5])
        rev = [(2.0, 2.0), (2.0, 1.5), (1.0, 0.5), (0.5, 0.0), (0.0, 0.0)]
        path = engine._polish_path(P, Q, rev)
        assert path.points == ((0.0, 0.0), (0.5, 0.0), (2.0, 1.5), (2.0, 2.0))
        assert path.annotations == ("axis-parallel", "valley-ride", "axis-parallel")

    def test_annotations_cover_every_leg(self):
        # Every leg the trace emits runs along an axis or rides a valley;
        # a wrong turn point in a trace step would show as a diagonal leg.
        rng = random.Random(53)
        for _ in range(40):
            P = random_curve(rng, rng.randint(2, 6))
            Q = random_curve(rng, rng.randint(2, 6))
            path = reconstruct_path(cdtw_exact(P, Q))
            assert len(path.annotations) == len(path.points) - 1
            assert set(path.annotations) <= {"axis-parallel", "valley-ride"}, path

    def test_valley_ride_annotation_on_shifted_pair(self):
        path = reconstruct_path(solve([0, 1], [0.5, 1.5]))
        assert "valley-ride" in path.annotations


class TestInvariances:
    def test_symmetry(self):
        rng = random.Random(55)
        for _ in range(10):
            P = random_curve(rng, rng.randint(2, 5))
            Q = random_curve(rng, rng.randint(2, 5))
            a = cdtw_exact(P, Q).value
            b = cdtw_exact(Q, P).value
            assert abs(a - b) <= 1e-9 * (1 + abs(a))

    def test_value_scaling(self):
        rng = random.Random(57)
        p = [rng.uniform(0, 2) for _ in range(4)]
        q = [rng.uniform(0, 2) for _ in range(4)]
        base = solve(p, q).value
        for lam in (0.5, 2.0, 10.0):
            scaled = solve([lam * v for v in p], [lam * v for v in q]).value
            assert scaled == pytest.approx(lam * lam * base, rel=1e-6)

    def test_translation(self):
        rng = random.Random(59)
        p = [rng.uniform(0, 2) for _ in range(5)]
        q = [rng.uniform(0, 2) for _ in range(3)]
        base = solve(p, q).value
        for shift in (-3.0, 0.7, 12.0):
            moved = solve([v + shift for v in p], [v + shift for v in q]).value
            assert moved == pytest.approx(base, rel=1e-9, abs=1e-12)

    def test_subdividing_segments_changes_nothing(self):
        # CDTW does not depend on the sampling rate: a vertex inside a
        # monotone run is no vertex of the curves the solver runs on, so
        # cutting every segment of both curves at random interior points
        # keeps the value, the path's polyline and the edges solved.
        rng = random.Random(75)

        def subdivide(vals):
            out = vals[:1]
            for a, b in zip(vals, vals[1:]):
                cuts = sorted(rng.uniform(0.1, 0.9) for _ in range(rng.randint(1, 3)))
                out += [a + u * (b - a) for u in cuts] + [b]
            return out

        for _ in range(12):
            p = random_values(rng, rng.randint(2, 9))
            q = random_values(rng, rng.randint(2, 9))
            base = solve(p, q)
            fine = solve(subdivide(p), subdivide(q))
            assert fine.stats.cells_solved > base.stats.cells_solved
            assert fine.value == pytest.approx(base.value, rel=1e-12, abs=1e-15)
            assert fine.stats.edges == base.stats.edges
            a, b = base.path.points, fine.path.points
            assert len(a) == len(b) and base.path.annotations == fine.path.annotations
            scale = max(abs(x) for pt in a for x in pt)
            for pa, pb in zip(a, b):
                assert pa == pytest.approx(pb, rel=0.0, abs=1e-12 * scale)

    def test_monotone_curve_solves_one_row(self):
        rng = random.Random(77)
        P = build_curve(sorted(random_values(rng, 12)))
        Q = random_curve(rng, 9)
        res = cdtw_exact(P, Q)
        m = res.run.Q.num_segments
        assert res.run.P.vertices == (P.vertices[0], P.vertices[-1])
        assert sorted(res.run.top) == [(1, j) for j in range(1, m + 1)]
        assert res.stats.edges == 3 * m + 1
        assert res.stats.cells_solved == 11 * 8

    def test_determinism(self):
        rng = random.Random(61)
        p = [rng.uniform(0, 2) for _ in range(5)]
        q = [rng.uniform(0, 2) for _ in range(4)]
        r1 = solve(p, q)
        r2 = solve(p, q)
        assert r1.value == r2.value
        assert reconstruct_path(r1).points == reconstruct_path(r2).points

    def test_nonnegative(self):
        rng = random.Random(63)
        for _ in range(15):
            P = random_curve(rng, rng.randint(2, 6))
            Q = random_curve(rng, rng.randint(2, 6))
            assert cdtw_exact(P, Q).value >= 0.0


class TestStats:
    def test_default_stats_all_zero(self):
        s = SolveStats()
        assert s.total_pieces == 0
        assert s.edges == 0
        assert s.max_edge_pieces == 0
        assert s.wall_time == 0.0
        assert s.cells_solved == 0

    def test_stats_compare_by_value(self):
        s = SolveStats(edges=4, wall_time=0.5)
        assert s == SolveStats(0, 4, 0, 0.5, 0)
        assert s != SolveStats(edges=4)
        assert s != s.to_json()
        s.cells_solved = 1  # the solver counts into it
        assert s.cells_solved == 1
        with pytest.raises(TypeError):
            hash(s)
        with pytest.raises(AttributeError):
            s.extra = 1
        assert repr(s) == ("SolveStats(total_pieces=0, edges=4, max_edge_pieces=0, "
                           "wall_time=0.5, cells_solved=1)")

    def test_single_cell_counts(self):
        res = solve([0, 1], [0.5, 1.5])
        stats = res.stats
        assert stats.cells_solved == 1
        # one bottom and one left base-case edge, and the cell's two outputs
        assert stats.edges == 4
        assert 1 <= stats.max_edge_pieces <= stats.total_pieces <= 4 * stats.max_edge_pieces
        assert stats.wall_time >= 0.0

    def test_piece_counts_track_tables(self):
        # The same counts bench/workloads._edge_pieces takes from result.run.
        rng = random.Random(65)
        P = random_curve(rng, 5)
        Q = random_curve(rng, 4)
        for record_path in (True, False):
            res = cdtw_exact(P, Q, EngineConfig(record_path=record_path))
            run = res.run
            edges = [*run.top.values(), *run.right.values(), *run.bottoms, *run.lefts]
            counts = [len(bc.cost.pieces) for bc in edges]
            assert res.stats.total_pieces == sum(counts)
            assert res.stats.edges == len(counts)
            assert res.stats.max_edge_pieces == max(counts)

    def test_small_inputs_within_complexity_bounds(self):
        rng = random.Random(67)
        for _ in range(5):
            P = random_curve(rng, 6)
            Q = random_curve(rng, 6)
            res = cdtw_exact(P, Q)
            stats = res.stats
            assert stats.cells_solved == P.num_segments * Q.num_segments
            n, m = res.run.P.num_segments, res.run.Q.num_segments
            assert stats.edges == 2 * n * m + n + m
            assert stats.total_pieces <= 2 * (n + m) ** 5

    def test_distinct_slope_pairs_bounded_per_edge(self):
        rng = random.Random(69)
        P = random_curve(rng, 6)
        Q = random_curve(rng, 5)
        res = cdtw_exact(P, Q)
        run = res.run
        edges = [*run.top.values(), *run.right.values(), *run.bottoms, *run.lefts]
        most = max(
            len({(round(p[0] / 1e-7), round(p[1] / 1e-7)) for p in bc.cost.raw})
            for bc in edges
        )
        assert 1 <= most <= res.stats.max_edge_pieces


class TestRobustness:
    def test_value_lists_build_curves(self):
        # Plain value lists go through build_curve, and its checks apply.
        res, want = cdtw_exact([0.0, 1.0], [0.5, 1.5]), solve([0, 1], [0.5, 1.5])
        assert (res.value, res.path) == (want.value, want.path)
        with pytest.raises(InsufficientVertices, match="'a' is not a finite number"):
            cdtw_exact(["a", 1.0], [0.5, 1.5])

    def test_sub_tolerance_segment_inside_sandwich(self):
        # P[3] -> P[4] is a 3.9e-9 segment: adding its edge integral once
        # gave an empty function and a bare IndexError.
        P = build_curve([
            0.7252509730769274, 0.2963912686699557, 0.5513527531057241,
            1.405213468449474, 1.4052134723299892, 1.3719316619157789,
            0.6123421367627049,
        ])
        Q = build_curve([1.2536115370522147, 1.4422700805839088, 0.6186071633804859])
        exact = cdtw_exact(P, Q).value
        assert 0.0 <= exact <= cdtw_grid(P, Q, GridConfig(resolution=256))

    def test_self_pair_with_touching_fragments(self):
        # At cell (11, 8) two candidate fragments differ by a parabola that
        # only touches zero; giving that whole span to the higher one
        # broke corner continuity (InvariantViolation).
        values = [0.6722435096718973 * v for v in (3, 1, 4, 0, 2, 1, 0, 4, 1, 2, 4, 2)]
        P = build_curve(values)
        assert cdtw_exact(P, P).value == pytest.approx(0.0, abs=1e-12)

    def test_every_cell_error_names_the_cell_and_level(self):
        # A segment narrower than the envelope's tolerance, between two
        # turns, leaves the envelope of cell (2, 2) without coverage.  The
        # error keeps its class and names the cell, its anti-diagonal level
        # and the segments of the curves as built that it spans.
        P = build_curve([0, 1, 1 - 1e-10, 2])
        Q = build_curve([0.5, 1.5, 0.1])
        with pytest.raises(CoverageGap) as info:
            cdtw_exact(P, Q)
        assert "cell (2,2), level 4 (segments 2..2 of P, 2..2 of Q as built): " in str(info.value)

    def test_sub_tolerance_segment_inside_a_run_solves(self):
        # The same narrow segment where P runs on across it is no vertex of
        # the reduced curve, so the pair solves inside the grid sandwich.
        P = build_curve([0, 1, 1 + 1e-10, 2])
        Q = build_curve([0.5, 1.5, 0.1])
        res = cdtw_exact(P, Q)
        assert res.run.P.vertices == (0.0, 2.0)
        assert 0.0 < res.value <= cdtw_grid(P, Q, GridConfig(resolution=16))

    def test_error_names_the_segments_as_built(self):
        # P runs up through its first two segments, so the overflowing
        # cell (1, 1) of the reduced curves spans segments 1..2 of P.
        with pytest.raises(TooLarge) as info:
            solve([0, 1, 1e156], [0, 1])
        assert "cell (1,1), level 2 (segments 1..2 of P, 1..1 of Q as built): overflow" in str(
            info.value
        )

    @pytest.mark.parametrize("values", [[0, 1e155, 0], [0, 1e160], [0, 1e308]])
    def test_overflow_in_a_cell_is_too_large(self, values):
        # Squaring a height near 1e155 overflows Python floats inside the
        # valley family; the error names the cell and its level.
        with pytest.raises(TooLarge) as info:
            solve(values, [0, 1])
        assert "cell (1,1), level 2 (segments 1..1 of P, 1..1 of Q as built): overflow" in str(
            info.value
        )

    def test_infinite_distance_is_too_large(self):
        # Every cell solves, but the far-corner cost is inf.
        with pytest.raises(TooLarge, match="not finite"):
            solve([0, 1, -1e156], [0, 1])

    def test_no_edge_jumps_after_valley_crossing_turns(self):
        # A single turn that crosses the valley line costs 0.5 * (t - x0)^2
        # more than the valley ride next to the entry corner, inside the
        # envelope's tie tolerance; it won those slivers on preference and
        # left a 1.36e-9 jump where it stopped winning, at top(2, 10).
        # Such turns are no longer built where the ride exists, and every
        # edge is continuous to rounding.
        P = build_curve([
            0.4877767276050209, 0.36758260433967205, 0.9882027958220502,
            0.7229322314397566,
        ])
        Q = build_curve([
            0.7569800904805734, 0.47766877162980625, 0.8033290697003742,
            0.4512614152289818, 0.9187252322525798, 0.6080142629836748,
            0.5369497866364915, 0.17068603927801385, 0.4265044298675026,
            0.4403290448939753, 0.8227960841097367, 0.22961990893165585,
            0.2946567841561286,
        ])
        run = cdtw_exact(P, Q, EngineConfig(record_path=False)).run
        for table in (run.top, run.right):
            for key, bc in table.items():
                raw = bc.cost.raw
                for p, q in zip(raw, raw[1:]):
                    x = p[4]
                    left = (p[0] * x + p[1]) * x + p[2]
                    right = (q[0] * x + q[1]) * x + q[2]
                    assert abs(left - right) <= 1e-12 * (1.0 + abs(left)), key

    def test_stored_edges_never_rise(self):
        # Every stored edge is a reduced cost g = f - R, and travel-closure
        # (f(t) <= f(s) + R(t) - R(s) for s < t) says g never rises: checked
        # at every piece end and interior vertex, against the lowest value
        # before it.  The edge is also continuous: adjacent pieces agree at
        # their shared breakpoint within the same tolerance.  50 seeded
        # pairs of 2 to 30 uniform values, plus the three 40-segment pairs
        # of scripts/fingerprint.py.
        spec = importlib.util.spec_from_file_location(
            "fingerprint", Path(__file__).parents[1] / "scripts" / "fingerprint.py"
        )
        fingerprint = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fingerprint)
        rng = random.Random(5)
        pairs = []
        for _ in range(50):
            p = [rng.random() for _ in range(rng.randint(2, 30))]
            pairs.append((p, [rng.random() for _ in range(rng.randint(2, 30))]))
        pairs += [(a, b) for a, b, record in fingerprint.corpus() if not record]
        assert len(pairs) == 53
        for k, (a, b) in enumerate(pairs):
            run = solve(a, b, config=EngineConfig(record_path=False)).run
            edges = [*run.top.items(), *run.right.items()]
            edges += [(("axis", i), bc) for i, bc in enumerate(run.bottoms + run.lefts)]
            for key, bc in edges:
                low, end = math.inf, None
                for qa, qb, qc, lo, hi in bc.cost.raw:
                    g = (qa * lo + qb) * lo + qc
                    assert end is None or abs(g - end) <= 1e-9 * (1.0 + abs(g)), (k, key, lo)
                    ts = [lo, hi]
                    if qa != 0.0 and lo < -qb / (2.0 * qa) < hi:
                        ts.insert(1, -qb / (2.0 * qa))
                    for t in ts:
                        g = (qa * t + qb) * t + qc
                        assert g - low <= 1e-9 * (1.0 + abs(g)), (k, key, t)
                        low = min(low, g)
                    end = g

    def test_stored_edges_kink_only_concavely(self):
        # The single-turn catalogue emits only stationary turns because no
        # input kinks convexly: at every breakpoint of every stored edge and
        # valley cost the slope may fall but not rise, beyond
        # 1e-9 * (1 + |dl| + |dr|).  Seeded uniform pairs, small-integer
        # pairs (exact ties, point valleys) and scaled pairs; each valley is
        # re-derived from its cell's stored inputs, as the path trace does.
        def rises(raw):
            return [
                (x, dl, dr)
                for (la, lb, _, _, x), (ra, rb, _, _, _) in zip(raw, raw[1:])
                for dl, dr in [(2.0 * la * x + lb, 2.0 * ra * x + rb)]
                if dr - dl > 1e-9 * (1.0 + abs(dl) + abs(dr))
            ]

        # |t - 0.5| kinks convexly at 0.5 and must be flagged.
        assert rises(((0.0, -1.0, 0.5, 0.0, 0.5), (0.0, 1.0, -0.5, 0.5, 1.0))) == [
            (0.5, -1.0, 1.0)
        ]
        rng = random.Random(29)
        pairs = []
        for _ in range(20):
            pairs.append([random_values(rng, rng.randint(2, 20)) for _ in "PQ"])
        for _ in range(20):
            pairs.append(
                [[float(rng.randint(0, 3)) for _ in range(rng.randint(3, 12))] for _ in "PQ"]
            )
        for scale in (1e-3, 1e3):
            for _ in range(3):
                pairs.append(
                    [[scale * v for v in random_values(rng, rng.randint(3, 12))] for _ in "PQ"]
                )
        breaks = valleys = 0
        for k, (a, b) in enumerate(pairs):
            run = solve(a, b).run
            edges = [*run.top.items(), *run.right.items()]
            for i, j in run.top:
                cell = cell_info(run.P, run.Q, i, j)
                if _valley_span(cell) is not None:
                    edges.append((("valley", i, j), propagate_type_b(cell, *run.inputs(i, j))[2]))
                    valleys += 1
            for key, bc in edges:
                assert rises(bc.cost.raw) == [], (k, key)
                breaks += len(bc.cost.raw) - 1
        assert breaks > 3000 and valleys > 300


class TestProvenanceControl:
    def test_path_disabled_raises(self):
        res = solve([0, 1, 2], [0, 2], config=EngineConfig(record_path=False))
        assert res.value >= 0
        with pytest.raises(ProvenanceMissing):
            reconstruct_path(res)

    def test_path_cached_on_result(self):
        res = solve([0, 1], [0.5, 1.5])
        p1 = reconstruct_path(res)
        p2 = reconstruct_path(res)
        assert p1 is p2

    def test_trace_names_missing_valley_provenance(self):
        # The optimal path of this one-cell pair rides the valley, which
        # the trace re-derives from the cell's inputs.  A valley tag in a
        # cell with no valley segment, a travel tag with no source, or a
        # tag that names no source point makes the trace raise
        # ProvenanceMissing rather than guess.
        res = solve([0, 1], [0.5, 1.5])
        run = res.run
        assert engine._trace(run) == res.path
        key = (1, 1)
        last = run.right[key]
        # An opposite-direction cell has no valley to ride.
        flat = solve([0, 1], [1, 0], config=EngineConfig(record_path=False)).run
        flat.right[key] = last._replace(prov=(B_TAG,) * len(last.prov))
        with pytest.raises(ProvenanceMissing, match=r"cell \(1,1\)"):
            engine._trace(flat)
        bad = Prov(1.0, "travel", "", (0.0,), None)
        run.right[key] = last._replace(prov=(bad,) * len(last.prov))
        with pytest.raises(ProvenanceMissing, match="malformed travel"):
            engine._trace(run)
        # A tag with no source map that is not a corner route names no
        # source point, so the trace cannot take its step.
        base = Prov(PREF_BOTTOM, "base", "bottom")
        run.right[key] = last._replace(prov=(base,) * len(last.prov))
        with pytest.raises(ProvenanceMissing, match="no source"):
            engine._trace(run)

    def test_trace_of_a_run_without_path(self):
        # Path recording decides only whether the trace runs: a solve
        # without it stores the same edges, raw pieces and provenance,
        # and tracing them gives the path of the solve with it.  20
        # seeded noise pairs, over 300 cells with a valley segment.
        rng = random.Random(83)
        valleys = 0
        for k in range(20):
            P = random_curve(rng, rng.randint(8, 16))
            Q = random_curve(rng, rng.randint(8, 16))
            bare = cdtw_exact(P, Q, EngineConfig(record_path=False))
            traced = cdtw_exact(P, Q)
            assert bare.path is None and bare.value == traced.value
            a, b = bare.run, traced.run
            for name in ("top", "right"):
                ta, tb = getattr(a, name), getattr(b, name)
                assert ta.keys() == tb.keys(), (k, name)
                for key in ta:
                    assert tuple(ta[key].cost.raw) == tuple(tb[key].cost.raw), (k, name, key)
                    assert ta[key].prov == tb[key].prov, (k, name, key)
            assert len(a.bottoms + a.lefts) == len(b.bottoms + b.lefts)
            for ea, eb in zip(a.bottoms + a.lefts, b.bottoms + b.lefts):
                assert tuple(ea.cost.raw) == tuple(eb.cost.raw) and ea.prov == eb.prov, k
            assert engine._trace(a) == traced.path, k
            valleys += sum(
                _valley_span(cell_info(a.P, a.Q, i, j)) is not None for i, j in a.top
            )
        assert valleys >= 300

    def test_validate_mode_passes(self):
        # every output edge function of a solve passes validate
        rng = random.Random(71)
        P = random_curve(rng, 4)
        Q = random_curve(rng, 4)
        res = cdtw_exact(P, Q)
        for bc in [*res.run.top.values(), *res.run.right.values()]:
            validate(bc.cost)
        assert res.value >= 0


class TestSerialization:
    def test_result_json_round_trip(self):
        res = solve([0, 1], [0.5, 1.5])
        path = reconstruct_path(res)
        assert res.value == pytest.approx(0.25, abs=1e-12)
        data = json.loads(json.dumps(res.stats.to_json()))
        assert data["cells_solved"] == 1
        pblob = json.dumps(path.to_json())
        pdata = json.loads(pblob)
        assert len(pdata["points"]) == 4
        assert len(pdata["annotations"]) == 3

    def test_stats_json_keys_are_strings(self):
        res = solve([0, 1, 2], [1, 0])
        data = json.loads(json.dumps(res.stats.to_json()))
        stats = res.stats
        assert data == {
            "total_pieces": stats.total_pieces,
            "edges": stats.edges,
            "max_edge_pieces": stats.max_edge_pieces,
            "wall_time": stats.wall_time,
            "cells_solved": stats.cells_solved,
        }
        assert list(data) == [
            "total_pieces", "edges", "max_edge_pieces", "wall_time", "cells_solved"
        ]

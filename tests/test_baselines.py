"""Baseline measures and the sampled-grid approximation oracle."""

import itertools
import random

import numpy as np
import pytest

from cdtw import build_curve
from cdtw.baselines import GridConfig, cdtw_grid, discrete_frechet, dtw
from cdtw.engine import cdtw_exact
from cdtw.errors import EmptyInput, InsufficientVertices, ResolutionZero, TooLarge
from cdtw.lattice import MAX_TICKS, _crossings, _monotone_runs

from helpers import (
    axis_ticks as _axis_ticks,
    brute_discrete_frechet,
    brute_dtw,
    cdtw_bruteforce_small,
    random_curve,
    reference_lattice_value,
    reference_seg_weight,
)


def _lattice_corpus():
    """(P, Q, resolutions) on a seeded corpus: random and integer-valued
    curves (integer values put h == 0 exactly on lattice nodes), curves
    against themselves, and value scales from 1e-3 to 1e3.  The lattice
    grows as (resolution x arc length)^2, so large scales get low
    resolutions and short curves."""
    rng = random.Random(97)
    plan = [(1.0, (1, 3, 4, 16, 64))] * 8 + [
        (1e-3, (1, 3, 4, 16)),
        (1e-1, (1, 3, 4, 16)),
        (10.0, (1, 3, 4)),
        (1e2, (1,)),
        (1e3, (1,)),
    ] * 2
    out = []
    for k, (scale, resolutions) in enumerate(plan):
        size = 4 if scale <= 1.0 else 2
        integers = k % 3 == 0
        curves = []
        while len(curves) < 2:
            vals = [
                scale * (rng.randint(0, 4) if integers else rng.uniform(0.0, 2.0))
                for _ in range(rng.randint(2, size))
            ]
            if len(set(vals)) == len(vals):
                curves.append(build_curve(vals))
        P, Q = curves
        out.append((P, P if k % 4 == 1 else Q, resolutions))
    return out


class TestDtw:
    def test_collapse_to_single_vertex(self):
        assert dtw([0, 2], [1]) == pytest.approx(2.0)

    def test_skip_middle(self):
        assert dtw([0, 1, 2], [0, 2]) == pytest.approx(1.0)

    def test_identical(self):
        assert dtw([0.3, 1.7, 0.2], [0.3, 1.7, 0.2]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            dtw([], [1.0])
        with pytest.raises(EmptyInput):
            dtw([1.0], [])

    def test_matches_alignment_enumeration(self):
        rng = random.Random(81)
        for _ in range(30):
            p = [rng.uniform(-2, 2) for _ in range(rng.randint(1, 4))]
            q = [rng.uniform(-2, 2) for _ in range(rng.randint(1, 4))]
            assert dtw(p, q) == pytest.approx(brute_dtw(p, q), abs=1e-12)

    def test_symmetry(self):
        rng = random.Random(83)
        for _ in range(20):
            p = [rng.uniform(-2, 2) for _ in range(rng.randint(1, 6))]
            q = [rng.uniform(-2, 2) for _ in range(rng.randint(1, 6))]
            assert dtw(p, q) == pytest.approx(dtw(q, p), abs=1e-12)


class TestDiscreteFrechet:
    def test_identical(self):
        assert discrete_frechet([0, 1, 2], [0, 1, 2]) == 0.0

    def test_skip_middle(self):
        assert discrete_frechet([0, 1, 2], [0, 2]) == pytest.approx(1.0)

    def test_single_points(self):
        assert discrete_frechet([0], [5]) == pytest.approx(5.0)

    def test_integer_input_gives_float(self):
        value = discrete_frechet([0, 1, 2], [0, 2])
        assert type(value) is float and value == 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            discrete_frechet([], [0.0])

    def test_matches_alignment_enumeration(self):
        rng = random.Random(85)
        for _ in range(30):
            p = [rng.uniform(-2, 2) for _ in range(rng.randint(1, 4))]
            q = [rng.uniform(-2, 2) for _ in range(rng.randint(1, 4))]
            want = brute_discrete_frechet(p, q)
            assert discrete_frechet(p, q) == pytest.approx(want, abs=1e-12)

    def test_bounded_by_dtw_average_step(self):
        # the bottleneck cost never exceeds the summed cost
        rng = random.Random(87)
        for _ in range(20):
            p = [rng.uniform(-2, 2) for _ in range(rng.randint(1, 5))]
            q = [rng.uniform(-2, 2) for _ in range(rng.randint(1, 5))]
            assert discrete_frechet(p, q) <= dtw(p, q) + 1e-12


class TestGrid:
    def test_tick_count_just_above_a_power_of_two(self):
        # A segment of 4 + d ticks gets 4 when d is within 1e-12, the
        # rounding of its arc length, and 8 past it.
        for d, ticks in ((3e-13, 5), (3e-12, 9)):
            assert len(_axis_ticks(build_curve([0, 4 + d]), 1.0, True)) == ticks

    def test_identical_zero_any_resolution(self):
        P = build_curve([0, 1, 0.5, 2])
        for res in (1, 3, 17, 64):
            assert cdtw_grid(P, P, GridConfig(resolution=res)) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_shifted_pair_coarse(self):
        P = build_curve([0, 1])
        Q = build_curve([0.5, 1.5])
        got = cdtw_grid(P, Q, GridConfig(resolution=1))
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_shifted_pair_converges(self):
        P = build_curve([0, 1])
        Q = build_curve([0.5, 1.5])
        got = cdtw_grid(P, Q, GridConfig(resolution=256))
        assert abs(got - 0.25) <= 0.02

    def test_value_lists_build_curves(self):
        # Plain value lists go through build_curve, and its checks apply.
        P, Q = build_curve([0, 1]), build_curve([0.5, 1.5])
        cfg = GridConfig(resolution=4)
        assert cdtw_grid([0.0, 1.0], [0.5, 1.5], cfg) == cdtw_grid(P, Q, cfg)
        with pytest.raises(InsufficientVertices):
            cdtw_grid([0.0, None], Q, cfg)

    def test_resolution_validation(self):
        P = build_curve([0, 1])
        with pytest.raises(ResolutionZero):
            cdtw_grid(P, P, GridConfig(resolution=0))
        with pytest.raises(ResolutionZero):
            cdtw_grid(P, P, GridConfig(resolution=-4))

    @pytest.mark.parametrize("res", [float("nan"), float("inf"), -float("inf")])
    def test_nan_and_infinite_resolution_rejected(self, res):
        P = build_curve([0, 1])
        with pytest.raises(ResolutionZero):
            cdtw_grid(P, P, GridConfig(resolution=res))

    def test_nested_refinement_monotone(self):
        rng = random.Random(89)
        for _ in range(6):
            P = random_curve(rng, rng.randint(2, 4))
            Q = random_curve(rng, rng.randint(2, 4))
            vals = [
                cdtw_grid(P, Q, GridConfig(resolution=r)) for r in (4, 16, 64, 256)
            ]
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 1e-12  # finer lattice contains every coarse path

    def test_upper_bounds_exact(self):
        rng = random.Random(91)
        for _ in range(6):
            P = random_curve(rng, rng.randint(2, 4))
            Q = random_curve(rng, rng.randint(2, 4))
            exact = cdtw_exact(P, Q).value
            grid = cdtw_grid(P, Q, GridConfig(resolution=64))
            assert grid >= exact - 1e-9 * (1 + exact)

    def test_bit_identical_to_reference_lattice(self):
        for P, Q, resolutions in _lattice_corpus():
            for r in resolutions:
                want = reference_lattice_value(
                    P, Q, _axis_ticks(P, float(r), True), _axis_ticks(Q, float(r), True)
                )
                assert cdtw_grid(P, Q, GridConfig(resolution=r)) == want
                want = reference_lattice_value(
                    P, Q, _axis_ticks(P, float(r), False), _axis_ticks(Q, float(r), False)
                )
                assert cdtw_bruteforce_small(P, Q, r) == want

    def test_bench_sized_lattices_bit_identical_to_reference(self):
        # Resolution 256 on two walks of 13 vertices and arc length 8 (over
        # 20 blocks of crossing columns, swept through the same buffers),
        # and on a pair whose axes have different tick counts.
        rng = random.Random(103)

        def walk():
            steps = [rng.choice((-1.0, 1.0)) * (0.25 + rng.random()) for _ in range(12)]
            scale = 8.0 / sum(abs(s) for s in steps)
            return build_curve(list(itertools.accumulate([0.0] + [s * scale for s in steps])))

        pairs = [(walk(), walk()), (walk(), walk())]
        pairs.append((build_curve([0, 1.5, 0.2, 2]), build_curve([1, 0, 0.7])))
        for k, (P, Q) in enumerate(pairs):
            xs, ys = _axis_ticks(P, 256.0, True), _axis_ticks(Q, 256.0, True)
            if k < 2:
                assert min(len(xs), len(ys)) > 20 * 128
            else:
                assert len(xs) != len(ys)
            want = reference_lattice_value(P, Q, xs, ys)
            assert cdtw_grid(P, Q, GridConfig(resolution=256)) == want

    @pytest.mark.parametrize(
        "p_values, resolution",
        [
            ([0, 1e308], 4),
            ([0, 2], 1e308),
            ([0, 1e30], 1),
            ([0, 0.6 * MAX_TICKS, 0], 1),
        ],
    )
    def test_huge_tick_counts_too_large(self, p_values, resolution):
        # A tick count that is not finite, or an axis above MAX_TICKS,
        # raises TooLarge before any tick is built.
        with pytest.raises(TooLarge):
            cdtw_grid(build_curve(p_values), build_curve([0, 1]), GridConfig(resolution))

    def test_crossings_match_the_product_test(self):
        # The crossing edges found before the sweep are, column by column
        # and for each edge family, exactly np.flatnonzero(a0 * a1 < 0),
        # with the reference weights.  One pair near 1e-160 and one near
        # 1e-170 have heights whose product underflows to zero on some or
        # all edges, where a sign test would disagree with the product test.
        cases = [
            (P, Q, float(r), pow2)
            for P, Q, resolutions in _lattice_corpus()
            for r in resolutions
            for pow2 in (True, False)
        ]
        for scale in (1e-160, 1e-170):
            tiny_p = build_curve([scale * v for v in (0.3, 1.7, 0.2, 1.1)])
            tiny_q = build_curve([scale * v for v in (1.2, 0.1, 1.9)])
            cases += [(tiny_p, tiny_q, 10.0 / scale, pow2) for pow2 in (True, False)]
        underflows = 0
        for P, Q, r, pow2 in cases:
            xs, ys = _axis_ticks(P, r, pow2), _axis_ticks(Q, r, pow2)
            pv = np.interp(xs, P.prefix_lengths, P.vertices)
            qv = np.interp(ys, Q.prefix_lengths, Q.vertices)
            dy = np.diff(ys)
            horizontal, diagonal, vertical = _crossings(
                pv, qv, _monotone_runs(qv), np.diff(xs), dy
            )
            for c in range(len(xs)):
                h0 = pv[c] - qv
                families = [(vertical, h0[:-1], h0[1:], dy)]
                if c + 1 < len(xs):
                    h1, dx = pv[c + 1] - qv, xs[c + 1] - xs[c]
                    families += [
                        (horizontal, h0, h1, dx), (diagonal, h0[:-1], h1[1:], dx + dy)
                    ]
                for (off, rows, vals), a0, a1, length in families:
                    want = np.flatnonzero(a0 * a1 < 0)
                    got = slice(off[c], off[c + 1])
                    np.testing.assert_array_equal(rows[got], want)
                    np.testing.assert_array_equal(
                        vals[got], reference_seg_weight(a0, a1, length)[want]
                    )
                    opposite = np.sign(a0) * np.sign(a1) < 0
                    underflows += np.count_nonzero(opposite) - want.size
        assert underflows > 0


class TestBruteforceSmall:
    def test_shifted_pair(self):
        P = build_curve([0, 1])
        Q = build_curve([0.5, 1.5])
        got = cdtw_bruteforce_small(P, Q, 1024)
        assert abs(got - 0.25) <= 0.005

    def test_opposite_pair(self):
        P = build_curve([0, 1])
        Q = build_curve([1, 0])
        got = cdtw_bruteforce_small(P, Q, 1024)
        assert abs(got - 1.0) <= 0.005

    def test_size_limits(self):
        small = build_curve([0, 1])
        big = build_curve([0, 1, 0, 1, 0])
        with pytest.raises(TooLarge):
            cdtw_bruteforce_small(big, small, 64)
        with pytest.raises(TooLarge):
            cdtw_bruteforce_small(small, small, 4096)
        with pytest.raises(ResolutionZero):
            cdtw_bruteforce_small(small, small, 0)

    @pytest.mark.parametrize(
        "p_values, segments", [([0, 1e308], 4), ([0, 1e12], 4), ([0, 1e30], 1)]
    )
    def test_huge_tick_counts_too_large(self, p_values, segments):
        # TooLarge before any tick is built, also where the count
        # overflows or would need terabytes.
        with pytest.raises(TooLarge):
            cdtw_bruteforce_small(build_curve(p_values), build_curve([0, 1]), segments)

    def test_nan_segments_rejected(self):
        small = build_curve([0, 1])
        with pytest.raises(ResolutionZero):
            cdtw_bruteforce_small(small, small, float("nan"))

    def test_agrees_with_grid_oracle(self):
        rng = random.Random(95)
        for _ in range(4):
            P = random_curve(rng, rng.randint(2, 3))
            Q = random_curve(rng, rng.randint(2, 3))
            exact = cdtw_exact(P, Q).value
            brute = cdtw_bruteforce_small(P, Q, 512)
            assert brute >= exact - 1e-9
            assert brute <= exact + 0.05 * exact + 0.02

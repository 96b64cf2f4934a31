"""Piecewise-quadratic algebra: evaluation, substitution, addition,
cumulative minima, and the lower envelope."""

import math
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdtw import piecewise as pw
from cdtw.errors import CoverageGap, InvariantViolation, OutOfDomain
from cdtw.propagation import Prov, apply_edge_travel

from helpers import (
    NO_CORNER,
    Quadratic,
    add_raw,
    breakpoints,
    numeric_cumulative_min,
    prefix_min,
    pwq_prefix_min,
    quadratics,
    reference_env_insert,
    reference_locate,
    reference_value,
    shift_raw,
    validate,
)


def pwq(*specs):
    """Build a PiecewiseQuadratic from (a, b, c, lo, hi) tuples."""
    return pw.from_raw(specs)


# The integral of |u - 0.5| from 0, on [0, 1]: two pieces meeting at 0.5.
TENT = pwq((-0.5, 0.5, 0.0, 0.0, 0.5), (0.5, -0.5, 0.25, 0.5, 1.0))


def random_pwq(rng, lo=0.0, hi=1.0, max_pieces=5, amp=2.0):
    """Random continuous PWQ on [lo, hi] (no kink-rule guarantee)."""
    k = rng.randint(1, max_pieces)
    cuts = sorted(rng.uniform(lo, hi) for _ in range(k - 1))
    bounds = [lo] + cuts + [hi]
    pieces = []
    value = rng.uniform(-amp, amp)
    for a0, b0 in zip(bounds, bounds[1:]):
        qa = rng.uniform(-amp, amp)
        qb = rng.uniform(-amp, amp)
        qc = value - (qa * a0 + qb) * a0
        pieces.append(Quadratic(qa, qb, qc, a0, b0))
        value = pieces[-1].value(b0)
    return pw.from_raw((p.a, p.b, p.c, p.lo, p.hi) for p in pieces)


def ranked(cands):
    """Envelope items tagging each candidate with its rank in cands, so
    that on ties the earlier candidate wins."""
    return [(f.raw, (-float(k), None)) for k, f in enumerate(cands)]


def travel(f, qc):
    """Edge travel of the cost f along an edge whose running integral is
    the single piece qc: min over s <= t of (f(s) - qc(s)) + qc(t), as
    apply_edge_travel of the reduced cost f - qc, with qc added back."""
    qa, qb, qcc = qc[:3]
    g = pw.from_raw([(a - qa, b - qb, c - qcc, lo, hi) for a, b, c, lo, hi in f.raw])
    g, _ = apply_edge_travel(g, [Prov(1.0, "base", "bottom")] * len(g.raw), NO_CORNER)
    return pw.from_raw([(a + qa, b + qb, c + qcc, lo, hi) for a, b, c, lo, hi in g.raw])


class TestEvaluate:
    def test_single_piece(self):
        f = pwq((1, 0, 0, 0, 1))
        assert f.value(0.5) == pytest.approx(0.25)

    def test_breakpoint_continuity(self):
        f = pwq((1, 0, 0, 0, 1), (0, 2, -1, 1, 2))
        assert f.value(1.0) == pytest.approx(1.0)
        first, second = quadratics(f)
        assert first.value(1.0) == pytest.approx(second.value(1.0))

    def test_out_of_domain(self):
        f = pwq((1, 0, 0, 0, 1))
        with pytest.raises(OutOfDomain):
            f.value(2.0)

    def test_domain_slack_is_relative_to_the_ends(self):
        # On [2, 3] a point is accepted up to 1e-9 * (1 + 2 + 3) = 6e-9
        # outside, and read at the nearer end; 3x that is out of domain.
        f = pwq((1, 0, 0, 2, 3))
        assert f.value(3 + 1.8e-9) == 9.0
        assert f.value(2 - 1.8e-9) == 4.0
        for s in (3 + 1.8e-8, 2 - 1.8e-8):
            with pytest.raises(OutOfDomain):
                f.value(s)

    def test_clamp_breaks_ties_as_the_builtins(self):
        # s = -0.0 or 0.0 read at a domain end of 0.0 or -0.0, and points
        # just outside the ends: locate and value agree with the clamp
        # min(max(s, lo), hi), signed zero of the value included.
        rng = random.Random(30)
        zeros = (-0.0, 0.0)
        domains = [(z, 1.0) for z in zeros] + [(-1.0, z) for z in zeros]
        for lo, hi in domains:
            mid = 0.5 * (lo + hi)
            f = pwq((0.0, 1.0, -0.0, lo, mid), (rng.uniform(-1, 1), 1.0, -0.0, mid, hi))
            for s in (*zeros, lo - 1e-10, hi + 1e-10, rng.uniform(lo, hi)):
                assert pw.locate(f.raw, s) == reference_locate(f.raw, s)
                assert repr(f.value(s)) == repr(reference_value(f, s))
        assert repr(pwq((0.0, 1.0, -0.0, 0.0, 1.0)).value(-0.0)) == "-0.0"


class TestAffineSubstitute:
    def test_shift(self):
        f = pwq((1, 0, 0, 0, 1))
        g = pw.from_raw(shift_raw(f.raw, 0.5))
        assert g.lo == pytest.approx(-0.5)
        assert g.hi == pytest.approx(0.5)
        assert g.value(0.25) == pytest.approx(0.75**2)

    def test_identity(self):
        f = pwq((1, 2, 3, 0, 1), (0, 4, 2, 1, 2))
        g = pw.from_raw(shift_raw(f.raw, 0.0))
        for s in (0.0, 0.5, 1.0, 1.7, 2.0):
            assert g.value(s) == pytest.approx(f.value(s))

    def test_random_pointwise(self):
        rng = random.Random(2)
        for _ in range(50):
            f = random_pwq(rng)
            beta = rng.uniform(-1, 1)
            g = pw.from_raw(shift_raw(f.raw, beta))
            for _ in range(20):
                t = rng.uniform(g.lo, g.hi)
                assert g.value(t) == pytest.approx(f.value(t + beta), abs=1e-9)


class TestAddQuadratic:
    def test_add_single(self):
        f = pwq((0, 1, 0, 0, 1))
        g = pw.from_raw(add_raw(f.raw, [(1, 0, 0, 0, 1)]))
        assert g.value(0.5) == pytest.approx(0.75)

    def test_add_zero(self):
        f = pwq((2, -1, 0.5, 0, 1))
        g = pw.from_raw(add_raw(f.raw, [(0, 0, 0, 0, 1)]))
        for s in (0, 0.3, 1):
            assert g.value(s) == pytest.approx(f.value(s))

    def test_breakpoint_union(self):
        f = pw.constant(0.0, 0.0, 1.0)
        h = pw.from_raw(add_raw(f.raw, TENT.raw))
        assert len(h.raw) == 2
        assert h.value(1.0) == pytest.approx(0.25)

    def test_evaluate_commutes(self):
        rng = random.Random(9)
        for _ in range(40):
            f = random_pwq(rng)
            g = random_pwq(rng)
            s = pw.from_raw(add_raw(f.raw, g.raw))
            for _ in range(10):
                x = rng.uniform(0, 1)
                assert s.value(x) == pytest.approx(f.value(x) + g.value(x), abs=1e-9)


class TestCumulativeMin:
    def test_vertex_then_flat(self):
        f = pwq((1, -2, 0, 0, 3))
        g, args, _ = prefix_min(f)
        assert args == [None, 1.0]
        assert g.value(0.5) == pytest.approx(f.value(0.5))
        assert g.value(2.0) == pytest.approx(-1.0)
        assert g.value(3.0) == pytest.approx(-1.0)

    def test_increasing_becomes_constant(self):
        f = pwq((0, 1, 0, 0, 1))
        g, _, _ = prefix_min(f)
        for s in (0, 0.4, 1):
            assert g.value(s) == pytest.approx(0.0, abs=1e-12)

    def test_decreasing_unchanged(self):
        f = pwq((0, -1, 1, 0, 1))
        g, _, _ = prefix_min(f)
        for s in (0, 0.4, 1):
            assert g.value(s) == pytest.approx(f.value(s))

    def test_matches_exact_prefix_min_oracle(self):
        rng = random.Random(21)
        for _ in range(60):
            f = random_pwq(rng)
            g, _, _ = prefix_min(f)
            for _ in range(15):
                t = rng.uniform(0, 1)
                expect = pwq_prefix_min(quadratics(f), t)
                assert g.value(t) == pytest.approx(expect, abs=1e-9)

    def test_matches_dense_sampling_loosely(self):
        rng = random.Random(25)
        for _ in range(20):
            f = random_pwq(rng)
            g, _, _ = prefix_min(f)
            for _ in range(5):
                t = rng.uniform(0, 1)
                expect = numeric_cumulative_min(f.value, 0.0, 1.0, t, 3000)
                assert g.value(t) == pytest.approx(expect, abs=1e-3)

    def test_idempotent(self):
        rng = random.Random(22)
        for _ in range(30):
            f = random_pwq(rng)
            g1, _, _ = prefix_min(f)
            g2, _, _ = prefix_min(g1)
            for _ in range(10):
                t = rng.uniform(0, 1)
                assert g2.value(t) == pytest.approx(g1.value(t), abs=1e-12)

    def test_below_and_nonincreasing(self):
        rng = random.Random(23)
        for _ in range(30):
            f = random_pwq(rng)
            g, _, _ = prefix_min(f)
            last = math.inf
            for k in range(50):
                t = k / 49.0
                v = g.value(t)
                assert v <= f.value(t) + 1e-12
                assert v <= last + 1e-12
                last = v

    def test_annotations_point_at_true_minima(self):
        rng = random.Random(24)
        for _ in range(40):
            f = random_pwq(rng)
            g, args, _ = prefix_min(f)
            for piece, arg in zip(quadratics(g), args):
                t = 0.5 * (piece.lo + piece.hi)
                if arg is None:
                    assert g.value(t) == pytest.approx(f.value(t), abs=1e-9)
                else:
                    assert arg <= t + 1e-9
                    assert g.value(t) == pytest.approx(f.value(arg), abs=1e-6)


    def test_tags_follow_source_pieces_and_argmins(self):
        rng = random.Random(26)
        for _ in range(60):
            f = random_pwq(rng)
            tags = [f"piece{k}" for k in range(len(f.raw))]
            g, args, out_tags = pw.cumulative_min(f, tags, NO_CORNER)
            g0, args0, _ = prefix_min(f)
            assert len(out_tags) == len(g.raw) == len(args)
            for piece, arg, tag in zip(g.raw, args, out_tags):
                # a follow piece lies inside the piece it follows; a flat one
                # names the piece covering its argmin, left at a breakpoint
                src = pw.locate(f.raw, 0.5 * (piece[3] + piece[4]) if arg is None else arg)
                assert tag == tags[src]
            for k in range(40):
                t = k / 39.0
                assert g.value(t) == pytest.approx(g0.value(t), abs=1e-12)
                ka, kb = pw.locate(g.raw, t), pw.locate(g0.raw, t)
                assert (args[ka] is None) == (args0[kb] is None)

    def test_argmin_on_a_breakpoint_takes_the_left_tag(self):
        # The minimum 0 sits on the breakpoint s = 1 of two linear pieces.
        f = pwq((0, -1, 1, 0, 1), (0, 1, -1, 1, 2))
        g, args, tags = pw.cumulative_min(f, ["down", "up"], NO_CORNER)
        assert args == [None, 1.0]
        assert tags == ["down", "down"]
        assert g.value(1.5) == pytest.approx(0.0)

    def test_merges_only_equal_tags(self):
        # One decreasing line cut in two: the pieces merge with None tags
        # and with equal tags, and stay apart with different tags.
        f = pwq((0, -1, 1, 0, 0.5), (0, -1, 1, 0.5, 1))
        assert len(prefix_min(f)[0].raw) == 1
        assert pw.cumulative_min(f, ["a", "a"], NO_CORNER)[2] == ["a"]
        g, args, tags = pw.cumulative_min(f, ["a", "b"], NO_CORNER)
        assert breakpoints(g) == [0, 0.5, 1]
        assert args == [None, None]
        assert tags == ["a", "b"]

    def test_upward_jumps_add_a_flat_and_a_follow_piece_each(self):
        # Four pieces with one coefficient pair, each jumping up past the
        # running minimum and falling below it: every piece after the
        # first gives a flat piece and one that follows it, seven pieces
        # from four (at most three per piece can come out).
        f = pw.from_raw([(0.0, -1.0, 0.5 * k, float(k), float(k + 1)) for k in range(4)])
        g, args, tags = pw.cumulative_min(f, ["s0", "s1", "s2", "s3"], NO_CORNER)
        assert g.raw == (
            (0.0, -1.0, 0.0, 0.0, 1.0), (0.0, 0.0, -1.0, 1.0, 1.5),
            (0.0, -1.0, 0.5, 1.5, 2.0), (0.0, 0.0, -1.5, 2.0, 2.5),
            (0.0, -1.0, 1.0, 2.5, 3.0), (0.0, 0.0, -2.0, 3.0, 3.5),
            (0.0, -1.0, 1.5, 3.5, 4.0),
        )
        assert args == [None, 1.0, None, 2.0, None, 3.0, None]
        assert tags == ["s0", "s0", "s1", "s1", "s2", "s2", "s3"]
        # Equal tags merge nothing here: the pieces differ in coefficients.
        assert pw.cumulative_min(f, ["s"] * 4, NO_CORNER)[0] == g

    def test_start_value_caps_and_keeps_its_tag(self):
        # With start = (k, tag) the result is min(cumulative_min(f), k); a
        # flat piece at k carries tag and no argmin, every other piece
        # follows or points at f as without a start.
        rng = random.Random(27)
        capped = 0
        for _ in range(60):
            f = random_pwq(rng)
            tags = [f"piece{k}" for k in range(len(f.raw))]
            ref, _, _ = prefix_min(f)
            k = rng.uniform(-2.5, 2.5)
            g, args, out_tags = pw.cumulative_min(f, tags, (k, "corner"))
            assert len(g.raw) <= 3 * len(f.raw)
            for j in range(40):
                t = j / 39.0
                assert g.value(t) == pytest.approx(min(ref.value(t), k), abs=1e-9)
            for piece, arg, tag in zip(g.raw, args, out_tags):
                t = 0.5 * (piece[3] + piece[4])
                if tag == "corner":
                    capped += 1
                    assert arg is None and piece[:3] == (0.0, 0.0, k)
                elif arg is None:
                    assert g.value(t) == pytest.approx(f.value(t), abs=1e-9)
                else:
                    assert g.value(t) == pytest.approx(f.value(arg), abs=1e-6)
        assert capped > 0

    def test_cut_found_by_bisection(self):
        # A slope of -1e-9 is below the tolerance, so stable_roots reports
        # no root and the cut where f falls through k = 1 - 3e-9, at
        # s = 3, is found by bisection.
        f = pw.from_raw([(0.0, -1e-9, 1.0, 0.0, 10.0)])
        g, args, tags = pw.cumulative_min(f, ["f"], (1.0 - 3e-9, "k"))
        (flat, follow) = g.raw
        assert flat[:4] == (0.0, 0.0, 1.0 - 3e-9, 0.0)
        assert follow == (0.0, -1e-9, 1.0, flat[4], 10.0)
        assert flat[4] == pytest.approx(3.0, abs=1e-6)
        assert args == [None, None]
        assert tags == ["k", "f"]


class TestOffsetCumulativeMin:
    def test_zero_offset_reduction(self):
        rng = random.Random(31)
        for _ in range(30):
            f = random_pwq(rng)
            qc = (0, 0, 0, 0, 1)
            g = travel(f, qc)
            ref, _, _ = prefix_min(f)
            for k in range(25):
                t = k / 24.0
                assert g.value(t) == pytest.approx(ref.value(t), abs=1e-12)

    def test_flat_input_cancels(self):
        f = pw.constant(0.0, 0.0, 1.0)
        qc = (1, 0, 0, 0, 1)
        g = travel(f, qc)
        for t in (0, 0.5, 1):
            assert g.value(t) == pytest.approx(0.0, abs=1e-12)

    def test_matching_slopes_identity(self):
        f = pwq((0, 1, 0, 0, 1))
        qc = (0, 1, 0, 0, 1)
        g = travel(f, qc)
        for t in (0, 0.5, 1):
            assert g.value(t) == pytest.approx(f.value(t), abs=1e-12)

    def test_matches_exact_prefix_min_oracle(self):
        rng = random.Random(32)
        for _ in range(40):
            f = random_pwq(rng)
            qc = Quadratic(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1), 0, 1)
            # Difference built by hand so the oracle shares nothing with the
            # production addition code.
            diff = [
                Quadratic(p.a - qc.a, p.b - qc.b, p.c - qc.c, p.lo, p.hi)
                for p in quadratics(f)
            ]
            g = travel(f, (qc.a, qc.b, qc.c, qc.lo, qc.hi))
            for _ in range(10):
                t = rng.uniform(0, 1)
                expect = pwq_prefix_min(diff, t) + qc.value(t)
                assert g.value(t) == pytest.approx(expect, abs=1e-9)

    def test_nonincreasing_difference_returns_env(self):
        # env - edge falls everywhere, so no travel can win and the reduced
        # cost env - edge comes back with its own pieces and tags.
        env = pwq((0.3, -1.7, 2.9, 0, 1), (0.1, -1.3, 2.7, 1, 2))
        tags = [Prov(1.0, "C2", "bottom", (0.0, 0.0)), Prov(2.0, "C1", "left")]
        # minus the integral of |u - 0.7| from 0
        neg = [(0.5, -0.7, 0.0, 0.0, 0.7), (-0.5, 0.7, -0.49, 0.7, 2.0)]
        diff = add_raw(env.raw, neg)
        dtags = [tags[0], tags[0], tags[1]]  # spans [0, 0.7], [0.7, 1], [1, 2]
        g, gtags = apply_edge_travel(pw.from_raw(diff), dtags, NO_CORNER)
        assert g.raw == tuple(diff)
        assert gtags == dtags

    def test_upward_jump_gets_travel(self):
        # Each piece of env falls, but the envelope of partial fragments
        # jumps up at 1: past it, travelling from the low point is cheaper.
        env = pwq((0, -1, 2, 0, 1), (0, -1, 4, 1, 2))
        tags = [Prov(1.0, "C2", "bottom", (0.0, 0.0)), Prov(2.0, "C1", "left")]
        g, gtags = apply_edge_travel(env, tags, NO_CORNER)
        assert g.value(1.5) == pytest.approx(1.0)
        assert gtags[-1].kind == "travel"
        assert gtags[-1].data == (1.0,)

    def test_upward_step_past_slack_gets_travel(self):
        # A step up by 1e-8, ten times the slack _nonincreasing allows: the
        # envelope is not its own minimum, and travel holds the value at 1.
        env = pwq((0, 0, 1.0, 0, 0.5), (0, 0, 1.0 + 1e-8, 0.5, 1))
        tags = [Prov(1.0, "C2", "bottom", (0.0, 0.0)), Prov(2.0, "C1", "left")]
        g, _ = apply_edge_travel(env, tags, NO_CORNER)
        assert g.value(0.75) <= 1.0 + 2e-9


class TestLowerEnvelope:
    def test_two_parabolas(self):
        f1 = pwq((1, 0, 0, 0, 1))
        f2 = pwq((1, -2, 1, 0, 1))
        env, _ = pw.lower_envelope(ranked([f1, f2]), 0.0, 1.0)
        assert env.value(0.25) == pytest.approx(0.0625)
        assert env.value(0.75) == pytest.approx(0.0625)
        bks = breakpoints(env)
        assert any(abs(b - 0.5) < 1e-9 for b in bks)

    def test_single_candidate(self):
        f = pwq((2, -1, 0.3, 0, 1))
        env, _ = pw.lower_envelope(ranked([f]), 0.0, 1.0)
        for s in (0, 0.5, 1):
            assert env.value(s) == pytest.approx(f.value(s))

    def test_uniform_domination(self):
        f1 = pwq((1, 0, 1, 0, 1))
        f2 = pwq((1, 0, 0, 0, 1))
        env, _ = pw.lower_envelope(ranked([f1, f2]), 0.0, 1.0)
        for s in (0, 0.5, 1):
            assert env.value(s) == pytest.approx(f2.value(s))

    def test_coverage_gap_raises(self):
        f1 = pwq((0, 0, 1, 0.0, 0.4))
        f2 = pwq((0, 0, 1, 0.6, 1.0))
        with pytest.raises(CoverageGap):
            pw.lower_envelope(ranked([f1, f2]), 0.0, 1.0)
        # Holes of 6e-6, three times the coverage slack (2e-6 here), at the
        # start and inside.
        with pytest.raises(CoverageGap, match=re.escape("gap [0.0, 6e-06]")):
            pw.lower_envelope(ranked([pwq((0, 0, 1, 6e-6, 1.0))]), 0.0, 1.0)
        halves = [pwq((0, 0, 1, 0.0, 0.5)), pwq((0, 0, 2, 0.500006, 1.0))]
        with pytest.raises(CoverageGap, match=re.escape("gap [0.5, 0.500006]")):
            pw.lower_envelope(ranked(halves), 0.0, 1.0)

    def test_fragment_outside_raises_no_coverage(self):
        with pytest.raises(CoverageGap, match="no coverage"):
            pw.lower_envelope(ranked([pwq((0, 0, 1, 2.0, 3.0))]), 0.0, 1.0)

    def test_fragment_short_of_the_end_raises_gap(self):
        with pytest.raises(CoverageGap, match=re.escape("gap [0.5, 1.0]")):
            pw.lower_envelope(ranked([pwq((0, 0, 1, 0.0, 0.5))]), 0.0, 1.0)
        # The coverage slack is 1e3 * 1e-9 * (1 + |lo| + |hi|), 2e-6 here:
        # a hole of 6e-6 is a gap, one of 6e-7 is snapped shut.
        with pytest.raises(CoverageGap, match=re.escape("gap [0.999994, 1.0]")):
            pw.lower_envelope(ranked([pwq((0, 0, 1, 0.0, 0.999994))]), 0.0, 1.0)
        env, _ = pw.lower_envelope(ranked([pwq((0, 0, 1, 0.0, 0.9999994))]), 0.0, 1.0)
        assert env.raw == ((0, 0, 1, 0.0, 1.0),)

    def test_partial_fragments_compose(self):
        f1 = pwq((0, 0, 2, 0.0, 0.7))
        f2 = pwq((0, 0, 1, 0.3, 1.0))
        env, _ = pw.lower_envelope(ranked([f1, f2]), 0.0, 1.0)
        assert env.value(0.1) == pytest.approx(2.0)
        assert env.value(0.5) == pytest.approx(1.0)
        assert env.value(0.9) == pytest.approx(1.0)

    def test_fragments_filling_gaps_to_the_left(self):
        # Each later fragment ends before an earlier one starts, so its
        # pieces must land in front of that one in the envelope.
        f1 = pwq((0, 1, 0, 0.6, 1.0))
        f2 = pwq((0, 0, 3, 0.0, 0.3))
        f3 = pwq((0, 0, 2, 0.3, 0.6))
        env, _ = pw.lower_envelope(ranked([f1, f2, f3]), 0.0, 1.0)
        assert breakpoints(env) == [0.0, 0.3, 0.6, 1.0]
        for s, expect in ((0.1, 3.0), (0.45, 2.0), (0.8, 0.8)):
            assert env.value(s) == pytest.approx(expect)

    def test_random_sets_match_dense_min(self):
        rng = random.Random(41)
        for _ in range(60):
            cands = []
            for _ in range(rng.randint(1, 20)):
                a = rng.uniform(-3, 3)
                b = rng.uniform(-3, 3)
                c = rng.uniform(-3, 3)
                cands.append(pwq((a, b, c, 0.0, 1.0)))
            env, _ = pw.lower_envelope(ranked(cands), 0.0, 1.0)
            for k in range(200):
                s = (k + 0.5) / 200
                expect = min(f.value(s) for f in cands)
                got = env.value(s)
                assert got == pytest.approx(expect, abs=1e-9, rel=1e-9)

    def test_random_piecewise_sets(self):
        rng = random.Random(42)
        for _ in range(30):
            cands = [random_pwq(rng) for _ in range(rng.randint(1, 8))]
            env, _ = pw.lower_envelope(ranked(cands), 0.0, 1.0)
            for k in range(100):
                s = (k + 0.5) / 100
                expect = min(f.value(s) for f in cands)
                assert env.value(s) == pytest.approx(expect, abs=1e-9, rel=1e-9)

    def test_tie_break_prefers_higher_pref(self):
        f1 = pwq((1, 0, 0, 0, 1))
        f2 = pwq((1, 0, 0, 0, 1))
        env, tags = pw.lower_envelope(
            [(f1.raw, (0.0, "low")), (f2.raw, (1.0, "high"))], 0.0, 1.0
        )
        assert all(t[1] == "high" for t in tags)

    def test_touching_difference_takes_the_lower_fragment(self):
        # The difference of the two (-2 s^2 + ...) only touches zero near
        # the midpoint and its discriminant rounds below zero, so no root
        # splits the span; a midpoint tie must not hand the whole span to
        # the first fragment, which is 6.8 higher at lo.
        lo, hi = 17.16067336731037, 20.83796051744831
        e = pwq((1.5, -55.15930725206905, 520.6139702059293, lo, hi))
        q = pwq((-0.5, 20.83796051744831, -201.3341183480361, lo, hi))
        env, _ = pw.lower_envelope([(e.raw, (1.0, "e")), (q.raw, (1.0, "q"))], lo, hi)
        for k in range(11):
            s = lo + (hi - lo) * k / 10
            assert env.value(s) <= min(e.value(s), q.value(s)) + 1e-9


class TestEnvelopeMerge:
    def test_equals_one_piece_at_a_time(self):
        # Partial fragments of several pieces, some reaching past [lo, hi],
        # some with sliver pieces, some repeated under another preference:
        # the one-pass merge must give the very entries that inserting the
        # pieces one at a time gives.
        rng = random.Random(53)
        lo, hi = 0.0, 1.0
        for _ in range(300):
            items = []
            for _ in range(rng.randint(1, 8)):
                if items and rng.random() < 0.2:
                    f, _tag = rng.choice(items)
                else:
                    u = rng.uniform(-0.2, 0.9)
                    v = rng.uniform(u + 1e-3, 1.2)
                    if items and rng.random() < 0.5:
                        # end within the tolerance of an earlier fragment's end
                        other = rng.choice(items)[0]
                        v = rng.choice([other.lo, other.hi]) + rng.choice([-1e-9, -1e-10, 1e-10, 1e-9])
                        u = min(u, v - 1e-3)
                    f = random_pwq(rng, u, v, max_pieces=4)
                    if rng.random() < 0.3:
                        raw = list(f.raw)
                        k = rng.randrange(len(raw))
                        a, b, c, p_lo, p_hi = raw[k]
                        cut = p_lo + rng.choice([1e-12, 1e-10, 1e-8])
                        if cut < p_hi:
                            raw[k:k + 1] = [(a, b, c, p_lo, cut), (a, b, c, cut, p_hi)]
                            f = pw.from_raw(raw)
                items.append((f, (float(rng.randint(0, 2)), len(items))))
            env = want = []
            for f, tag in items:
                env = pw._env_merge(env, f.raw, tag, lo, hi)
                for p in f.raw:
                    a, b = max(lo, p[3]), min(hi, p[4])
                    if b - a > 0:
                        want = reference_env_insert(want, (p[0], p[1], p[2], a, b, tag))
            assert env == want


class TestNormalize:
    # The expected outputs are literals: the normaliser's results, pinned
    # bit for bit.

    def test_sliver_mid_list_widens_the_next_piece_down(self):
        f, tags = pw.normalize([
            (1.0, 0.0, 0.0, 0.0, 0.4, "a"),
            (0.0, 0.0, 0.5, 0.4, 0.4 + 1e-12, "b"),
            (0.0, 1.0, 0.0, 0.4 + 2e-12, 1.0, "c"),
        ], 0.0, 1.0)
        assert f.raw == ((1.0, 0.0, 0.0, 0.0, 0.4), (0.0, 1.0, 0.0, 0.4, 1.0))
        assert tags == ["a", "c"]

    def test_trailing_sliver_extends_the_last_kept_piece(self):
        f, tags = pw.normalize([
            (0.0, 0.0, 1.0, 0.0, 0.5, "a"),
            (0.0, 1.0, 0.5, 0.5, 1.0, "b"),
            (0.0, 0.0, 2.0, 1.0, 1.0 + 1e-12, "c"),
        ], 0.0, 1.0 + 1e-12)
        assert f.raw == ((0.0, 0.0, 1.0, 0.0, 0.5), (0.0, 1.0, 0.5, 0.5, 1.000000000001))
        assert tags == ["a", "b"]

    def test_gap_is_snapped(self):
        f, tags = pw.normalize([
            (0.0, 0.0, 1.0, 0.0, 0.5, "a"),
            (0.0, 0.0, 2.0, 0.5 + 1e-12, 1.0, "b"),
        ], 0.0, 1.0)
        assert f.raw == ((0.0, 0.0, 1.0, 0.0, 0.5), (0.0, 0.0, 2.0, 0.5, 1.0))
        assert tags == ["a", "b"]

    def test_merges_equal_tags_only(self):
        entries = [(1.0, 0.0, 0.0, 0.0, 0.5), (1.0 + 1e-12, 0.0, 0.0, 0.5, 1.0)]
        f, tags = pw.normalize([(*p, t) for p, t in zip(entries, "aa")], 0.0, 1.0)
        assert f.raw == ((1.0, 0.0, 0.0, 0.0, 1.0),)
        assert tags == ["a"]
        f, tags = pw.normalize([(*p, t) for p, t in zip(entries, "ab")], 0.0, 1.0)
        assert f.raw == ((1.0, 0.0, 0.0, 0.0, 0.5), (1.000000000001, 0.0, 0.0, 0.5, 1.0))
        assert tags == ["a", "b"]

    def test_merge_slack_is_relative_to_the_coefficients(self):
        # Equal tags merge where coefficients agree within
        # 1e-9 * (1 + |c| + |c'|), about 5e-9 for c = 2: 1.5e-9 apart
        # merge, 1.5e-8 apart stay two pieces.
        f, tags = pw.normalize([
            (0.0, 0.0, 2.0, 0.0, 0.5, "a"), (0.0, 0.0, 2.0 + 1.5e-9, 0.5, 1.0, "a"),
        ], 0.0, 1.0)
        assert f.raw == ((0.0, 0.0, 2.0, 0.0, 1.0),)
        assert tags == ["a"]
        f, tags = pw.normalize([
            (0.0, 0.0, 2.0, 0.0, 0.5, "a"), (0.0, 0.0, 2.0 + 1.5e-8, 0.5, 1.0, "a"),
        ], 0.0, 1.0)
        assert f.raw == ((0.0, 0.0, 2.0, 0.0, 0.5), (0.0, 0.0, 2.0 + 1.5e-8, 0.5, 1.0))
        assert tags == ["a", "a"]

    def test_one_entry_takes_the_domain_ends(self):
        # Ends within the coverage slack, 1e3 * 1e-9 * (1 + 0 + 1), are
        # moved to the domain's; farther ones are a gap.
        f, tags = pw.normalize([(0.5, -1.0, 2.0, 1e-6, 1.0 - 1e-6, "t")], 0.0, 1.0)
        assert f.raw == ((0.5, -1.0, 2.0, 0.0, 1.0),)
        assert tags == ["t"]
        for lo, hi in ((0.1, 1.0), (0.0, 0.9)):
            with pytest.raises(CoverageGap):
                pw.normalize([(0.5, -1.0, 2.0, lo, hi, "t")], 0.0, 1.0)


class TestStableRoots:
    def test_sorted_distinct_roots(self):
        rng = random.Random(55)
        for _ in range(500):
            a, b, c = (rng.choice([0.0, rng.uniform(-3, 3)]) for _ in range(3))
            roots = pw.stable_roots(a, b, c)
            assert list(roots) == sorted(set(roots))
            for r in roots:
                assert abs((a * r + b) * r + c) <= 1e-9 * (1 + abs(a) * r * r + abs(b * r) + abs(c))

    def test_double_roots_once(self):
        assert pw.stable_roots(1.0, -2.0, 1.0) == (1.0,)
        assert pw.stable_roots(2.0, 0.0, 0.0) == (0.0,)
        assert pw.stable_roots(1.0, -3.0, 2.0) == (1.0, 2.0)
        assert pw.stable_roots(-1.0, 3.0, -2.0) == (1.0, 2.0)


class TestValidateAndSerialise:
    def test_validate_accepts_continuous(self):
        validate(TENT)

    def test_validate_rejects_jump(self):
        f = pwq((0, 0, 0, 0, 1), (0, 0, 5, 1, 2))
        with pytest.raises(InvariantViolation):
            validate(f)

    def test_validate_rejects_convex_kink(self):
        # |s - 1| has a convex kink at 1: left deriv -1 < right deriv +1.
        f = pwq((0, -1, 1, 0, 1), (0, 1, -1, 1, 2))
        with pytest.raises(InvariantViolation):
            validate(f)

    def test_concave_kink_accepted(self):
        f = pwq((0, 1, 0, 0, 1), (0, -1, 2, 1, 2))
        validate(f)

    def test_immutable_hashable_value(self):
        f = pwq((0, 1, 0, 0, 1), (0, -1, 2, 1, 2))
        g = pwq((0, 1, 0, 0, 1), (0, -1, 2, 1, 2))
        assert f == g and hash(f) == hash(g) and f != TENT and f != f.raw
        assert len({f, g, TENT}) == 2
        with pytest.raises(AttributeError):
            f.raw = TENT.raw
        with pytest.raises(AttributeError):
            del f.raw
        with pytest.raises(AttributeError):
            f.extra = 1
        assert pickle.loads(pickle.dumps(f)) == f

    def test_named_tuple_contract(self):
        # One field, whatever the piece count: len(f.raw) counts pieces.
        f = pwq((0, 1, 0, 0, 1), (0, -1, 2, 1, 2))
        assert len(f) == len(tuple(f)) == 1 and tuple(f) == (f.raw,)
        assert pw.PiecewiseQuadratic._make(tuple(f)) == f
        assert f._replace(raw=TENT.raw) == TENT


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_envelope_of_random_pwqs_hypothesis(seed):
    rng = random.Random(seed)
    cands = [random_pwq(rng, max_pieces=3) for _ in range(rng.randint(1, 6))]
    env, _ = pw.lower_envelope(ranked(cands), 0.0, 1.0)
    for k in range(40):
        s = (k + 0.5) / 40
        expect = min(f.value(s) for f in cands)
        assert env.value(s) == pytest.approx(expect, abs=1e-9, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_cumulative_min_hypothesis(seed):
    rng = random.Random(seed)
    f = random_pwq(rng, max_pieces=4)
    g, _, _ = prefix_min(f)
    last = math.inf
    for k in range(60):
        t = k / 59.0
        v = g.value(t)
        assert v <= f.value(t) + 1e-12
        assert v <= last + 1e-12
        last = v

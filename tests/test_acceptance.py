"""Acceptance suite: one test per headline criterion, each printing a
single PASS line with its measured margin when it holds."""

import random
import time

import pytest

from cdtw import build_curve
from cdtw import piecewise as pw
from cdtw.baselines import GridConfig, cdtw_grid, discrete_frechet, dtw
from cdtw.engine import EngineConfig, cdtw_exact, reconstruct_path

from helpers import (
    brute_discrete_frechet,
    brute_dtw,
    exact_path_cost,
    random_curve,
)


def report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def test_closed_form_exactness():
    t0 = time.perf_counter()
    rng = random.Random(101)
    worst = 0.0
    for _ in range(100):
        P = random_curve(rng, rng.randint(2, 6))
        value = cdtw_exact(P, P).value
        assert value == pytest.approx(0.0, abs=1e-9)
        worst = max(worst, abs(value))
    t_ident = time.perf_counter() - t0

    t0 = time.perf_counter()
    got = cdtw_exact(build_curve([0, 1]), build_curve([0.5, 1.5])).value
    assert got == pytest.approx(0.25, abs=1e-9)
    t_shift = time.perf_counter() - t0

    t0 = time.perf_counter()
    got = cdtw_exact(build_curve([0, 1]), build_curve([1, 0])).value
    assert got == pytest.approx(1.0, abs=1e-9)
    t_opp = time.perf_counter() - t0

    t0 = time.perf_counter()
    for delta in (0.1, 0.25, 0.5, 0.9):
        got = cdtw_exact(build_curve([0, 1]), build_curve([delta, 1 + delta])).value
        assert got == pytest.approx(delta * delta, rel=1e-6)
    t_family = time.perf_counter() - t0

    for t in (t_ident, t_shift, t_opp, t_family):
        assert t < 1.0
    report(
        "closed-form exactness",
        f"identity residual {worst:.2e}, times "
        f"{t_ident:.2f}/{t_shift:.3f}/{t_opp:.3f}/{t_family:.3f}s",
    )


def test_oracle_sandwich_and_convergence():
    t0 = time.perf_counter()
    rng = random.Random(103)
    resolutions = (4, 16, 64, 256)
    worst_final = 0.0
    for _ in range(100):
        P = random_curve(rng, rng.randint(2, 6))
        Q = random_curve(rng, rng.randint(2, 6))
        exact = cdtw_exact(P, Q, config=EngineConfig(record_path=False)).value
        gaps = []
        for res in resolutions:
            grid = cdtw_grid(P, Q, GridConfig(resolution=res))
            assert grid >= exact - 1e-9
            gaps.append(grid - exact)
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a + 1e-12
        assert gaps[-1] <= max(0.02 * exact, 0.01)
        worst_final = max(worst_final, gaps[-1])
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(
        "oracle sandwich",
        f"100 pairs, worst final gap {worst_final:.2e}, {elapsed:.1f}s",
    )


def test_path_certificate():
    rng = random.Random(105)
    worst = 0.0
    for _ in range(100):
        P = random_curve(rng, rng.randint(2, 8))
        Q = random_curve(rng, rng.randint(2, 8))
        res = cdtw_exact(P, Q)
        pts = reconstruct_path(res).points
        cost = exact_path_cost(P, Q, pts)
        rel = abs(cost - res.value) / max(res.value, 1e-12)
        assert rel <= 1e-10
        worst = max(worst, rel)
    report("path certificate", f"100 pairs, worst relative error {worst:.2e}")


def test_baseline_oracles_exact():
    rng = random.Random(107)
    for _ in range(200):
        p = [rng.uniform(-2, 2) for _ in range(rng.randint(1, 5))]
        q = [rng.uniform(-2, 2) for _ in range(rng.randint(1, 5))]
        assert dtw(p, q) == brute_dtw(p, q)
        assert discrete_frechet(p, q) == brute_discrete_frechet(p, q)
    report("baseline oracles", "200 instances, exact equality")


def test_invariance_suite():
    rng = random.Random(109)
    worst = 0.0
    for _ in range(100):
        p = [rng.uniform(0, 2) for _ in range(rng.randint(2, 6))]
        q = [rng.uniform(0, 2) for _ in range(rng.randint(2, 6))]
        v = cdtw_exact(build_curve(p), build_curve(q)).value

        sym = cdtw_exact(build_curve(q), build_curve(p)).value
        assert abs(sym - v) <= 1e-12 * (1 + abs(v))

        shift = rng.uniform(-5, 5)
        moved = cdtw_exact(
            build_curve([x + shift for x in p]), build_curve([x + shift for x in q])
        ).value
        assert moved == pytest.approx(v, rel=1e-12, abs=1e-12)

        lam = rng.choice([0.5, 2.0, 10.0])
        scaled = cdtw_exact(
            build_curve([lam * x for x in p]), build_curve([lam * x for x in q])
        ).value
        assert scaled == pytest.approx(lam * lam * v, rel=1e-12)
        if v > 1e-9:
            worst = max(worst, abs(scaled - lam * lam * v) / (lam * lam * v))
    report("invariance suite", f"100 pairs, worst scaling residual {worst:.2e}")


def test_complexity_bounds_never_fire():
    rng = random.Random(111)
    growth = {}
    for _ in range(100):
        P = random_curve(rng, 20)
        Q = random_curve(rng, 20)
        res = cdtw_exact(P, Q, config=EngineConfig(record_path=False))
        n = P.num_segments
        m = Q.num_segments
        # pieces per anti-diagonal level k = i + j; a base-case edge counts
        # towards the level of the only cell it feeds
        run = res.run
        levels = {}
        edges = [(i + 1, bc) for i, bc in enumerate(run.bottoms, start=1)]
        edges += [(j + 1, bc) for j, bc in enumerate(run.lefts, start=1)]
        edges += [(i + j, bc) for table in (run.top, run.right) for (i, j), bc in table.items()]
        for k, bc in edges:
            levels[k] = levels.get(k, 0) + len(bc.cost.raw)
        for k, cnt in levels.items():
            assert cnt <= 2 * k**4
            growth[k] = max(growth.get(k, 0), cnt)
        assert res.stats.total_pieces == sum(levels.values()) <= 2 * (n + m) ** 5
    # empirical growth: max pieces observed per anti-diagonal level
    peak = max(growth.values())
    peak_level = max(growth, key=growth.get)
    sample = {k: growth[k] for k in sorted(growth)[:: max(1, len(growth) // 8)]}
    report(
        "complexity bounds",
        f"100 runs at 19x19 segments, within both bounds; peak {peak} pieces at level "
        f"{peak_level}; growth {sample}",
    )


def test_performance_sanity():
    rng = random.Random(113)
    P = random_curve(rng, 100)
    Q = random_curve(rng, 100)
    t0 = time.perf_counter()
    res = cdtw_exact(P, Q)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    assert res.stats.cells_solved == P.num_segments * Q.num_segments
    report(
        "performance sanity",
        f"n=m=100 in {elapsed:.2f}s, {res.stats.total_pieces} pieces",
    )


def test_envelope_micro_oracle():
    rng = random.Random(115)
    worst = 0.0
    for _ in range(500):
        lo, hi = 0.0, rng.uniform(0.5, 2.0)
        cands = [
            pw.from_raw(
                [(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2), lo, hi)]
            )
        ]
        for _ in range(rng.randint(2, 6)):
            a = rng.uniform(lo, hi)
            b = rng.uniform(lo, hi)
            if b - a < 1e-3:
                continue
            if b < a:
                a, b = b, a
            cands.append(
                pw.from_raw(
                    [(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2), a, b)]
                )
            )
        ranked = [(c.raw, (-float(k), None)) for k, c in enumerate(cands)]
        env, _ = pw.lower_envelope(ranked, lo, hi)
        for k in range(1000):
            s = lo + (hi - lo) * k / 999.0
            want = min(
                c.value(min(max(s, c.lo), c.hi))
                for c in cands
                if c.lo - 1e-12 <= s <= c.hi + 1e-12
            )
            got = env.value(s)
            err = abs(got - want)
            assert err <= 1e-9 * (1 + abs(want))
            worst = max(worst, err)
    report("envelope micro-oracle", f"500 candidate sets, worst error {worst:.2e}")

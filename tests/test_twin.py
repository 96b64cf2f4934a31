"""The multi-precision twin (helpers.mp_twin): the solver, unchanged, on
mpmath numbers with the precision table shrunk, as a reference free of
float rounding.

The twin shares the solver's code, so it cannot see a mutation of the
value in src/cdtw (the twin's value moves with it); test_fingerprint is
the test that kills those.  What it sees is the float solver's own
rounding error, and any float left in the twin's loop.
"""

import math
import random

import pytest

mpmath = pytest.importorskip("mpmath")

from cdtw import EngineConfig, build_curve, cdtw_exact, curves, engine, propagation  # noqa: E402
from cdtw import piecewise as pw  # noqa: E402

from helpers import mp_curve, mp_twin  # noqa: E402

NO_PATH = EngineConfig(record_path=False)


def twin_pairs(seed, count, lo, hi):
    """count pairs of lo..hi values each: even pairs uniform on [-1, 1],
    odd pairs Gaussian walks from 0."""
    rng = random.Random(seed)
    pairs = []
    for k in range(count):
        pair = []
        for _ in range(2):
            n = rng.randint(lo, hi)
            if k % 2:
                vals = [0.0]
                for _ in range(n - 1):
                    vals.append(vals[-1] + rng.gauss(0.0, 1.0))
            else:
                vals = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            pair.append(vals)
        pairs.append(pair)
    return pairs


def bindings():
    table = [name for name in vars(pw) if name == "TOLERANCE" or name.endswith("_SLACK")]
    got = {(m.__name__, "math"): m.math for m in (pw, propagation, engine)}
    got.update({("piecewise", name): getattr(pw, name) for name in table})
    got.update({("curves", name): getattr(curves, name)
                for name in ("ARC_SLACK", "VALLEY_POINT_SLACK")})
    got["dps"] = mpmath.mp.dps
    return got


@pytest.mark.parametrize("fail", [False, True])
def test_every_binding_is_restored(fail):
    before = bindings()
    assert pw.math is math and before[("piecewise", "DRIFT_SLACK")] == 1e-6

    class Boom(Exception):
        pass

    try:
        with mp_twin(dps=50, shrink=1e-10):
            inside = bindings()
            if fail:
                raise Boom
    except Boom:
        pass
    assert bindings() == before
    assert inside["dps"] == 50
    for key, value in before.items():
        if key[1] == "math":
            assert inside[key].sqrt is mpmath.sqrt and inside[key].inf == mpmath.inf
        elif key[1] == "DRIFT_SLACK":
            assert inside[key] == value
        elif key != "dps":
            assert inside[key] == value * 1e-10, key


def test_float_value_within_1e_12_of_the_twin():
    # Measured worst: 4.9e-14 relative on the 20 uniform pairs, 1.2e-14
    # on the 20 walks.
    pairs = twin_pairs(3207, 40, 2, 12)
    floats = [cdtw_exact(build_curve(p), build_curve(q), NO_PATH).value for p, q in pairs]
    with mp_twin():
        twins = [cdtw_exact(mp_curve(p), mp_curve(q), NO_PATH).value for p, q in pairs]
    for k, (f, t) in enumerate(zip(floats, twins)):
        assert isinstance(t, mpmath.mpf)
        assert abs(f - t) <= 1e-12 * abs(t), (k, f, t)


def test_twin_at_40_and_60_digits_agrees():
    # Measured equal.  That alone cannot see a float() left in the twin's
    # loop, which rounds alike at both precisions.  A third of the pair is
    # not a float: there the twin keeps CDTW(P/3, Q/3) = CDTW(P, Q)/9 to
    # 1e-39 (measured), and with a float() on _leg's constant term to 6e-15.
    for p, q in twin_pairs(3208, 3, 6, 12):
        values = []
        for dps in (40, 60):
            with mp_twin(dps=dps):
                values.append(cdtw_exact(mp_curve(p), mp_curve(q)).value)
        assert abs(values[0] - values[1]) <= 1e-30 * abs(values[1]), (p, q)
        with mp_twin():
            third = [mp_curve([mpmath.mpf(v) / 3 for v in c]) for c in (p, q)]
            assert abs(9 * cdtw_exact(*third).value - values[0]) <= 1e-30 * abs(values[0])

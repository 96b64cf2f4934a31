"""CDTW's invariances at rounding level (ROADMAP items 3 and 12).

On seeded pairs of 2-12 values, uniform on [-1, 1] or Gaussian walks,
the value holds within REL relative under swapping the curves, reversing
both, translating both, scaling both by lambda in [1e-8, 1e8] (the value
by lambda^2) and cutting one segment at an interior point; negating both
is bit-identical.  A solve may raise only a CdtwError and never returns
NaN.  Measured worst over seeds 0-599 with these draws: swap 3.9e-14,
reverse 5.2e-14, translate 3.4e-14, scale 7.6e-14, subdivide 1.1e-14, no
raise.  Without engine's short-curve frame the scale part fails: the
absolute slacks do not scale, and 104 of those 600 pairs were off by more
than REL (up to 100%), and 7 solves raised.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cdtw import EngineConfig, cdtw_exact
from cdtw.errors import CdtwError

REL = 1e-12
NO_PATH = EngineConfig(record_path=False)


def pair(seed):
    """Two curves of 2-12 values, either both uniform on [-1, 1] or both
    Gaussian walks, with distinct consecutive values."""
    rng = random.Random(seed)
    walk = rng.random() < 0.5

    def curve():
        n = rng.randint(2, 12)
        vals = [rng.uniform(-1.0, 1.0)]
        while len(vals) < n:
            v = vals[-1] + rng.gauss(0.0, 1.0) if walk else rng.uniform(-1.0, 1.0)
            if v != vals[-1]:
                vals.append(v)
        return vals

    return rng, curve(), curve()


def value(p, q):
    """The exact value, or None where the solver raises; a raise must be
    a CdtwError and a value a number."""
    try:
        v = cdtw_exact(p, q, NO_PATH).value
    except CdtwError:
        return None
    assert not math.isnan(v), (p, q)
    return v


def close(a, b):
    return a is None or b is None or abs(a - b) <= REL * max(abs(a), abs(b))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_invariances_at_rounding_level(seed):
    rng, p, q = pair(seed)
    v = value(p, q)
    assert close(v, value(q, p)), "swap"
    assert close(v, value(p[::-1], q[::-1])), "reverse"
    neg = value([-x for x in p], [-x for x in q])
    assert neg == v or (v is None and neg is None), "negate"
    t = rng.uniform(-2.0, 2.0)
    assert close(v, value([x + t for x in p], [x + t for x in q])), ("translate", t)
    lam = 10.0 ** rng.uniform(-8.0, 8.0)
    scaled = value([lam * x for x in p], [lam * x for x in q])
    assert close(v, None if scaled is None else scaled / (lam * lam)), ("scale", lam)
    k = rng.randrange(len(p) - 1)
    cut = p[k] + rng.uniform(0.1, 0.9) * (p[k + 1] - p[k])
    assert close(v, value(p[:k + 1] + [cut] + p[k + 1:], q)), ("subdivide", k)

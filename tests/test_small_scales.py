"""ROADMAP item 3's pair: values at small scales are wrong by far more than
rounding, because absolute slacks of the precision table do not scale.

The pair (CHANGES.md FOUND) is divided by lambda = max|value| and then
multiplied by s; CDTW(sP, sQ) = s^2 CDTW(P, Q), so value / s^2 should be
the unit-frame value (s = 1) of the same orientation.
"""

import pytest

from cdtw import EngineConfig, build_curve, cdtw_exact
from cdtw.errors import CoverageGap

from helpers import mp_curve, mp_twin

P = [0.0009354629189133502, 0.0021385214739737908, 0.0014386041395491407,
     0.0014164475892747793, 0.0014256514295952587, 0.0003745216993301582]
Q = [0.0006531926236681167, 0.0004637959494462469, 0.00039145272920435004,
     0.0007184229110052946, 0.0019037595466924392, 0.0010094213147021952,
     0.0007211068494058132, 0.0017436785656244431, 0.0013395152045294167,
     0.0002920458984463497]
LAMBDA = max(abs(v) for v in P + Q)
ORIENTATIONS = {"forward": (P, Q), "reversed": (P[::-1], Q[::-1]), "swapped": (Q, P)}
NO_PATH = EngineConfig(record_path=False)


def scaled(values, s):
    return [v / LAMBDA * s for v in values]


def scale_error(orientation, s):
    """value / s^2 relative to the unit-frame value, both in float."""
    p, q = ORIENTATIONS[orientation]
    unit = cdtw_exact(build_curve(scaled(p, 1.0)), build_curve(scaled(q, 1.0)), NO_PATH).value
    value = cdtw_exact(build_curve(scaled(p, s)), build_curve(scaled(q, s)), NO_PATH).value
    return value / (s * s) / unit - 1.0


# Measured: at 1e-10 all three raise CoverageGap; at 1e-6 value / s^2 is
# off by +64.8% forward, -100% reversed (0.0) and -24.4% swapped; at 1e-4
# by -5.4%, -44.9% and -1.5%.
@pytest.mark.xfail(strict=True, raises=(AssertionError, CoverageGap),
                   reason="ROADMAP item 3: absolute slacks do not scale")
@pytest.mark.parametrize("orientation", list(ORIENTATIONS))
@pytest.mark.parametrize("s", [1e-10, 1e-6, 1e-4])
def test_found_pair_wrong_at_small_scales(s, orientation):
    assert abs(scale_error(orientation, s)) <= 1e-12


# Measured worst: 1.4e-14 (swapped, s = 1e3).
@pytest.mark.parametrize("orientation", list(ORIENTATIONS))
@pytest.mark.parametrize("s", [1e-3, 1.0, 1e3, 1e12])
def test_found_pair_scales_from_1e_3_up(s, orientation):
    assert abs(scale_error(orientation, s)) <= 1e-12


def test_twin_is_free_of_scale():
    # The solver's algorithm is scale-free; only the slacks are not.  With
    # them shrunk, the twin gives its unit-frame value at every scale, to
    # the rounding of the scaled inputs (measured worst 1.3e-16, at 1e-10).
    pytest.importorskip("mpmath")
    with mp_twin():
        def value(s):
            return cdtw_exact(mp_curve(scaled(P, s)), mp_curve(scaled(Q, s)), NO_PATH).value

        unit = value(1.0)
        for s in (1e-10, 1e-6, 1e-4, 1.0, 1e12):
            assert abs(value(s) / (s * s) / unit - 1) <= 1e-15, s

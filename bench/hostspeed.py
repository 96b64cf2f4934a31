"""Host-speed probe that puts timings from a shared machine on one scale.

On a shared 2-core Xeon VM the speed of the host changed by up to 2x within
a minute: a fixed pure-Python loop took between 45 and 116 ms, and one
cdtw solve between 0.50 and 1.01 s, in the same 100 s.  Such swings are
larger than any bound a benchmark could keep.

The probe is a fixed mix of interpreter and numpy work owned by the
benchmark, independent of the package under test, so a change to the
package cannot move it.  Every timed interval lies between two probes; its
duration is multiplied by ``NOMINAL_S / mean(probe before, probe after)``
and so reads as the time the work takes on a host where the probe takes
``NOMINAL_S``.  The raw durations and probe times are kept in the record.

Work that keeps both cores busy (``cdtw matrix --jobs 2``) and work in a
child process (set-up's package import) is probed on both cores: a partner
process runs the probe at the same moment, and a sample is the mean of the
two times.  Spread is given as interquartile range over median:

- over 270 s of matrix commands, the median command time per 30 s window
  spread 10.5% raw, 10.0% scaled by a one-process probe and 3.8% scaled by
  the two-process probe;
- over 60 imports, the median of each 9 spread 15% raw, 13% and 9.4%.
"""

import os
import subprocess
import sys
import time
from typing import List, Optional

import numpy as np

# Probe time on the reference host (2-core Xeon VM) in its slower state.
NOMINAL_S = 0.025

_PARTNER = (
    "import sys, hostspeed\n"
    "print('ready', flush=True)\n"
    "for _ in sys.stdin:\n"
    "    print(repr(hostspeed.probe()), flush=True)\n"
)


def probe() -> float:
    """Seconds for the fixed probe work."""
    start = time.perf_counter()
    acc = 0.0
    items: List[tuple] = []
    for i in range(60000):
        x = (i % 97) * 0.5
        items.append((x, acc))
        acc += x * x - acc * 1e-9
        if len(items) > 64:
            del items[:32]
    a = np.linspace(0.0, 1.0, 4096)
    for _ in range(150):
        a = np.minimum.accumulate(np.abs(a - 0.3)) + a * 1e-3
    return time.perf_counter() - start


class Probes:
    """Probe times in order; interval k lies between probe k and probe k + 1.

    With ``cores=2`` a partner process probes at the same time as this one.
    Use it as a context manager so the partner is stopped.
    """

    def __init__(self, cores: int = 1) -> None:
        self._partner: Optional[subprocess.Popen] = None
        if cores == 2:
            env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.abspath(__file__)))
            self._partner = subprocess.Popen(
                [sys.executable, "-c", _PARTNER],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
            )
            if self._partner.stdout.readline().strip() != "ready":
                self.close()
                raise RuntimeError("host probe partner failed to start")
        self.times: List[float] = []
        self.mark()

    def __enter__(self) -> "Probes":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._partner is not None:
            self._partner.stdin.close()
            self._partner.wait(timeout=30)
            self._partner.stdout.close()
            self._partner = None

    def mark(self) -> None:
        if self._partner is None:
            self.times.append(probe())
            return
        self._partner.stdin.write("go\n")
        self._partner.stdin.flush()
        mine = probe()
        theirs = float(self._partner.stdout.readline())
        self.times.append(0.5 * (mine + theirs))
    def scale(self, k: int) -> float:
        return NOMINAL_S / (0.5 * (self.times[k] + self.times[k + 1]))

    def summary(self) -> dict:
        ordered = sorted(self.times)
        return {
            "count": len(ordered),
            "min_s": ordered[0],
            "median_s": ordered[len(ordered) // 2],
            "max_s": ordered[-1],
        }

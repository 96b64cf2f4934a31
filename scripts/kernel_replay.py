"""Replay the piecewise kernels of seeded exact solves and time each alone.

    PYTHONPATH=src python scripts/kernel_replay.py
    PYTHONPATH=src python scripts/kernel_replay.py --out before.txt
    PYTHONPATH=src python scripts/kernel_replay.py --check before.txt

It solves the first three pairs of seed 41 of the ``solve_noise``
benchmark (``bench/corpus.noise_pairs``: n = m = 50 values, uniform in
[0, 1)) without path recording, and records the arguments of every call
of ``piecewise.lower_envelope``, ``piecewise.capped`` and
``piecewise.cumulative_min`` the solver makes, in the form the solver
passes them: ``lower_envelope`` gets each fragment as a list of raw
pieces with its tag.  Then it replays the calls of each kernel on their
own, five times with the garbage collector off, and prints the number of
calls and the best µs per call.

``--out FILE`` writes the output of every replayed call (its pieces and
tags, and for ``cumulative_min`` its annotations) with ``repr``, one line
per call.  ``--check FILE`` compares the outputs with such a file, made
under another version of ``src``, and exits 1 if any call differs, so
equal files mean bit-identical kernels on these inputs.  Only outputs are
written, so a recording made while ``lower_envelope`` took fragments as
``PiecewiseQuadratic`` objects checks the raw-list form as well.

Only the standard library is used.
"""

import argparse
import gc
import os
import sys
import time

from cdtw import EngineConfig, cdtw_exact
from cdtw import piecewise as pw

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench"))
from corpus import noise_pairs  # noqa: E402

KERNELS = ("lower_envelope", "capped", "cumulative_min")
SEED, PAIRS, REPEAT = 41, 3, 5


def record(pairs: list) -> dict:
    """kernel name -> the (args) of each call the solves make, in order."""
    calls = {name: [] for name in KERNELS}
    originals = {name: getattr(pw, name) for name in KERNELS}

    def recorder(name):
        kernel, log = originals[name], calls[name]

        def wrapper(*args):
            # copy the argument lists a caller could reuse; the fragments'
            # piece lists in lower_envelope's items are not changed later
            log.append(tuple(list(a) if isinstance(a, list) else a for a in args))
            return kernel(*args)

        return wrapper

    try:
        for name in KERNELS:
            setattr(pw, name, recorder(name))
        for a, b in pairs:
            cdtw_exact(a, b, EngineConfig(record_path=False))
    finally:
        for name, kernel in originals.items():
            setattr(pw, name, kernel)
    return calls


def replay(kernel, calls: list, repeat: int) -> float:
    """Best seconds per call over repeat passes through calls."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(repeat):
            t0 = time.perf_counter()
            for args in calls:
                kernel(*args)
            best = min(best, (time.perf_counter() - t0) / len(calls))
    finally:
        gc.enable()
    return best


def outputs(calls: dict) -> list:
    """One line per call: the kernel name, the call's index and its output."""
    lines = []
    for name in KERNELS:
        kernel = getattr(pw, name)
        for k, args in enumerate(calls[name]):
            f, *rest = kernel(*args)
            lines.append(f"{name} {k} {repr((f.raw, *rest))}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write every call's output to this file")
    parser.add_argument("--check", help="compare every call's output with this file")
    args = parser.parse_args(argv)

    calls = record(noise_pairs(SEED, PAIRS))
    for name in KERNELS:
        if calls[name]:
            per_call = replay(getattr(pw, name), calls[name], REPEAT)
            print(f"{name:15s} {len(calls[name]):6d} calls  {per_call * 1e6:7.2f} us per call")
    if not (args.out or args.check):
        return 0
    lines = outputs(calls)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    if args.check:
        with open(args.check) as fh:
            want = fh.read().splitlines()
        differ = sum(1 for got, exp in zip(lines, want) if got != exp)
        differ += abs(len(lines) - len(want))
        print(f"check: {len(lines)} calls, {differ} differ from {args.check}")
        return 1 if differ else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
pieces with its tag.  It records every ``propagation.solve_cell`` call
too, and sorts the cells into three kinds: opposite-direction cells,
same-direction cells with a valley to ride (``cell.valley``, which
``curves.cell_info`` sets) and same-direction cells without one.  Then
it replays the calls of each kernel, and the cells of each kind, on
their own, five times with the garbage collector off, and prints the
number of calls and the best µs per call.

``--out FILE`` writes the output of every replayed call (its pieces and
tags, for ``cumulative_min`` its annotations, and for ``solve_cell`` both
output edges with their provenance) with ``repr``, one line per call.
``--check FILE`` compares the outputs with such a file, made
under another version of ``src``, and exits 1 if any call differs, so
equal files mean bit-identical kernels on these inputs.  Only outputs are
written, so a recording made while ``lower_envelope`` took fragments as
``PiecewiseQuadratic`` objects checks the raw-list form as well.

Each version records its own inputs, so a change to one kernel also
changes the inputs of the calls after it.  ``--save-inputs FILE``
pickles the recorded calls, and ``--inputs FILE`` replays those instead
of recording new ones; ``--out`` and ``--check`` then compare two
versions on the same inputs, so only the calls whose own kernel changed
differ:

    PYTHONPATH=../parent/src python scripts/kernel_replay.py --save-inputs in.pkl --out before.txt
    PYTHONPATH=src python scripts/kernel_replay.py --inputs in.pkl --check before.txt

The pickle names the package's record classes by module and name, so
both versions must define them there.  Give ``--inputs`` only a file
that ``--save-inputs`` wrote: unpickling can run code.

Only the standard library is used.
"""

import argparse
import gc
import os
import pickle
import sys
import time

from cdtw import EngineConfig, cdtw_exact
from cdtw import piecewise as pw
from cdtw import propagation

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench"))
from corpus import noise_pairs  # noqa: E402

KERNELS = ("lower_envelope", "capped", "cumulative_min")
CELL_KINDS = ("opposite", "valley", "no valley")
SEED, PAIRS, REPEAT = 41, 3, 5


def cell_kind(cell) -> str:
    """Which of CELL_KINDS a cell is."""
    if not cell.same_direction:
        return "opposite"
    return "no valley" if cell.valley is None else "valley"


def record(pairs: list) -> dict:
    """kernel name (and solve_cell) -> the (args) of each call the solves
    make, in order."""
    calls = {name: [] for name in (*KERNELS, "solve_cell")}
    originals = {name: getattr(pw, name) for name in KERNELS}
    solve_cell = propagation.solve_cell
    # every module of the package that holds solve_cell, as the engine
    # imports it by name
    holders = [m for n, m in sys.modules.items()
               if n.startswith("cdtw.") and getattr(m, "solve_cell", None) is solve_cell]

    def cell_recorder(*args):
        calls["solve_cell"].append(args)  # a cell's inputs are not changed later
        return solve_cell(*args)

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
        for module in holders:
            module.solve_cell = cell_recorder
        for a, b in pairs:
            cdtw_exact(a, b, EngineConfig(record_path=False))
    finally:
        for name, kernel in originals.items():
            setattr(pw, name, kernel)
        for module in holders:
            module.solve_cell = solve_cell
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
    for k, args in enumerate(calls["solve_cell"]):
        top, right = propagation.solve_cell(*args)
        lines.append(f"solve_cell {k} {repr((top.cost.raw, top.prov, right.cost.raw, right.prov))}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write every call's output to this file")
    parser.add_argument("--check", help="compare every call's output with this file")
    parser.add_argument("--save-inputs", help="pickle the recorded calls to this file")
    parser.add_argument("--inputs", help="replay the calls pickled in this file")
    args = parser.parse_args(argv)

    if args.inputs:
        with open(args.inputs, "rb") as fh:
            calls = pickle.load(fh)
    else:
        calls = record(noise_pairs(SEED, PAIRS))
    if args.save_inputs:
        with open(args.save_inputs, "wb") as fh:
            pickle.dump(calls, fh, protocol=pickle.HIGHEST_PROTOCOL)
    for name in KERNELS:
        if calls[name]:
            per_call = replay(getattr(pw, name), calls[name], REPEAT)
            print(f"{name:15s} {len(calls[name]):6d} calls  {per_call * 1e6:7.2f} us per call")
    for kind in CELL_KINDS:
        cells = [args for args in calls["solve_cell"] if cell_kind(args[0]) == kind]
        if cells:
            per_cell = replay(propagation.solve_cell, cells, REPEAT)
            print(f"{'cell ' + kind:15s} {len(cells):6d} cells  {per_cell * 1e6:7.2f} us per cell")
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

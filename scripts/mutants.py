"""Run one-line source edits (mutants) against tier-1 and record what kills each.

    python scripts/mutants.py

Each mutant replaces a fragment of one file under ``src/cdtw`` (the
fragment must occur exactly ``count`` times, all replaced).  The tree is
copied once to a temporary directory; each mutant is applied there, tier-1
runs with ``-x``,

    PYTHONPATH=src python -m pytest -q -x -p no:cacheprovider

and the original file is put back.  The first failing test kills the
mutant; a mutant that fails no test "survived".  Runs go one at a time,
without bytecode files and with an empty Hypothesis database each, so a
timing gate never runs beside another run and no run reuses another's
examples.

The list holds every entry of the precision table in ``piecewise`` at ten
times its value (looser), the sites that share an entry at ten times their
slack, and the ten mutants of the first raise-site census: the distance
scaled by 0.99, 1.01 and 1 +- 1e-9, single-turn (C2T) fragments shifted by
-1e-8 and +1e-10, ``PREF_BOTTOM`` 2.5, and the ``_nonincreasing`` and
``_pin_end`` slacks at 100 and 10,000 times.  Three more edit the
conditional clamps that stand for builtin ``max`` and ``min``: ``_leg``'s
clamps with the flipped tie order, ``_leg``'s overlap test closed, and
``_c2_catalogue``'s range update taking a tie.  One cuts the bisection
of ``_root_of_piece`` from 80 steps to 8.  Two more drop the checks that
stand for a cell-type guard: the path trace's test for a valley before it
re-derives one, and ``cell_info``'s fast index test, taking index 0.
Edits write no float literal below 1e-3 (they scale ``TOLERANCE``), so
the census test of such literals does not stand in for the test that
should kill them.

``MUTANTS.json`` at the repository root holds the pytest command, the Python version, the counts
of killed, survived and errored mutants, and per mutant its name, file,
edit, result, seconds, and the killing test id with the first line of its
failure.  A tier-1 run that takes longer than TIMEOUT seconds is an error.

Only the standard library is used.
"""

import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT = 1200.0  # seconds per tier-1 run
PW, PROP, ENG = "src/cdtw/piecewise.py", "src/cdtw/propagation.py", "src/cdtw/engine.py"
C2T = 'top.append((frag, tuple.__new__(Prov, (PREF_LEFT, "C2T", "left", (alpha, beta), None))))'
LEG_CLAMP = "lo if lo > l else l, hi if hi < h else h"
VALUE = "value = max(value, 0.0)\n"
ARC = "ARC_SLACK * (1.0 + total) or s > total * (1.0 + ARC_SLACK) + ARC_SLACK"


def c2t_shifted(dc: str) -> str:
    """The C2T line with dc added to every fragment piece's constant."""
    shifted = f"[(*p[:2], p[2] + {dc}, *p[3:]) for p in frag]"
    return C2T.replace("(frag,", f"({shifted},")


# (name, file, old, new, count): the precision table at 10x first.
MUTANTS = [
    ("tolerance-x10", PW, "TOLERANCE = 1e-9", "TOLERANCE = 1e-8", 1),
    ("coverage-x10", PW, "COVERAGE_SLACK = 1e3 *", "COVERAGE_SLACK = 1e4 *", 1),
    ("drift-x10", PW, "DRIFT_SLACK = 1e-6", "DRIFT_SLACK = 1e-5", 1),
    ("path-merge-x10", PW, "PATH_MERGE_SLACK = 1e-9", "PATH_MERGE_SLACK = 1e-8", 1),
    ("arc-x10", PW, "ARC_SLACK = 1e-12", "ARC_SLACK = 1e-11", 1),
    ("valley-point-x10", PW, "VALLEY_POINT_SLACK = 1e-9", "VALLEY_POINT_SLACK = 1e-8", 1),
    ("oracle-x10", PW, "ORACLE_SLACK = 1e-9", "ORACLE_SLACK = 1e-8", 1),
    # sites sharing an entry, each at 10x
    ("locate-x10", PW, "tol = TOLERANCE * (1.0 + abs(lo) + abs(hi))",
     "tol = 10 * TOLERANCE * (1.0 + abs(lo) + abs(hi))", 1),
    ("coefficient-merge-x10", PW, "<= tol * (1.0 + abs(p", "<= 10 * tol * (1.0 + abs(p", 3),
    ("nonincreasing-x10", PROP, "> low + pw.TOLERANCE:", "> low + 10 * pw.TOLERANCE:", 1),
    ("pin-end-x10", PROP, "> pw.DRIFT_SLACK *", "> 10 * pw.DRIFT_SLACK *", 1),
    ("negative-distance-x10", ENG, "< -pw.DRIFT_SLACK *", "< -10 * pw.DRIFT_SLACK *", 1),
    ("step-back-x10", ENG, "< -drift", "< -10 * drift", 2),
    ("valley-leg-x10", ENG, "<= drift", "<= 10 * drift", 2),
    ("point-at-x10", "src/cdtw/curves.py", ARC, ARC.replace("ARC_SLACK", "10 * ARC_SLACK"), 1),
    ("tick-count-x10", "src/cdtw/lattice.py", "k < x - ARC_SLACK", "k < x - 10 * ARC_SLACK", 1),
    # the first census's mutants (its TOLERANCE 1e-8 is tolerance-x10)
    ("value-x0.99", ENG, VALUE, "value = max(value, 0.0) * 0.99\n", 1),
    ("value-x1.01", ENG, VALUE, "value = max(value, 0.0) * 1.01\n", 1),
    ("value-x(1+1e-9)", ENG, VALUE, "value = max(value, 0.0) * (1 + pw.TOLERANCE)\n", 1),
    ("value-x(1-1e-9)", ENG, VALUE, "value = max(value, 0.0) * (1 - pw.TOLERANCE)\n", 1),
    ("c2t-minus-1e-8", PROP, C2T, c2t_shifted("-10 * pw.TOLERANCE"), 1),
    ("c2t-plus-1e-10", PROP, C2T, c2t_shifted("pw.TOLERANCE / 10"), 1),
    ("pref-bottom-2.5", PROP, "PREF_BOTTOM = 1.0", "PREF_BOTTOM = 2.5", 1),
    ("nonincreasing-x100", PROP, "> low + pw.TOLERANCE:", "> low + 100 * pw.TOLERANCE:", 1),
    ("pin-end-x1e4", PROP, "> pw.DRIFT_SLACK *", "> 1e4 * pw.DRIFT_SLACK *", 1),
    # the conditional clamps that stand for builtin max and min
    ("leg-flipped-ties", PROP, LEG_CLAMP, "l if l > lo else lo, h if h < hi else hi", 1),
    ("leg-overlap-closed", PROP, "if l < hi and h > lo:", "if l <= hi and h > lo:", 1),
    ("c2-range-tie", PROP, "if x > t_lo:", "if x >= t_lo:", 1),
    # cumulative_min's bisection fallback, stopped early
    ("bisect-steps-8", PW, "for _ in range(80):", "for _ in range(8):", 1),
    # the checks that stand for the cell-type guards: the trace's valley
    # test, and cell_info's fast index test taking index 0
    ("trace-valley-check", ENG, "if cell.valley is None:", "if False:", 1),
    ("cell-index-low", "src/cdtw/curves.py", "(0 < i < len(vp) and", "(0 <= i < len(vp) and", 1),
]


def run_one(tmp: str, name: str, path: str, old: str, new: str, count: int) -> dict:
    src = os.path.join(tmp, path)
    with open(src) as fh:
        text = fh.read()
    with open(src, "w") as fh:
        fh.write(text.replace(old, new))
    shutil.rmtree(os.path.join(tmp, ".hypothesis"), ignore_errors=True)
    # COLUMNS: pytest cuts a summary line to the terminal width, message first
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1", COLUMNS="400")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
        out, code = proc.stdout, proc.returncode
    except subprocess.TimeoutExpired:
        out, code = "", None
    finally:
        with open(src, "w") as fh:
            fh.write(text)
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)(?: - (.*))?$", out, re.M)
    rec = {"name": name, "file": path, "old": old, "new": new, "count": count,
           "seconds": round(time.perf_counter() - t0, 1)}
    if code == 0:
        rec["result"] = "survived"
    elif failed:
        rec["result"] = "killed"
        rec["killed_by"], rec["detail"] = failed[0][0], failed[0][1][:200]
    else:  # a timeout, or pytest failing outside any test: no killer to name
        rec["result"] = "error"
        rec["detail"] = "timeout" if code is None else out[-400:]
    return rec


def main() -> int:
    for name, path, old, new, count in MUTANTS:
        with open(os.path.join(ROOT, path)) as fh:
            found = fh.read().count(old)
        if found != count:
            sys.exit(f"{name}: {old!r} occurs {found} times in {path}, not {count}")

    tmp = tempfile.mkdtemp(prefix="cdtw-mutants-")
    try:
        shutil.copytree(ROOT, tmp, dirs_exist_ok=True, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "BENCH_*.json"))
        results = []
        for m in MUTANTS:
            rec = run_one(tmp, *m)
            print(f"{rec['name']:24} {rec['result']:8} {rec.get('killed_by', '')} "
                  f"({rec['seconds']} s)", flush=True)
            results.append(rec)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record = {
        "command": "PYTHONPATH=src python -m pytest -q -x -p no:cacheprovider",
        "python": platform.python_version(),
        "killed": sum(r["result"] == "killed" for r in results),
        "survived": sum(r["result"] == "survived" for r in results),
        "errors": sum(r["result"] == "error" for r in results),
        "mutants": results,
    }
    with open(os.path.join(ROOT, "MUTANTS.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The seeded fingerprint corpus still gives the committed results.

tests/data/fingerprint.json is the output of ``scripts/fingerprint.py``
with no flags: the value, path, path annotations and piece count of 63
exact solves.  A change that moves a value or a path point by more than
1e-12 relative, changes a path's shape or changes a solve's total piece
count fails here.  Remake the file
only with a change that says in CHANGES.md why its results move.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "fingerprint.py")
COMMITTED = os.path.join(ROOT, "tests", "data", "fingerprint.json")


def test_fingerprint_matches_the_committed_one():
    paths = (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
    path = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--against", COMMITTED],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

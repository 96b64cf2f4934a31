"""Print a JSON fingerprint of exact solves on a fixed seeded corpus.

Run it against two versions of the package and compare the outputs byte
for byte to show that a change leaves the solver's results bit-identical:

    PYTHONPATH=src python scripts/fingerprint.py > after.json
    PYTHONPATH=../parent/src python scripts/fingerprint.py > before.json
    cmp before.json after.json

The corpus has 60 pairs of 2 to 12 vertices, solved with path recording:
random values in [0, 2], every fourth pair with small integer values
(exact ties and degenerate valleys), and every tenth pair a curve against
itself.  Three pairs of 41 vertices (n = m = 40 segments) are solved
without path recording.  Each solve contributes its value, path points,
path annotations and total piece count; ``--edges`` adds every edge cost
function (coefficients and domains) with its provenance, and ``--grid``
adds ``cdtw_grid`` at resolutions 4, 16 and 64 for the 60 small pairs.
Floats are written with repr, so equal output means bit-identical results.
"""

import argparse
import json
import random
import sys

from cdtw import EngineConfig, GridConfig, build_curve, cdtw_exact, cdtw_grid

SEED = 20261017
GRID_RESOLUTIONS = (4, 16, 64)


def _values(rng: random.Random, n: int, integers: bool) -> list:
    vals: list = []
    while len(vals) < n:
        v = float(rng.randint(0, 4)) if integers else rng.uniform(0.0, 2.0)
        if not vals or abs(v - vals[-1]) > 1e-3:
            vals.append(v)
    return vals


def corpus(seed: int = SEED) -> list:
    """(values of P, values of Q, record_path) triples."""
    rng = random.Random(seed)
    pairs = []
    for k in range(60):
        integers = k % 4 == 3
        a = _values(rng, rng.randint(2, 12), integers)
        b = a[:] if k % 10 == 0 else _values(rng, rng.randint(2, 12), integers)
        pairs.append((a, b, True))
    for _ in range(3):
        pairs.append((_values(rng, 41, False), _values(rng, 41, False), False))
    return pairs


def fingerprint(a: list, b: list, record_path: bool, edges: bool, grid: bool) -> dict:
    P, Q = build_curve(a), build_curve(b)
    result = cdtw_exact(P, Q, EngineConfig(record_path=record_path))
    out = {"value": result.value, "total_pieces": result.stats.total_pieces}
    if result.path is not None:
        out["path"] = [list(p) for p in result.path.points]
        out["annotations"] = list(result.path.annotations)
    if edges:
        run = result.run
        out["edges"] = {
            f"{name}{key}": [
                [[p.a, p.b, p.c, p.lo, p.hi] for p in bc.cost.pieces],
                repr(bc.prov),
            ]
            for name, table in (("top", run.top), ("right", run.right))
            for key, bc in table.items()
        }
    if grid and record_path:
        out["grid"] = [cdtw_grid(P, Q, GridConfig(resolution=r)) for r in GRID_RESOLUTIONS]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--edges", action="store_true", help="include every edge function")
    parser.add_argument(
        "--grid", action="store_true", help="include the grid oracle on the small pairs"
    )
    args = parser.parse_args()
    prints = [fingerprint(a, b, rec, args.edges, args.grid) for a, b, rec in corpus(args.seed)]
    json.dump(prints, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

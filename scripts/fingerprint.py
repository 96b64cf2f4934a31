"""Print a JSON fingerprint of exact solves on a fixed seeded corpus.

Run it against two versions of the package and compare the outputs byte
for byte to show that a change leaves the solver's results bit-identical:

    PYTHONPATH=src python scripts/fingerprint.py > after.json
    PYTHONPATH=../parent/src python scripts/fingerprint.py > before.json
    cmp before.json after.json

Where a change is allowed to move results by rounding, compare instead
of printing: ``--against before.json`` (with the flags that made it)
lists the pairs and edges that differ and the worst relative difference
in values, path points, grid values and edge functions, and exits 1 if
any of them is above 1e-12 or if any pair's total piece count differs
(rounding can move a value, but it should not split or merge pieces).
A path that changes shape also lists the points found on one side
only, marking each that lies on one line, of any slope, with both its
neighbours (dropping it leaves the same polyline).  Two edge functions are compared at the ends and midpoint of
every span between the breakpoints of either, each evaluated with its
piece covering the span; spans narrower than the solver tolerance are
skipped, so that a breakpoint moved by rounding at a jump does not read
as the size of the jump.

The corpus has 60 pairs of 2 to 12 vertices, solved with path recording:
random values in [0, 2], every fourth pair with small integer values
(exact ties and degenerate valleys), and every tenth pair a curve against
itself.  Three pairs of 41 vertices (n = m = 40 segments) are solved
without path recording.  Each solve contributes its value, path points,
path annotations and total piece count; ``--edges`` adds every edge's
cost function f (coefficients and domains, the stored reduced cost plus
the edge's running integral of the height) with its provenance, keyed by
the cell of the curves reduced to their turning points, and ``--grid``
adds ``cdtw_grid`` at resolutions 4, 16, 64 and 256 for the 60 small
pairs.  At 256, 58 of them sweep more than one block of 128 columns, and
the largest lattice has 7,425 x-ticks.  A run takes about 0.6 s, and about
9 s with ``--grid`` (Intel Xeon, Python 3.11, numpy 2.4).
Floats are written with repr, so equal output means bit-identical results.
"""

import argparse
import json
import math
import random
import sys

from cdtw import EngineConfig, GridConfig, build_curve, cdtw_exact, cdtw_grid, cell_info
from cdtw.piecewise import TOLERANCE
from cdtw.propagation import edge_height_running

SEED = 20261017
GRID_RESOLUTIONS = (4, 16, 64, 256)
MAX_REL_DIFF = 1e-12


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
        out["edges"] = {}
        for name, table in (("top", run.top), ("right", run.right)):
            for key, bc in table.items():
                ride = edge_height_running(cell_info(run.P, run.Q, *key), name).raw
                f, prov = [], []
                # each piece of g cut at R's breakpoints inside it, none merged
                for (a, b, c, lo, hi), tag in zip(bc.cost.raw, bc.prov):
                    cuts = [lo] + [r[4] for r in ride if lo < r[4] < hi] + [hi]
                    for u, v in zip(cuts, cuts[1:]):
                        ra, rb, rc = _piece_at(ride, 0.5 * (u + v))[:3]
                        f.append([a + ra, b + rb, c + rc, u, v])
                        prov.append(tag)
                out["edges"][f"{name}{key}"] = [f, repr(tuple(prov))]
    if grid and record_path:
        out["grid"] = [cdtw_grid(P, Q, GridConfig(resolution=r)) for r in GRID_RESOLUTIONS]
    return out


def _rel(x: float, y: float, scale: float) -> float:
    """|x - y| relative to scale (the largest magnitude of the item)."""
    if x == y:
        return 0.0
    return abs(x - y) / scale if scale > 0 else math.inf


def _piece_at(pieces: list, s: float) -> list:
    """The piece of [[a, b, c, lo, hi], ...] covering s (the last one past
    the end)."""
    for piece in pieces:
        if s <= piece[4]:
            return piece
    return pieces[-1]


def _edge_diff(before: list, after: list) -> float:
    """Worst relative difference of two edge functions at the ends and
    midpoint of every span of their merged breakpoints, each function
    evaluated there with its piece covering the span; spans narrower than
    the solver tolerance are skipped."""
    xs = sorted({x for pieces in (before, after) for p in pieces for x in p[3:]})
    tol = TOLERANCE * (1.0 + abs(xs[0]) + abs(xs[-1]))
    vals = []
    for lo, hi in zip(xs, xs[1:]):
        if hi - lo <= tol:
            continue
        mid = 0.5 * (lo + hi)
        (a0, b0, c0, _, _), (a1, b1, c1, _, _) = _piece_at(before, mid), _piece_at(after, mid)
        vals += [((a0 * s + b0) * s + c0, (a1 * s + b1) * s + c1) for s in (lo, mid, hi)]
    if not vals:
        return 0.0
    scale = max(max(abs(u), abs(v)) for u, v in vals)
    return max(_rel(u, v, scale) for u, v in vals)


def _one_side_points(path: list, other: list) -> str:
    """The points of path missing from other, each marked when it lies on
    one line, of any slope, with both its neighbours in path (within
    MAX_REL_DIFF of the largest coordinate)."""
    have = {tuple(p) for p in other}
    scale = max((abs(x) for pt in path for x in pt), default=0.0)
    notes = []
    for k, p in enumerate(path):
        if tuple(p) in have:
            continue
        note = repr(p)
        if 0 < k < len(path) - 1:
            (x0, y0), (x1, y1) = path[k - 1], path[k + 1]
            cross = (p[0] - x0) * (y1 - y0) - (p[1] - y0) * (x1 - x0)
            if abs(cross) <= MAX_REL_DIFF * scale * (abs(x1 - x0) + abs(y1 - y0)):
                note += " (collinear with its neighbours)"
        notes.append(note)
    return ", ".join(notes) or "none"


def compare(before: list, after: list) -> int:
    """Print what differs between two fingerprints; 1 if anything moved by
    more than MAX_REL_DIFF (or changed shape) or a piece count changed,
    else 0."""
    if len(before) != len(after):
        print(f"pair count differs: {len(before)} vs {len(after)}")
        return 1
    worst = dict.fromkeys(("value", "path", "edges", "grid"), 0.0)
    n_edges = n_prov = n_pieces = 0
    for k, (b, a) in enumerate(zip(before, after)):
        notes = []
        vb, va = b["value"], a["value"]
        if vb != va:
            worst["value"] = max(worst["value"], _rel(vb, va, max(abs(vb), abs(va))))
            notes.append(f"value {vb!r} -> {va!r}")
        if b["total_pieces"] != a["total_pieces"]:
            n_pieces += 1
            notes.append(f"total_pieces {b['total_pieces']} -> {a['total_pieces']}")
        bp, ap = b.get("path", []), a.get("path", [])
        if b.get("annotations") != a.get("annotations") or len(bp) != len(ap):
            worst["path"] = math.inf
            notes.append(f"path shape differs: {len(bp)} -> {len(ap)} points; before only: "
                         f"{_one_side_points(bp, ap)}; after only: {_one_side_points(ap, bp)}")
        elif bp != ap:
            scale = max(abs(x) for pt in bp + ap for x in pt)
            d = max(_rel(x, y, scale) for p, q in zip(bp, ap) for x, y in zip(p, q))
            worst["path"] = max(worst["path"], d)
            notes.append(f"path points differ by {d:.3g} relative")
        gb, ga = b.get("grid", []), a.get("grid", [])
        if gb != ga:
            d = math.inf
            if len(gb) == len(ga):
                d = max(_rel(x, y, max(abs(x), abs(y))) for x, y in zip(gb, ga))
            worst["grid"] = max(worst["grid"], d)
            notes.append(f"grid values differ by {d:.3g} relative")
        eb, ea = b.get("edges", {}), a.get("edges", {})
        if eb.keys() != ea.keys():
            worst["edges"] = math.inf
            notes.append("edge sets differ")
        for key in sorted(eb.keys() & ea.keys()):
            (pb, prov_b), (pa, prov_a) = eb[key], ea[key]
            if pb == pa and prov_b == prov_a:
                continue
            n_edges += 1
            what = []
            if pb != pa:
                d = _edge_diff(pb, pa)
                worst["edges"] = max(worst["edges"], d)
                what.append(f"{d:.3g} relative")
            if prov_b != prov_a:
                n_prov += 1
                what.append("provenance")
            notes.append(f"edge {key}: {len(pb)} -> {len(pa)} pieces, {', '.join(what)}")
        for note in notes:
            print(f"pair {k}: {note}")
    if n_edges:
        print(f"{n_edges} edge functions differ, {n_prov} of them in provenance")
    if n_pieces:
        print(f"{n_pieces} pairs differ in total_pieces")
    print("worst relative difference: " + ", ".join(f"{k} {v:.3g}" for k, v in worst.items()))
    return 1 if max(worst.values()) > MAX_REL_DIFF or n_pieces else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--edges", action="store_true", help="include every edge function")
    parser.add_argument(
        "--grid", action="store_true", help="include the grid oracle on the small pairs"
    )
    parser.add_argument(
        "--against",
        metavar="BEFORE.json",
        help="compare with an earlier output (made with the same flags) instead of printing",
    )
    args = parser.parse_args()
    prints = [fingerprint(a, b, rec, args.edges, args.grid) for a, b, rec in corpus(args.seed)]
    if args.against:
        with open(args.against) as fh:
            before = json.load(fh)
        # Round-trip through JSON so both sides hold the same types.
        return compare(before, json.loads(json.dumps(prints)))
    json.dump(prints, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

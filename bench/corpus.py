"""Seeded input generators for the benchmark workloads (stdlib only).

Every generator takes a ``random.Random`` built from the workload seed, so
the same seed gives the same values.  Files are written with ``repr`` floats,
which the package's CSV and JSON readers parse back to the same doubles, so
the same seed also gives a byte-identical corpus on disk.
"""

import json
import os
import random
from typing import List, Sequence, Tuple

Series = List[float]

# solve_noise: n = m = 50 vertices, values uniform in the band [0, 1).
NOISE_VERTICES = 50
# oracle_walk: 13 vertices (12 segments) and arc length 8 per curve, so the
# grid oracle does about the same work on every pair.
WALK_VERTICES = 13
WALK_LENGTH = 8.0
# matrix_short: short series of 5 to 12 vertices.
SHORT_MIN_VERTICES = 5
SHORT_MAX_VERTICES = 12


def noise_series(rng: random.Random, n: int) -> Series:
    """Bounded noise: n values uniform in the shared band [0, 1)."""
    return [rng.random() for _ in range(n)]


def walk_series(rng: random.Random, n: int, length: float) -> Series:
    """Random walk of n vertices rescaled to total arc length ``length``.

    Half the steps rise and half fall, in a random order, so every pair of
    walks of one size has the same number of same-direction cells.  Step
    magnitudes are drawn from [0.25, 1.25) before rescaling, which keeps
    segments well above the solver tolerance.
    """
    signs = [1.0] * ((n - 1) // 2) + [-1.0] * (n - 1 - (n - 1) // 2)
    rng.shuffle(signs)
    steps = [s * (0.25 + rng.random()) for s in signs]
    scale = length / sum(abs(s) for s in steps)
    values = [0.0]
    for s in steps:
        values.append(values[-1] + s * scale)
    return values


def noise_pairs(seed: int, count: int) -> List[Tuple[Series, Series]]:
    rng = random.Random(f"solve_noise:{seed}")
    return [
        (noise_series(rng, NOISE_VERTICES), noise_series(rng, NOISE_VERTICES))
        for _ in range(count)
    ]


def walk_pairs(seed: int, count: int) -> List[Tuple[Series, Series]]:
    rng = random.Random(f"oracle_walk:{seed}")
    return [
        (
            walk_series(rng, WALK_VERTICES, WALK_LENGTH),
            walk_series(rng, WALK_VERTICES, WALK_LENGTH),
        )
        for _ in range(count)
    ]


def short_series(seed: int, count: int, part: int = 0) -> List[Tuple[str, Series]]:
    """Named short series for matrix directory ``part`` of a seed.

    Even indices are noise, odd indices random walks with unit mean step.
    Each vertex count in 5..12 goes to one noise series and one walk, in a
    seeded order, so every seed gives the same mix of sizes and kinds.
    Names alternate between CSV and JSON in pairs (csv, json, json, csv).
    """
    rng = random.Random(f"matrix_short:{seed}:{part}")
    sizes = list(range(SHORT_MIN_VERTICES, SHORT_MAX_VERTICES + 1))
    rng.shuffle(sizes)
    out = []
    for k in range(count):
        n = sizes[(k // 2) % len(sizes)]
        values = noise_series(rng, n) if k % 2 == 0 else walk_series(rng, n, float(n - 1))
        ext = "csv" if k % 4 in (0, 3) else "json"
        out.append((f"s{k:03d}.{ext}", values))
    return out


def write_pairs(path: str, pairs: Sequence[Tuple[Series, Series]]) -> None:
    with open(path, "w") as fh:
        json.dump([[list(a), list(b)] for a, b in pairs], fh)
        fh.write("\n")


def write_series_dir(directory: str, named: Sequence[Tuple[str, Series]]) -> None:
    """Write each series as CSV (one value per line) or a JSON array."""
    os.makedirs(directory, exist_ok=True)
    for name in os.listdir(directory):
        os.remove(os.path.join(directory, name))
    for name, values in named:
        with open(os.path.join(directory, name), "w") as fh:
            if name.endswith(".json"):
                json.dump(values, fh)
                fh.write("\n")
            else:
                fh.write("".join(f"{v!r}\n" for v in values))

"""The benchmark workloads: set-up, timed phase, output checks, traced run.

``solve_noise`` and ``oracle_walk`` call the package's public API in this
process; ``matrix_short`` runs the ``cdtw matrix`` command as a subprocess.
Each workload is a closed loop with one client: the next pair (or command)
starts when the previous one has finished.  Checks run after the timed
phase, so their cost is never timed.
"""

import contextlib
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import corpus
import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))

# How many times set-up is repeated; setup_s is the median.
SETUP_REPEATS = 9
# Slack for comparing two float results of different algorithms.
REL_TOL = 1e-9
GRID_CHECK_RESOLUTION = 16
ORACLE_RESOLUTIONS = (4, 16, 64, 256)
MATRIX_FILES = 16
MATRIX_DIRS = 16
MATRIX_JOBS = 2
MATRIX_SAMPLE = 4
MATRIX_TIMEOUT_S = 150
# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def load_layers() -> Dict[str, Any]:
    with open(os.path.join(HERE, "layers.json")) as fh:
        return json.load(fh)


def _close(a: float, b: float) -> float:
    return REL_TOL * (1.0 + abs(a) + abs(b))


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def tail(samples: Sequence[float]) -> Optional[Dict[str, float]]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(samples)
    return {
        "percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "value": ordered[n - TAIL_BEYOND - 1],
        "samples": n,
    }


@dataclass
class Tally:
    """Pairs attempted, the reasons any of them failed, and notes: findings
    that are recorded but do not fail a pair (marked by a ``note:`` prefix)."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    errors: Counter = field(default_factory=Counter)
    notes: Counter = field(default_factory=Counter)

    def record(self, problems: Sequence[str]) -> None:
        self.attempted += 1
        notes = [p for p in problems if p.startswith("note:")]
        self.notes.update(notes)
        if len(notes) < len(problems):
            self.failed += 1
            self.reasons.update(p for p in problems if not p.startswith("note:"))

    def exception(self, api, exc: BaseException) -> str:
        # Errors that are not CdtwError are recorded by type: they escape
        # the CLI's handler and show as tracebacks.
        kind = type(exc).__name__
        if not isinstance(exc, api.CdtwError):
            self.errors[kind] += 1
        return f"exception:{kind}"


def import_seconds(root: str) -> float:
    """Seconds to import the package in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import cdtw, cdtw.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=_child_env(root),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(proc.stdout.strip())


def _child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


# ---------------------------------------------------------------------------
# library workloads


@dataclass
class PairOutcome:
    seconds: float
    exact_s: float = 0.0
    value: Optional[float] = None
    cells: int = 0
    pieces: int = 0
    edges: int = 0
    max_edge_pieces: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)
    error: Optional[BaseException] = None


def _edge_pieces(result) -> Tuple[int, int, int]:
    run = result.run
    edges = [*run.top.values(), *run.right.values(), *run.bottoms, *run.lefts]
    counts = [len(bc.cost.pieces) for bc in edges]
    return result.stats.total_pieces, len(counts), max(counts)


def solve_noise_pair(api, P, Q) -> Tuple[PairOutcome, Any]:
    t0 = time.perf_counter()
    result = api.cdtw_exact(P, Q, api.EngineConfig(record_path=False))
    exact_s = time.perf_counter() - t0
    return PairOutcome(0.0, exact_s, result.value, result.stats.cells_solved), result


def oracle_walk_pair(api, P, Q) -> Tuple[PairOutcome, Any]:
    t0 = time.perf_counter()
    result = api.cdtw_exact(P, Q, api.EngineConfig(record_path=True))
    exact_s = time.perf_counter() - t0
    path = api.reconstruct_path(result)
    grids = [api.cdtw_grid(P, Q, api.GridConfig(resolution=r)) for r in ORACLE_RESOLUTIONS]
    extra = {
        "path": path.points,
        "grids": grids,
        "dtw": api.dtw(P.vertices, Q.vertices),
        "dfrechet": api.discrete_frechet(P.vertices, Q.vertices),
    }
    return PairOutcome(0.0, exact_s, result.value, result.stats.cells_solved, extra=extra), result


def check_path(points, P, Q) -> List[str]:
    """The path runs from (0, 0) to (p, q) and never steps back by more than
    the comparison slack.  A step back within the slack (the last leg can
    end one ulp below the previous point, because the curve length and a
    cell edge coordinate are rounded differently) is a note."""
    problems = []
    if points[0] != (0.0, 0.0) or points[-1] != (P.length, Q.length):
        problems.append("path_endpoints")
    slack = _close(P.length, Q.length)
    back = [
        min(bx - ax, by - ay) for (ax, ay), (bx, by) in zip(points, points[1:])
        if bx < ax or by < ay
    ]
    if any(step < -slack for step in back):
        problems.append("path_not_monotone")
    elif back:
        problems.append("note:path_steps_back_within_slack")
    return problems


def check_solve_noise(api, P, Q, out: PairOutcome) -> List[str]:
    grid = api.cdtw_grid(P, Q, api.GridConfig(resolution=GRID_CHECK_RESOLUTION))
    return ["exact_above_grid"] if out.value > grid + _close(out.value, grid) else []


def check_oracle_walk(api, P, Q, out: PairOutcome) -> List[str]:
    problems = check_path(out.extra["path"], P, Q)
    grids = out.extra["grids"]
    if any(out.value > g + _close(out.value, g) for g in grids):
        problems.append("exact_above_grid")
    if any(b > a + _close(a, b) for a, b in zip(grids, grids[1:])):
        problems.append("grid_gap_increases")
    if out.extra["dtw"] < out.extra["dfrechet"] - _close(out.extra["dtw"], 0.0):
        problems.append("dtw_below_dfrechet")
    return problems


@dataclass
class LibrarySpec:
    pool: int
    make_pairs: Callable[[int, int], list]
    solve: Callable
    check: Callable
    # Seconds per pair on a 2-core Xeon; sizes the traced run only.
    nominal_pair_s: float


LIBRARY = {
    "solve_noise": LibrarySpec(128, corpus.noise_pairs, solve_noise_pair, check_solve_noise, 2.6),
    "oracle_walk": LibrarySpec(256, corpus.walk_pairs, oracle_walk_pair, check_oracle_walk, 0.9),
}


def _attempt(spec: LibrarySpec, api, P, Q) -> PairOutcome:
    t0 = time.perf_counter()
    try:
        out, result = spec.solve(api, P, Q)
    except Exception as exc:  # every failure is counted, never fatal
        return PairOutcome(time.perf_counter() - t0, error=exc)
    out.seconds = time.perf_counter() - t0
    out.pieces, out.edges, out.max_edge_pieces = _edge_pieces(result)
    return out


def _timed_setup(root: str, build: Callable[[], Any]):
    """Run set-up SETUP_REPEATS times between two-process host probes.

    Returns (last result, median of the scaled times, raw times).
    """
    raw = []
    with hostspeed.Probes(cores=2) as probes:
        for _ in range(SETUP_REPEATS):
            imported = import_seconds(root)
            t0 = time.perf_counter()
            result = build()
            raw.append(imported + time.perf_counter() - t0)
            probes.mark()
    scaled = [t * probes.scale(k) for k, t in enumerate(raw)]
    return result, statistics.median(scaled), raw


def library_setup(spec: LibrarySpec, api, root: str, seed: int, work_dir: str):
    def build():
        pairs = spec.make_pairs(seed, spec.pool)
        curves = [(api.build_curve(a), api.build_curve(b)) for a, b in pairs]
        corpus.write_pairs(os.path.join(work_dir, "pairs.json"), pairs)
        return curves

    return _timed_setup(root, build)


def _check_all(spec, api, curves, outcomes, tally: Tally) -> None:
    for k, out in enumerate(outcomes):
        if out.error is not None:
            tally.record([tally.exception(api, out.error)])
            continue
        P, Q = curves[k % len(curves)]
        try:
            problems = spec.check(api, P, Q, out)
        except Exception as exc:  # a check that raises is a failed check
            problems = [tally.exception(api, exc)]
        tally.record(problems)


def library_timed(spec: LibrarySpec, api, curves, seconds: float, tally: Tally):
    """Pairs one after another until ``seconds`` have passed, with a host
    probe between consecutive pairs."""
    outcomes: List[PairOutcome] = []
    probes = hostspeed.Probes()
    start = time.perf_counter()
    while True:
        P, Q = curves[len(outcomes) % len(curves)]
        outcomes.append(_attempt(spec, api, P, Q))
        probes.mark()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
    _check_all(spec, api, curves, outcomes, tally)
    scales = [probes.scale(k) for k in range(len(outcomes))]
    pair_s = [o.seconds * f for o, f in zip(outcomes, scales)]
    ok = [(o, f) for o, f in zip(outcomes, scales) if o.error is None]
    exact_s = sum(o.exact_s * f for o, f in ok)
    metrics = {
        "pairs_per_s": len(outcomes) / sum(pair_s),
        "exact_cells_per_s": sum(o.cells for o, _ in ok) / exact_s if exact_s else 0.0,
        "pair_s.p50": statistics.median(pair_s),
        "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF),
    }
    detail = {
        "pairs": len(outcomes),
        "pool": len(curves),
        "elapsed_s": elapsed,
        "pair_s.tail": tail(pair_s),
        "raw_pair_s": [o.seconds for o in outcomes],
        "raw_exact_s": [o.exact_s for o in outcomes],
        "pair_scale": scales,
        "host_probe": probes.summary(),
    }
    return metrics, detail


def trace_pairs(nominal_pair_s: float, seconds: float) -> int:
    """Pairs in the traced run: each is solved twice, traced and untraced."""
    return max(1, int(seconds / (2.0 * nominal_pair_s)))


def library_traced(spec: LibrarySpec, api, curves, seconds: float, tally: Tally, tracer):
    """Solve the first pairs untraced and traced, alternating which goes first."""
    targets = load_layers()["spans"]
    count = min(len(curves), trace_pairs(spec.nominal_pair_s, seconds))
    walls = {False: 0.0, True: 0.0}
    outcomes = {False: [], True: []}
    for k in range(count):
        P, Q = curves[k]
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed(targets):
                    t0 = time.perf_counter()
                    with tracer.span("bench.pair"):
                        out = _attempt(spec, api, P, Q)
                    walls[True] += time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                out = _attempt(spec, api, P, Q)
                walls[False] += time.perf_counter() - t0
            outcomes[traced].append(out)
    for traced in (False, True):
        _check_all(spec, api, curves, outcomes[traced], tally)
    # Tracing must not change a result.
    for plain, traced in zip(outcomes[False], outcomes[True]):
        if plain.value != traced.value:
            tally.reasons["traced_value_differs"] += 1
            tally.failed += 1
    ok = [o for o in outcomes[True] if o.error is None]
    counts = {
        "engine.cells_solved": sum(o.cells for o in ok),
        "piecewise.total_pieces": sum(o.pieces for o in ok),
        "piecewise.pieces_per_edge.mean": (
            sum(o.pieces for o in ok) / max(1, sum(o.edges for o in ok))
        ),
        "piecewise.pieces_per_edge.max": max((o.max_edge_pieces for o in ok), default=0),
    }
    return walls[True], walls[False], counts, {"traced_pairs": count}


# ---------------------------------------------------------------------------
# matrix_short: the cdtw matrix command


@dataclass
class MatrixDir:
    """One generated series directory and the curves built from it."""

    path: str
    named: List[Tuple[str, List[float]]]
    curves: list

    @property
    def pairs(self) -> int:
        return len(self.named) * (len(self.named) - 1) // 2

    @property
    def cells(self) -> int:
        segs = [c.num_segments for c in self.curves]
        return sum(a * b for i, a in enumerate(segs) for b in segs[i + 1:])


def matrix_setup(api, root: str, seed: int, work_dir: str):
    """MATRIX_DIRS directories; consecutive commands take them in turn, so a
    run averages over many corpora rather than timing one."""

    def build():
        dirs = []
        for part in range(MATRIX_DIRS):
            named = corpus.short_series(seed, MATRIX_FILES, part)
            path = os.path.join(work_dir, f"series{part:02d}")
            corpus.write_series_dir(path, named)
            dirs.append(MatrixDir(path, named, [api.build_curve(v) for _, v in named]))
        return dirs

    return _timed_setup(root, build)


def _matrix_command(series_dir: str, out_csv: str, jobs: int) -> List[str]:
    return ["matrix", series_dir, "--jobs", str(jobs), "--out", out_csv]


def run_matrix_subprocess(root: str, series_dir: str, out_csv: str, jobs: int):
    """One ``cdtw matrix`` run; returns (wall s, children CPU s, output or None)."""
    cmd = [sys.executable, "-m", "cdtw.cli", *_matrix_command(series_dir, out_csv, jobs)]
    if os.path.exists(out_csv):
        os.remove(out_csv)
    cpu0 = _children_cpu()
    t0 = time.perf_counter()
    # Its own process group, so a hung command is killed with its pool workers.
    with subprocess.Popen(
        cmd, env=_child_env(root), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    ) as proc:
        try:
            code = proc.wait(timeout=MATRIX_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            code = None
    wall = time.perf_counter() - t0
    cpu = _children_cpu() - cpu0
    return wall, cpu, _read_output(code, out_csv)


def _read_output(code: Optional[int], out_csv: str) -> Optional[str]:
    if code != 0 or not os.path.exists(out_csv):
        return None
    with open(out_csv) as fh:
        return fh.read()


def check_matrix(api, mdir: MatrixDir, text: Optional[str], sample) -> List[Tuple[int, int, str]]:
    """Problems as (i, j, reason); i = -1 marks a problem of the whole matrix."""
    if text is None:
        return [(-1, -1, "matrix_command_failed")]
    names = [name for name, _ in mdir.named]
    rows = [line.split(",") for line in text.splitlines()]
    n = len(names)
    if rows[0] != [""] + names or len(rows) != n + 1 or any(
        len(r) != n + 1 or r[0] != name for r, name in zip(rows[1:], names)
    ):
        return [(-1, -1, "matrix_shape")]
    cells = [r[1:] for r in rows[1:]]
    problems = [(-1, -1, "matrix_diagonal") for i in range(n) if cells[i][i] != "0"]
    for i in range(n):
        for j in range(i + 1, n):
            if cells[i][j] != cells[j][i]:
                problems.append((i, j, "matrix_asymmetric"))
    for i, j in sample:
        P, Q = mdir.curves[i], mdir.curves[j]
        value = api.cdtw_exact(P, Q, api.EngineConfig(record_path=False)).value
        if float(f"{value:.12g}") != float(cells[i][j]):
            problems.append((i, j, "matrix_entry_differs"))
    return problems


def _matrix_sample(seed: int, count: int) -> List[Tuple[int, int]]:
    """The fixed sample of entries compared with the library, chosen by seed."""
    pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
    rng = random.Random(f"matrix_sample:{seed}")
    return sorted(rng.sample(pairs, min(MATRIX_SAMPLE, len(pairs))))


def _tally_matrix(api, outputs: Sequence[Tuple[MatrixDir, Optional[str]]], seed, tally: Tally) -> None:
    """Every pair of every matrix output counts as one attempt.  Outputs of
    the same directory must be byte-identical."""
    by_dir: Dict[str, set] = {}
    for mdir, text in outputs:
        n = len(mdir.named)
        try:
            problems = check_matrix(api, mdir, text, _matrix_sample(seed, n))
        except Exception as exc:  # a check that raises is a failed check
            problems = [(-1, -1, tally.exception(api, exc))]
        whole = [reason for i, _, reason in problems if i < 0]
        by_pair: Dict[Tuple[int, int], List[str]] = {}
        for i, j, reason in problems:
            if i >= 0:
                by_pair.setdefault((i, j), []).append(reason)
        for i in range(n):
            for j in range(i + 1, n):
                tally.record(whole + by_pair.get((i, j), []))
        by_dir.setdefault(mdir.path, set()).add(text)
    for texts in by_dir.values():
        if len(texts) > 1:
            tally.reasons["matrix_not_deterministic"] += 1
            tally.failed += 1


def matrix_timed(api, root: str, dirs: List[MatrixDir], seed: int, seconds: float, tally: Tally, work_dir: str):
    """``cdtw matrix`` commands one after another until ``seconds`` have
    passed, with a two-process host probe between consecutive commands."""
    out_csv = os.path.join(work_dir, "matrix.csv")
    runs = []
    with hostspeed.Probes(cores=MATRIX_JOBS) as probes:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or not runs:
            mdir = dirs[len(runs) % len(dirs)]
            runs.append((mdir, *run_matrix_subprocess(root, mdir.path, out_csv, MATRIX_JOBS)))
            probes.mark()
        elapsed = time.perf_counter() - start
    _tally_matrix(api, [(mdir, text) for mdir, _, _, text in runs], seed, tally)
    scaled = [
        (mdir, wall * probes.scale(k), cpu * probes.scale(k))
        for k, (mdir, wall, cpu, _) in enumerate(runs)
    ]
    metrics = {
        "pairs_per_s": statistics.median(m.pairs / wall for m, wall, _ in scaled),
        "exact_cells_per_s": statistics.median(m.cells / cpu for m, _, cpu in scaled),
        "pair_s.p50": statistics.median(wall / m.pairs for m, wall, _ in scaled),
        "peak_rss_mb": _rss_mb(resource.RUSAGE_CHILDREN),
    }
    detail = {
        "commands": len(runs),
        "pairs_per_command": dirs[0].pairs,
        "files_per_command": len(dirs[0].named),
        "elapsed_s": elapsed,
        "raw_command_wall_s": [wall for _, wall, _, _ in runs],
        "raw_command_cpu_s": [cpu for _, _, cpu, _ in runs],
        "pair_s.tail": None,
        "host_probe": probes.summary(),
    }
    return metrics, detail


def matrix_trace_files(seconds: float) -> int:
    """Files in the traced matrix, sized so the traced run takes about
    ``seconds``: three in-process passes and one ``--jobs 2`` pass."""
    nominal_pair_s = 0.036  # --jobs 1, in process, on a 2-core Xeon
    want_pairs = seconds / (3.5 * nominal_pair_s)
    files = int((1.0 + math.sqrt(1.0 + 8.0 * want_pairs)) / 2.0)
    return max(4, min(MATRIX_FILES, files))


def matrix_traced(api, root: str, dirs: List[MatrixDir], seed: int, seconds: float, tally: Tally, tracer, work_dir: str):
    """In-process ``--jobs 1`` passes (untraced, traced, untraced) and one
    ``--jobs 2`` subprocess pass for CPU use.  Spans do not cross process
    boundaries, so only the in-process passes are traced."""
    import cdtw.cli

    count = matrix_trace_files(seconds)
    first = dirs[0]
    mdir = MatrixDir(os.path.join(work_dir, "trace_series"), first.named[:count], first.curves[:count])
    corpus.write_series_dir(mdir.path, mdir.named)
    out_csv = os.path.join(work_dir, "matrix_trace.csv")
    targets = load_layers()["spans"]
    walls = {False: 0.0, True: 0.0}
    outputs = []
    for traced in (False, True, False):
        if os.path.exists(out_csv):
            os.remove(out_csv)
        with tracer.installed(targets) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            with tracer.span("bench.matrix") if traced else contextlib.nullcontext():
                try:
                    code = cdtw.cli.main(_matrix_command(mdir.path, out_csv, 1))
                except Exception as exc:  # the missing output fails the checks
                    tally.exception(api, exc)
                    code = None
            walls[traced] += time.perf_counter() - t0
        outputs.append((mdir, _read_output(code, out_csv)))
    wall, cpu, text = run_matrix_subprocess(root, mdir.path, out_csv, MATRIX_JOBS)
    outputs.append((mdir, text))
    _tally_matrix(api, outputs, seed, tally)
    counts = {
        "engine.cells_solved": mdir.cells,
        "cli.worker_cpu_s": cpu,
        "cli.cpu_util": cpu / (wall * MATRIX_JOBS),
    }
    return walls[True], walls[False] / 2.0, counts, {"traced_files": count}

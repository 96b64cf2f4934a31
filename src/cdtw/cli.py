"""Batch command line front end.

Subcommands: compute (one distance), matrix (all-pairs over a directory),
oracle-check (grid convergence report against the exact solver), heatmap
(parameter-space dumps for external plotting).  Series files are CSV (one
value per line, optional second timestamp column ignored) or JSON (flat
numeric array).
"""

import argparse
import json
import math
import os
import sys
from typing import List, NoReturn, Optional, Sequence, Tuple, Union

from .baselines import GridConfig, cdtw_grid, discrete_frechet, dtw
from .curves import Curve, build_curve, cell_info, point_at
from .engine import EngineConfig, cdtw_exact, reconstruct_path
from .errors import CdtwError, InsufficientVertices, ResolutionZero, TooLarge
from .piecewise import ORACLE_SLACK

EXIT_USAGE = 2
EXIT_INVARIANT = 3
EXIT_SANDWICH = 4


class _UsageError(Exception):
    pass


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _round(v: float) -> float:
    # 12 significant digits: below solver tolerance, above float noise
    return float(_fmt(v))


def load_series(path: str, warn: bool = True) -> List[float]:
    """Parse one series file; raises _UsageError naming file and line.

    A file that cannot be read (missing, a directory, not UTF-8 text) is a
    usage error too.  With warn, a CSV file with a timestamp column gets a
    warning on stderr.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"{path}: {getattr(exc, 'strerror', None) or exc}")
    if path.endswith(".json"):
        try:
            data = json.loads(text, parse_int=float)  # past the float range: inf
        except json.JSONDecodeError as exc:
            raise _UsageError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}")
        if not isinstance(data, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in data
        ):
            raise _UsageError(f"{path}: expected a flat numeric array")
        return [float(v) for v in data]

    values: List[float] = []
    saw_timestamp = False
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) > 2:
            raise _UsageError(
                f"{path}:{lineno}: expected 1 or 2 columns, got {len(fields)}"
            )
        if len(fields) == 2:
            saw_timestamp = True
        try:
            values.append(float(fields[0]))
        except ValueError:
            raise _UsageError(
                f"{path}:{lineno}: could not parse value {fields[0]!r}"
            )
    if saw_timestamp and warn:
        print(f"warning: {path}: ignoring second column (timestamp)", file=sys.stderr)
    return values


def _write_text(path: str, text: str) -> None:
    """Write text to path; a file that cannot be written is a usage error
    naming it."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"{path}: {exc.strerror or exc}")


def _load_pair(args: argparse.Namespace) -> Tuple[List[float], List[float]]:
    """Both series of a two-file command; a file given twice warns once."""
    a = load_series(args.a)
    return a, load_series(args.b, warn=args.b != args.a)


def _curve_from(path: str, values: Sequence[float]) -> Curve:
    try:
        return build_curve(values)
    except InsufficientVertices as exc:
        raise _UsageError(f"{path}: {exc}")


# a measure's input: the values for the discrete measures, the curve otherwise
_Input = Union[List[float], Curve]


def _measure_input(measure: str, path: str, values: List[float]) -> _Input:
    if measure not in ("dtw", "dfrechet"):
        return _curve_from(path, values)
    if not values or not all(map(math.isfinite, values)):
        raise _UsageError(f"{path}: expected a nonempty series of finite values")
    return values


def _one_distance(measure: str, resolution: Optional[float], a: _Input, b: _Input) -> float:
    if measure == "dtw":
        return dtw(a, b)
    if measure == "dfrechet":
        return discrete_frechet(a, b)
    if measure == "cdtw-grid":
        try:
            return cdtw_grid(a, b, GridConfig(resolution=resolution))
        except ResolutionZero as exc:
            raise _UsageError(str(exc))
    return cdtw_exact(a, b, config=EngineConfig(record_path=False)).value


# module level, and called by its global name, so that bench/layers.json can
# bind the span cli.matrix_task to it
def _matrix_task(args: Tuple[str, Optional[float], _Input, _Input, str, str]) -> float:
    """One matrix entry; a solver error names both series files."""
    measure, resolution, a, b, path_a, path_b = args
    try:
        return _one_distance(measure, resolution, a, b)
    except CdtwError as exc:
        raise type(exc)(f"{path_a} vs {path_b}: {exc}") from exc


def _matrix_share(pairs: list, start: int, step: int) -> Tuple[List[float], Optional[tuple]]:
    """Values of pairs[start::step] up to the first pair that fails, and
    that failure as (pair index, exception), or None."""
    values: List[float] = []
    for k in range(start, len(pairs), step):
        try:
            values.append(_matrix_task(pairs[k]))
        except Exception as exc:  # raised by the command, in matrix order
            return values, (k, exc)
    return values, None


def _matrix_worker(pairs: list, start: int, step: int, write_fd: int) -> NoReturn:
    """Body of a forked worker: solve one share and send it down the pipe,
    a failure as its pair index and exception (class and message).  It
    never returns: it leaves through os._exit, so no code of the forking
    process runs twice."""
    status = 1
    try:
        share = _matrix_share(pairs, start, step)
        import pickle  # here, not at the top: only forked runs need it

        with os.fdopen(write_fd, "wb") as out:
            pickle.dump(share, out)
        status = 0
    finally:
        os._exit(status)


def _matrix_values(pairs: list, jobs: int) -> List[float]:
    """Every pair's value in order, from this process and min(jobs, pairs)
    - 1 forked workers; without os.fork, from this process alone.

    With w processes, share k holds pairs k, k + w, k + 2w, ... and this
    process solves share 0 while the workers solve the others.  Every
    worker is reaped on every path; then the failure that comes first in
    matrix order is raised, as --jobs 1 raises it.
    """
    workers = min(jobs, len(pairs)) if hasattr(os, "fork") else 1
    children: list = []  # (pid, read end of its pipe)
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _matrix_worker(pairs, k, workers, write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        shares = [_matrix_share(pairs, 0, workers)]
        sent = [pipe.read() for _, pipe in children]
    except BaseException:
        import signal

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        codes = []
        for pid, pipe in children:
            pipe.close()
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    if any(codes):
        raise RuntimeError(f"matrix workers exited with codes {codes}")
    if sent:
        import pickle

        shares += map(pickle.loads, sent)
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    values: List[float] = [0.0] * len(pairs)
    for k, (share, _) in enumerate(shares):
        values[k::workers] = share
    return values


def cmd_compute(args: argparse.Namespace) -> int:
    if args.measure == "cdtw-grid" and args.resolution is None:
        raise _UsageError("--measure cdtw-grid requires --resolution")
    if args.measure != "cdtw" and (args.stats or args.path):
        raise _UsageError("--stats and --path are only available with --measure cdtw")
    a, b = _load_pair(args)

    out = {"measure": args.measure, "n": len(a), "m": len(b)}
    a = _measure_input(args.measure, args.a, a)
    b = _measure_input(args.measure, args.b, b)
    stats = None
    if args.measure == "cdtw":
        res = cdtw_exact(a, b, config=EngineConfig(record_path=bool(args.path)))
        out["value"] = _round(res.value)
        if args.stats:
            stats = res.stats._asdict()
            stats["wall_time"] = _round(stats["wall_time"])
            out["stats"] = stats
        if args.path:
            _write_text(args.path, json.dumps(reconstruct_path(res)._asdict()))
            out["path"] = args.path
    else:
        out["value"] = _round(_one_distance(args.measure, args.resolution, a, b))

    if args.format == "json":
        print(json.dumps(out))
    else:
        cols = ["measure", "value", "n", "m"]
        row = [out["measure"], _fmt(out["value"]), str(out["n"]), str(out["m"])]
        if stats is not None:
            cols += ["cells_solved", "total_pieces", "wall_time"]
            row += [
                str(stats["cells_solved"]),
                str(stats["total_pieces"]),
                _fmt(stats["wall_time"]),
            ]
        if args.path:
            cols.append("path")
            row.append(args.path)
        print(",".join(cols))
        print(",".join(row))
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    if args.measure == "cdtw-grid" and args.resolution is None:
        raise _UsageError("--measure cdtw-grid requires --resolution")
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
    try:
        entries = sorted(os.listdir(args.dir))
    except OSError as exc:
        raise _UsageError(f"{args.dir}: {exc.strerror or exc}")
    files = [
        os.path.join(args.dir, name)
        for name in entries
        if name.endswith(".csv") or name.endswith(".json")
    ]
    if len(files) < 2:
        raise _UsageError(f"{args.dir}: need at least 2 series files, found {len(files)}")
    series = [load_series(path) for path in files]  # parse each file once, warn once here
    inputs = [_measure_input(args.measure, path, v) for path, v in zip(files, series)]
    pairs = [
        (args.measure, args.resolution, inputs[i], inputs[j], files[i], files[j])
        for i in range(len(files))
        for j in range(i + 1, len(files))
    ]
    if args.jobs > 1 and args.measure == "cdtw-grid":
        # numpy once, before the fork, rather than once in every worker
        from . import lattice  # noqa: F401
    values = _matrix_values(pairs, args.jobs)

    n = len(files)
    cells = [["0"] * n for _ in range(n)]
    it = iter(values)
    for i in range(n):
        for j in range(i + 1, n):
            cells[i][j] = cells[j][i] = _fmt(next(it))
    names = [os.path.basename(f) for f in files]
    lines = ["," + ",".join(names)]
    for name, row in zip(names, cells):
        lines.append(name + "," + ",".join(row))
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_oracle_check(args: argparse.Namespace) -> int:
    resolutions = args.resolutions
    if not resolutions or any(not 1 <= r < math.inf for r in resolutions):
        raise _UsageError("resolutions must be finite and >= 1")
    if any(b <= a for a, b in zip(resolutions, resolutions[1:])):
        raise _UsageError("resolutions must be strictly ascending")
    if args.tol is not None and not 0 <= args.tol < math.inf:
        raise _UsageError("--tol must be finite and >= 0")
    a, b = _load_pair(args)
    P = _curve_from(args.a, a)
    Q = _curve_from(args.b, b)
    exact = cdtw_exact(P, Q, config=EngineConfig(record_path=False)).value
    tol = args.tol if args.tol is not None else 0.02 * exact + 0.01

    print("resolution,grid,gap")
    violations = []
    for r in resolutions:
        grid = cdtw_grid(P, Q, GridConfig(resolution=r))
        gap = grid - exact
        print(f"{_fmt(r)},{_fmt(grid)},{_fmt(gap)}")
        if gap < -ORACLE_SLACK * (1 + abs(exact)):
            violations.append(f"grid below exact at resolution {_fmt(r)}: gap {_fmt(gap)}")
    if gap > tol:
        violations.append(f"final gap {_fmt(gap)} vs tol {_fmt(tol)}")
    print(f"exact,{_fmt(exact)},")
    for violation in violations:
        print(f"sandwich violation: {violation}", file=sys.stderr)
    return EXIT_SANDWICH if violations else 0


def cmd_heatmap(args: argparse.Namespace) -> int:
    if args.samples <= 0:
        raise _UsageError("--samples must be positive")
    a, b = _load_pair(args)
    P = _curve_from(args.a, a)
    Q = _curve_from(args.b, b)

    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise _UsageError(f"{args.out}: {exc.strerror or exc}")

    def write(name: str, lines: List[str]) -> None:
        _write_text(os.path.join(args.out, name), "\n".join(lines) + "\n")

    n = args.samples
    xs = [P.length * k / (n - 1) if n > 1 else 0.0 for k in range(n)]
    ys = [Q.length * k / (n - 1) if n > 1 else 0.0 for k in range(n)]
    pv = [point_at(P, x) for x in xs]
    qv = [point_at(Q, y) for y in ys]
    lines = ["x,y,h"]
    for x, p in zip(xs, pv):
        for y, q in zip(ys, qv):
            lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(abs(p - q))}")
    write("heatmap.csv", lines)

    res = cdtw_exact(P, Q)
    path = reconstruct_path(res)
    lines = ["x,y"]
    for x, y in path.points:
        lines.append(f"{_fmt(x)},{_fmt(y)}")
    write("path.csv", lines)

    lines = ["i,j,x0,y0,x1,y1"]
    for i in range(1, P.num_segments + 1):
        for j in range(1, Q.num_segments + 1):
            cell = cell_info(P, Q, i, j)
            if cell.valley is None:
                continue
            (x0, y0), (x1, y1) = cell.valley
            lines.append(
                f"{i},{j},{_fmt(x0)},{_fmt(y0)},{_fmt(x1)},{_fmt(y1)}"
            )
    write("valleys.csv", lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdtw",
        description="continuous dynamic time warping distances for 1D series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_measure_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--measure",
            choices=["cdtw", "dtw", "dfrechet", "cdtw-grid"],
            default="cdtw",
        )
        p.add_argument("--resolution", type=float, default=None)

    p = sub.add_parser("compute", help="distance between two series files")
    p.add_argument("a")
    p.add_argument("b")
    add_measure_flags(p)
    p.add_argument("--stats", action="store_true")
    p.add_argument("--path", default=None, metavar="OUT.json")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("matrix", help="all-pairs distance matrix for a directory")
    p.add_argument("dir")
    add_measure_flags(p)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("oracle-check", help="grid convergence report vs exact value")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument(
        "--resolutions",
        type=float,
        nargs="+",
        default=[4, 16, 64, 256],
    )
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("heatmap", help="dump height grid, path, and valleys as CSV")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("out")
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=cmd_heatmap)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TooLarge as exc:
        print(f"error: input too large: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CdtwError as exc:
        print(f"solver invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())

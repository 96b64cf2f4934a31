"""cdtw benchmark: one workload, one seed, one result line.

Run from the root of a checkout:

    python3 bench/run.py --workload solve_noise --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout (never from an
installed copy), and ``cdtw matrix`` runs as ``python -m cdtw.cli`` with
that ``src/`` on its path.  Inputs, outputs, the result record and the span
file go to ``.bench_out/<workload>-<seed>/``.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it is the full record (machine, seed, failures by reason, tail
latency, per-span detail).  The exit code is 0 when every check passed,
1 when one failed, 2 when the package source is missing.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List, Tuple

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("solve_noise", "matrix_short", "oracle_walk")

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("pairs_per_s", "1/s"),
    ("exact_cells_per_s", "1/s"),
    ("pair_s.p50", "s"),
    ("peak_rss_mb", "MB"),
]

_SPAN_METRICS = [
    "piecewise.lower_envelope.calls",
    "piecewise.lower_envelope.self_s",
    "piecewise.cumulative_min.calls",
    "piecewise.cumulative_min.self_s",
    "propagation.edge_travel.calls",
    "propagation.edge_travel.self_s",
    "propagation.type_c.calls",
    "propagation.type_c.self_s",
    "propagation.type_b.calls",
    "propagation.type_b.self_s",
    "propagation.type_a.calls",
    "propagation.type_a.self_s",
    "propagation.solve_cell.calls",
    "propagation.solve_cell.self_s",
    "propagation.base_case.self_s",
    "curves.cell_info.calls",
    "curves.cell_info.self_s",
    "curves.build_curve.calls",
    "curves.build_curve.self_s",
    "engine.cdtw_exact.calls",
    "engine.cdtw_exact.self_s",
    "engine.stats.self_s",
    "engine.trace.self_s",
    "baselines.cdtw_grid.calls",
    "baselines.cdtw_grid.self_s",
    "baselines.dtw.self_s",
    "baselines.discrete_frechet.self_s",
    "cli.load_series.calls",
    "cli.load_series.self_s",
]
_COUNT_METRICS = [
    ("piecewise.pieces_per_edge.mean", "count"),
    ("piecewise.pieces_per_edge.max", "count"),
    ("piecewise.total_pieces", "count"),
    ("engine.cells_solved", "count"),
    ("cli.worker_cpu_s", "s"),
    ("cli.cpu_util", "frac"),
]
PER_LAYER: List[Tuple[str, str]] = (
    [(m, "count" if m.endswith(".calls") else "s") for m in _SPAN_METRICS]
    + _COUNT_METRICS
    + [(f"{layer}.self_frac", "frac") for layer in (*tracing.LAYERS, "unattributed")]
    + [
        ("trace.wall_s", "s"),
        ("trace.accounted_frac", "frac"),
        ("trace.spans", "count"),
        ("trace_overhead_frac", "frac"),
    ]
)
# Layer self times plus the unattributed remainder must cover the traced
# wall time to within this share.
ACCOUNTED_TOL = 0.05


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def machine() -> Dict[str, object]:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def per_layer_metrics(
    calls, self_s, spans: int, traced_wall: float, plain_wall: float, counts
) -> Dict[str, float]:
    values: Dict[str, float] = {}
    for name in _SPAN_METRICS:
        span, kind = name.rsplit(".", 1)
        values[name] = calls[span] if kind == "calls" else self_s.get(span, 0.0)
    for name, _ in _COUNT_METRICS:
        values[name] = counts.get(name, 0)
    by_layer: Dict[str, float] = {}
    for span, seconds in self_s.items():
        layer = tracing.layer_of(span)
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    for layer in (*tracing.LAYERS, "unattributed"):
        values[f"{layer}.self_frac"] = by_layer.get(layer, 0.0) / traced_wall
    values["trace.wall_s"] = traced_wall
    values["trace.accounted_frac"] = sum(by_layer.values()) / traced_wall
    values["trace.spans"] = spans
    values["trace_overhead_frac"] = traced_wall / plain_wall - 1.0
    return values


def run(args, work_dir: str) -> Tuple[dict, dict]:
    """Set up, measure and check one workload; returns (record, summary)."""
    import cdtw as api

    os.makedirs(work_dir, exist_ok=True)
    tally = workloads.Tally()
    tracer = tracing.Tracer() if args.trace else None
    if args.workload == "matrix_short":
        setup, setup_s, raw_setup_s = workloads.matrix_setup(api, ROOT, args.seed, work_dir)
        if tracer:
            result = workloads.matrix_traced(
                api, ROOT, setup, args.seed, args.seconds, tally, tracer, work_dir
            )
        else:
            result = workloads.matrix_timed(
                api, ROOT, setup, args.seed, args.seconds, tally, work_dir
            )
    else:
        spec = workloads.LIBRARY[args.workload]
        setup, setup_s, raw_setup_s = workloads.library_setup(spec, api, ROOT, args.seed, work_dir)
        if tracer:
            result = workloads.library_traced(spec, api, setup, args.seconds, tally, tracer)
        else:
            result = workloads.library_timed(spec, api, setup, args.seconds, tally)

    problems: List[str] = []
    if tracer:
        traced_wall, plain_wall, counts, detail = result
        calls, self_s = tracing.summarize(tracer.spans)
        values = per_layer_metrics(
            calls, self_s, len(tracer.spans), traced_wall, plain_wall, counts
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        if abs(values["trace.accounted_frac"] - 1.0) > ACCOUNTED_TOL:
            problems.append("trace_not_accounted")
        detail["missing_spans"] = tracer.missing
        detail["spans"] = {name: {"calls": calls[name], "self_s": self_s[name]} for name in sorted(calls)}
        detail["untraced_wall_s"] = plain_wall
        tracer.write(os.path.join(work_dir, "spans.csv.gz"))
    else:
        values, detail = result
        values["setup_s"] = setup_s
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    correct = tally.failed == 0 and not problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / max(1, tally.attempted),
        "failure_reasons": dict(tally.reasons) | {p: 1 for p in problems},
        "non_cdtw_errors": dict(tally.errors),
        "notes": dict(tally.notes),
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "detail": detail,
        "metrics": metrics,
    }
    summary = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    with open(os.path.join(work_dir, f"result-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record, summary


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cdtw", "__init__.py")):
        print(f"error: no package source at {os.path.join(ROOT, 'src', 'cdtw')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    record, summary = run(args, os.path.join(ROOT, ".bench_out", f"{args.workload}-{args.seed}"))
    print(json.dumps({"record": record}))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

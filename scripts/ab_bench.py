"""Run the benchmark on two checkouts, seed by seed, and compare.

    python scripts/ab_bench.py BEFORE AFTER --workload solve_noise --seeds 901-905

BEFORE and AFTER are roots of two checkouts (for instance the parent
commit unpacked with ``git archive`` and the working tree).  For each seed
it runs ``bench/run.py`` in both, each from its own root so that each
imports its own ``src/``, alternating which checkout runs first, and reads
the metrics from the result line (the last line of standard output).  It
then prints, for every metric, the median and the q1-q3 range on each
side, the change of the medians, and in how many seed pairs AFTER was
better, by the direction ``BENCHMARK.json`` (in BEFORE, else AFTER) gives
the metric.  Operations attempted and failed are summed per side, and a
traced run (``--trace 1``) also lists the spans it could not attach.

Every run compiles the package from source, as a fresh checkout does:
each side runs with ``PYTHONDONTWRITEBYTECODE=1``, and every
``__pycache__`` under its ``src/`` is deleted before each run, so neither
side's ``setup_s`` or command start-up is timed against cached bytecode.

``--out FILE`` also writes all of it as one JSON record: the machine (as
``bench/run.py`` reports it), the bytecode regime, the seeds, every seed's
metrics on both sides, and per metric the medians, quartiles, change and
wins.

Only the standard library is used; the benchmark's own requirements are
those of ``bench/run.py``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple


def parse_seeds(items: List[str]) -> List[int]:
    """Seeds from items that are either one integer or a range 'a-b'."""
    seeds: List[int] = []
    for item in items:
        lo, sep, hi = item.partition("-")
        if sep and lo:
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(item))
    return seeds


def directions(roots: Tuple[str, str]) -> Dict[str, str]:
    """Metric name -> 'higher' or 'lower' from the first BENCHMARK.json found."""
    for root in roots:
        path = os.path.join(root, "BENCHMARK.json")
        if os.path.isfile(path):
            with open(path) as fh:
                spec = json.load(fh)
            return {
                m["name"]: m["better"]
                for m in spec.get("end_to_end", []) + spec.get("per_layer", [])
            }
    return {}


BYTECODE = "none: PYTHONDONTWRITEBYTECODE=1, and no __pycache__ under src/ at the start of any run"


def drop_bytecode(root: str) -> None:
    """Delete every __pycache__ directory under root/src."""
    for dirpath, dirnames, _ in os.walk(os.path.join(root, "src")):
        if "__pycache__" in dirnames:
            dirnames.remove("__pycache__")
            shutil.rmtree(os.path.join(dirpath, "__pycache__"))


def run_once(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run, compiling the package from source; the parsed
    record and summary lines."""
    cmd = [
        sys.executable, "bench/run.py",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    drop_bytecode(root)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{root}: bench/run.py exited {proc.returncode} on seed {seed}")
    record = json.loads(lines[-2])["record"]
    summary = json.loads(lines[-1])
    return {"record": record, "summary": summary}


def quartiles(xs: List[float]) -> Tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarise(runs: Dict[str, List[dict]], better: Dict[str, str]) -> Dict[str, dict]:
    """Per metric: each side's per-seed values, median and quartiles, the
    relative change of the medians, and the seed pairs AFTER won."""
    before, after = runs["before"], runs["after"]
    out: Dict[str, dict] = {}
    for name in before[0]["summary"]["metrics"]:
        entry: Dict[str, object] = {"better": better.get(name)}
        for side, rs in (("before", before), ("after", after)):
            xs = [r["summary"]["metrics"][name]["value"] for r in rs]
            q1, q2, q3 = quartiles(xs)
            entry[side] = {"values": xs, "q1": q1, "median": q2, "q3": q3}
        b, a = entry["before"], entry["after"]
        bm = b["median"]
        entry["change"] = (a["median"] - bm) / abs(bm) if bm else None
        way = entry["better"]
        entry["wins"] = None if way is None else sum(
            (y > x) if way == "higher" else (y < x) for x, y in zip(b["values"], a["values"])
        )
        out[name] = entry
    return out


def operations(runs: Dict[str, List[dict]]) -> Dict[str, dict]:
    """Per side: operations attempted and failed, and spans not attached."""
    return {
        side: {
            "attempted": sum(r["summary"]["attempted"] for r in rs),
            "failed": sum(r["summary"]["failed"] for r in rs),
            "missing_spans": sorted(
                {s for r in rs for s in r["record"]["detail"].get("missing_spans", [])}
            ),
        }
        for side, rs in runs.items()
    }


def report(metrics: Dict[str, dict], ops: Dict[str, dict], n: int) -> None:
    print(f"{'metric':40} {'before median (q1-q3)':>30} {'after median (q1-q3)':>30} {'change':>8} {'wins':>6}")
    for name, m in metrics.items():
        cols = [f"{q['median']:.4g} ({q['q1']:.4g}-{q['q3']:.4g})" for q in (m["before"], m["after"])]
        change = float("nan") if m["change"] is None else m["change"]
        wins = "?" if m["wins"] is None else f"{m['wins']}/{n}"
        print(f"{name:40} {cols[0]:>30} {cols[1]:>30} {change:>+8.1%} {wins:>6}")
    for side, o in ops.items():
        line = f"{side}: {o['failed']} of {o['attempted']} operations failed"
        if o["missing_spans"]:
            line += f"; missing spans {', '.join(o['missing_spans'])}"
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", help="root of the reference checkout")
    parser.add_argument("after", help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", nargs="+", required=True, help="integers or ranges a-b")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE", help="also write the comparison as JSON")
    args = parser.parse_args(argv)
    roots = {"before": os.path.abspath(args.before), "after": os.path.abspath(args.after)}
    runs: Dict[str, List[dict]] = {"before": [], "after": []}
    seeds = parse_seeds(args.seeds)
    for k, seed in enumerate(seeds):
        order = ("before", "after") if k % 2 == 0 else ("after", "before")
        for side in order:
            runs[side].append(run_once(roots[side], args.workload, seed, args.seconds, args.trace))
        print(f"seed {seed}: done, {order[0]} first", file=sys.stderr)
    metrics = summarise(runs, directions((roots["before"], roots["after"])))
    ops = operations(runs)
    report(metrics, ops, len(seeds))
    if args.out:
        record = {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "bytecode": BYTECODE,
            "seeds": seeds,
            # the checkouts need not be commits, so the machine's commit is left out
            "machine": {
                k: v for k, v in runs["after"][0]["record"]["machine"].items() if k != "commit"
            },
            "metrics": metrics,
            "operations": ops,
        }
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

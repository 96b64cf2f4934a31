"""Tests of the benchmark itself: seeded corpus, span accounting, exact
trace counts, and the result contract.

Run from the repository root:

    python3 -m pytest bench/test_bench.py
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import cdtw  # noqa: E402
from cdtw.cli import load_series  # noqa: E402

import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Counts that must repeat exactly for the same seed and --seconds.
EXACT_COUNTS = [name for name, unit in run.PER_LAYER if unit == "count"]


def _write_corpus(directory, seed):
    corpus.write_series_dir(str(directory / "series"), corpus.short_series(seed, 20))
    corpus.write_pairs(str(directory / "noise.json"), corpus.noise_pairs(seed, 8))
    corpus.write_pairs(str(directory / "walk.json"), corpus.walk_pairs(seed, 8))
    return {
        p.relative_to(directory).as_posix(): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def test_same_seed_gives_byte_identical_corpus(tmp_path):
    assert _write_corpus(tmp_path / "a", 7) == _write_corpus(tmp_path / "b", 7)


def test_different_seed_gives_different_corpus(tmp_path):
    a = _write_corpus(tmp_path / "a", 7)
    b = _write_corpus(tmp_path / "b", 8)
    assert a.keys() == b.keys()
    assert all(a[name] != b[name] for name in a)


def test_every_series_builds_without_collapsing():
    series = [values for _, values in corpus.short_series(3, 40)]
    for a, b in corpus.noise_pairs(3, 16) + corpus.walk_pairs(3, 16):
        series += [a, b]
    for values in series:
        assert len(cdtw.build_curve(values).vertices) == len(values)
    for a, b in corpus.walk_pairs(3, 16):
        assert cdtw.build_curve(a).length == pytest.approx(corpus.WALK_LENGTH, rel=1e-12)


def test_series_files_parse_back_exactly(tmp_path):
    named = corpus.short_series(5, 12)
    corpus.write_series_dir(str(tmp_path), named)
    assert {n.rsplit(".", 1)[1] for n, _ in named} == {"csv", "json"}
    for name, values in named:
        assert load_series(str(tmp_path / name)) == values


def test_self_times_cover_the_root_span():
    tracer = tracing.Tracer()

    traced_leaf = tracer.wrap("piecewise.leaf", lambda x: sum(range(x)))
    traced_middle = tracer.wrap("propagation.middle", lambda x: traced_leaf(x) + traced_leaf(x))
    with tracer.span("bench.pair"):
        for _ in range(3):
            traced_middle(20000)
    calls, self_s = tracing.summarize(tracer.spans)
    assert calls == {"piecewise.leaf": 6, "propagation.middle": 3, "bench.pair": 1}
    (root,) = [s for s in tracer.spans if s[1] == "bench.pair"]
    assert sum(self_s.values()) == pytest.approx(root[3] - root[2], rel=1e-9)


def test_installed_wraps_every_binding_and_restores():
    from cdtw import engine

    original = cdtw.curves.cell_info
    tracer = tracing.Tracer()
    with tracer.installed({"curves.cell_info": ["cdtw.curves:cell_info"], "x.gone": ["cdtw.curves:nope"]}):
        assert engine.cell_info is not original
        assert engine.cell_info is cdtw.cell_info is cdtw.curves.cell_info
    assert engine.cell_info is original and cdtw.cell_info is original
    assert tracer.missing == ["x.gone"]


def test_layer_map_targets_exist():
    spans = json.load(open(os.path.join(HERE, "layers.json")))["spans"]
    for name, candidates in spans.items():
        assert tracing._resolve(candidates) is not None, name


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _traced(workload, seed, seconds, work_dir):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=seconds, trace=1)
    record, summary = run.run(args, str(work_dir))
    assert summary["correct"], record["failure_reasons"]
    assert record["detail"]["missing_spans"] == []
    return {name: summary["metrics"][name]["value"] for name in EXACT_COUNTS}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = _traced(workload, 11, 1, tmp_path / "a")
    second = _traced(workload, 11, 1, tmp_path / "b")
    assert first == second
    assert first["engine.cells_solved"] > 0
    if workload == "matrix_short":
        # One traced pass: every file once up front, then both files per pair.
        files = workloads.matrix_trace_files(1)
        assert first["cli.load_series.calls"] == files + files * (files - 1)


def test_without_package_source_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve_noise", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""The benchmark's layer spans name functions that exist and are called.

bench/layers.json maps each traced layer to candidate "module:function"
names; a layer none of whose names resolves would only show up as a
missing span in a benchmark run.  A layer that resolves but is no longer
called (its work inlined into a caller) would show up as an empty span,
so the spans on the exact solver's path are traced through one small
solve with the benchmark's own tracer.
"""

import importlib
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
LAYERS = BENCH / "layers.json"

# The spans one cdtw_exact call with path recording must enter, with the
# curves built and the path read inside the traced region.
EXACT_PATH = (
    "curves.build_curve",
    "curves.cell_info",
    "piecewise.lower_envelope",
    "piecewise.cumulative_min",
    "propagation.base_case",
    "propagation.solve_cell",
    "propagation.type_a",
    "propagation.type_b",
    "propagation.type_c",
    "propagation.edge_travel",
    "engine.cdtw_exact",
    "engine.stats",
    "engine.trace",
    "engine.reconstruct_path",
)


def _spans():
    return json.loads(LAYERS.read_text())["spans"]


def _resolves(name: str) -> bool:
    module, func = name.split(":")
    return callable(getattr(importlib.import_module(module), func, None))


def test_every_span_resolves():
    spans = _spans()
    assert spans
    missing = [layer for layer, names in spans.items() if not any(map(_resolves, names))]
    assert missing == []


def test_exact_path_spans_are_called():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    import cdtw

    spans = _spans()
    assert set(EXACT_PATH) <= set(spans)
    # Bounded noise: the pair has cells of both directions and valleys.
    rng = random.Random(17)
    a = [rng.uniform(0.0, 1.0) for _ in range(9)]
    b = [rng.uniform(0.0, 1.0) for _ in range(9)]
    tracer = tracing.Tracer()
    with tracer.installed({name: spans[name] for name in EXACT_PATH}):
        P, Q = cdtw.build_curve(a), cdtw.build_curve(b)
        result = cdtw.cdtw_exact(P, Q, cdtw.EngineConfig(record_path=True))
        cdtw.reconstruct_path(result)
    assert tracer.missing == []
    calls, _ = tracing.summarize(tracer.spans)
    assert [name for name in EXACT_PATH if calls[name] == 0] == []
    # The solver runs on the curves reduced to their turning points.
    n, m = result.run.P.num_segments, result.run.Q.num_segments
    assert n < P.num_segments or m < Q.num_segments
    assert calls["curves.cell_info"] >= n * m
    assert calls["propagation.solve_cell"] == n * m
    assert calls["engine.stats"] == 2 * n * m + n + m
    # The tracer put every original back for the tests that follow.
    assert not hasattr(cdtw.engine.solve_cell, "__wrapped__")

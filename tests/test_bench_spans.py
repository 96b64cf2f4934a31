"""The benchmark's layer spans name functions that exist.

bench/layers.json maps each traced layer to candidate "module:function"
names; a layer none of whose names resolves would only show up as a
missing span in a benchmark run.  Reading the file is all this needs.
"""

import importlib
import json
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.json"


def _resolves(name: str) -> bool:
    module, func = name.split(":")
    return callable(getattr(importlib.import_module(module), func, None))


def test_every_span_resolves():
    spans = json.loads(LAYERS.read_text())["spans"]
    assert spans
    missing = [layer for layer, names in spans.items() if not any(map(_resolves, names))]
    assert missing == []

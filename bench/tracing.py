"""Outside-in span tracing of the cdtw layers.

The tracer wraps layer functions by reassigning module attributes, so no
file of the package changes.  A function one module imports from another by
name (``engine`` takes ``solve_cell`` and ``cell_info`` that way) is bound in
both modules; ``installed`` replaces every binding of the original in every
loaded ``cdtw`` module and puts the originals back on exit.

Spans are kept in memory as ``(id, name, start, end, parent id)`` tuples
and written out once, after the run.  A span's self time is its duration
minus the durations of its direct children.
"""

import contextlib
import gzip
import importlib
import itertools
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

Span = Tuple[int, str, float, float, int]

ROOT = -1
# Span names are "<layer>.<operation>"; these prefixes are the package layers.
LAYERS = ("curves", "piecewise", "propagation", "engine", "baselines", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._stack = [ROOT]
        self._ids = itertools.count()

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent))

    @contextlib.contextmanager
    def installed(self, targets: Dict[str, Sequence[str]]) -> Iterator[None]:
        """Wrap the first existing candidate ``module:attr`` of each span name.

        A span name none of whose candidates exists is recorded in
        ``missing`` and reported as zero calls.
        """
        patches = []
        modules = [m for n, m in sys.modules.items() if n == "cdtw" or n.startswith("cdtw.")]
        try:
            for name, candidates in targets.items():
                original = _resolve(candidates)
                if original is None:
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                wrapper = self.wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
            yield
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start,end,parent\n")
            for sid, name, start, end, parent in sorted(self.spans):
                fh.write(f"{sid},{name},{start!r},{end!r},{parent}\n")


def _resolve(candidates: Sequence[str]):
    for candidate in candidates:
        module_name, attr = candidate.split(":")
        fn = getattr(importlib.import_module(module_name), attr, None)
        if fn is not None:
            return fn
    return None


def summarize(spans: Sequence[Span]) -> Tuple[Counter, Dict[str, float]]:
    """Calls and self seconds per span name."""
    child_time: Dict[int, float] = defaultdict(float)
    for _, _, start, end, parent in spans:
        child_time[parent] += end - start
    calls: Counter = Counter()
    self_s: Dict[str, float] = defaultdict(float)
    for sid, name, start, end, _ in spans:
        calls[name] += 1
        self_s[name] += (end - start) - child_time.get(sid, 0.0)
    return calls, self_s


def layer_of(span_name: str) -> str:
    layer = span_name.split(".", 1)[0]
    return layer if layer in LAYERS else "unattributed"

"""The raise-site census: tests/data/raise_sites.json lists every raise in
src/cdtw that names an exception, keyed by module, enclosing function and
exception (with a count where one function raises it more than once), and
names for each a test that reaches it.

A raise added, removed or moved to another function fails here until the
list follows it, with a test that reaches it.  The list was built with a
sys.settrace line tracer over tier-1, recording which test executes each
raise line; the cli.py sites that tier-1 reaches only in a subprocess name
that subprocess test.
"""

import ast
import json
import re
from collections import Counter
from pathlib import Path

import cdtw

ROOT = Path(__file__).resolve().parent.parent
LISTED = json.loads((Path(__file__).parent / "data" / "raise_sites.json").read_text())["sites"]


def census() -> Counter:
    """(module, function, exception) -> number of raises, from the ast."""
    sites: Counter = Counter()

    def walk(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, module, f"{where}.{child.name}" if where else child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                sites[(module, where or "<module>", ast.unparse(exc))] += 1
            walk(child, module, where)

    for path in sorted(Path(cdtw.__file__).parent.glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path.stem, "")
    return sites


def test_census_matches_the_list():
    listed = Counter({(e["module"], e["function"], e["exception"]): e["count"] for e in LISTED})
    assert len(listed) == len(LISTED)  # no entry twice
    found = census()
    assert sum(found.values()) >= 40  # the walk saw the package's raises
    assert {k: v for k, v in found.items() if listed[k] != v} == {}
    assert {k: v for k, v in listed.items() if found[k] != v} == {}


def defined_tests(path: str) -> set:
    """("name",) per module-level test function of a test file and
    ("Class", "name") per test method, read with ast (nothing imported)."""
    found = set()
    for node in ast.parse((ROOT / path).read_text()).body:
        if isinstance(node, ast.FunctionDef):
            found.add((node.name,))
        elif isinstance(node, ast.ClassDef):
            found.update((node.name, f.name) for f in node.body if isinstance(f, ast.FunctionDef))
    return {names for names in found if names[-1].startswith("test")}


def test_every_site_names_a_test_that_exists():
    defined = {}
    missing = []
    for entry in LISTED:
        assert entry["tests"], entry
        for test_id in entry["tests"]:
            path, *names = re.sub(r"\[.*\]$", "", test_id).split("::")
            if path not in defined:
                defined[path] = defined_tests(path)
            if tuple(names) not in defined[path]:
                missing.append(test_id)
    assert missing == []

"""The benchmark's per-layer metrics name package functions by
`<module>.<function>.s` and `.calls`.  A function the run never calls reads
0, but only while `def <function>(` is still in `src/maniplex/<module>.py`;
a name that matches nothing makes `perfbench/run.py --trace 1` raise
`KeyError`.  Apart from those functions, no top-level definition in the
package may be kept for the tests alone."""

import ast
import json
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_per_layer_function_names_are_defined():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    named = [m["name"] for m in spec["per_layer"] if m["name"].endswith((".s", ".calls"))]
    assert named
    missing = []
    for name in named:
        module, func = name.rsplit(".", 1)[0].split(".", 1)
        source = ROOT / "src" / "maniplex" / f"{module}.py"
        if not source.is_file() or f"def {func}(" not in source.read_text(encoding="utf-8"):
            missing.append(name)
    assert missing == []


def test_derived_metric_function_names_are_defined():
    """`perfbench/run.py` derives some metrics from a function's counts with
    a default of 0, such as `counterexample.theta_nodes` from
    `counterexample.dfs.calls`; after a rename they would read 0 without
    an error, so each function it reads must still be defined."""
    read = re.findall(r'"(\w+)\.(\w+)\.(?:calls|s)"', (ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    assert ("counterexample", "dfs") in read
    missing = [
        (module, func) for module, func in read
        if f"def {func}(" not in (ROOT / "src" / "maniplex" / f"{module}.py").read_text(encoding="utf-8")
    ]
    assert missing == []


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_every_package_definition_has_a_user():
    """Keep no package code that only tests use.  Every top-level def and
    class in src/maniplex is used by the package or by perfbench (as a name,
    an attribute or an import outside `__init__.py`, away from its own
    definition), or is named by a per-layer metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    measured = {tuple(m["name"].split(".")[:2]) for m in spec["per_layer"] if m["name"].count(".") >= 2}
    sources = sorted((ROOT / "src" / "maniplex").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    users = defaultdict(set)  # name -> (file, enclosing top-level definition or None) of each use
    defined = []
    for path in sources:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = top.name if isinstance(top, _DEFINITIONS) else None
            if owner is not None and path.parent.name == "maniplex":
                defined.append((path, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    users[node.id].add((path, owner))
                elif isinstance(node, ast.Attribute):
                    users[node.attr].add((path, owner))
                elif isinstance(node, ast.alias) and path.name != "__init__.py":
                    users[node.name].add((path, owner))
    unused = [
        name for path, name in defined
        if users[name] <= {(path, name)} and (path.stem, name) not in measured
    ]
    assert unused == [], unused

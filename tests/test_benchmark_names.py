"""The benchmark's per-layer metrics name package functions by
`<module>.<function>.s` and `.calls`.  A function the run never calls reads
0, but only while `def <function>(` is still in `src/maniplex/<module>.py`;
a name that matches nothing makes `perfbench/run.py --trace 1` raise
`KeyError`."""

import json
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

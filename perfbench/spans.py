"""Benchmark-side measurement: a reference loop, spans around calls into the
package, and cProfile totals.

Spans are recorded only at the boundary between the benchmark and the
package: one per call the benchmark makes into a package module, nested
under one root span per operation.  They are kept in memory and written
out when the run ends.  Inside the package, cProfile gives per-function
call counts, cumulative time and self time, which `profile_totals` sums
by module file.
"""

from __future__ import annotations

import json
import pstats
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, TypeVar

T = TypeVar("T")

# Scaled times are seconds of a machine on which `reference_seconds` takes
# this long: the loop's fast-state median on the 2-vCPU machine the
# benchmark was written on.
REFERENCE_S = 0.0055


def reference_seconds() -> float:
    """Time a fixed pure-Python loop: dict, tuple and hash work, then 3 000
    small sets built and dropped (about 5.5 ms on an idle machine).

    The machine's speed drifts by up to 1.7x over tens of seconds, and the
    package code slows with it.  Time samples are scaled by this loop,
    timed just before and after each, so that they measure the package's
    cost against the interpreter rather than the machine's load.
    """
    start = perf_counter()
    acc, counts = 0, {}
    for i in range(10000):
        k = (i * 7919) % 1009
        counts[k] = counts.get(k, 0) + 1
        acc ^= hash((k, i & 255))
    sets = [set(range(i % 64, i % 64 + 16)) for i in range(3000)]
    del sets
    return perf_counter() - start


class Recorder:
    """Collects spans while enabled; when disabled, `call` is a plain call."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op: str | None = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        record = {
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, op_id: str) -> Iterator[None]:
        """Root span of one operation; spans opened inside carry its id."""
        self._op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._op = None

    def call(self, fn: Callable[..., T], *args: object) -> T:
        """Call a package function, as a span named `<module>.<function>`."""
        if not self.enabled:
            return fn(*args)
        with self.span(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"):
            return fn(*args)

    def write(self, path: Path, header: dict) -> None:
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for k, record in enumerate(self.spans):
                out.write(json.dumps({"id": k, **record}) + "\n")


def profile_totals(stats: pstats.Stats, package_dir: Path) -> dict[tuple[str, str], list[float]]:
    """(module, function) -> [calls, cumulative s, self s] for package code.

    Nested functions are keyed by their own name, so a closure such as the
    coset table's `add_vertex` is counted under its module like any other
    function.  `module.*` holds the module's summed self time.
    """
    prefix = str(package_dir.resolve()) + "/"
    totals: dict[tuple[str, str], list[float]] = {}
    for (filename, _line, func), (_cc, calls, self_s, cum_s, _callers) in stats.stats.items():
        if not filename.startswith(prefix):
            continue
        module = Path(filename).stem
        for key, cum in (((module, func), cum_s), ((module, "*"), 0.0)):
            entry = totals.setdefault(key, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += cum
            entry[2] += self_s
    return totals

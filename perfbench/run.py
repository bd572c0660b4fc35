"""Run one benchmark workload and print its metrics as a JSON last line.

Usage, from the repository root:

    python3 perfbench/run.py --workload tower --seed 1 --seconds 15 --trace 0

Workloads: tower, census, regular (see workloads.py).  The package is
imported from ./src, so the run measures the source tree it is started in.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json.  Rounds
of the workload repeat until --seconds have been spent; time metrics are
medians of the samples an operation got, each sample scaled by a reference
loop timed around it (spans.reference_seconds).  `setup_s` is the median
over fresh interpreters of start-up, import and input generation.
See METRICS.md for every metric.

--trace 1 prints the per-layer metrics instead: the same untraced rounds,
then one more round with benchmark-side spans and cProfile on.  Per-layer
times come from that traced round; the step metrics (`rank7_s`, ...) and
the baseline for the tracing overhead come from the untraced rounds.
Spans are written to .bench_out/spans-<workload>-seed<seed>.jsonl.

The exit code is 0 when every output matched its reference, 1 on a wrong
answer, 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import spans

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
PACKAGE = ROOT / "src" / "maniplex"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 11
MiB = 1024  # ru_maxrss is in KiB on Linux


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=("tower", "census", "regular"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(args: argparse.Namespace):
    """Import the package from ./src and generate the workload's inputs."""
    sys.path.insert(0, str(PACKAGE.parent))
    import workloads

    return workloads, workloads.WORKLOADS[args.workload](args.seed, OUT / f"cli-{os.getpid()}")


def setup_seconds(args: argparse.Namespace) -> float:
    """Median time of fresh interpreters that only start, import and set up.

    Each is scaled by the reference loop timed just before and after it.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        before = spans.reference_seconds()
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        times.append(elapsed * 2 * spans.REFERENCE_S / (before + spans.reference_seconds()))
    return statistics.median(times)


def run_rounds(workloads, wl, seconds: float):
    """Untraced rounds until `seconds` are spent (at least one)."""
    tally, rec = workloads.Tally(), spans.Recorder(enabled=False)
    start = time.perf_counter()
    while True:
        wl.round(tally, rec, traced=False)
        if time.perf_counter() - start >= seconds:
            return tally


def job_seconds(tally, wl, scaled: bool = False) -> float:
    """Time of the job: the sum of its operations' medians."""
    return sum(tally.median(op, scaled) for op in wl.job_ops)


def end_to_end(args, workloads, wl) -> tuple[dict, object]:
    setup_s = setup_seconds(args)
    tally = run_rounds(workloads, wl, args.seconds)
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / MiB,
        "job_s": job_seconds(tally, wl, scaled=True),
        "ok_share": 1 - len(tally.failed) / len(tally.attempted),
    }
    return values, tally


def per_layer(args, workloads, wl) -> tuple[dict, object]:
    plain = run_rounds(workloads, wl, args.seconds)
    values = {name: 0 for other in workloads.WORKLOADS.values() for name in other.steps}
    values.update(wl.step_metrics(plain))
    values["job_wall_s"] = job_seconds(plain, wl)
    values["reference_ms"] = 1000 * statistics.median(spans.reference_seconds() for _ in range(SETUP_PROBES))
    values["failed_share"] = len(plain.failed) / len(plain.attempted)

    traced, rec = workloads.Tally(), spans.Recorder(enabled=True)
    coset_results: list[int] = []
    profiler = cProfile.Profile()
    with counting_cosets(coset_results):
        profiler.enable()
        try:
            wl.round(traced, rec, traced=True)
        finally:
            profiler.disable()
    totals = spans.profile_totals(pstats.Stats(profiler), PACKAGE)
    values.update({f"{module.stem}.self_s": 0.0 for module in PACKAGE.glob("*.py")})
    for (module, func), (calls, cum_s, self_s) in totals.items():
        if func == "*":
            values[f"{module}.self_s"] = self_s
        else:
            values[f"{module}.{func}.calls"] = calls
            values[f"{module}.{func}.s"] = cum_s

    values["core.json_bytes"] = traced.json_bytes
    allocated = values.get("cosets.add_vertex.calls", 0)
    values["cosets.allocated"] = allocated
    values["cosets.live"] = sum(coset_results)
    values["cosets.live_per_allocated"] = sum(coset_results) / allocated if allocated else 0.0
    values["counterexample.theta_nodes"] = values.get("counterexample.dfs.calls", 0)
    for error in ("ValueError", "CosetCapExceeded"):
        values[f"errors.{error}"] = sum(1 for e in traced.failed.values() if e == error)
    untraced_job, traced_job = job_seconds(plain, wl), job_seconds(traced, wl)
    values["trace.overhead_s"] = traced_job - untraced_job
    values["trace.overhead_share"] = traced_job / untraced_job - 1
    values["trace.spans"] = len(rec.spans)

    OUT.mkdir(exist_ok=True)
    header = {"workload": args.workload, "seed": args.seed, **environment()}
    rec.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", header)
    return values, plain


@contextmanager
def counting_cosets(sink: list[int]) -> Iterator[None]:
    """Record the live coset count of every `coset_enumerate` that completes.

    Every package module that imported the function gets the recording
    wrapper for the duration, and the original back afterwards.
    """
    from maniplex import cosets

    original = cosets.coset_enumerate

    @functools.wraps(original)
    def coset_enumerate(*args, **kwargs):
        table = original(*args, **kwargs)
        sink.append(table.count)
        return table

    modules = [m for name, m in sys.modules.items() if name.startswith("maniplex") and getattr(m, "coset_enumerate", None) is original]
    for module in modules:
        module.coset_enumerate = coset_enumerate
    try:
        yield
    finally:
        for module in modules:
            module.coset_enumerate = original


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}


def select(spec: list[dict], values: dict) -> dict:
    """The metrics `spec` names, in its order and with its units.

    A package function that the run never called has 0 calls and 0 s.
    """
    out = {}
    for metric in spec:
        name = metric["name"]
        value = values.get(name)
        if value is None and name.endswith((".s", ".calls")):
            module, func = name.rsplit(".", 1)[0].split(".", 1)
            source = PACKAGE / f"{module}.py"
            if source.is_file() and f"def {func}(" in source.read_text(encoding="utf-8"):
                value = 0
        if value is None:
            raise KeyError(f"metric {name} is not measured by this benchmark")
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE}; run from the repository root", file=sys.stderr)
        return 2
    workloads, wl = setup(args)
    if args.setup_only:
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        if args.trace:
            values, tally = per_layer(args, workloads, wl)
            metrics = select(spec["per_layer"], values)
        else:
            values, tally = end_to_end(args, workloads, wl)
            metrics = select(spec["end_to_end"], values)
            steps = wl.step_metrics(tally)
            print("# steps " + json.dumps({k: round(v, 6) for k, v in steps.items()}))
    except workloads.WrongAnswer as exc:
        print(f"error: wrong answer: {exc}", file=sys.stderr)
        return 1
    print("# env " + json.dumps(environment()))
    if tally.failed:
        print("# failed " + json.dumps(tally.failed))
    result = {
        "correct": True,
        "attempted": len(tally.attempted),
        "failed": len(tally.failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's three workloads, their seeded inputs and reference checks.

Every workload runs closed-loop in one single-threaded process: the next
call into the package is made only after the previous one has returned.
One round runs each of the workload's operations once; the caller repeats
rounds until its measuring time is spent.  Each operation's output is
checked against a reference that does not come from the code under test
(closed formulas and known face vectors); a wrong answer raises
`WrongAnswer` and aborts the run.  The refusals the package is known to
make (a `ValueError` from a size limit, `CosetCapExceeded`) are counted as
failed operations and give no time sample.

Operations in `job_ops` make up `job_s`.  Rank 8 of the tower and the
rank-5 cube and orthoplex are refused by the package at the time this
benchmark was written; they are attempted in every round but kept out of
`job_s`, so that the day they succeed their new time does not read as a
slowdown of the rest.
"""

from __future__ import annotations

import random
import shutil
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from maniplex import certify, cli, core, corpus, cosets, counterexample, coxeter, extension

from spans import REFERENCE_S, Recorder, reference_seconds

TOWER_RANKS = range(5, 9)
TOWER_REPS = 7  # samples per tower step and round, at most ...
TOWER_STEP_BUDGET_S = 3.0  # ... and no more once this much time is spent on the step

# b, c >= 0 and 1 <= b^2 + c^2 <= 64: every {4,4} torus map of up to 512 flags
TORUS_POOL = tuple((b, c) for b in range(9) for c in range(9) if 1 <= b * b + c * c <= 64)

# name -> (string Coxeter symbol, flags, face vector, partner whose dual it is)
REGULAR = {
    "24cell": ((3, 4, 3), 1152, (24, 96, 96, 24), "24cell"),
    "5simplex": ((3, 3, 3, 3), 720, (6, 15, 20, 15, 6), "5simplex"),
    "5cube": ((4, 3, 3, 3), 3840, (32, 80, 80, 40, 10), "5orthoplex"),
    "5orthoplex": ((3, 3, 3, 4), 3840, (10, 40, 80, 80, 32), "5cube"),
}


class WrongAnswer(Exception):
    """An output disagrees with its reference."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise WrongAnswer(what)


class Tally:
    """Time samples and refusals per operation, over all rounds of one run."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted: list[str] = []
        self.failed: dict[str, str] = {}
        self.json_bytes = 0
        self.scaled: dict[str, list[float]] = defaultdict(list)

    def measure(
        self,
        rec: Recorder,
        op: str,
        fn: Callable[[], object],
        refusals: tuple[type[BaseException], ...] = (),
        reps: int = 1,
        budget_s: float = 0.0,
    ) -> Optional[object]:
        """Run `fn` up to `reps` times, until `budget_s` is spent; return its first result.

        Each sample is also kept scaled by the reference loop timed just
        before and just after it.  A known refusal marks the operation
        failed and returns None.
        """
        self.attempt(op)
        first, spent = None, 0.0
        for k in range(reps):
            before = reference_seconds()
            with rec.op(op):
                start = perf_counter()
                try:
                    out = fn()
                except refusals as exc:
                    self.failed[op] = type(exc).__name__
                    return None
                elapsed = perf_counter() - start
            self.samples[op].append(elapsed)
            self.scaled[op].append(elapsed * 2 * REFERENCE_S / (before + reference_seconds()))
            if k == 0:
                first = out
            spent += elapsed
            if spent >= budget_s:
                break
        return first

    def attempt(self, op: str) -> None:
        if op not in self.attempted:
            self.attempted.append(op)

    def median(self, op: str, scaled: bool = False) -> float:
        """Median wall or scaled time of an operation, 0 when it has no sample."""
        samples = (self.scaled if scaled else self.samples).get(op)
        return statistics.median(samples) if samples else 0.0

    def round_trip(self, rec: Recorder, m: core.Maniplex) -> None:
        text = rec.call(core.maniplex_to_json, m)
        self.json_bytes += len(text)
        expect(rec.call(core.maniplex_from_json, text) == m, "JSON decode differs from the encoded maniplex")


class Tower:
    """B*, then rank extensions 5..8 with full certification.

    Large flag sets (768 -> 49 152) over posets of under 100 faces: `core`,
    `extension` and JSON do most of the work, and set the memory peak.
    """

    name = "tower"
    # Rank 7 is left out of the job: one 12 s sample that allocates 1.5 GB
    # read 11.0 to 16.5 s in ten fresh processes, and the reference loop
    # does not steady it.  It is still run, checked and counted, and it
    # sets peak_rss_mb.
    job_ops = ("rank4", "rank5", "rank6")
    steps = ("bstar_s", "rank5_s", "rank6_s", "rank7_s", "rank8_s", "certified_rank")

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.facet_index = {rank: rng.randrange(4) for rank in TOWER_RANKS}
        self.workdir = workdir

    def round(self, tally: Tally, rec: Recorder, traced: bool) -> None:
        reps, budget = (1, 0.0) if traced else (TOWER_REPS, TOWER_STEP_BUDGET_S)
        bstar = tally.measure(rec, "rank4", lambda: self._bstar(tally, rec), reps=reps, budget_s=budget)
        m = bstar
        for rank in TOWER_RANKS:
            if m is None:  # a lower rank was refused, so this one cannot be built
                tally.attempt(f"rank{rank}")
                tally.failed[f"rank{rank}"] = "NotAttempted"
                continue
            base = m
            m = tally.measure(
                rec,
                f"rank{rank}",
                lambda: self._extend(tally, rec, base, rank),
                refusals=(ValueError,),
                reps=reps,
                budget_s=budget,
            )
        self._cli_guard(rec, bstar)

    def _bstar(self, tally: Tally, rec: Recorder) -> core.Maniplex:
        result = rec.call(counterexample.build_B_star)
        bad = [c.name for c in result.checks if c.status != certify.PASS]
        expect(not bad, f"B* checks not passed: {bad}")
        expect(result.witness == (0, 1), f"B* witness {result.witness} != (0, 1)")
        expect(result.bstar.rank == 4 and result.bstar.flag_count == 192, "B* is not 192 flags of rank 4")
        tally.round_trip(rec, result.bstar)
        return result.bstar

    def _extend(self, tally: Tally, rec: Recorder, m: core.Maniplex, rank: int) -> core.Maniplex:
        facet = rec.call(core.faces, m, rank - 2)[self.facet_index[rank]]
        result = rec.call(extension.verify_extension, m, facet)
        cert = rec.call(certify.checks_to_json, result.checks)
        ext = result.extension
        expect(ext.rank == rank, f"rank {rank}: extension has rank {ext.rank}")
        expect(ext.flag_count == 192 * 4 ** (rank - 4), f"rank {rank}: {ext.flag_count} flags")
        status = {c["name"]: c["status"] for c in cert}
        expect(status.pop("extension-faithful-observed", None) == certify.INFO, f"rank {rank}: no faithfulness note")
        expect(status.get("unfaithfulness-preserved") == certify.PASS, f"rank {rank}: unfaithfulness lost")
        bad = sorted(name for name, s in status.items() if s != certify.PASS)
        expect(not bad, f"rank {rank}: checks not passed: {bad}")
        tally.round_trip(rec, ext)
        return ext

    def _cli_guard(self, rec: Recorder, bstar: core.Maniplex) -> None:
        """`counterexample --rank 5` in process writes what the library path encodes."""
        out = self.workdir
        try:
            rc = rec.call(cli.main, ["counterexample", "--rank", "5", "-o", str(out)])
            expect(rc == 0, f"CLI counterexample --rank 5 exited {rc}")
            facet = rec.call(core.faces, bstar, 3)[0]
            want = rec.call(core.maniplex_to_json, rec.call(extension.extend, bstar, facet))
            got = (out / "maniplex-rank5.json").read_bytes()
            expect(got == want.encode("utf-8"), "CLI rank-5 artifact differs from the library encoding")
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def step_metrics(self, tally: Tally) -> dict[str, float]:
        out = {"bstar_s": tally.median("rank4")}
        certified = 3
        for rank in range(4, 9):
            if rank > 4:
                out[f"rank{rank}_s"] = tally.median(f"rank{rank}")
            if certified == rank - 1 and f"rank{rank}" not in tally.failed:
                certified = rank
        out["certified_rank"] = certified
        return out


class Census:
    """Many small rank-3 torus maps, each validated, classified and round-tripped.

    `poset` and `core.automorphism_count` dominate; `extension` and
    `cosets` are bypassed.  Every pool member is drawn twice, each time in
    a seeded orientation (b, c) or its mirror (c, b), in a seeded order:
    the maps differ by seed while the total work stays the same.
    """

    name = "census"
    steps = ("maps_per_s", "op_p90_ms")

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        draw = [(c, b) if rng.random() < 0.5 else (b, c) for b, c in TORUS_POOL * 2]
        rng.shuffle(draw)
        self.maps = draw
        self.job_ops = tuple(self._op(k, b, c) for k, (b, c) in enumerate(draw))

    @staticmethod
    def _op(k: int, b: int, c: int) -> str:
        return f"torus{k}({b},{c})"

    def round(self, tally: Tally, rec: Recorder, traced: bool) -> None:
        for k, (b, c) in enumerate(self.maps):
            tally.measure(rec, self._op(k, b, c), lambda: self._check(tally, rec, b, c))

    def _check(self, tally: Tally, rec: Recorder, b: int, c: int) -> None:
        m = rec.call(corpus.torus_44, b, c)
        n = b * b + c * c
        where = f"torus_44({b}, {c})"
        expect(m.rank == 3 and m.flag_count == 8 * n, f"{where}: {m.flag_count} flags, want {8 * n}")
        expect(rec.call(core.validate, m).ok, f"{where}: not a valid maniplex")
        summary = rec.call(coxeter.verdict, m).summary
        want = "semisparse" if n >= 4 else "not sparse"
        expect(summary == want, f"{where}: verdict {summary!r}, want {want!r}")
        autos = rec.call(core.automorphism_count, m).count
        want_autos = 8 * n if b * c * (b - c) == 0 else 4 * n
        expect(autos == want_autos, f"{where}: {autos} automorphisms, want {want_autos}")
        expect(rec.call(core.isomorphic, m, rec.call(core.dual, m)) is not None, f"{where}: not self-dual")
        tally.round_trip(rec, m)

    def step_metrics(self, tally: Tally) -> dict[str, float]:
        times = [t for op in self.job_ops for t in tally.samples.get(op, ())]
        return {
            "maps_per_s": len(times) / sum(times),
            "op_p90_ms": 1000 * statistics.quantiles(times, n=10)[-1],
        }


class Regular:
    """Regular polytopes of rank 4 and 5 from Todd-Coxeter, then fully checked.

    Puts coset-table waste and O(flags^2) automorphism counting on the
    blocking path.  The seed sets the order of the four presentations.
    """

    name = "regular"
    job_ops = ("24cell", "5simplex")
    steps = tuple(f"{name}_s" for name in REGULAR)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.order = list(REGULAR)
        random.Random(seed).shuffle(self.order)

    def round(self, tally: Tally, rec: Recorder, traced: bool) -> None:
        built: dict[str, core.Maniplex] = {}
        for name in self.order:
            tally.measure(
                rec, name, lambda: self._build(tally, rec, name, built), refusals=(cosets.CosetCapExceeded,)
            )

    def _build(self, tally: Tally, rec: Recorder, name: str, built: dict[str, core.Maniplex]) -> None:
        symbol, flags, vector, partner = REGULAR[name]
        pres = rec.call(cosets.string_coxeter, symbol)
        m = rec.call(cosets.coset_enumerate, pres).to_maniplex()
        expect(m.flag_count == flags, f"{name}: {m.flag_count} flags, want {flags}")
        expect(rec.call(core.validate, m).ok, f"{name}: not a valid maniplex")
        got = tuple(len(rec.call(core.faces, m, i)) for i in range(m.rank))
        expect(got == vector, f"{name}: face vector {got}, want {vector}")
        summary = rec.call(coxeter.verdict, m).summary
        expect(summary == "semisparse", f"{name}: verdict {summary!r}")
        autos = rec.call(core.automorphism_count, m).count
        expect(autos == flags, f"{name}: {autos} automorphisms, want {flags}")
        built[name] = m
        if partner in built:
            iso = rec.call(core.isomorphic, m, rec.call(core.dual, built[partner]))
            expect(iso is not None, f"{name} is not isomorphic to the dual of {partner}")
        tally.round_trip(rec, m)

    def step_metrics(self, tally: Tally) -> dict[str, float]:
        return {f"{name}_s": tally.median(name) for name in REGULAR}


WORKLOADS = {w.name: w for w in (Tower, Census, Regular)}

"""End-to-end acceptance run: ten timed criteria, one printed line each.

Run with output visible:  pytest -s tests/test_acceptance.py -v
"""

import json
import random
import time
from contextlib import contextmanager

import suites
from maniplex.certify import INFO, PASS, all_ok
from maniplex.cli import main as cli_main
from maniplex.core import (
    automorphism_count,
    dual,
    face_table,
    faces,
    maniplex_from_json,
    isomorphic,
    restrict,
    validate,
)
from maniplex.corpus import platonic, torus_44
from maniplex.cosets import DEFAULT_CAP, coset_enumerate, string_coxeter
from maniplex.counterexample import (
    build_B,
    build_B_star,
    build_E_theta,
    find_theta,
    path_edges,
    verify_B_conditions,
)
from maniplex.coxeter import verdict
from maniplex.extension import verify_extension
from maniplex.poset import is_faithful, is_polytopal
from oracles import fiber_pair_by_labels, shifted_flags


@contextmanager
def criterion(number, title, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[FAIL] criterion {number}: {title} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    verdict_word = "PASS" if elapsed < budget_s else "FAIL"
    print(f"[{verdict_word}] criterion {number}: {title} ({elapsed:.2f}s, budget {budget_s:g}s)")
    assert elapsed < budget_s, f"time budget exceeded: {elapsed:.2f}s >= {budget_s}s"


def checks_by_name(checks):
    return {c.name: c.status for c in checks}


def test_criterion_1_base_construction():
    with criterion(1, "96-flag rank-4 base", 5):
        b = build_B()
        assert validate(b).ok
        assert b.rank == 4
        assert b.flag_count == 96
        assert tuple(len(faces(b, i)) for i in range(4)) == (4, 6, 6, 4)
        assert automorphism_count(b) == (96, True)
        assert isomorphic(b, dual(b)) is not None
        # flat: every vertex meets every facet
        vertices, facets = faces(b, 0), faces(b, 3)
        assert all(
            set(v.flags) & set(f.flags) for v in vertices for f in facets
        )
        assert is_faithful(b).faithful
        assert is_polytopal(b)
        hemicube = platonic("hemicube")
        hemioct = platonic("hemioctahedron")
        for f in facets:
            sec = restrict(b, f.flags, range(3))
            assert sec.flag_count == 24
            assert isomorphic(sec, hemicube) is not None
        for v in vertices:
            assert isomorphic(restrict(b, v.flags, range(1, 4)), hemioct) is not None


def test_criterion_2_marked_set_pipeline():
    with criterion(2, "marked flag set and its edge system", 30):
        b = build_B()
        theta = find_theta(b)
        assert len(theta) == 6
        # one marked flag in every edge orbit and every 2-face
        for i in (1, 2):
            hit = {}
            for face in faces(b, i):
                hit[face.canonical] = sum(1 for t in theta if t in face.flags)
            assert set(hit.values()) == {1}
        # balance: each vertex and each facet holds one or two marked flags,
        # and together with the colour-shifted copies always sees three
        for i in (0, 3):
            fm = list(face_table(b, i))
            shift_count = {}
            for g in shifted_flags(b, theta, (i,)):
                shift_count[fm[g]] = shift_count.get(fm[g], 0) + 1
            for face in faces(b, i):
                inside = sum(1 for t in theta if fm[t] == face.canonical)
                assert inside in (1, 2)
                assert inside + shift_count.get(face.canonical, 0) == 3
        etheta = build_E_theta(b, theta)
        # six edge-disjoint four-edge paths, one per marked flag
        paths = [path_edges(b, t) for t in theta]
        assert all(len(set(path)) == 4 for path in paths)
        assert len(etheta) == 24
        assert etheta == {e for path in paths for e in path}
        for path in paths:
            for (f1, c1), (f2, c2) in zip(path, path[1:]):
                e1 = {f1, b.perms[c1][f1]}
                e2 = {f2, b.perms[c2][f2]}
                assert len(e1 & e2) == 1  # consecutive edges chain up
        report = verify_B_conditions(b, theta, etheta)
        assert report.ok
        assert not report.failures
        assert sorted(i for i, _ in report.outcomes) == [0, 0, 0, 0, 3, 3, 3, 3]


def test_criterion_3_double_cover():
    with criterion(3, "192-flag double cover certification", 30):
        result = build_B_star()
        assert all_ok(result.checks)
        status = checks_by_name(result.checks)
        for name in (
            "marked-set-conditions",
            "cover-flag-count",
            "cover-valid-maniplex",
            "face-lifts-connected",
            "poset-projects-isomorphically",
            "cover-unfaithful",
            "fibers-are-sheet-pairs",
            "cover-polytopal",
            "verdict-sparse-not-semisparse",
        ):
            assert status[name] == PASS, name
        assert validate(result.bstar).ok
        assert result.bstar.flag_count == 192
        assert result.witness == (0, 1)
        assert not is_faithful(result.bstar).faithful
        assert is_polytopal(result.bstar)
        v = verdict(result.bstar)
        assert v.sparse and not v.semisparse


def test_criterion_4_higher_rank_extensions(tmp_path):
    title = "rank-5 and rank-6 extensions via the command line"
    start = time.perf_counter()
    with criterion(4, title, 900):
        out5 = tmp_path / "rank5"
        assert cli_main(["counterexample", "--rank", "5", "-o", str(out5)]) == 0
        elapsed5 = time.perf_counter() - start
        assert elapsed5 < 300, f"rank-5 run took {elapsed5:.2f}s"
        m5 = maniplex_from_json((out5 / "maniplex-rank5.json").read_text())
        assert m5.rank == 5 and m5.flag_count == 768
        assert validate(m5).ok
        cert5 = json.loads((out5 / "certificate-rank5.json").read_text())
        assert cert5["ok"] is True
        status5 = {c["name"]: c["status"] for c in cert5["checks"]}
        for name in (
            "extension-valid",
            "four-facets",
            "facets-copy-base",
            "facet-sections-match-base",
            "diamond",
            "strong-flag-connectivity",
            "polytopal",
            "unfaithfulness-preserved",
        ):
            assert status5[name] == "pass", name

        start6 = time.perf_counter()
        out6 = tmp_path / "rank6"
        assert cli_main(["counterexample", "--rank", "6", "-o", str(out6)]) == 0
        elapsed6 = time.perf_counter() - start6
        assert elapsed6 < 600, f"rank-6 run took {elapsed6:.2f}s"
        m6 = maniplex_from_json((out6 / "maniplex-rank6.json").read_text())
        assert m6.rank == 6 and m6.flag_count == 3072
        assert validate(m6).ok
        cert6 = json.loads((out6 / "certificate-rank6.json").read_text())
        assert cert6["ok"] is True
        status6 = {c["name"]: c["status"] for c in cert6["checks"]}
        assert status6["extension-valid"] == "pass"
        assert status6["unfaithfulness-preserved"] == "pass"
        assert status6["diamond"] == "pass"
        assert status6["strong-flag-connectivity"] == "pass"


def test_criterion_5_rank3_corpus():
    with criterion(5, "rank-3 corpus theorems", 10):
        corpus = [platonic(n) for n in ("cube", "hemicube", "hemioctahedron")]
        index = {}
        for b in range(4):
            for c in range(4):
                if 0 < b * b + c * c <= 10:
                    index[(b, c)] = len(corpus)
                    corpus.append(torus_44(b, c))
        assert len(corpus) == 3 + 12
        for m in corpus:
            if not is_faithful(m).faithful:
                assert not is_polytopal(m)
                assert fiber_pair_by_labels(m, 0) is not None
                assert fiber_pair_by_labels(m, 2) is not None
        t10, t11 = corpus[index[(1, 0)]], corpus[index[(1, 1)]]
        assert not is_faithful(t10).faithful and not is_polytopal(t10)
        assert is_faithful(t11).faithful and not is_polytopal(t11)


def test_criterion_6_property_volume(named_corpus, b_maniplex, bstar_result):
    with criterion(6, "randomized property suites", 60):
        rng = random.Random(suites.SEED)
        small = list(named_corpus.values())
        rich = small + [b_maniplex, bstar_result.bstar]
        total = 0
        total += suites.suite_square_axiom(rich)
        total += suites.suite_zero_voltage_cover(rich)
        total += suites.suite_sheet_swap(small, rng)
        total += suites.suite_poset_roundtrip(rich)
        total += suites.suite_quotient_commutes(
            b_maniplex, bstar_result.bstar, rng, trials=1000
        )
        assert total >= 1000


def test_criterion_7_rank7_fully_certified():
    with criterion(7, "rank-7 extension, every check run", 30):
        m = build_B_star().bstar
        for rank in (5, 6, 7):
            res = verify_extension(m, faces(m, rank - 2)[0])
            status = checks_by_name(res.checks)
            assert status.pop("extension-faithful-observed") == INFO
            assert set(status.values()) == {PASS}, (rank, status)
            m = res.extension
        assert m.rank == 7 and m.flag_count == 12288


def test_criterion_8_torus_census():
    with criterion(8, "torus census validated, classified and counted", 10):
        assert suites.suite_torus_census(suites.TORUS_POOL) == 57


def test_criterion_9_rank5_regular_polytopes():
    expected = {
        (3, 3, 3, 3): (720, (6, 15, 20, 15, 6)),
        (4, 3, 3, 3): (3840, (32, 80, 80, 40, 10)),
        (3, 3, 3, 4): (3840, (10, 40, 80, 80, 32)),
    }
    with criterion(9, "rank-5 regular polytopes from Todd-Coxeter at the default cap", 10):
        for symbol, (flags, vector) in expected.items():
            m = coset_enumerate(string_coxeter(symbol), cap=DEFAULT_CAP).to_maniplex()
            assert validate(m).ok, symbol
            assert m.flag_count == flags, symbol
            assert tuple(len(faces(m, i)) for i in range(m.rank)) == vector, symbol


def test_criterion_10_rank8_counterexample_certified(tmp_path):
    with criterion(10, "counterexample --rank 8, every check run", 20):
        assert cli_main(["counterexample", "--rank", "8", "-o", str(tmp_path)]) == 0
        for rank in range(5, 9):
            cert = json.loads((tmp_path / f"certificate-rank{rank}.json").read_text())
            status = {c["name"]: c["status"] for c in cert["checks"]}
            assert status.pop("extension-faithful-observed") == INFO
            assert set(status.values()) == {PASS}, (rank, status)
            assert cert["ok"] and cert["flags"] == 192 * 4 ** (rank - 4)

"""The flag orbits of a valid maniplex (`core.flag_orbits`) and the judges
that read them: `poset.polytope_report` at the orbit representatives (fact
(f) of the `poset` module docstring), `poset.is_faithful` at them, and
`core.automorphism_count`."""

import itertools
import random
from collections import Counter

import pytest

import suites
from maniplex import core, poset
from maniplex.core import (
    Maniplex,
    automorphism_count,
    dual,
    faces,
    flag_orbits,
    isomorphic,
    maniplex_from_json,
    maniplex_to_json,
    validate,
)
from maniplex.corpus import torus_44
from maniplex.cosets import coset_enumerate, string_coxeter
from maniplex.coxeter import verdict
from maniplex.extension import extend
from maniplex.poset import is_faithful, polytope_report, pos_of

from oracles import (
    automorphism_count_by_propagation,
    faithful_at_by_tables,
    faithfulness_by_labels,
    lemma_by_valid_images,
    polytopal_at_by_tables,
    polytope_report_by_masks,
    valid_images_by_propagation,
)
from test_poset import random_map, rectangular_torus

REGULAR = ([3, 4, 3], [3, 3, 3, 3], [4, 3, 3, 3], [3, 3, 3, 4])


@pytest.fixture(scope="module")
def regular():
    """The 24-cell, the 5-simplex, the 5-cube and the 5-orthoplex."""
    return [coset_enumerate(string_coxeter(symbol)).to_maniplex() for symbol in REGULAR]


@pytest.fixture(scope="module")
def judged(regular, named_corpus, b_maniplex, bstar_result, section_failure):
    """Every maniplex the judges are compared on, with its flag orbits'
    representatives, () when the lemma does not decide them: the regular
    polytopes, the named maps (tori (1,0), (0,1) and (1,1) among them),
    every census pool torus, B, B*, the tower's ranks 5 to 7, the valid
    extensions of the tori b, c <= 3 over their first three facets,
    rectangular tori, which the lemma decides at flags 0 and r_1(0),
    trivial extensions of chiral tori, of classes 2_{3} and 2_{0}
    (`suites.trivial_extensions`), a rank-4 map failing at a proper
    section and two rank-4 quotients of {4,4,4} failing the diamond
    condition."""
    members = [(m, (0,)) for m in regular]
    for m in named_corpus.values():
        members.append((m, (0,) if automorphism_count_by_propagation(m.perms) == m.flag_count else (0, m.perms[0][0])))
    for b, c in suites.TORUS_POOL:
        m = torus_44(b, c)
        members.append((m, (0,) if b * c * (b - c) == 0 else (0, m.perms[0][0])))
    members += [(b_maniplex, (0,)), (bstar_result.bstar, ())]
    m = bstar_result.bstar
    for _ in (5, 6, 7):
        m = extend(m, faces(m, m.rank - 1)[0])
        members.append((m, ()))
    for b, c in itertools.product(range(4), repeat=2):
        torus = torus_44(b, c) if b or c else None
        for facet in faces(torus, 2)[:3] if torus else ():
            ext = extend(torus, facet)
            if validate(Maniplex(ext.perms)).ok:
                members.append((ext, (0,) if (b, c) == (1, 1) else ()))
    for a, b in ((3, 4), (4, 6)):
        m = rectangular_torus(a, b)
        members.append((m, (0, m.perms[1][0])))
    for m, kept in suites.trivial_extensions(random.Random(suites.SEED + 42)):
        j = min(set(range(m.rank)) - kept)  # the least colour whose r_j(0) is in the other orbit
        members.append((m, (0, m.perms[j][0])))
    members.append((section_failure, (0,)))
    for extra in ((0, 1, 2, 3) * 2, (0, 1, 2, 1) * 2 + (1, 2, 3, 2) * 2):
        members.append((coset_enumerate(string_coxeter([4, 4, 4]).extended(extra), cap=20000).to_maniplex(), (0,)))
    return members


def forced_fallback(m: Maniplex) -> Maniplex:
    """A copy of m whose cache holds flag orbits with no representatives,
    so that every judge takes the path it takes on such a maniplex: the
    poset search and every flag's chain."""
    copy = Maniplex(m.perms)
    assert validate(copy).ok
    copy._cache["orbits"] = ()
    return copy


def test_judging_by_representatives_equals_the_poset_search(judged):
    """On a fresh copy of each member, the flag orbits have the
    representatives the member is listed with, and `polytope_report`,
    `is_faithful` and `verdict` give what they give on a copy forced onto
    the other path, the report is the masks oracle's on the face poset,
    and faithfulness the label oracle's.  A member with representatives
    that is polytopal is judged with no poset built; every case of fact
    (f) fails on some member."""
    fast = refused = 0
    failed = set()
    for m, want in judged:
        fresh, slow = Maniplex(m.perms), forced_fallback(m)
        assert validate(fresh).ok, m
        reps = flag_orbits(fresh)
        assert reps == want, (m, reps)
        report = polytope_report(fresh)
        assert report == polytope_report(slow), m
        assert (report.ok, report.failed, report.witness) == polytope_report_by_masks(pos_of(Maniplex(m.perms))), m
        assert verdict(fresh) == verdict(slow), m
        assert is_faithful(fresh) == is_faithful(slow) == is_faithful(Maniplex(m.perms)), m
        assert tuple(is_faithful(fresh)) == faithfulness_by_labels(m), m
        if reps and report.ok:
            assert "poset" not in fresh._cache, m
            fast += 1
        if reps and not report.ok:
            refused += 1
            failed.add(report.failed)
    assert fast >= len(suites.TORUS_POOL) + len(REGULAR) + 1
    assert refused >= 5 and failed == {"diamond", "strong-flag-connectivity"}


def test_local_judges_equal_the_face_table_judges(judged):
    """`poset._polytopal_at` and `poset._faithful_at`, which search the
    flag's own faces, give what the judges over the whole face tables give
    (`oracles.polytopal_at_by_tables`, `oracles.faithful_at_by_tables`) on
    every member: at its representatives, and at flag 0, r_0(0), r_1(0)
    and three seeded flags, where fact (f)'s predicate is defined too.
    They agree as well at every flag of seeded random valid maps and their
    duals, some of whose flags fail only at the top rank, as no member's
    do.  Both answers occur for each judge."""
    rng = random.Random(39)
    cases = []
    for m, _ in judged:
        fresh = Maniplex(m.perms)
        assert validate(fresh).ok
        flags = [0, m.perms[0][0], m.perms[1][0], *(rng.randrange(m.flag_count) for _ in range(3))]
        cases += [(fresh, at) for at in (flag_orbits(fresh), *((f,) for f in flags)) if at]
    maps = [random_map(rng, rng.randint(2, 8)) for _ in range(40)]
    for m in maps + [dual(m) for m in maps]:
        fresh = Maniplex(m.perms)
        if validate(fresh).ok:
            cases += [(fresh, (f,)) for f in range(m.flag_count)]
    seen = set()
    for m, at in cases:
        polytopal, faithful = poset._polytopal_at(m, at), poset._faithful_at(m, at)
        assert polytopal == polytopal_at_by_tables(m, at), (m, at)
        assert faithful == faithful_at_by_tables(m, at), (m, at)
        seen |= {("polytopal", polytopal), ("faithful", faithful)}
    assert seen == {(judge, answer) for judge in ("polytopal", "faithful") for answer in (True, False)}


def test_census_and_regular_verdicts_build_no_face_table(regular, monkeypatch):
    """The census benchmark's calls after `torus_44` (`validate`,
    `verdict`, `automorphism_count`, `isomorphic(m, dual(m))`, the JSON
    round trip) on every pool torus that fact (f) accepts, and
    `verdict` on the regular polytopes built fresh, leave no face table in
    the cache and label no component.  Tori (1,0), (0,1) and (1,1), which
    it refuses at flag 0, are judged by the poset search, which builds
    their face tables."""
    labelled = []
    component_ids = core._component_ids
    monkeypatch.setattr(core, "_component_ids", lambda *args: labelled.append(args) or component_ids(*args))
    refused = {(1, 0), (0, 1), (1, 1)}
    for b, c in suites.TORUS_POOL:
        m = torus_44(b, c)
        labelled.clear()
        assert validate(m).ok
        verdict(m)
        automorphism_count(m)
        assert isomorphic(m, dual(m)) is not None
        assert maniplex_from_json(maniplex_to_json(m)) == m
        assert flag_orbits(m), (b, c)
        tables = sorted(key for key in m._cache if isinstance(key, int))
        if (b, c) in refused:
            assert not verdict(m).sparse and tables == [0, 1, 2] and len(labelled) == 3, (b, c)
        else:
            assert verdict(m).sparse and tables == [] and labelled == [], (b, c)
    for symbol in REGULAR:
        m = coset_enumerate(string_coxeter(symbol)).to_maniplex()
        labelled.clear()
        assert verdict(m).summary == "semisparse"
        assert not any(isinstance(key, int) for key in m._cache) and labelled == [], symbol


@pytest.mark.parametrize("b, c", [(1, 0), (1, 1)])
def test_reflexible_tori_that_are_not_sparse_fail_at_flag_0(b, c):
    """Tori (1,0) and (1,1) are reflexible but not sparse: fact (f) refuses
    them at flag 0, and the verdict names the witness the masks oracle
    gives on the face poset."""
    m = torus_44(b, c)
    assert validate(m).ok and flag_orbits(m) == (0,)
    assert not poset._polytopal_at(m, (0,))
    slow = forced_fallback(m)
    assert verdict(m) == verdict(slow) and not verdict(m).sparse
    report = polytope_report(m)
    assert (report.ok, report.failed, report.witness) == polytope_report_by_masks(pos_of(slow))


def test_faithfulness_at_representatives_only_when_the_orbits_are_cached(regular, monkeypatch):
    """`is_faithful` on a fresh maniplex propagates nothing and lists every
    flag's chain; once `flag_orbits` is cached it lists none."""
    calls, chains = [], []
    propagate, flag_function = core._propagate, poset.flag_function
    monkeypatch.setattr(core, "_propagate", lambda *args: calls.append(args[2]) or propagate(*args))
    monkeypatch.setattr(poset, "flag_function", lambda m: chains.append(m) or flag_function(m))
    for m in [regular[0], torus_44(3, 2)]:
        fresh = Maniplex(m.perms)
        assert validate(fresh).ok and is_faithful(fresh).faithful
        assert calls == [] and len(chains) == 1
        chains.clear()
        cached = Maniplex(m.perms)
        flag_orbits(cached)
        calls.clear()
        assert is_faithful(cached).faithful and calls == [] and chains == []


def test_verdict_builds_no_poset_on_regular_polytopes_or_b(regular, b_maniplex, monkeypatch):
    """`verdict` on the regular polytopes and on B decides them at flag 0:
    no poset is built, and no section searched."""
    built, searched = [], []
    monkeypatch.setattr(poset, "pos_of", lambda m: built.append(m) or pos_of(m))
    monkeypatch.setattr(poset, "flag_connectivity_witness", lambda p: searched.append(p))
    for m in [*regular, b_maniplex]:
        copy = Maniplex(m.perms)
        assert validate(copy).ok and verdict(copy).summary == "semisparse"
        assert "poset" not in copy._cache
    assert built == [] and searched == []


def test_verdict_then_automorphism_count_propagate_n_times(regular, b_maniplex, monkeypatch):
    """On a reflexible maniplex and on a chiral one, `verdict` and then
    `automorphism_count` propagate n images of flag 0 in all, and
    `automorphism_count` none of them: it reads the count off the record
    `verdict` left."""
    calls = []
    propagate = core._propagate
    monkeypatch.setattr(core, "_propagate", lambda *args: calls.append(args[2]) or propagate(*args))
    cases = [(regular[0], 1152, True), (b_maniplex, 96, True), (torus_44(3, 2), 52, False)]
    cases += [(torus_44(1, 4), 68, False)]
    for m, count, reflexible in cases:
        copy = Maniplex(m.perms)
        calls.clear()
        assert validate(copy).ok and verdict(copy).summary == "semisparse"
        assert len(calls) == m.rank, (m, calls)
        assert automorphism_count(copy) == (count, reflexible)
        assert len(calls) == m.rank, (m, calls)


def test_no_representatives_cost_the_lemmas_images(judged, bstar_result, monkeypatch):
    """A member whose flag orbits the lemma does not decide is told so
    after the images `oracles.lemma_by_valid_images` lists, the last of
    them failing.  That is three failures at most, and one more for each
    colour i > j that joins I, whose r_i r_j (0) fails before r_i(0)
    extends: B* and the tower's ranks 5 and 6 pay three, r_0(0),
    r_1 r_0 (0) and r_1(0), and some torus extensions four.  The count,
    from `automorphism_count`'s orbit loop, which the lemma seeds with
    nothing, is the oracle's."""
    outcomes = []
    propagate = core._propagate

    def spy(*args):
        phi = propagate(*args)
        outcomes.append((args[2], phi is not None))
        return phi

    monkeypatch.setattr(core, "_propagate", spy)
    start = next(k for k, (m, _) in enumerate(judged) if m is bstar_result.bstar)
    tower = [m for m, _ in judged[start : start + 3]]  # B* and ranks 5, 6
    costs = Counter()
    for m, want in judged:
        if want or m.flag_count > 3072:
            continue
        copy = Maniplex(m.perms)
        outcomes.clear()
        assert validate(copy).ok
        valid = valid_images_by_propagation(m.perms)
        images, _, reps = lemma_by_valid_images(m.perms, valid)
        assert flag_orbits(copy) == reps == () and outcomes == [(f, f in valid) for f in images], m
        failed = [f for f, ok in outcomes if not ok]
        if any(m is t for t in tower):
            assert failed == [m.perms[0][0], m.perms[1][m.perms[0][0]], m.perms[1][0]], m
            costs["tower"] += 1
        costs[len(failed)] += 1
        assert automorphism_count(copy).count == len(valid), m
    assert costs == {3: 37, 4: 2, "tower": 3}, costs


def test_flag_orbits_refuses_an_invalid_maniplex(two_squares):
    with pytest.raises(ValueError, match="valid maniplex"):
        flag_orbits(Maniplex(two_squares.perms))

import functools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from maniplex import core, poset
from maniplex.certify import all_ok
from maniplex.core import FormatError, Maniplex, dual, faces, isomorphic, validate
from maniplex.corpus import platonic, torus_44
from maniplex.cosets import coset_enumerate, string_coxeter
from maniplex.coxeter import verdict
from maniplex.extension import extend, verify_extension
from maniplex.poset import (
    ISO_FACE_LIMIT,
    RankedPoset,
    diamond_witness,
    flag_connectivity_witness,
    is_faithful,
    is_polytopal,
    is_polytope,
    maximal_chains,
    numbered_face_poset,
    pos_of,
    poset_isomorphism,
    poset_to_dot,
    poset_to_json_dict,
    proper_pairs,
    section,
)

from oracles import (
    chains_by_product,
    dual_face_counts,
    faithfulness_by_labels,
    fiber_pair_by_labels,
    flag_connectivity_by_sections,
    flag_function,
    flag_graph_by_chains,
    polytope_report_by_label_sets,
    boundedness_witness_by_masks,
    gradedness_witness_by_masks,
    polytope_report_by_masks,
    pos_of_by_labels,
    poset_by_labels,
    renumber,
    section_by_filter,
    section_chains_connected,
    transitivity_witness_by_label_sets,
    transitivity_witness_by_masks,
)
import suites
from test_extension import crossed, moved_pair, poset_by_search

# the label-set oracle's report, computed once per poset (faces and order)
# for the tests that compare the same posets with it
label_set_report = functools.lru_cache(maxsize=None)(polytope_report_by_label_sets)

# hand-built pathological posets, which the package does not judge
NOT_TRANSITIVE = poset_by_labels(
    2,
    (("b",), ("x",), ("y",), ("t",)),
    {("b", "x"), ("x", "y"), ("y", "t"), ("b", "y"), ("x", "t")},  # (b, t) missing
)
TWO_MINIMA = poset_by_labels(
    1,
    (("b1", "b2"), ("x",), ("t",)),
    {("b1", "x"), ("b2", "x"), ("x", "t"), ("b1", "t"), ("b2", "t")},
)
RANK_SKIPPER = poset_by_labels(
    2,
    (("b",), ("v", "w"), ("e",), ("t",)),
    {("b", "v"), ("b", "w"), ("b", "e"), ("b", "t"), ("v", "e"), ("v", "t"), ("w", "t"), ("e", "t")},
)


def test_ranked_poset_validation():
    """The tests' label-built posets are checked as they are numbered; the
    package builds posets only from face tables, with no label constructor."""
    with pytest.raises(FormatError):
        poset_by_labels(1, (("a",), ("a",), ("t",)), set())
    with pytest.raises(FormatError):
        poset_by_labels(1, (("a",), ("t",)), set())
    with pytest.raises(FormatError):
        poset_by_labels(1, (("a",), ("x",), ("t",)), {("x", "a")})
    with pytest.raises(FormatError):
        poset_by_labels(1, (("a",), ("x",), ("t",)), {("a", "ghost")})
    with pytest.raises(TypeError):
        RankedPoset(1, (("a",), ("x",), ("t",)), {("a", "x"), ("x", "t"), ("a", "t")})


def test_pos_of_square_structure():
    p = pos_of(platonic("square"))
    assert p.rank == 2
    assert [len(level) for level in p.faces] == [1, 4, 4, 1]
    assert p.level(-1) == ("-1:0",)
    assert p.level(2) == ("2:0",)
    # bottom < 9 faces, 4 vertices < 2 edges + top each, 4 edges < top
    assert len(p.less) == 9 + 4 * 3 + 4
    for v in p.level(0):
        ups = [e for e in p.level(1) if p.lt(v, e)]
        assert len(ups) == 2


def test_covers_of_square():
    p = pos_of(platonic("square"))
    assert len(p.covers) == 4 + 8 + 4
    assert all(p.rank_of[b] - p.rank_of[a] == 1 for a, b in p.covers)


def test_axiom_witnesses_on_pathologies():
    """The mask and label-set references name the axiom each pathology
    fails, with the same witness; the package refuses to judge any of
    them, as none is the face poset of a valid maniplex."""
    assert transitivity_witness_by_masks(NOT_TRANSITIVE) == ("b", "x", "t")
    assert transitivity_witness_by_label_sets(NOT_TRANSITIVE.faces, NOT_TRANSITIVE.less) == ("b", "x", "t")
    assert label_set_report(NOT_TRANSITIVE.faces, NOT_TRANSITIVE.less) == (False, "order-not-transitive", ("b", "x", "t"))
    assert boundedness_witness_by_masks(TWO_MINIMA) == ("minimum", ("b1", "b2"))
    assert label_set_report(TWO_MINIMA.faces, TWO_MINIMA.less) == (False, "bounded", ("minimum", ("b1", "b2")))
    assert transitivity_witness_by_masks(RANK_SKIPPER) is None
    assert transitivity_witness_by_label_sets(RANK_SKIPPER.faces, RANK_SKIPPER.less) is None
    assert boundedness_witness_by_masks(RANK_SKIPPER) is None
    assert gradedness_witness_by_masks(RANK_SKIPPER) == ("w", "t")
    assert label_set_report(RANK_SKIPPER.faces, RANK_SKIPPER.less) == (False, "graded", ("w", "t"))
    for p in (NOT_TRANSITIVE, TWO_MINIMA, RANK_SKIPPER):
        assert polytope_report_by_masks(p) == label_set_report(p.faces, p.less)
        with pytest.raises(ValueError, match="valid maniplex"):
            is_polytope(p)


def test_boundedness_witness_takes_faces_in_order():
    # the boundedness witness on masks: y is neither above the least face
    # nor below the greatest, and the least-face test comes first; z, later
    # in label order, only misses the greatest; without (b, t), or with no
    # pair at the greatest face, the least face itself comes first.  The
    # whole reports of the two references agree: a bounded failure with
    # that witness, but for the poset without (b, t), which fails
    # transitivity first
    levels = (("b",), ("x", "y", "z"), ("t",))
    less = {("b", "x"), ("b", "z"), ("b", "t"), ("x", "t")}
    bounded = "bounded"
    for case, witness, failed in (
        (less, ("minimum-not-below", "y"), bounded),
        (less | {("b", "y")}, ("maximum-not-above", "y"), bounded),
        (less | {("b", "y"), ("y", "t")}, ("maximum-not-above", "z"), bounded),
        (less - {("b", "t")}, ("maximum-not-above", "b"), ("order-not-transitive", ("b", "x", "t"))),
        ({("b", "x"), ("b", "y"), ("b", "z")}, ("maximum-not-above", "b"), bounded),
    ):
        p = poset_by_labels(1, levels, case)
        assert boundedness_witness_by_masks(p) == witness
        want = (False, "bounded", witness) if failed is bounded else (False, *failed)
        assert polytope_report_by_label_sets(levels, case) == polytope_report_by_masks(p) == want


def test_diamond_witness_torus11():
    p = pos_of(torus_44(1, 1))
    witness = diamond_witness(p)
    assert witness is not None
    a, b, middles = witness
    assert len(middles) == 4  # each vertex sits under each 2-face along 4 edges
    assert is_polytope(p).failed == "diamond"
    assert not is_polytopal(torus_44(1, 1))


def test_polytopal_corpus_members():
    assert is_polytopal(platonic("square"))
    assert is_polytopal(platonic("cube"))
    assert is_polytopal(platonic("hemicube"))
    assert is_polytopal(platonic("hemioctahedron"))
    assert is_polytopal(torus_44(2, 1))
    assert not is_polytopal(torus_44(1, 0))


def test_faithfulness():
    assert is_faithful(platonic("cube")).faithful
    result = is_faithful(torus_44(1, 0))
    assert not result.faithful
    assert result.witness is not None
    table = flag_function(torus_44(1, 0))
    assert sorted(table.fibers.values()) == [(0, 3, 4, 7), (1, 2, 5, 6)]


def test_flag_function_matches_label_oracle(named_corpus, b_maniplex, bstar_result):
    for m in [*named_corpus.values(), b_maniplex, bstar_result.bstar]:
        want = flag_function(m).chains
        top = f"{m.rank}:0"
        got = [("-1:0", *(f"{i}:{c}" for i, c in enumerate(chain)), top) for chain in poset.flag_function(m)]
        assert got == [want[f] for f in range(m.flag_count)]


# a valid rank-3 map of 16 flags with singleton fibers and three shared
# ones: its chains through 1-faces 4 and 12 come in one order by id and in
# the other as label strings, so its witness is (12, 13), not (4, 5)
_STRING_ORDER_MAP = (
    (1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14),
    (12, 11, 6, 9, 13, 14, 2, 8, 7, 3, 15, 1, 0, 4, 5, 10),
    (2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13),
)


def test_faithfulness_witness_under_renumbering(bstar_result):
    """is_faithful and verdict against the label-string
    oracle on the members and seeded flag renumberings of them; both
    refuse the cube beside torus (1,0), which is not a valid maniplex.

    Flag 0's chain is all ids 0, first in any order, and in B*, torus (1,0)
    and the rank-5 extension it is shared, so their witnesses start at flag
    0 whatever the numbering.  `_STRING_ORDER_MAP` also has singleton
    fibers, and there the label-string order of chains differs from their
    numeric order.
    """
    bstar = bstar_result.bstar
    cube, t10 = platonic("cube"), torus_44(1, 0)
    beside = Maniplex(tuple(tuple(a) + tuple(f + 48 for f in b) for a, b in zip(cube.perms, t10.perms)))
    for judge in (is_faithful, verdict):
        with pytest.raises(ValueError, match="valid maniplex"):
            judge(beside)
    members = [bstar, t10, torus_44(1, 1), extend(bstar, faces(bstar, 3)[0]), Maniplex(_STRING_ORDER_MAP)]
    rng = random.Random(20261018)
    string_order_differs = 0
    for m in members:
        sparse = verdict(m).sparse
        for k in range(5):
            sigma = list(range(m.flag_count))
            if k:  # the member itself first
                rng.shuffle(sigma)
            moved = Maniplex(renumber(m.perms, sigma))
            faithful, witness = faithfulness_by_labels(moved)
            assert tuple(is_faithful(moved)) == (faithful, witness)
            v = verdict(moved)
            assert v.sparse == sparse
            assert v.semisparse == (sparse and faithful)
            if sparse:
                assert v.witness == witness
            if not faithful:
                table = flag_function(moved)
                shared = [fiber for fiber in table.fibers.values() if len(fiber) > 1]
                numeric = min(shared, key=lambda fb: [int(x.split(":")[1]) for x in table.chains[fb[0]]])
                string_order_differs += numeric[:2] != witness
    assert string_order_differs > 0


def test_maximal_chains_against_product_oracle():
    for m in (platonic("square"), platonic("cube")):
        p = pos_of(m)
        got = maximal_chains(p)
        levels = [list(p.level(r)) for r in range(-1, p.rank + 1)]
        want = chains_by_product(levels, p.lt)
        assert got == want
        assert len(got) == m.flag_count  # faithful members


def test_maximal_chains_unfaithful_collapse():
    p = pos_of(torus_44(1, 0))
    assert len(maximal_chains(p)) == 2  # eight flags, two distinct chains


def test_section_vertex_figure_is_triangle():
    cube = platonic("cube")
    p = pos_of(cube)
    vertex = p.level(0)[0]
    sec = section(p, vertex, p.level(3)[0])
    assert sec.rank == 2
    triangle = coset_enumerate(string_coxeter([3])).to_maniplex()
    assert poset_isomorphism(sec, pos_of(triangle)) is not None


def test_section_matches_filter_oracle(b_maniplex):
    p = pos_of(b_maniplex)
    for lower, upper in sorted(p.less):
        sec = section(p, lower, upper)
        assert (sec.faces, sec.less) == section_by_filter(p.faces, p.less, lower, upper), (lower, upper)
        assert sec.rank == p.rank_of[upper] - p.rank_of[lower] - 1


def test_section_errors():
    p = pos_of(platonic("square"))
    with pytest.raises(ValueError):
        section(p, "0:0", "0:2")  # incomparable
    with pytest.raises(ValueError):
        section(p, "ghost", "2:0")


def test_flag_connectivity_of_polytopes():
    assert flag_connectivity_witness(pos_of(platonic("hemicube"))) is None


def pyramid(p: RankedPoset, mark: str) -> RankedPoset:
    """The pyramid over p: p's faces plus each face joined to a new apex,
    labelled with `mark` appended; p's greatest face is the base facet."""
    apex = {x: x + mark for x in p.rank_of}
    levels = [p.level(-1)]
    levels += [p.level(r) + tuple(apex[x] for x in p.level(r - 1)) for r in range(p.rank + 1)]
    levels.append((apex[p.level(p.rank)[0]],))
    less = {*p.less, *((apex[a], apex[b]) for a, b in p.less), *((a, apex[b]) for a, b in p.less)}
    less |= {(a, apex[a]) for a in p.rank_of}
    return poset_by_labels(p.rank + 1, tuple(levels), less)


def dual_poset(p: RankedPoset) -> RankedPoset:
    return poset_by_labels(p.rank, tuple(reversed(p.faces)), {(b, a) for a, b in p.less})


def connectivity_against_oracle(p: RankedPoset, report: tuple):
    """The oracle's first failing section; the report (ok, failed,
    witness) of p must fail on strong flag connectivity exactly when there
    is one, naming a section whose chain graph the oracle finds
    disconnected."""
    want = flag_connectivity_by_sections(p.faces, p.less)
    assert (report[1] == "strong-flag-connectivity") == (want is not None), (report, want)
    if want is not None:
        assert not section_chains_connected(p.faces, p.less, *report[2])
    return want


def test_flag_connectivity_matches_section_oracle(oracle_members, two_squares, section_failure):
    """On the valid oracle members and a map failing at a proper section,
    the package's search; on two squares, not connected, `pos_of` refuses,
    the mask reference fails the searched poset at the whole poset, as the
    oracle does, and the package refuses to judge it."""
    for m in [*oracle_members, section_failure]:
        if m is not two_squares:
            p = pos_of(m)
            assert flag_connectivity_witness(p) == connectivity_against_oracle(p, report_of(p)), m
    with pytest.raises(ValueError, match="only a valid maniplex"):
        pos_of(two_squares)
    p = poset_by_search(two_squares)
    report = polytope_report_by_masks(p)
    assert connectivity_against_oracle(p, report) == report[2] == ("-1:0", "2:0")
    with pytest.raises(ValueError, match="valid maniplex"):
        is_polytope(p)


def test_is_polytope_matches_label_set_oracle(oracle_members, section_failure):
    """The whole report, witness included, against the label-set oracle on
    the valid oracle members' posets and a map failing at a proper section.
    The searched poset of the other oracle member (two squares), which
    `pos_of` refuses, the pathologies,
    and each of these posets with one order pair dropped and, where there
    is one to move, one pair moved, are no valid maniplex's face posets:
    the package refuses to judge them, the mask reference's report equals
    the oracle's, which finds every axiom failed among them, and where
    the oracle finds the order a bounded, graded partial order, the
    package's diamond witness is the oracle's."""
    posets = [pos_of(m) if validate(m).ok else poset_by_search(m) for m in [*oracle_members, section_failure]]
    outcomes = set()
    for p in posets:
        if p.of_valid_maniplex:
            want = label_set_report(p.faces, p.less)
            assert report_of(p) == polytope_report_by_masks(p) == want, p.faces
            outcomes.add(want[1])
    assert outcomes == {None, "diamond", "strong-flag-connectivity"}
    rng = random.Random(20261018)
    pathologies = [NOT_TRANSITIVE, TWO_MINIMA, RANK_SKIPPER]
    unmarked = [p for p in posets if not p.of_valid_maniplex] + pathologies
    for p in posets + pathologies:
        unmarked.append(poset_by_labels(p.rank, p.faces, p.less - {rng.choice(sorted(p.less))}))
        try:
            unmarked.append(moved_pair(p))
        except ValueError:  # no pair to move: every rank-1 face lies above that vertex
            pass
    outcomes, diamonds = set(), 0
    for p in unmarked:
        with pytest.raises(ValueError, match="valid maniplex"):
            is_polytope(p)
        want = label_set_report(p.faces, p.less)
        assert polytope_report_by_masks(p) == want, p.faces
        outcomes.add(want[1])
        if want[1] in (None, "diamond", "strong-flag-connectivity"):
            assert diamond_witness(p) == (want[2] if want[1] == "diamond" else None), p.faces
            diamonds += want[1] == "diamond"
    assert outcomes == {"order-not-transitive", "bounded", "graded", "diamond", "strong-flag-connectivity"}
    assert diamonds > 0


def test_pos_of_matches_label_oracle(oracle_members):
    """The poset indexed from the face tables against the label-string
    construction, on the valid oracle members and every census pool map
    (the pool holds each map's mirror (c, b) too): rank, faces, order,
    covers and ranks, equality with the same poset built from its labels,
    and the faithfulness witness; on the pool maps also the polytope
    report (the oracle members' reports are compared in
    `test_is_polytope_matches_label_set_oracle`).  Two squares, the
    oracle member that is not valid, are refused both."""
    pool = [torus_44(b, c) for b, c in suites.TORUS_POOL]
    for m in [*oracle_members, *pool]:
        if not validate(m).ok:
            for refused in (pos_of, is_faithful):
                with pytest.raises(ValueError, match="only a valid maniplex"):
                    refused(m)
            continue
        p, want = pos_of(m), pos_of_by_labels(m)
        assert (p.rank, p.faces, p.less, p.covers, p.rank_of) == want, m
        assert list(p.rank_of) == list(want.rank_of)
        rebuilt = poset_by_labels(want.rank, want.faces, want.less)
        assert rebuilt == p and hash(rebuilt) == hash(p)
        # the bounded masks, set as whole ranges, and every pair kept
        assert rebuilt.down == p.down and sorted(rebuilt.pairs) == sorted(p.pairs)
        assert poset_by_labels(want.rank, want.faces, want.less - {min(want.less)}) != p
        assert tuple(is_faithful(m)) == faithfulness_by_labels(m), m
    for m in pool:
        p = pos_of(m)
        assert report_of(p) == label_set_report(p.faces, p.less), m


def report_of(p: RankedPoset) -> tuple:
    report = is_polytope(p)
    return (report.ok, report.failed, report.witness)


def redirected(m: Maniplex) -> Maniplex:
    """m with colour 0 at flag 0 sent where it goes at flag 1: a row that is
    not a permutation."""
    perms = [list(row) for row in m.perms]
    perms[0][0] = perms[0][1]
    return Maniplex(tuple(map(tuple, perms)))


def test_marked_posets_judge_as_their_label_built_copies(oracle_members):
    """`pos_of` builds the marked face poset of a valid maniplex and
    refuses any other, whether or not it was validated before `pos_of`
    ran.  A marked poset is judged skipping what its construction proves,
    and its report, witness included, must equal the label-set oracle's on
    its label sets; the unmarked poset of any other rows, built from the
    searched face tables, is not judged, and neither `polytope_report` nor
    `verdict` judges its maniplex, while the mask reference's report of it
    equals the oracle's.  On the oracle members (two disjoint
    squares among them), every census pool map and mutants: crossed
    colour-0 edges (permutation rows that fail the axioms), crossed
    colour-1 edges (another valid map at rank 3, rows failing the square
    axiom at rank 6) and a redirected entry (a row that is no
    permutation)."""
    pool = [torus_44(b, c) for b, c in suites.TORUS_POOL]
    mutants = []
    for m in (platonic("cube"), platonic("hemicube"), torus_44(2, 1), torus_44(1, 1), oracle_members[-1]):
        mutants += [crossed(m), crossed(m, 1, 0, 5), redirected(m)]
    marked = unmarked = 0
    for member in [*oracle_members, *pool, *mutants]:
        for validated_first in (True, False):
            m = Maniplex(member.perms)  # nothing cached from elsewhere
            if validated_first:
                validate(m)
            try:
                p = pos_of(m)
            except ValueError:  # not valid: pos_of refuses
                p = poset_by_search(m)
            valid = validate(m).ok
            assert p.of_valid_maniplex == valid, m
            if valid:
                assert report_of(p) == label_set_report(p.faces, p.less), m
            else:
                assert polytope_report_by_masks(p) == label_set_report(p.faces, p.less), m
                for judge in (is_polytope, poset.polytope_report, verdict):
                    with pytest.raises(ValueError, match="valid maniplex"):
                        judge(p if judge is is_polytope else m)
        marked += valid
        unmarked += not valid
    assert (marked, unmarked) == (len(oracle_members) - 1 + len(pool) + 4, 1 + 11)


def random_map(rng: random.Random, quads: int) -> Maniplex:
    """A random rank-3 flag graph on 4 * quads flags: colours 0 and 2 are
    the commuting matchings f ^ 1 and f ^ 2, colour 1 a random
    fixed-point-free involution that differs from both at every flag.
    Valid exactly when connected."""
    size = 4 * quads
    while True:
        flags = rng.sample(range(size), size)
        pairs = list(zip(flags[::2], flags[1::2]))
        if all(a ^ b not in (1, 2) for a, b in pairs):
            break
    r1 = [0] * size
    for a, b in pairs:
        r1[a], r1[b] = b, a
    return Maniplex((tuple(f ^ 1 for f in range(size)), tuple(r1), tuple(f ^ 2 for f in range(size))))


def disconnected_boundary_section(p: RankedPoset):
    """The first section, three or more ranks apart, with the least face
    below or the greatest above, whose proper faces are not connected under
    incidence, computed on labels; None when there is none."""
    bottom, top = p.level(-1)[0], p.level(p.rank)[0]
    near = {x: set() for x in p.rank_of}
    for a, b in p.less:
        near[a].add(b)
        near[b].add(a)
    for lower, upper in sorted(p.less):
        if p.rank_of[upper] - p.rank_of[lower] <= 2 or (lower != bottom and upper != top):
            continue
        inside = near[lower] & near[upper] - {lower, upper}
        start = min(inside)
        seen, stack = {start}, [start]
        while stack:
            for y in near[stack.pop()] & inside - seen:
                seen.add(y)
                stack.append(y)
        if seen != inside:
            return (lower, upper)
    return None


def test_marked_posets_hold_the_construction_facts():
    """On seeded random flag graphs: every marked poset (a valid maniplex's:
    random maps and their rank-4 extensions) is a bounded, graded partial
    order, as the label-set oracle finds, with every section at the least
    or greatest face connected, and its report equals the oracle's, which
    checks all of that first.  `pos_of` refuses any other rows.  Rows that
    are no permutation have their poset built from the searched face
    tables, unmarked, and some of them do have a disconnected boundary
    section, so the mark needs the valid report."""
    rng = random.Random(20261019)
    marked = disconnected = 0
    for _ in range(150):
        m = random_map(rng, rng.randint(2, 8))
        members = [m]
        if validate(m).ok:
            members.append(extend(m, faces(m, 2)[rng.randrange(len(faces(m, 2)))]))
        for m in members:
            if not validate(m).ok:
                with pytest.raises(ValueError, match="only a valid maniplex"):
                    pos_of(m)
                continue
            p = pos_of(m)
            assert p.of_valid_maniplex
            marked += 1
            assert disconnected_boundary_section(p) is None
            want = polytope_report_by_label_sets(p.faces, p.less)
            assert want[1] not in ("order-not-transitive", "bounded", "graded")
            assert report_of(p) == want
    for _ in range(300):
        size, rank = 2 * rng.randint(2, 8), rng.randint(3, 4)
        m = Maniplex(tuple(tuple(rng.randrange(size) for _ in range(size)) for _ in range(rank)))
        with pytest.raises(ValueError, match="only a valid maniplex"):
            pos_of(m)
        p = poset_by_search(m)
        disconnected += disconnected_boundary_section(p) is not None
    assert marked >= 150 and disconnected > 0


def rectangular_torus(a: int, b: int) -> Maniplex:
    """The map of a x b squares on the torus, a, b >= 3, from its face
    poset by the chain oracle: polytopal and faithful, and for a != b it
    has no automorphism swapping the two directions, so r_1(0) is no image
    of flag 0 under an automorphism, while r_0(0) and r_2(0) are: it has
    two flag orbits, of class 2_{0,2}, which `core.flag_orbits` decides
    at flags 0 and r_1(0)."""
    v = {(i, j): f"v{i}.{j}" for i in range(a) for j in range(b)}
    square_faces = {}
    for i, j in v:
        x, y = (i + 1) % a, (j + 1) % b
        edges = (f"h{i}.{j}", f"h{i}.{y}", f"e{i}.{j}", f"e{x}.{j}")
        square_faces[f"s{i}.{j}"] = (edges, (v[i, j], v[x, j], v[i, y], v[x, y]))
    ends = {f"h{i}.{j}": (v[i, j], v[(i + 1) % a, j]) for i, j in v}
    ends.update({f"e{i}.{j}": (v[i, j], v[i, (j + 1) % b]) for i, j in v})
    less = {(x, e) for e, pair in ends.items() for x in pair}
    for s, (edges, corners) in square_faces.items():
        less |= {(e, s) for e in edges} | {(x, s) for x in corners}
    proper = [*v.values(), *ends, *square_faces]
    less |= {("b", x) for x in proper} | {(x, "t") for x in proper} | {("b", "t")}
    levels = [("b",), tuple(v.values()), tuple(ends), tuple(square_faces), ("t",)]
    return Maniplex(flag_graph_by_chains(levels, less))


def report_members(named_corpus, two_squares, section_failure) -> list[Maniplex]:
    """Every census pool map (the pool holds each map's mirror too), the
    named maps, the tori that fail the diamond condition, rank-1 and rank-2
    maniplexes, seeded random rank-3 maps and their duals, valid or not,
    a rank-4 map failing at a proper section, five rectangular tori, and
    two disjoint squares and cubes."""
    rng = random.Random(20261020)
    members = [torus_44(b, c) for b, c in suites.TORUS_POOL] + list(named_corpus.values())
    members += [torus_44(b, c) for b, c in ((1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1))]
    members += [Maniplex(([1, 0],)), Maniplex(([1, 0, 3, 2], [3, 2, 1, 0]))]
    members += [coset_enumerate(string_coxeter([k])).to_maniplex() for k in (3, 5)]
    randoms = [random_map(rng, rng.randint(2, 8)) for _ in range(100)]
    members += randoms + [dual(m) for m in randoms] + [section_failure]
    members += [rectangular_torus(a, b) for a, b in ((3, 4), (3, 5), (4, 3), (4, 6), (5, 3))]
    cube = named_corpus["cube"]
    return members + [two_squares, Maniplex(tuple(tuple(row) + tuple(f + 48 for f in row) for row in cube.perms))]


def test_readings_do_not_depend_on_the_order_of_the_proper_pairs(named_corpus, section_failure, bstar_result):
    """`extension._poset_over_base` lists the proper pairs in set order, so
    every reading of a poset must be the same for any order of them: its
    covers, strict order, diamond and connectivity witnesses, polytope
    report and exports.  Each poset of the named maps, among them the tori
    that fail the diamond condition, of the map failing at a proper
    section, of B* and of its rank-5 extension, is rebuilt with its proper
    pairs reversed and shuffled."""
    rng = random.Random(20261022)
    ext = extend(bstar_result.bstar, faces(bstar_result.bstar, 3)[0])
    members = [*named_corpus.values(), section_failure, bstar_result.bstar, ext]
    failed = Counter()
    for m in members:
        p = pos_of(m)
        proper = list(proper_pairs(p))
        for order in (proper[::-1], rng.sample(proper, len(proper))):
            q = numbered_face_poset(p.rank, list(p.ids), list(p.ranks), order, True)
            assert proper_pairs(q) == tuple(order) and set(q.pairs) == set(p.pairs), m
            assert (q.labels, q.ids, q.up, q.down) == (p.labels, p.ids, p.up, p.down), m
            assert (q.covers, q.less) == (p.covers, p.less), m
            assert diamond_witness(q) == diamond_witness(p), m
            assert flag_connectivity_witness(q) == flag_connectivity_witness(p), m
            assert is_polytope(q) == is_polytope(p), m
            assert poset_to_json_dict(q) == poset_to_json_dict(p) and poset_to_dot(q) == poset_to_dot(p), m
        failed[is_polytope(p).failed] += 1
    assert failed == {None: 15, "diamond": 3, "strong-flag-connectivity": 1}


def test_polytope_report_matches_the_poset_search(named_corpus, two_squares, section_failure, monkeypatch):
    """`polytope_report` of a copy of each valid report member against the
    search of the member's poset and the label-set oracle, the judge that
    shares no code with it; it refuses the others, among them the two
    disjoint squares and cubes.  A copy that fact (f) of the `poset` module
    docstring accepts at its orbit representatives builds no poset; any
    other, at every rank, builds exactly one and searches it, and a copy
    whose poset was built first builds none more.  Tori (1,0), (0,1) and
    (1,1) are refused by the search."""
    built = []
    real = poset.face_poset
    monkeypatch.setattr(poset, "face_poset", lambda *args: built.append(args[0]) or real(*args))
    failed, at_reps, searched, refused = set(), 0, 0, 0
    for m in report_members(named_corpus, two_squares, section_failure):
        copy, built_first = Maniplex(m.perms), Maniplex(m.perms)
        if not validate(copy).ok:
            with pytest.raises(ValueError, match="valid maniplex"):
                poset.polytope_report(copy)
            refused += 1
            continue
        before = len(built)
        report = poset.polytope_report(copy)
        assert poset.polytope_report(copy) is report
        reps = core.flag_orbits(copy)
        if reps and poset._polytopal_at(copy, reps):
            assert "poset" not in copy._cache and len(built) == before, m
            at_reps += 1
        else:
            assert len(built) == before + 1 and copy._cache["poset"]._report is report, m
            searched += m.rank <= 3
        p_first = pos_of(built_first)
        before = len(built)
        assert poset.polytope_report(built_first) == report and len(built) == before, m
        assert p_first._report in (None, report), m
        p = pos_of(m)
        assert report == is_polytope(p), m
        assert (report.ok, report.failed, report.witness) == label_set_report(p.faces, p.less), m
        assert is_polytopal(copy) == report.ok
        if not report.ok:
            failed.add((report.failed, report.witness[0] == "-1:0", report.witness[1] == f"{m.rank}:0"))
    assert at_reps >= len(suites.TORUS_POOL)
    assert searched >= 100
    assert refused >= 3
    # witnesses at the least face, at the greatest and between proper faces
    assert {w[1:] for w in failed} >= {(True, False), (False, True), (False, False)}
    assert {w[0] for w in failed} == {"diamond", "strong-flag-connectivity"}
    for b, c in ((1, 0), (0, 1), (1, 1)):
        m = torus_44(b, c)
        before = len(built)
        assert not poset.polytope_report(m).ok and len(built) == before + 1, (b, c)


def test_polytope_report_shares_faithfulness(named_corpus, two_squares, section_failure):
    """`is_faithful` read after `polytope_report` equals `is_faithful` on a
    fresh copy, witness included, on the valid report members (the report
    refuses the others).  The report never leaves the faithful result in
    the cache; a map with representatives is decided by `is_faithful` at
    them, from the orbits the report leaves cached."""
    unfaithful = at_reps = 0
    for m in report_members(named_corpus, two_squares, section_failure):
        copy = Maniplex(m.perms)
        if not validate(copy).ok:
            continue
        poset.polytope_report(copy)
        reps = core.flag_orbits(copy)
        assert "faithful" not in copy._cache, m
        assert is_faithful(copy) == is_faithful(Maniplex(m.perms)), m
        unfaithful += len(set(poset.flag_function(m))) != m.flag_count
        at_reps += bool(reps)
    assert unfaithful >= 3 and at_reps >= len(suites.TORUS_POOL)


def test_marked_posets_are_transitive(oracle_members, b_maniplex, bstar_result):
    """Fact (d) of the `poset` module docstring, which lets `_judge` skip
    the transitivity search on a marked poset, against the label-set
    search: every marked poset of the oracle members, the census pool maps,
    the regular polytopes of the benchmark, B, B* and the tower's ranks 5
    to 7 is transitive."""
    members = [*oracle_members, *(torus_44(b, c) for b, c in suites.TORUS_POOL)]
    members += [coset_enumerate(string_coxeter(symbol)).to_maniplex() for symbol in ([3, 4, 3], [3, 3, 3, 3])]
    members += [b_maniplex, bstar_result.bstar]
    posets = []
    for m in members:
        copy = Maniplex(m.perms)
        p = pos_of(copy) if validate(copy).ok else None
        assert p is None or p.of_valid_maniplex, m
        posets += [p] if p is not None else []
    m = bstar_result.bstar
    for rank in (5, 6, 7):
        res = verify_extension(m, faces(m, rank - 2)[0])
        m = res.extension
        posets.append(pos_of(m))  # read off its base
        assert posets[-1].of_valid_maniplex and posets[-1].rank == rank
    assert len(posets) >= len(members) - 1
    for p in posets:
        assert transitivity_witness_by_label_sets(p.faces, p.less) is None, p


def test_pipeline_operations_mark_posets_without_more_validation(bstar_result, monkeypatch):
    """The benchmark's operations, replayed: a census map, a regular
    polytope and three tower steps.  Each runs the `_validate` calls it ran
    before posets were marked (one for the census and the regular
    operation, none for a tower step, whose report is read off its base).
    None judges a poset: the census map and the regular polytope are
    judged at their flag orbits' representatives, and a tower step's
    polytope report follows from its facets by amalgamation."""
    validated, judged = [], []
    inner_validate, inner_judge = core._validate, poset._judge
    monkeypatch.setattr(core, "_validate", lambda m: validated.append(m) or inner_validate(m))
    monkeypatch.setattr(poset, "_judge", lambda p: judged.append(p) or inner_judge(p))

    def replay(operation):
        validated.clear()
        judged.clear()
        operation()
        assert all(p.of_valid_maniplex for p in judged)
        return len(validated), [p.rank for p in judged]

    def census():
        m = torus_44(3, 2)
        assert validate(m).ok and verdict(m).summary == "semisparse"

    def regular():
        m = coset_enumerate(string_coxeter([3, 4, 3])).to_maniplex()
        assert validate(m).ok and verdict(m).summary == "semisparse"

    assert replay(census) == (1, [])
    assert replay(regular) == (1, [])
    m = bstar_result.bstar  # its poset, judged, is kept in its cache for the first step
    assert is_polytope(pos_of(m)).ok
    for rank in (5, 6, 7):
        result = []
        assert replay(lambda: result.append(verify_extension(m, faces(m, rank - 2)[0]))) == (0, [])
        assert all_ok(result[0].checks)
        m = result[0].extension


# a 3x3 poset whose only missing pairs end at the top: every y has four
# transitivity failures beneath it
TRANSITIVITY_BY_HASH_SEED = """
from oracles import transitivity_witness_by_label_sets
xs, ys = ("x1", "x2", "x3"), ("y1", "y2", "y3")
less = {("b", x) for x in xs} | {("b", y) for y in ys} | {(x, y) for x in xs for y in ys}
print(transitivity_witness_by_label_sets((("b",), xs, ys, ("t",)), less | {(y, "t") for y in ys}))
"""


def test_transitivity_witness_ignores_hash_seed():
    """The label-set oracle's transitivity witness, which the tests compare
    with, over string-keyed sets under four hash seeds."""
    path = os.pathsep.join([str(Path(poset.__file__).resolve().parents[1]), str(Path(__file__).parent)])
    seen = set()
    for seed in range(4):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": path}
        command = [sys.executable, "-c", TRANSITIVITY_BY_HASH_SEED]
        seen.add(subprocess.run(command, env=env, capture_output=True, text=True, check=True).stdout)
    assert seen == {"('b', 'y1', 't')\n"}


def test_verdict_builds_no_label_sets(bstar_result, monkeypatch):
    """A valid rank-3 map's verdict builds no poset, nor does a regular
    rank-4 polytope's, judged at flag 0; B*'s, whose flag orbits have no
    representatives, builds one, and none of its label views."""
    built = []
    monkeypatch.setattr(poset, "pos_of", lambda m: built.append(pos_of(m)) or built[-1])
    for m in (torus_44(3, 2), coset_enumerate(string_coxeter([3, 3, 3])).to_maniplex()):
        assert validate(m).ok and verdict(m).summary == "semisparse"
        assert built == [] and "poset" not in m._cache
    m = Maniplex(bstar_result.bstar.perms)
    assert validate(m).ok and verdict(m).summary == "sparse, not semisparse"
    (p,) = built
    assert not {"faces", "less", "rank_of", "covers"} & vars(p).keys()


def test_flag_connectivity_fails_on_proper_sections(two_squares, section_failure):
    """The package's search on a marked poset: a valid, faithful map whose
    diamonds hold, and whose sections at the least and greatest faces are
    connected, fails between vertex '0:0' and facet '3:0', as the oracle
    finds, and that section's chain graph is disconnected too.

    The mask reference on hand-built prepolytopes, connected under
    incidence as a whole (through the apex), whose base facet, or in the
    duals a vertex figure, is two disjoint squares or cubes: it names a
    section short of the whole poset whose chain graph the oracle finds
    disconnected, and the pyramids over a square and a cube pass."""
    p = pos_of(section_failure)
    assert p.of_valid_maniplex and is_faithful(section_failure).faithful
    assert [len(level) for level in p.faces] == [1, 4, 12, 12, 4, 1]
    assert diamond_witness(p) is None
    assert disconnected_boundary_section(p) is None
    assert is_polytope(p) == poset.PolytopeReport(False, "strong-flag-connectivity", ("0:0", "3:0"))
    assert connectivity_against_oracle(p, report_of(p)) == ("0:0", "3:0")
    cube = platonic("cube")
    squares = poset_by_search(two_squares)
    cubes = poset_by_search(Maniplex(tuple(tuple(row) + tuple(f + 48 for f in row) for row in cube.perms)))
    broken = [pyramid(squares, "^"), pyramid(cubes, "^"), pyramid(pyramid(squares, "^"), "*")]
    broken += [dual_poset(p) for p in broken]
    for p in broken:
        report = polytope_report_by_masks(p)
        assert connectivity_against_oracle(p, report) is not None
        assert report[2] != (p.level(-1)[0], p.level(p.rank)[0])
        witness = flag_connectivity_by_sections(p.faces, p.less)
        assert label_set_report(p.faces, p.less) == (False, "strong-flag-connectivity", witness)
    assert polytope_report_by_masks(broken[2])[2] == ("-1:0", "2:0")  # two ranks below the top
    # the whole dual pyramid's chain graph is disconnected too, so the oracle
    # stops there; the mask reference names the vertex figure
    assert flag_connectivity_by_sections(broken[3].faces, broken[3].less) == ("2:0^", "-1:0")
    assert polytope_report_by_masks(broken[3])[2] == ("2:0^", "-1:0^")
    for p in (pos_of(platonic("square")), pos_of(cube)):  # the construction itself is sound
        for q in (pyramid(p, "^"), dual_poset(pyramid(p, "^"))):
            assert polytope_report_by_masks(q) == label_set_report(q.faces, q.less) == (True, None, None)


def test_is_polytope_builds_no_section(monkeypatch):
    calls = []
    monkeypatch.setattr(poset, "section", lambda *args: calls.append(args) or section(*args))
    assert is_polytope(pos_of(torus_44(3, 2))).ok
    assert calls == []


def test_flag_graph_roundtrip():
    for m in (platonic("square"), platonic("cube"), platonic("hemicube"), torus_44(2, 1)):
        p = pos_of(m)
        rebuilt = Maniplex(flag_graph_by_chains(p.faces, p.less))
        assert isomorphic(rebuilt, m) is not None


def test_flag_graph_by_chains_refuses_diamond_failure():
    p = pos_of(torus_44(1, 1))
    assert is_polytope(p).failed == "diamond"
    with pytest.raises(ValueError, match="diamond condition fails"):
        flag_graph_by_chains(p.faces, p.less)


def test_poset_isomorphism():
    p = pos_of(platonic("cube"))
    q = pos_of(platonic("cube"))
    assert poset_isomorphism(p, q) is not None
    assert poset_isomorphism(p, pos_of(platonic("hemicube"))) is None
    # octahedron vs cube: same total face count, transposed vector
    octa = coset_enumerate(string_coxeter([3, 4])).to_maniplex()
    assert poset_isomorphism(pos_of(octa), p) is None


def test_poset_isomorphism_size_guard():
    p = pos_of(torus_44(4, 1))
    assert p.proper_face_count > ISO_FACE_LIMIT
    with pytest.raises(ValueError):
        poset_isomorphism(p, p)
    with pytest.raises(poset.PosetTooLarge):
        poset_isomorphism(p, p)


def test_rank3_theorems(named_corpus):
    """An unfaithful 3-maniplex is not polytopal, and some fiber holds a
    pair {flag, flag^0} and some fiber a pair {flag, flag^2}."""
    unfaithful = [m for m in named_corpus.values() if m.rank == 3 and not is_faithful(m).faithful]
    assert unfaithful
    for m in unfaithful:
        assert not is_polytopal(m)
        assert fiber_pair_by_labels(m, 0) is not None and fiber_pair_by_labels(m, 2) is not None


def test_rank3_pair_shapes_on_torus10():
    m = torus_44(1, 0)
    chains = poset.flag_function(m)
    for colour in (0, 2):
        f, g = fiber_pair_by_labels(m, colour)
        assert m.perms[colour][f] == g
        assert chains[f] == chains[g]


def test_poset_json_shape():
    p = pos_of(platonic("square"))
    doc = poset_to_json_dict(p)
    assert doc["rank"] == 2
    assert [len(level) for level in doc["faces"]] == [1, 4, 4, 1]
    assert sorted(doc["hasse"]) == [list(pair) for pair in p.covers]


def test_poset_dot():
    p = pos_of(platonic("square"))
    dot = poset_to_dot(p)
    assert dot.count("rank=same") == 4
    assert dot.count(" -> ") == len(p.covers)
    trimmed = poset_to_dot(p, include_extremes=False)
    assert '"-1:0"' not in trimmed and '"2:0"' not in trimmed
    assert trimmed.count("rank=same") == 2


def test_dual_face_counts(b_maniplex):
    ours, theirs = dual_face_counts(b_maniplex.perms)
    assert ours == (4, 6, 6, 4)
    assert theirs == tuple(reversed(ours))
    assert theirs == tuple(len(faces(dual(b_maniplex), i)) for i in range(4))

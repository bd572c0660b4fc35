import time
from collections import Counter

import pytest

from maniplex.certify import all_ok
from maniplex.core import AutomorphismInfo, Maniplex, dual, face_table, faces, isomorphic, restrict, validate
from maniplex.corpus import platonic
from maniplex import counterexample
from maniplex.cosets import coset_enumerate, string_coxeter
from maniplex.counterexample import (
    B_FACE_VECTOR,
    B_FLAGS,
    B_PRESENTATION,
    BuildError,
    EThetaOverlap,
    ThetaNotFound,
    _face_lifts_connected,
    _MarkCounts,
    _projection_poset_iso,
    build_E_theta,
    find_theta,
    path_edges,
    verify_B_conditions,
)
from maniplex.poset import is_faithful, pos_of
from maniplex.voltage import double_cover, lift_connected
from oracles import flag_graph_by_chains, pos_of_by_labels, shifted_flags, theta_leaves_by_load, voltage_edges

THETA_FROZEN = (0, 24, 25, 57, 74, 87)


def test_presentation_collapses_to_96_cosets():
    assert coset_enumerate(B_PRESENTATION).count == B_FLAGS


def test_b_shape(b_maniplex):
    assert validate(b_maniplex).ok
    assert b_maniplex.flag_count == 96
    assert tuple(len(faces(b_maniplex, i)) for i in range(4)) == B_FACE_VECTOR


def test_b_is_flat(b_maniplex):
    # every vertex is incident to every facet
    for v in faces(b_maniplex, 0):
        for f in faces(b_maniplex, 3):
            assert set(v.flags) & set(f.flags)


def test_b_facet_and_vertex_sections(b_maniplex):
    hemicube = platonic("hemicube")
    for facet in faces(b_maniplex, 3):
        assert isomorphic(restrict(b_maniplex, facet.flags, (0, 1, 2)), hemicube) is not None
    hemioct = platonic("hemioctahedron")
    for vertex in faces(b_maniplex, 0):
        figure = restrict(b_maniplex, vertex.flags, (1, 2, 3))
        assert isomorphic(figure, hemioct) is not None


def test_build_b_checks_the_sections_at_flag_0(monkeypatch):
    # B is reflexible, so its facet and vertex figure at flag 0 stand for
    # all of them: build_B restricts and matches exactly those two, while
    # test_b_facet_and_vertex_sections checks all eight
    restricted, matched = [], []
    real_restrict, real_isomorphic = counterexample.restrict, counterexample.isomorphic

    def spy_restrict(m, flags, colours):
        sub = real_restrict(m, flags, colours)
        restricted.append((sub, 0 in flags, tuple(colours)))
        return sub

    def spy_isomorphic(m1, m2):
        if any(m1 is sub for sub, _, _ in restricted):
            matched.append(m2.flag_count)
        return real_isomorphic(m1, m2)

    monkeypatch.setattr(counterexample, "restrict", spy_restrict)
    monkeypatch.setattr(counterexample, "isomorphic", spy_isomorphic)
    b = counterexample.build_B()
    assert [(held, colours) for _, held, colours in restricted] == [(True, (0, 1, 2)), (True, (1, 2, 3))]
    assert [sub.flag_count for sub, _, _ in restricted] == [24, 24] and matched == [24, 24]
    assert b.flag_count == B_FLAGS


def test_build_b_decides_reflexibility_before_the_sections(monkeypatch):
    # the sections at flag 0 stand for all only on a reflexible B, so a B
    # judged not reflexible is refused before any section is restricted
    restricted = []
    monkeypatch.setattr(counterexample, "automorphism_count", lambda m: AutomorphismInfo(48, False))
    monkeypatch.setattr(counterexample, "restrict", lambda *args: restricted.append(args))
    with pytest.raises(BuildError, match="^not reflexible$"):
        counterexample.build_B()
    assert restricted == []


def test_theta_is_frozen_value(theta):
    assert theta == THETA_FROZEN


def test_theta_covers_edges_and_polygons_once(b_maniplex, theta):
    for i in (1, 2):
        fm = list(face_table(b_maniplex, i))
        hits = sorted(fm[f] for f in theta)
        assert hits == sorted(face.canonical for face in faces(b_maniplex, i))


def test_theta_balance_on_vertices_and_facets(b_maniplex, theta):
    for i in (0, 3):
        fm = list(face_table(b_maniplex, i))
        per_face: dict[int, list[int]] = {}
        for f in theta:
            per_face.setdefault(fm[f], []).append(f)
        shifted = shifted_flags(b_maniplex, theta, (i,))
        shift_count: dict[int, int] = {}
        for g in shifted:
            shift_count[fm[g]] = shift_count.get(fm[g], 0) + 1
        for face in faces(b_maniplex, i):
            inside = per_face.get(face.canonical, [])
            assert len(inside) in (1, 2)
            assert len(inside) + shift_count.get(face.canonical, 0) == 3
            if len(inside) == 2:
                f1, f2 = inside
                for j in range(4):
                    if j != i:
                        fmj = list(face_table(b_maniplex, j))
                        assert fmj[f1] != fmj[f2]


def test_theta_rejects_wrong_rank():
    with pytest.raises(ValueError):
        find_theta(platonic("cube"))


def test_theta_not_found_on_hypercube_like_action():
    from maniplex.core import Maniplex

    xor4 = Maniplex(tuple(tuple(f ^ (1 << i) for f in range(16)) for i in range(4)))
    assert validate(xor4).ok
    with pytest.raises(ThetaNotFound):
        find_theta(xor4)


@pytest.mark.parametrize("symbol", [(4, 3, 3), (3, 4, 3), (3, 3, 3)])
def test_theta_refused_by_face_counts(symbol):
    # the tesseract, the 24-cell and the 4-simplex break 2 f1 = 3 f0 = 3 f3,
    # so the search is refused before it starts
    m = coset_enumerate(string_coxeter(symbol)).to_maniplex()
    start = time.perf_counter()
    with pytest.raises(ThetaNotFound, match="^no marked set satisfies the conditions$"):
        find_theta(m)
    assert time.perf_counter() - start < 1


@pytest.fixture(scope="module")
def balanced_leaves(b_maniplex):
    return theta_leaves_by_load(b_maniplex.perms)


def test_theta_is_first_balanced_leaf(balanced_leaves):
    # the search cut only by 2-faces and at most two marked flags per vertex
    # and facet meets (A.2)-(A.4) at 34 944 leaves; the first, sorted, is theta
    assert len(balanced_leaves) == 34944
    assert tuple(sorted(balanced_leaves[0])) == THETA_FROZEN


def test_theta_pruning_keeps_every_balanced_leaf(b_maniplex, balanced_leaves):
    # the search's cuts are exact: every prefix of a balanced leaf is within bounds
    maps = [face_table(b_maniplex, i) for i in range(4)]
    for leaf in balanced_leaves:
        counts = _MarkCounts(b_maniplex, maps)
        assert all(counts.push(f) for f in leaf), leaf


def leaves_past_cuts(m: Maniplex) -> list[tuple[tuple[int, ...], bool]]:
    """Every leaf of the marked-set search that the cuts of `_MarkCounts`
    let through, as its flags in search order, with whether its counts
    mark every vertex and every facet."""
    maps = [face_table(m, i) for i in range(4)]
    vertices_and_facets = [(i, c) for i in (0, 3) for c in set(maps[i])]
    one_faces = faces(m, 1)
    counts = _MarkCounts(m, maps)
    chosen: list[int] = []
    leaves = []

    def walk(level: int) -> None:
        if level == len(one_faces):
            leaves.append((tuple(chosen), all(counts.members(*k) for k in vertices_and_facets)))
            return
        for f in one_faces[level].flags:
            if counts.push(f):
                chosen.append(f)
                walk(level + 1)
                chosen.pop()
                counts.pop(f)

    walk(0)
    return leaves


def test_leaf_rule_matches_balance_oracle_on_b(b_maniplex, balanced_leaves):
    # past the cuts, the leaves whose counts mark every vertex and facet are
    # exactly those that meet (A.2)-(A.4), checked from scratch
    leaves = leaves_past_cuts(b_maniplex)
    assert len(leaves) == 58496
    assert [leaf for leaf, marked in leaves if marked] == balanced_leaves


@pytest.mark.parametrize(
    "m, leaf_count",
    [
        (coset_enumerate(string_coxeter([2, 3, 2])).to_maniplex(), 48),
        (coset_enumerate(string_coxeter([6, 3, 6]).extended((0, 1, 2, 3) * 2)).to_maniplex(), 1152),
    ],
    ids=["2-3-2", "6-3-6-0123x2"],
)
def test_leaf_rule_matches_balance_oracle(m, leaf_count):
    leaves = leaves_past_cuts(m)
    assert len(leaves) == leaf_count
    assert [leaf for leaf, marked in leaves if marked] == theta_leaves_by_load(m.perms)


def test_theta_search_checks_two_leaves(b_maniplex, monkeypatch):
    # a fresh copy of B, as the fixture keeps its marked set in its cache;
    # a second call reads it from there and searches nothing
    b = Maniplex(b_maniplex.perms)
    vertices_and_facets = [(i, c) for i in (0, 3) for c in set(face_table(b, i))]
    one_face_count = len(faces(b, 1))
    leaves, certified = [], []

    class Counted(_MarkCounts):
        def push(self, f):
            pushed = super().push(f)
            if pushed and len(self.twos) == one_face_count:  # a flag marked on every 1-face
                leaves.append(all(self.members(*k) for k in vertices_and_facets))
            return pushed

    inner = counterexample._cover_certified
    monkeypatch.setattr(counterexample, "_MarkCounts", Counted)
    monkeypatch.setattr(counterexample, "_cover_certified", lambda *args: certified.append(args[1]) or inner(*args))
    assert find_theta(b) == THETA_FROZEN
    # the first leaf leaves a vertex or facet unmarked; the second is certified
    assert leaves == [False, True] and certified == [THETA_FROZEN]
    assert find_theta(b) == THETA_FROZEN
    assert len(leaves) == 2 and len(certified) == 1


def test_path_edges_shape(b_maniplex, theta):
    for f in theta:
        edges = path_edges(b_maniplex, f)
        assert [c for _, c in edges] == [1, 3, 0, 2]
        # consecutive edges share exactly one endpoint: a genuine path
        prev = None
        for lower, colour in edges:
            ends = {lower, b_maniplex.perms[colour][lower]}
            if prev is not None:
                assert len(prev & ends) == 1
            prev = ends


def test_e_theta_counts(b_maniplex, theta, etheta):
    assert len(etheta) == 24
    assert len(theta) == 6
    seen = set()
    for f in theta:
        group = path_edges(b_maniplex, f)
        assert len(set(group)) == 4
        assert not (seen & set(group))
        seen.update(group)
    assert seen == etheta


def test_e_theta_overlap_raises(b_maniplex):
    # two flags on the same colour-3 edge share path edges
    f = 0
    clash = tuple(sorted((f, b_maniplex.perms[3][f])))
    with pytest.raises(EThetaOverlap):
        build_E_theta(b_maniplex, clash)


def test_b_conditions(b_maniplex, theta, etheta):
    report = verify_B_conditions(b_maniplex, theta, etheta)
    assert report.ok, report.failures
    assert set(report.outcomes.values()) <= {"two-two-one", "one-one-two"}
    vertex_keys = [k for k in report.outcomes if k[0] == 0]
    facet_keys = [k for k in report.outcomes if k[0] == 3]
    assert len(vertex_keys) == 4 and len(facet_keys) == 4


def test_b_conditions_under_duality(b_maniplex, theta, etheta):
    """Colour reversal swaps the roles of vertices and facets in the conditions."""
    b = b_maniplex
    d = dual(b)
    et_d = build_E_theta(d, theta)
    assert et_d == frozenset((f, 3 - c) for f, c in etheta)
    rep = verify_B_conditions(b, theta, etheta)
    rep_d = verify_B_conditions(d, theta, et_d)
    assert rep_d.ok
    for (i, canonical), outcome in rep.outcomes.items():
        assert rep_d.outcomes[(3 - i, canonical)] == outcome


def test_bstar_checks_all_pass(bstar_result):
    assert all_ok(bstar_result.checks)
    names = [c.name for c in bstar_result.checks]
    assert len(names) == len(set(names))
    assert bstar_result.bstar.flag_count == 192
    assert validate(bstar_result.bstar).ok


def test_bstar_unfaithful_with_sheet_pair(bstar_result):
    res = is_faithful(bstar_result.bstar)
    assert not res.faithful
    f1, f2 = bstar_result.witness
    assert f2 == f1 + 1 and f1 % 2 == 0  # the two sheets over one base flag


def test_bstar_fibers_are_sheet_pairs(bstar_result):
    from oracles import flag_function

    table = flag_function(bstar_result.bstar)
    for fiber in table.fibers.values():
        assert len(fiber) == 2
        assert fiber[1] == fiber[0] + 1
        assert fiber[0] % 2 == 0


def test_face_lift_count_rule_matches_lift_connected(b_maniplex, bstar_result):
    """A face of B lifts to one face of the double cover when `lift_connected`
    finds its preimage connected, and to two otherwise, so comparing face
    counts per rank decides what searching every lift does.  On B*'s voltage
    assignment every lift connects; with voltage 1 on every colour-0 edge
    the cover is a maniplex whose facets connect and whose other faces
    split, face counts (8, 12, 12, 4) against B's (4, 6, 6, 4).  The cover
    over one nontrivial colour-0 edge is not a maniplex, so its faces are
    not labelled."""
    b = b_maniplex
    split = voltage_edges(b, [(f, 0) for f in range(b.flag_count)])
    single = double_cover(b, voltage_edges(b, [(0, 0)]))
    with pytest.raises(ValueError, match="only a valid maniplex"):
        _face_lifts_connected(single, b)
    for edges, want in ((bstar_result.e_theta, True), (split, False)):
        cover = double_cover(b, edges)
        assert validate(cover).ok
        lifts = []
        for i in range(4):
            base_ids = face_table(b, i)
            over = Counter(base_ids[c // 2] for c in set(face_table(cover, i)))  # cover faces per base face
            for face in faces(b, i):
                connected = lift_connected(b, edges, face.flags, [c for c in range(4) if c != i])
                assert over[face.canonical] == (1 if connected else 2), (i, face.canonical)
                lifts.append(connected)
        assert _face_lifts_connected(cover, b) == all(lifts) == want
        if not want:
            assert tuple(len(set(face_table(cover, i))) for i in range(4)) == (8, 12, 12, 4)
    assert any(lifts)


def test_bstar_poset_collapses_to_base(bstar_result):
    p = pos_of(bstar_result.bstar)
    rebuilt = Maniplex(flag_graph_by_chains(p.faces, p.less))
    assert isomorphic(rebuilt, bstar_result.b) is not None
    assert isomorphic(rebuilt, bstar_result.bstar) is None


def test_projection_check_matches_halved_label_poset(bstar_result):
    # the per-rank checks imply the order part: B*'s label poset with every
    # id halved is B's; a valid cover with split face lifts, voltage 1 on
    # every colour-0 edge, fails them, and an invalid one is refused.  B*
    # with flags 0 and 2 swapped has B's face counts and sizes, but its
    # vertex ids do not halve to B's: the whole-row comparison refuses it
    def halve(label):
        rank, flag = label.split(":")
        return f"{rank}:{int(flag) // 2}"

    b, bstar = bstar_result.b, bstar_result.bstar
    assert _projection_poset_iso(bstar, b)
    assert {(halve(a), halve(c)) for a, c in pos_of_by_labels(bstar).less} == pos_of_by_labels(b).less
    swap = list(range(bstar.flag_count))
    swap[0], swap[2] = 2, 0
    swapped = Maniplex(tuple([swap[row[swap[v]]] for v in range(bstar.flag_count)] for row in bstar.perms))
    assert validate(swapped).ok and not _projection_poset_iso(swapped, b)
    assert [sorted(Counter(face_table(swapped, i)).values()) for i in range(4)] == [
        sorted(Counter(face_table(bstar, i)).values()) for i in range(4)
    ]
    assert {(halve(a), halve(c)) for a, c in pos_of_by_labels(swapped).less} != pos_of_by_labels(b).less
    split = double_cover(b, voltage_edges(b, [(f, 0) for f in range(b.flag_count)]))
    assert validate(split).ok and not _projection_poset_iso(split, b)
    with pytest.raises(ValueError, match="only a valid maniplex"):
        _projection_poset_iso(double_cover(b, voltage_edges(b, [(0, 0)])), b)


def test_bstar_equals_double_cover_of_b(bstar_result):
    cover = double_cover(bstar_result.b, bstar_result.e_theta)
    assert cover.perms == bstar_result.bstar.perms


def test_b_automorphisms(b_maniplex):
    from maniplex.core import automorphism_count

    assert automorphism_count(b_maniplex) == (96, True)
    assert isomorphic(b_maniplex, dual(b_maniplex)) is not None

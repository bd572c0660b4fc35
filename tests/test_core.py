import itertools
import json
import random
import re
import tracemalloc
from array import array

import pytest

import suites
from maniplex import core
from maniplex.core import (
    DOT_PALETTE,
    Face,
    FormatError,
    Maniplex,
    automorphism_count,
    components,
    dual,
    dumps_json,
    face_table,
    faces,
    flag_ints,
    from_int_rows,
    isomorphic,
    maniplex_from_json,
    maniplex_to_json,
    restrict,
    to_dot,
    validate,
    walk_rows,
)
from maniplex.corpus import corpus_names, platonic, torus_44
from maniplex.coxeter import verdict
from maniplex.cosets import coset_enumerate, string_coxeter
from maniplex.extension import extend
from maniplex.poset import is_faithful
from maniplex.voltage import double_cover

from oracles import (
    automorphism_count_by_propagation,
    base64_row,
    brute_isomorphisms,
    faces_by_bfs,
    maniplex_from_json_by_loads,
    partition_by_merging,
    polygon_flag_graph,
    renumber,
    to_json_dict_v1,
    to_json_dict_v2,
)

# small deliberately broken structures, one per axiom
FIXED_POINT = Maniplex(((0, 1),))
NOT_INVOLUTION = Maniplex(((1, 2, 0), (1, 0, 2)))
IMPROPER = Maniplex(((1, 0, 3, 2), (1, 0, 3, 2)))
# r0 and r2 generate a 6-cycle, so (r0 r2)^2 is not the identity
SQUARE_BREAKER = Maniplex(
    (
        (1, 0, 3, 2, 5, 4),
        (3, 4, 5, 0, 1, 2),
        (5, 2, 1, 4, 3, 0),
    )
)


def shuffle_flags(m: Maniplex, phi: list[int]) -> Maniplex:
    inv = [0] * len(phi)
    for f, g in enumerate(phi):
        inv[g] = f
    return Maniplex(tuple(tuple(phi[row[inv[g]]] for g in range(len(phi))) for row in m.perms))


def test_accessors():
    sq = platonic("square")
    assert sq.rank == 2
    assert sq.flag_count == 8
    assert repr(sq) == "Maniplex(rank=2, flags=8)"


def test_structural_errors():
    """A table that is not n >= 1 maps of m >= 1 flags into themselves is
    refused by the constructor, with the decoder's format-1 text; an
    array('i') row out of range is refused as any other, and a sound
    table is kept."""
    for perms, message in (
        ((), "rank must be a positive integer"),
        (((),), "flags must be a positive integer"),
        (((1, 0), (1,)), "perms[1] must be a list of length 2"),
        ((array("i", [1, 0]), array("i", [1])), "perms[1] must be a list of length 2"),
        (((1, 0), 5), "perms[1] must be a list of length 2"),
        (((1, 5),), "perms[0] entry out of range: 5"),
        (((True, 0),), "perms[0] entry out of range: True"),
        (((1.0, 0),), "perms[0] entry out of range: 1.0"),
        ((array("d", [1, 0]),), "perms[0] entry out of range: 1.0"),
        ((array("i", [1, 2]),), "perms[0] entry out of range: 2"),
        ((array("i", [-1, 0]),), "perms[0] entry out of range: -1"),
    ):
        with pytest.raises(FormatError) as refusal:
            Maniplex(perms)
        assert str(refusal.value) == message, perms
    cube = platonic("cube")
    assert Maniplex(cube.perms) == cube


def test_validate_happy_path(named_corpus):
    for name, m in named_corpus.items():
        report = validate(m)
        assert report.ok, (name, report.violations)


def test_validate_axiom_witnesses(two_squares):
    def broken(m):
        return {v.axiom for v in validate(m).violations}

    assert "fixed-point-free" in broken(FIXED_POINT)
    assert "involution" in broken(NOT_INVOLUTION)
    assert "proper-colouring" in broken(IMPROPER)
    assert "square" in broken(SQUARE_BREAKER)

    assert "connected" in broken(two_squares)


def test_validate_one_witness_per_colour():
    report = validate(NOT_INVOLUTION)
    involution_hits = [v for v in report.violations if v.axiom == "involution"]
    assert len(involution_hits) == 1  # one witness for colour 0, colour 1 is fine


def test_components_against_merging_oracle(named_corpus):
    for name, m in named_corpus.items():
        if m.flag_count > 50:
            continue
        for cols in [(0,), (1,), (0, 1), tuple(range(m.rank))]:
            got = [c.flags for c in components(m, cols)]
            want = partition_by_merging(m.perms, cols, m.flag_count)
            assert sorted(got) == want, (name, cols)


def test_components_bad_colour():
    with pytest.raises(ValueError):
        components(platonic("square"), (2,))


def test_faces_and_face_map():
    m = torus_44(1, 0)
    counts = tuple(len(faces(m, i)) for i in range(3))
    assert counts == (1, 2, 1)
    fm = list(face_table(m, 1))
    for face in faces(m, 1):
        for f in face.flags:
            assert fm[f] == face.canonical
    with pytest.raises(ValueError):
        faces(m, 3)


def test_face_table_matches_bfs_oracle(named_corpus, b_maniplex, bstar_result):
    members = dict(named_corpus, B=b_maniplex, Bstar=bstar_result.bstar)
    for name, m in members.items():
        fresh = Maniplex(m.perms)
        for i in range(m.rank):
            want = faces_by_bfs(m.perms, i)
            want_map = [0] * m.flag_count
            for canonical, flags in want:
                for f in flags:
                    want_map[f] = canonical
            for mm in (fresh, m):
                assert [(face.canonical, face.flags) for face in faces(mm, i)] == want, (name, i)
                assert all(face.rank == i for face in faces(mm, i))
                assert list(face_table(mm, i)) == want_map, (name, i)
            assert face_table(fresh, i) is face_table(fresh, i)
        assert is_faithful(fresh) is is_faithful(fresh)
        # the cache, face tables and faithfulness memo alike, stays out of
        # equality, hashing, repr and JSON
        assert fresh == Maniplex(m.perms) and hash(fresh) == hash(Maniplex(m.perms))
        assert repr(fresh) == repr(Maniplex(m.perms))
        assert maniplex_to_json(fresh) == maniplex_to_json(Maniplex(m.perms))


def test_row_forms_are_equal_and_hash_alike(bstar_result):
    """A maniplex built from tuple rows, list rows, array('i') rows or by
    `from_int_rows` holds array('i') rows, equals the others and hashes as
    they do; the rows given to `from_int_rows` are kept as the walk view,
    and any other form's view is built from the pool of flag ints; an
    array('i') row is copied, and the dual of the dual is the maniplex,
    with its walk view carried both ways."""
    bstar = bstar_result.bstar
    for m in (platonic("cube"), torus_44(2, 1), bstar, extend(bstar, faces(bstar, 3)[0])):
        rows = tuple(map(tuple, m.perms))
        forms = [
            Maniplex(rows),
            Maniplex([list(row) for row in rows]),
            Maniplex(tuple(array("i", row) for row in rows)),
            Maniplex(tuple(array("l", row) for row in rows)),
            from_int_rows(rows),
        ]
        for x in forms:
            assert x == m and hash(x) == hash(m), m
            assert all(type(row) is array and row.typecode == "i" for row in x.perms), m
        assert len({*forms, m}) == 1
        assert all(a is b for a, b in zip(walk_rows(forms[4]), rows))  # the given rows serve as the walk view
        pool = flag_ints(m.flag_count)
        assert walk_rows(forms[0]) == rows and all(v is pool[v] for row in walk_rows(forms[0]) for v in row)
        packed = tuple(array("i", row) for row in rows)
        assert all(a is not b and a == b for a, b in zip(Maniplex(packed).perms, packed))
        for x in (m, forms[0]):
            twice = dual(dual(x))
            assert twice == x and hash(twice) == hash(x)
            assert twice._cache.get("walk") == x._cache.get("walk")
        assert walk_rows(dual(forms[2])) == walk_rows(forms[0])[::-1] == walk_rows(dual(forms[0]))


@pytest.mark.parametrize("entry", [True, 1.0, 2**31, -(2**31) - 1])
def test_foreign_rows_are_refused(entry):
    """A row holding a bool, a float or an int that no array('i') holds is
    refused, with the entry named as the decoder names it."""
    with pytest.raises(FormatError, match=rf"^perms\[1\] entry out of range: {re.escape(repr(entry))}$"):
        Maniplex(((1, 0), (entry, 0)))


def test_automorphism_count_unchanged_by_face_table(named_corpus, b_maniplex):
    for m in [*named_corpus.values(), b_maniplex]:
        fresh = Maniplex(m.perms)
        before = automorphism_count(fresh)
        for i in range(fresh.rank):
            face_table(fresh, i)
        assert automorphism_count(fresh) == before


def test_dual():
    cube = platonic("cube")
    assert dual(dual(cube)).perms == cube.perms
    assert isomorphic(dual(platonic("hemicube")), platonic("hemioctahedron")) is not None


def test_dual_shares_only_an_ok_report(named_corpus, two_squares):
    """The dual of a validated maniplex holds the report that its own
    `validate` gives: an ok one shared, any other computed afresh."""
    broken = [FIXED_POINT, NOT_INVOLUTION, IMPROPER, SQUARE_BREAKER, two_squares]
    for m in [*named_corpus.values(), *broken]:
        m = Maniplex(m.perms)
        validate(m)
        assert validate(dual(m)) == validate(Maniplex(dual(m).perms)), m


def test_isomorphic_against_brute_force():
    sq = platonic("square")
    gon = Maniplex(polygon_flag_graph(4))
    assert isomorphic(sq, gon) is not None
    assert brute_isomorphisms(sq.perms, gon.perms) != []

    shuffled = shuffle_flags(sq, [3, 1, 4, 0, 6, 2, 7, 5])
    phi = isomorphic(sq, shuffled)
    assert phi is not None
    assert all(phi[sq.perms[i][f]] == shuffled.perms[i][phi[f]] for i in range(2) for f in range(8))

    xor3 = Maniplex(tuple(tuple(f ^ (1 << i) for f in range(8)) for i in range(3)))
    t10 = torus_44(1, 0)
    assert isomorphic(xor3, t10) is None
    assert brute_isomorphisms(xor3.perms, t10.perms) == []


def test_isomorphic_rank_mismatch():
    assert isomorphic(platonic("square"), torus_44(1, 0)) is None


def disjoint_union(*parts):
    """The flag graph whose components are the given flag graphs, in order."""
    rows, offset = [(), ()], 0
    for perms in parts:
        rows = [row + tuple(f + offset for f in part) for row, part in zip(rows, perms)]
        offset += len(perms[0])
    return Maniplex(tuple(rows))


def test_isomorphic_refuses_disconnected_m1(two_squares):
    # propagation from flag 0 reaches only its own component, so a map
    # found that way is partial; it is never returned
    with pytest.raises(ValueError, match="disconnected"):
        isomorphic(two_squares, two_squares)
    square = polygon_flag_graph(4)
    mixed = disjoint_union(square, polygon_flag_graph(6))
    digons = disjoint_union(square, *[polygon_flag_graph(2)] * 3)
    assert mixed.flag_count == digons.flag_count == 20
    # not isomorphic: their components have different sizes
    sizes = [sorted(len(c.flags) for c in components(m, (0, 1))) for m in (mixed, digons)]
    assert sizes == [[8, 12], [4, 4, 4, 8]]
    with pytest.raises(ValueError, match="disconnected"):
        isomorphic(mixed, digons)


def test_automorphism_count_against_brute_force():
    for m in (platonic("square"), torus_44(1, 0)):
        info = automorphism_count(m)
        assert info.count == len(brute_isomorphisms(m.perms, m.perms))
    assert automorphism_count(platonic("square")).is_reflexible
    assert automorphism_count(platonic("cube")) == (48, True)


def test_automorphism_count_matches_propagation_oracle(
    named_corpus, b_maniplex, bstar_result, simplex5, two_squares
):
    for m in [*named_corpus.values(), b_maniplex, bstar_result.bstar, simplex5, two_squares]:
        assert automorphism_count(m).count == automorphism_count_by_propagation(m.perms), m
    # disconnected: each copy's images of flag 0 extend over its component
    assert automorphism_count(two_squares) == (16, True)
    # a square, a hexagon and a square: no image in the hexagon extends
    parts = (polygon_flag_graph(4), polygon_flag_graph(6), polygon_flag_graph(4))
    offsets = (0, 8, 20)
    mixed = Maniplex(
        tuple(
            tuple(f + k for part, k in zip(parts, offsets) for f in part[colour])
            for colour in range(2)
        )
    )
    assert automorphism_count(mixed).count == automorphism_count_by_propagation(mixed.perms) == 16


def test_automorphism_count_propagates_once_per_orbit(monkeypatch):
    """A reflexible maniplex propagates the images r_i(0) of its n colours
    and nothing else; a chiral one those and the n - 1 images r_j r_0 (0)."""
    calls = []
    real = core._propagate
    monkeypatch.setattr(core, "_propagate", lambda *args: calls.append(args[2]) or real(*args))
    cell24 = coset_enumerate(string_coxeter([3, 4, 3])).to_maniplex()
    cases = [(cell24, 1152)]
    cases += [(torus_44(b, c), suites.torus_automorphisms(b, c)) for b, c in suites.TORUS_POOL]
    for m, want in cases:
        calls.clear()
        info = automorphism_count(m)
        assert info.count == want
        assert len(calls) == (m.rank if info.is_reflexible else 2 * m.rank - 1), (m, calls)


def automorphism_paths(monkeypatch):
    """Spy on `automorphism_count`: path(m) is its result, checked against
    the oracle, and the path it took: "reflexible" (lemma A: only the
    images r_i(0) propagated), "chiral" (lemma B: those and the images
    r_j r_0 (0)), "fallback" (those tried first, then the orbit loop) or
    "loop" (the orbit loop alone, which tries image 1 first)."""
    images, closures = [], []
    propagate, close = core._propagate, core._close_orbit
    monkeypatch.setattr(core, "_propagate", lambda *args: images.append(args[2]) or propagate(*args))
    monkeypatch.setattr(core, "_close_orbit", lambda *args: closures.append(args[3]) or close(*args))

    def path(m):
        images.clear()
        closures.clear()
        info = automorphism_count(m)
        assert info.count == automorphism_count_by_propagation(m.perms), m
        firsts = [row[0] for row in m.perms]
        evens = [row[firsts[0]] for row in m.perms[1:]]
        if images == firsts and not closures:
            return info, "reflexible"
        if images == firsts + evens and not closures:
            return info, "chiral"
        if images[: m.rank] == firsts and closures:
            return info, "fallback"
        assert images[0] == 1, (m, images)
        return info, "loop"

    return path, images


def test_automorphism_count_paths(b_maniplex, bstar_result, two_squares, monkeypatch):
    """Each case takes the path the lemmas give it (`automorphism_count`),
    and counts what the oracle counts."""
    path, images = automorphism_paths(monkeypatch)
    for m in [b_maniplex, *(platonic(name) for name in corpus_names())]:
        assert path(m) == ((m.flag_count, True), "reflexible"), m
    for b, c in suites.TORUS_POOL:
        m = torus_44(b, c)
        want = suites.torus_automorphisms(b, c)
        reflexible = want == m.flag_count
        assert path(m) == ((want, reflexible), "reflexible" if reflexible else "chiral"), (b, c)
    tower = _tower(bstar_result.bstar, 7)
    assert [path(m) for m in tower] == [((2, False), "fallback")] + [((8, False), "fallback")] * 3
    # the torus maps' extensions over the facet of flag 0: those of torus
    # (1, 1) are reflexible, the rest take the fallback
    for b, c in itertools.product(range(4), repeat=2):
        if b or c:
            torus = torus_44(b, c)
            m = extend(torus, faces(torus, 2)[0])
            if validate(m).ok:
                assert path(m)[1] == ("reflexible" if (b, c) == (1, 1) else "fallback"), (b, c)
    # not maniplexes, so the orbit loop alone, as before: a disconnected
    # flag graph's partial maps leave every image to try
    mixed = disjoint_union(polygon_flag_graph(4), polygon_flag_graph(6), polygon_flag_graph(4))
    assert path(two_squares) == ((16, True), "loop") and images == list(range(1, 16))
    assert path(mixed) == ((16, False), "loop") and images == list(range(1, 28))
    # rank 1: one image, as before
    assert path(Maniplex(((1, 0),))) == ((2, True), "reflexible") and images == [1]


def counting_walks(monkeypatch):
    """Patch the two walks of flag 0's component (`_spanning_tree`) to
    count their calls."""
    walks = []
    for name in ("_cycle_walk", "_search"):
        real = getattr(core, name)
        monkeypatch.setattr(core, name, lambda *args, real=real, name=name: walks.append(name) or real(*args))
    return walks


@pytest.mark.parametrize("first", ["validate", "verdict", "automorphism_count", "isomorphic"])
def test_one_walk_per_maniplex(first, monkeypatch):
    """On a fresh torus, whichever of `validate`, `verdict`,
    `automorphism_count` and `isomorphic(m, dual(m))` comes first, flag
    0's component is walked once, and no search over every colour runs."""
    walks = counting_walks(monkeypatch)
    searched = []
    component_ids = core._component_ids
    monkeypatch.setattr(core, "_component_ids", lambda m, cols: searched.append(tuple(cols)) or component_ids(m, cols))
    m = torus_44(3, 2)
    steps = {
        "validate": lambda: validate(m).ok,
        "verdict": lambda: verdict(m).summary == "semisparse",
        "automorphism_count": lambda: automorphism_count(m) == (52, False),
        "isomorphic": lambda: isomorphic(m, dual(m)) is not None,
    }
    for name in [first, *(name for name in steps if name != first)]:
        assert steps[name](), name
    assert len(walks) == 1 and (0, 1, 2) not in searched, (walks, searched)


@pytest.mark.parametrize("first", ["validate", "isomorphic"])
def test_one_walk_of_a_disconnected_input(first, two_squares, monkeypatch):
    """A disconnected input is walked once too, and keeps `validate`'s
    witness, the least flag not reached from flag 0, and `isomorphic`'s
    ValueError."""
    walks = counting_walks(monkeypatch)
    m = Maniplex(two_squares.perms)

    def refused():
        with pytest.raises(ValueError, match="disconnected"):
            isomorphic(m, two_squares)
        return True

    steps = {
        "validate": lambda: validate(m).violations == (core.Violation(core.AXIOM_CONNECTED, (8,)),),
        "isomorphic": refused,
    }
    for name in [first, *(name for name in steps if name != first)]:
        assert steps[name](), name
    assert len(walks) == 1, walks


def test_restrict():
    cube = platonic("cube")
    facet = faces(cube, 2)[0]
    side = restrict(cube, facet.flags, (0, 1))
    assert isomorphic(side, platonic("square")) is not None
    with pytest.raises(ValueError):
        restrict(cube, facet.flags[:3], (0, 1))
    with pytest.raises(ValueError, match="at least one flag and one colour"):
        restrict(cube, [], [0])
    with pytest.raises(ValueError, match="at least one flag and one colour"):
        restrict(cube, range(48), [])


def test_json_roundtrip():
    m = torus_44(2, 1)
    text = maniplex_to_json(m)
    assert maniplex_from_json(text).perms == m.perms
    assert text.endswith("\n")
    assert json.loads(text) == to_json_dict_v2(m)
    assert maniplex_from_json_by_loads(text) == tuple(map(tuple, m.perms))
    # canonical form: serialization is stable
    assert maniplex_to_json(maniplex_from_json(text)) == text


def _tower(bstar, top):
    """B* and its extensions over the facet of flag 0, up to rank top."""
    tower = [bstar]
    while tower[-1].rank < top:
        m = tower[-1]
        tower.append(extend(m, faces(m, m.rank - 1)[0]))
    return tower


def test_format_2_round_trip(b_maniplex, bstar_result):
    """The census pool, B, B* and the tower's ranks 5-8 decode from their
    format-2 text to equal rows that hash alike, and from their format-1
    text (the oracle's, as version 0.1.0 wrote it) to the same maniplex."""
    members = [torus_44(b, c) for b, c in suites.TORUS_POOL] + [b_maniplex, *_tower(bstar_result.bstar, 8)]
    for m in members:
        for text in (maniplex_to_json(m), dumps_json(to_json_dict_v1(m))):
            decoded = maniplex_from_json(text)
            assert decoded.perms == m.perms and decoded == m and hash(decoded) == hash(m), m
            assert all(type(row) is array and row.typecode == "i" for row in decoded.perms), m
    assert members[-1].flag_count == 49152


def test_format_2_rows_are_little_endian_int32():
    """Hand-written rows, so the byte order is fixed whatever the host:
    1 is the bytes 01 00 00 00, and 2**24 + 2 is 02 00 00 01."""
    edge = '{\n  "flags": 2,\n  "format": 2,\n  "perms": [\n    "AQAAAAAAAAA="\n  ],\n  "rank": 1\n}\n'
    assert list(maniplex_from_json(edge).perms[0]) == [1, 0]
    assert maniplex_to_json(Maniplex(((1, 0),))) == edge
    t10 = torus_44(1, 0)  # row 0 is (3, 6, 5, 0, 7, 2, 1, 4)
    row = "AwAAAAYAAAAFAAAAAAAAAAcAAAACAAAAAQAAAAQAAAA="
    assert '\n    "%s",\n' % row in maniplex_to_json(t10)
    assert tuple(maniplex_from_json(maniplex_to_json(t10)).perms[0]) == (3, 6, 5, 0, 7, 2, 1, 4)
    text = json.dumps({"flags": 1, "format": 2, "perms": ["AgAAAQ=="], "rank": 1})
    with pytest.raises(FormatError, match=rf"perms\[0\] entry out of range: {2**24 + 2}$"):
        maniplex_from_json(text)


# torus (1, 0): 8 flags, so a row is 32 bytes, 44 characters of base64
_T10_ROW0 = to_json_dict_v2(torus_44(1, 0))["perms"][0]


def _t10_doc(row0, **changes):
    doc = dict(to_json_dict_v2(torus_44(1, 0)), **changes)
    doc["perms"] = [row0, *doc["perms"][1:]]
    return json.dumps(doc)


def _packed_row(*entries):
    return base64_row(entries)


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(_t10_doc("!" + _T10_ROW0[1:]), r"perms\[0\] must be a string of canonical base64", id="bad base64"),
        pytest.param(_t10_doc(_T10_ROW0[:-1]), r"perms\[0\] must be a string of canonical base64", id="truncated row"),
        pytest.param(_t10_doc(_T10_ROW0[:20] + "\n" + _T10_ROW0[20:]), r"canonical base64", id="line break"),
        pytest.param(_t10_doc(_T10_ROW0[:-2] + "B="), r"canonical base64", id="padding bits set"),
        pytest.param(_t10_doc(_T10_ROW0[:-1] + "=="), r"canonical base64", id="extra padding"),
        pytest.param(_t10_doc([3, 6, 5, 0, 7, 2, 1, 4]), r"perms\[0\] must be a string of canonical base64", id="list row"),
        pytest.param(_t10_doc(_T10_ROW0[:-4]), r"perms\[0\] must decode to 32 bytes, 4 per flag, not 30$", id="truncated quad"),
        pytest.param(_t10_doc(_packed_row(3, 6, 5, 0, 7, 2, 1, 4)[:-8] + "AAA="), r"not 29$", id="bytes not a multiple of 4"),
        pytest.param(_t10_doc(_packed_row(3, 6, 5, 0, 7, 2, 1)), r"must decode to 32 bytes, 4 per flag, not 28$", id="short row"),
        pytest.param(_t10_doc(_packed_row(3, 6, 5, 0, 7, 2, 1, 4, 0)), r"not 36$", id="long row"),
        pytest.param(_t10_doc(_packed_row(3, 6, 5, 0, 7, 2, 1, 8)), r"perms\[0\] entry out of range: 8$", id="lane = flags"),
        pytest.param(_t10_doc(_packed_row(3, -1, 5, 0, 7, 2, 1, 4)), r"perms\[0\] entry out of range: -1$", id="negative lane"),
        pytest.param(_t10_doc(_packed_row(3, 6, 5, -(2**31), 7, 2, 1, 4)), r"entry out of range: -2147483648$", id="int32 min"),
        pytest.param(_t10_doc(_T10_ROW0, format=3), r"unknown format 3: format 2 is read", id="format 3"),
        pytest.param(_t10_doc(_T10_ROW0, format="2"), r"unknown format '2'", id="format string"),
        pytest.param(_t10_doc(_T10_ROW0, format=True), r"unknown format True", id="format bool"),
        pytest.param(_t10_doc(_T10_ROW0, format=1), r"unknown format 1", id="format 1 spelled out"),
    ],
)
def test_format_2_refusals(text, message):
    """Each fault gives its own FormatError, the one the oracle decoder
    (base64 and struct) gives."""
    with pytest.raises(FormatError, match=message):
        maniplex_from_json(text)
    assert _outcome(maniplex_from_json, text) == _outcome(maniplex_from_json_by_loads, text)


def test_maniplex_to_json_matches_generic_encoder(named_corpus, b_maniplex, bstar_result):
    tower = _tower(bstar_result.bstar, 6)
    members = [
        *named_corpus.values(),
        *(platonic(name) for name in corpus_names()),
        b_maniplex,
        *tower,
        Maniplex(((1, 0),)),  # rank 1
    ]
    for m in members:
        assert maniplex_to_json(m) == dumps_json(to_json_dict_v2(m)), m


@pytest.mark.parametrize(
    "perms, message",
    [
        # a negative entry would index the shared strings from the end: 1
        (((-1, 0),), r"perms\[0\] entry out of range: -1"),
        # one past the last flag would raise a bare IndexError
        (((1, 0), (0, 2)), r"perms\[1\] entry out of range: 2"),
    ],
)
def test_maniplex_to_json_refuses_out_of_range_entries(perms, message):
    """No such table reaches the encoder: the constructor refuses it."""
    with pytest.raises(FormatError, match=message):
        Maniplex(perms)


def _parity_tables():
    """Tables with a structural error (no colour, no flag, a short and a
    long row, each foreign entry), and each torus-pool map's rows followed
    by a copy with one seeded bad entry."""
    yield ()
    yield ((),)
    yield ((1, 0, 3, 2), (2, 3, 0))
    yield ((1, 0, 3, 2), (2, 3, 0, 1, 0))
    for entry in (-1, 4, True, 1.0, 2**31):
        yield ((1, 0, 3, 2), (2, entry, 0, 1))
    rng = random.Random(suites.SEED + 29)
    for b, c in suites.TORUS_POOL:
        m = torus_44(b, c)
        yield tuple(map(tuple, m.perms))
        rows = [list(row) for row in m.perms]
        size = m.flag_count
        rows[rng.randrange(m.rank)][rng.randrange(size)] = rng.choice(
            (-1, -rng.randrange(1, 2**31), size, rng.randrange(size, 2**31), 2**31, True, False, 1.0)
        )
        yield rows


def test_constructor_refuses_what_the_decoder_refuses():
    """`Maniplex(rows)` raises exactly the FormatError that the decoder and
    the oracle decoder raise on the rows' format-1 document, which spells
    a bool, a float or an int past 32 bits; a sound table makes the
    maniplex that both documents decode to."""
    sound = 0
    for rows in _parity_tables():
        v1 = dumps_json({"rank": len(rows), "flags": len(rows[0]) if rows else 0, "perms": [list(row) for row in rows]})
        want = _outcome(maniplex_from_json_by_loads, v1)
        if type(want) is tuple and want[0] is FormatError:
            assert _outcome(Maniplex, rows) == _outcome(maniplex_from_json, v1) == want, rows
            continue
        m = Maniplex(rows)
        text = maniplex_to_json(m)
        assert text == dumps_json(to_json_dict_v2(m)) and want == tuple(map(tuple, rows))
        assert maniplex_from_json(text) == m == maniplex_from_json(v1)
        sound += 1
    assert sound == len(suites.TORUS_POOL)


def test_array_rows_are_range_checked_once(b_maniplex, monkeypatch):
    """A maniplex built from array('i') rows has each row range-checked
    once, by the constructor, which keeps a copy: no reader after it
    checks a row again."""
    rows = tuple(array("i", row) for row in b_maniplex.perms)
    text = maniplex_to_json(b_maniplex)
    checked = []
    checked_row = core._checked_row
    monkeypatch.setattr(core, "_checked_row", lambda row, i, size: checked.append(len(row)) or checked_row(row, i, size))
    m = Maniplex(rows)
    assert all(a is not b and a == b for a, b in zip(m.perms, rows))
    walk_rows(m)
    assert validate(m).ok
    face_table(m, 0)
    assert maniplex_to_json(m) == text
    extend(m, faces(m, m.rank - 1)[0])
    double_cover(m, frozenset())
    dual(m)
    assert checked == [m.flag_count] * m.rank


def test_given_array_row_is_copied():
    """Writing to an array('i') row after building a maniplex from it
    leaves the maniplex as built: it validates, and its document decodes
    to it.  Kept without a copy, the row once made `validate` raise
    IndexError and the encoder write a document the decoder refuses."""
    row = array("i", [1, 0])
    m = Maniplex((row,))
    row[0] = 7
    assert m.perms == (array("i", [1, 0]),)
    assert validate(m).ok
    assert maniplex_from_json(maniplex_to_json(m)) == m


def test_decoded_maniplex_holds_one_int_per_value(bstar_result):
    """The decoded copy holds each entry as one 4-byte C int, and its walk
    view, built on the first walk, holds one int object per flag value."""
    m = extend(bstar_result.bstar, faces(bstar_result.bstar, 3)[0])
    decoded = maniplex_from_json(maniplex_to_json(m))
    assert decoded == m
    assert all(type(row) is array and row.typecode == "i" and row.itemsize == 4 for row in decoded.perms)
    view = walk_rows(decoded)
    assert view == tuple(map(tuple, decoded.perms))
    assert len({id(v) for row in view for v in row}) == decoded.flag_count


@pytest.mark.parametrize(
    "perms, message",
    [
        # "%d" would write 1.0 as 1 and True as 1
        (((1.0, 0),), r"perms\[0\] entry out of range: 1\.0"),
        (((1, 0), (True, False)), r"perms\[1\] entry out of range: True"),
    ],
)
def test_maniplex_to_json_refuses_non_int_entries(perms, message):
    """No such table reaches the encoder: the constructor refuses it."""
    with pytest.raises(FormatError, match=message):
        Maniplex(perms)


def test_tower_and_decoded_copies_hold_the_pool_ints(bstar_result):
    """The rank-5 and rank-6 extensions, their decoded copies and the next
    extension, once walked, hold each value as one and the same int
    object, the pool's."""
    m, held = bstar_result.bstar, []
    for _ in (5, 6):
        m = extend(m, faces(m, m.rank - 1)[0])
        held += [m, maniplex_from_json(maniplex_to_json(m))]
    held.append(extend(held[-1], faces(held[-1], 5)[0]))
    views = [walk_rows(m) for m in held]
    pool = flag_ints(held[-1].flag_count)
    for m, view in zip(held, views):
        assert all(v is pool[v] for row in view for v in row), m


def test_padded_document_is_refused_in_constant_memory():
    """A document that claims 10**6 flags but holds a two-entry row, then
    2 * 10**6 spaces, is refused for its short row, in format 1 and in
    format 2, and the decoder's traced peak stays under a bound that does
    not grow with the flag count: nothing of the claimed size is
    allocated."""
    flags = 10**6
    cases = (
        ('{"flags": %d, "perms": [[1, 0]], "rank": 1}', f"perms[0] must be a list of length {flags}"),
        ('{"flags": %d, "format": 2, "perms": ["AQAAAAAAAAA="], "rank": 1}', f"perms[0] must decode to {4 * flags} bytes, 4 per flag, not 8"),
    )
    for doc, message in cases:
        text = doc % flags + " " * (2 * flags)
        error = None
        tracemalloc.start()
        try:
            try:
                maniplex_from_json(text)
            except FormatError as exc:
                error = exc
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(error) == message
        assert peak < 64 * 1024, peak


def _layouts(doc):
    """The document laid out in every key order, compact, indented and
    spaced, then with duplicate and extra keys and with "perms" spelled
    through a unicode escape."""
    items = list(doc.items())
    styles = [{"separators": (",", ":")}, {"indent": 2}, {"indent": "\t", "separators": (" , ", " : ")}]
    for order, style in itertools.product(itertools.permutations(items), styles):
        yield json.dumps(dict(order), **style)
    text = dumps_json(doc)
    yield '{"perms": [[0]], "flags": 0, ' + text[1:]  # both overridden by the canonical values
    yield text[:-2] + ', "flags": %d}' % doc["flags"]  # flags again, after the rows
    yield '{"note": {"perms": [[-1]], "flags": 1}, "version": "1.0", ' + text[1:]
    yield text.replace('"perms"', '"\\u0070erms"')
    yield text.replace('"perms"', '"\\u0070erms"').replace('"flags"', '"fl\\u0061gs"')


def test_decoder_matches_plain_loads_in_every_layout(oracle_members):
    """Seeded torus maps, flags renumbered, and the tower's rank-6
    extension: every layout of its format-1 and format-2 documents
    decodes to the oracle's rows, each packed into an array('i')."""
    rng = random.Random(suites.SEED)
    members = [oracle_members[-1]]  # the tower's rank 6
    for b, c in rng.sample(suites.TORUS_POOL, 4):
        perms = torus_44(b, c).perms
        sigma = list(range(len(perms[0])))
        rng.shuffle(sigma)
        members.append(Maniplex(renumber(perms, sigma)))
    for m in members:
        for text in [*_layouts(to_json_dict_v1(m)), *_layouts(to_json_dict_v2(m))]:
            decoded = maniplex_from_json(text)
            assert tuple(map(tuple, decoded.perms)) == maniplex_from_json_by_loads(text), text[:80]
            assert decoded.perms == m.perms and all(type(row) is array for row in decoded.perms), text[:80]


def _outcome(decode, text):
    try:
        return decode(text)
    except ValueError as exc:  # FormatError is one
        return type(exc), str(exc)


def _parity_cases():
    """Faults in the square's format-1 text (as version 0.1.0 wrote it)
    and in its format-2 text, and in small hand-written documents."""
    square = platonic("square")
    for text in (dumps_json(to_json_dict_v1(square)), maniplex_to_json(square)):
        yield from (text[:k] for k in range(len(text) + 1))
        yield from (text + tail for tail in ("x", "{}", ",", "]", "}", "\n\n0"))
        yield "\ufeff" + text
    text = dumps_json(to_json_dict_v1(square))
    first = text.index("[", text.index("[", text.index('"perms"')) + 1)  # the first row
    for entry in ("true", "1.0", "[1]", "-1", "8", "null", '"1"', "1e0", "NaN", "1" * 5000):
        yield text[:first + 1] + entry + text[text.index(",", first):]
    text = maniplex_to_json(square)
    first = text.index('"', text.index("[", text.index('"perms"')))  # the first row's opening quote
    last = text.index('"', first + 1)
    row = text[first + 1:last]
    for entry in ("[1, 0]", "null", "1", '""', '"%s"' % row[:-4], '"%s"' % row[1:], '"\u00e9%s"' % row[1:], '"%s"' % row.lower()):
        yield text[:first] + entry + text[last + 1:]
    for fmt in ("1", "3", "2.0", "true", '"2"', "null"):
        yield text.replace('"format": 2', '"format": ' + fmt)
    yield "[" * 200_000
    yield '{"flags": 2, "perms": [' + "[" * 200_000
    yield '{"rank": 1, "flags": 2, "perms": [[1, 0]], "flags": 3}'  # rows read at the flags since overridden
    yield '{"perms": [[1, 0], 5], "rank": 2, "flags": 2}'
    yield '{"rank": 1, "flags": 2, "perms": [[1, 0],]}'
    yield '{"rank": 1, "flags": 2, "perms": [[1, 0]] "x": 1}'
    yield '{"rank": 1, "flags": 2, "perms": []}'
    yield '{"rank": 1, "flags": 2, "perms": [[1, 0]], }'
    yield '{"rank": 1, "flags": 2 "perms": [[1, 0]]}'
    yield "{}"
    yield " \t\n{}\r"


def test_decoder_errors_match_plain_loads():
    """On every input the decoder raises the oracle's exception type and
    message, or decodes the oracle's rows.  An int literal over Python's
    digit limit is a FormatError too, not a bare ValueError."""
    for text in _parity_cases():
        expected = _outcome(maniplex_from_json_by_loads, text)
        got = _outcome(lambda t: tuple(map(tuple, maniplex_from_json(t).perms)), text)
        assert got == expected, text[:80]
    digits = next(text for text in _parity_cases() if "1" * 5000 in text)
    assert _outcome(maniplex_from_json, digits)[0] is FormatError


def test_decoded_rows_are_checked_once(monkeypatch):
    """The decoder checks each row once, with the constructor's check, and
    nothing after it checks the rows it froze again."""
    text = maniplex_to_json(torus_44(2, 1))
    checked = []
    checked_row = core._checked_row
    monkeypatch.setattr(core, "_checked_row", lambda row, i, size: checked.append(len(row)) or checked_row(row, i, size))
    m = maniplex_from_json(text)
    assert validate(m).ok and maniplex_to_json(m) == text
    assert checked == [40, 40, 40]


def test_decode_holds_one_row_of_fresh_ints(bstar_result):
    """Decoding the rank-8 text peaks below 6 MB above it: the rows' base64
    strings, each decoded into its packed row in turn, and no int object
    per entry."""
    m = bstar_result.bstar
    while m.rank < 8:
        m = extend(m, faces(m, m.rank - 1)[0])
    text = maniplex_to_json(m)
    tracemalloc.start()
    try:
        decoded = maniplex_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 2_000_000 and peak < 6_000_000, peak
    assert decoded == m


@pytest.mark.parametrize(
    "doc",
    [
        "[]",
        '{"rank": 1, "flags": 2}',
        '{"rank": 0, "flags": 2, "perms": []}',
        '{"rank": 1, "flags": 2, "perms": [[1]]}',
        '{"rank": 1, "flags": 2, "perms": [[1, 5]]}',
        '{"rank": 1, "flags": 2, "perms": [[true, false]]}',
        '{"rank": 2, "flags": 2, "perms": [[1, 0]]}',
        "not json at all",
        '{"rank": true, "flags": 2, "perms": [[1, 0]]}',  # a JSON boolean decodes to an int
        '{"rank": 1, "flags": true, "perms": [[0]]}',
        pytest.param("[" * 200_000, id="200000 nested arrays"),  # too deep for the decoder's recursion
    ],
)
def test_from_json_rejects(doc):
    with pytest.raises(FormatError):
        maniplex_from_json(doc)


def test_to_json_dict_shape():
    m = platonic("square")
    for doc in (to_json_dict_v1(m), to_json_dict_v2(m)):
        assert maniplex_from_json(json.dumps(doc)).perms == m.perms


def test_to_dot():
    sq = platonic("square")
    dot = to_dot(sq)
    assert dot.count(" -- ") == 8  # two matchings of four edges
    assert dot.count(";") == 1 + 8 + 8  # node default, one per flag, one per edge
    assert "color=red" in dot and "color=green" in dot

    edge = Maniplex(((1, 0),))
    dot = to_dot(edge)
    assert dot.count(" -- ") == 1
    assert "  0;" in dot and "  1;" in dot


def test_dot_palette_cycles():
    rank5 = Maniplex(tuple(tuple(f ^ (1 << i) for f in range(32)) for i in range(5)))
    dot = to_dot(rank5)
    assert f'color={DOT_PALETTE[0]}, label="4"' in dot  # colour 4 reuses the first pen


def test_face_namedtuple():
    face = faces(platonic("square"), 0)[0]
    assert isinstance(face, Face)
    assert face.rank == 0
    assert face.canonical == min(face.flags)

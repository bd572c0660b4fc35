from collections import Counter

import pytest

from maniplex import core, extension, poset
from maniplex.certify import FAIL, PASS, SKIP
from maniplex.core import Face, Maniplex, faces, isomorphic, restrict, validate
from maniplex.corpus import platonic, torus_44
from maniplex.extension import (
    TAG_CODES,
    YProfileUndefined,
    extend,
    verify_extension,
    y_profile,
)
from maniplex.poset import is_faithful, pos_of, section, poset_isomorphism


def statuses(result):
    return {c.name: c.status for c in result.checks}


def test_extend_shape():
    sq = platonic("square")
    ext = extend(sq, faces(sq, 1)[0])
    assert ext.rank == 3
    assert ext.flag_count == 32
    assert validate(ext).ok


def test_extend_rejects_non_facets():
    sq = platonic("square")
    vertex = faces(sq, 0)[0]
    with pytest.raises(ValueError):
        extend(sq, vertex)
    real = faces(sq, 1)[0]
    fake = Face(1, real.canonical, real.flags[:-1])
    with pytest.raises(ValueError):
        extend(sq, fake)
    with pytest.raises(ValueError):
        extend(sq, Face(1, sq.flag_count + 3, real.flags))


def test_old_colours_act_within_tags():
    sq = platonic("square")
    facet = faces(sq, 1)[0]
    ext = extend(sq, facet)
    for i in range(2):
        for f in range(sq.flag_count):
            for code in range(4):
                assert ext.perms[i][4 * f + code] == 4 * sq.perms[i][f] + code


def test_new_colour_twists_by_membership():
    sq = platonic("square")
    facet = faces(sq, 1)[0]
    ext = extend(sq, facet)
    inside = set(facet.flags)
    for f in range(sq.flag_count):
        mask = 3 if f in inside else 1
        for code in range(4):
            assert ext.perms[2][4 * f + code] == 4 * f + (code ^ mask)


def test_tag_swap_is_an_automorphism():
    m = torus_44(2, 1)
    ext = extend(m, faces(m, 2)[0])
    swap = [v ^ 1 for v in range(ext.flag_count)]
    for row in ext.perms:
        assert all(row[swap[v]] == swap[row[v]] for v in range(ext.flag_count))


def test_four_facets_copy_base():
    cube = platonic("cube")
    facet = faces(cube, 2)[0]
    ext = extend(cube, facet)
    top_faces = faces(ext, 3)
    assert len(top_faces) == 4
    for fc in top_faces:
        assert isomorphic(restrict(ext, fc.flags, range(3)), cube) is not None


def test_y_profile_cases_on_cube():
    cube = platonic("cube")
    facet = faces(cube, 2)[0]
    in_facet = set(facet.flags)

    flag_on = facet.canonical
    assert y_profile(cube, facet, flag_on, 2) == frozenset({(0, 0), (1, 1)})

    # distinct faces of the same rank never share a flag, so every other
    # 2-face reads as missing
    flag_off = next(
        face.canonical for face in faces(cube, 2) if not set(face.flags) & in_facet
    )
    assert y_profile(cube, facet, flag_off, 2) == frozenset({(0, 0), (1, 0)})

    off_edge = next(
        face.canonical for face in faces(cube, 1) if not set(face.flags) & in_facet
    )
    assert y_profile(cube, facet, off_edge, 1) == frozenset({(0, 0), (1, 0)})

    # edges and vertices on the facet boundary straddle it
    assert y_profile(cube, facet, facet.canonical, 1) == frozenset(TAG_CODES)
    assert y_profile(cube, facet, facet.canonical, 0) == frozenset(TAG_CODES)


def test_y_profile_refuses_proper_containment():
    m = torus_44(1, 0)
    facet = faces(m, 2)[0]  # all eight flags
    edge = faces(m, 1)[0]  # four of them
    assert set(edge.flags) < set(facet.flags)
    with pytest.raises(YProfileUndefined):
        y_profile(m, facet, edge.canonical, 1)
    with pytest.raises(ValueError):
        y_profile(m, facet, 0, 5)


def test_verify_extension_on_polytopal_base():
    cube = platonic("cube")
    res = verify_extension(cube, faces(cube, 2)[0])
    assert res.ok
    st = statuses(res)
    assert st["polytopal"] == PASS
    assert st["tag-spans-match"] == PASS
    assert st["facet-sections-match-base"] == PASS
    assert st["unfaithfulness-preserved"] == SKIP  # cube is faithful


def test_verify_extension_on_single_facet_base():
    # the smallest torus has one facet holding every flag, so the new
    # colour can only flip both tag bits at once and two tag classes
    # become unreachable: the extension is disconnected and fails cleanly
    m = torus_44(1, 0)
    facet = faces(m, 2)[0]
    assert facet.flags == tuple(range(8))
    res = verify_extension(m, facet)
    assert not res.ok
    st = statuses(res)
    assert st["extension-valid"] == FAIL
    rep = validate(res.extension)
    assert [v.axiom for v in rep.violations] == ["connected"]
    # the other checks still run and report sensibly
    assert st["ridges-in-two-facets"] == PASS
    assert st["unfaithfulness-preserved"] == PASS
    assert st["diamond"] == SKIP  # base is not polytopal
    assert st["polytopal"] == SKIP
    assert not is_faithful(res.extension).faithful
    # the base fiber pair {0, 3} lifts to the marked-sheet pair (0, 12)
    detail = next(c.detail for c in res.checks if c.name == "unfaithfulness-preserved")
    assert detail == (0, 12)


def test_extension_facet_sections(bstar_result):
    m = bstar_result.bstar
    res = verify_extension(m, faces(m, 3)[0])
    assert res.ok
    assert statuses(res)["unfaithfulness-preserved"] == PASS
    ext = res.extension
    assert ext.flag_count == 768
    p = pos_of(ext)
    bottom = p.level(-1)[0]
    for top in p.level(4):
        assert poset_isomorphism(section(p, bottom, top), pos_of(m)) is not None


def test_verify_extension_labels_each_rank_once(bstar_result, monkeypatch):
    calls = Counter()
    labelled = []  # keeps every labelled maniplex alive, so ids stay unique
    components = core.components

    def counting(m, colours):
        colours = tuple(colours)
        labelled.append(m)
        calls[id(m), colours] += 1
        return components(m, colours)

    monkeypatch.setattr(core, "components", counting)
    m = Maniplex(bstar_result.bstar.perms)
    res = verify_extension(m, faces(m, 3)[0])
    assert res.ok
    assert calls and max(calls.values()) == 1
    # only the base and the extension are labelled
    assert {id(x) for x in labelled} == {id(m), id(res.extension)}


def test_verify_extension_one_pass_per_poset(bstar_result, monkeypatch):
    # one polytope report per poset and one flag-function pass per maniplex;
    # the fixture's B* already holds its faithfulness result, so use a fresh copy
    assert not is_faithful(bstar_result.bstar).faithful
    m = Maniplex(bstar_result.bstar.perms)
    calls = Counter()

    def counting(name):
        inner = getattr(poset, name)

        def wrapper(arg):
            calls[name, arg.rank] += 1
            return inner(arg)

        for module in (poset, extension):  # also a name imported into extension
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)

    counting("order_transitivity_witness")
    counting("flag_function")
    res = verify_extension(m, faces(m, 3)[0])
    assert res.ok
    assert calls == {
        ("order_transitivity_witness", 4): 1,
        ("order_transitivity_witness", 5): 1,
        ("flag_function", 4): 1,
        ("flag_function", 5): 1,
    }


def test_second_extension_step(bstar_result):
    m = bstar_result.bstar
    ext5 = verify_extension(m, faces(m, 3)[0]).extension
    res = verify_extension(ext5, faces(ext5, 4)[0])
    assert res.ok
    assert res.extension.flag_count == 3072
    st = statuses(res)
    assert st["diamond"] == PASS
    assert st["strong-flag-connectivity"] == PASS


def test_rank5_extension_face_counts(bstar_result):
    m = bstar_result.bstar
    ext = extend(m, faces(m, 3)[0])
    counts = tuple(len(faces(ext, i)) for i in range(5))
    # doubled faces for disjoint/equal cases, single four-tag faces otherwise
    assert counts == (4, 6, 9, 8, 4)

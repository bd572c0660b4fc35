import sys
import time
from array import array
from collections import Counter, defaultdict

import pytest

from maniplex import core, extension, poset
from maniplex.certify import FAIL, PASS, SKIP, Refusal, all_ok
from maniplex.core import (
    Face,
    FormatError,
    Maniplex,
    face_table,
    faces,
    isomorphic,
    maniplex_from_json,
    maniplex_to_json,
    restrict,
    validate,
    walk_rows,
)
from maniplex.corpus import corpus_names, platonic, torus_44
from maniplex.extension import (
    TAG_CODES,
    _new_colour_twists,
    _quotient,
    _rows_copy_base,
    _tag_spans,
    extend,
    verify_extension,
)
from maniplex.poset import RankedPoset, is_faithful, is_polytope, pos_of, section, poset_isomorphism
from oracles import (
    component_ids_by_search,
    extension_by_entries,
    facet_section_matches_base_by_labels,
    faces_by_bfs,
    faithfulness_by_labels,
    order_isomorphic_by_cover_search,
    polytope_report_by_masks,
    poset_by_labels,
    quotient_by_sides,
    section_by_filter,
    sections_match_base_by_triples,
    tag_spans_by_counts,
    tag_spans_match_by_faces,
)
from suites import TORUS_POOL


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
    with pytest.raises(ValueError):
        extend(sq, Face(1, -1, ()))  # no flag has face id -1


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


def span_over(m, facet, flag, i):
    """The tag span of the extension face over the i-face of the flag; None
    when that face is properly contained in the marked facet."""
    return _tag_spans(m, facet, i)[face_table(m, i)[flag]]


def test_y_profile_cases_on_cube():
    cube = platonic("cube")
    facet = faces(cube, 2)[0]
    in_facet = set(facet.flags)

    flag_on = facet.canonical
    assert span_over(cube, facet, flag_on, 2) == frozenset({(0, 0), (1, 1)})

    # distinct faces of the same rank never share a flag, so every other
    # 2-face reads as missing
    flag_off = next(
        face.canonical for face in faces(cube, 2) if not set(face.flags) & in_facet
    )
    assert span_over(cube, facet, flag_off, 2) == frozenset({(0, 0), (1, 0)})

    off_edge = next(
        face.canonical for face in faces(cube, 1) if not set(face.flags) & in_facet
    )
    assert span_over(cube, facet, off_edge, 1) == frozenset({(0, 0), (1, 0)})

    # edges and vertices on the facet boundary straddle it
    assert span_over(cube, facet, facet.canonical, 1) == frozenset(TAG_CODES)
    assert span_over(cube, facet, facet.canonical, 0) == frozenset(TAG_CODES)


def test_y_profile_refuses_proper_containment():
    m = torus_44(1, 0)
    facet = faces(m, 2)[0]  # all eight flags
    edge = faces(m, 1)[0]  # four of them
    assert set(edge.flags) < set(facet.flags)
    assert span_over(m, facet, edge.canonical, 1) is None
    with pytest.raises(ValueError):
        span_over(m, facet, 0, 5)


def test_verify_extension_on_polytopal_base():
    cube = platonic("cube")
    res = verify_extension(cube, faces(cube, 2)[0])
    assert all_ok(res.checks)
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
    assert not all_ok(res.checks)
    st = statuses(res)
    assert st["extension-valid"] == FAIL
    rep = validate(res.extension)
    assert [v.axiom for v in rep.violations] == ["connected"]
    # the other checks still run and report sensibly
    assert st["ridges-in-two-facets"] == PASS
    assert st["unfaithfulness-preserved"] == PASS
    assert st["diamond"] == SKIP  # base is not polytopal
    assert st["polytopal"] == SKIP
    # it has no faces, so no faithfulness, and carries none up
    assert "faithful" not in res.extension._cache
    with pytest.raises(ValueError, match="only a valid maniplex"):
        is_faithful(res.extension)
    assert not faithfulness_by_labels(res.extension)[0]
    # the base fiber pair {0, 3} lifts to the marked-sheet pair (0, 12)
    detail = next(c.detail for c in res.checks if c.name == "unfaithfulness-preserved")
    assert detail == (0, 12)


def test_verify_extension_over_a_proper_section_failure(section_failure):
    # a valid, faithful base that fails strong flag connectivity between
    # proper faces: the extension is valid and its facets copy the base,
    # and its polytope checks are skipped, as the base is not polytopal
    m = section_failure
    res = verify_extension(m, faces(m, 3)[0])
    st = statuses(res)
    for name in ("extension-valid", "four-facets", "facets-copy-base", "ridges-in-two-facets"):
        assert st[name] == PASS, name
    assert (st["facet-sections-match-base"], st["tag-spans-match"]) == (PASS, PASS)
    assert st["unfaithfulness-preserved"] == SKIP  # the base is faithful
    for name in ("diamond", "strong-flag-connectivity", "polytopal"):
        check = next(c for c in res.checks if c.name == name)
        assert (check.status, check.detail) == (SKIP, "base is not polytopal")
    assert all_ok(res.checks)


def test_extension_facet_sections(bstar_result):
    m = bstar_result.bstar
    res = verify_extension(m, faces(m, 3)[0])
    assert all_ok(res.checks)
    assert statuses(res)["unfaithfulness-preserved"] == PASS
    ext = res.extension
    assert ext.flag_count == 768
    p = pos_of(ext)
    bottom = p.level(-1)[0]
    for top in p.level(4):
        assert poset_isomorphism(section(p, bottom, top), pos_of(m)) is not None


def sections_by_brute_force(p_ext, p_base):
    """Every facet section of p_ext matched to p_base by poset_isomorphism."""
    bottom = p_ext.level(-1)[0]
    return all(
        poset_isomorphism(section(p_ext, bottom, lab), p_base) is not None for lab in p_ext.level(p_base.rank)
    )


def sections_by_cover_search(p_ext, p_base):
    """The same question, answered by the test-only cover search."""
    bottom = p_ext.level(-1)[0]
    return all(
        order_isomorphic_by_cover_search(
            *section_by_filter(p_ext.faces, p_ext.less, bottom, lab), p_base.faces, p_base.less
        )
        for lab in p_ext.level(p_base.rank)
    )


def extension_corpus(bstar):
    """B* and its facet-0 extension (rank 5), the named maps, and the torus
    maps with b, c <= 3, by name."""
    rank5 = extend(bstar, faces(bstar, 3)[0])
    bases = {"B*": bstar, "rank5": rank5}
    bases.update((name, platonic(name)) for name in corpus_names())
    bases.update((f"torus({b},{c})", torus_44(b, c)) for b in range(4) for c in range(4) if b or c)
    return bases


def test_facet_section_check_matches_oracles(bstar_result):
    # every extension over every facet of the extension corpus; the
    # brute-force matcher is the oracle wherever it finishes in well under
    # a second, the cover search everywhere
    bases = extension_corpus(bstar_result.bstar)
    brute = {"B*", "rank5", *corpus_names()}
    brute.update(f"torus({b},{c})" for b in range(3) for c in range(3) if b * b + c * c <= 5)
    checked = 0
    for name, m in bases.items():
        p_base = pos_of(m)
        for facet in faces(m, m.rank - 1):
            res = verify_extension(m, facet)
            status = statuses(res)["facet-sections-match-base"]
            if status == SKIP:  # the base fails the diamond condition
                assert name in ("torus(0,1)", "torus(1,0)", "torus(1,1)"), name
                continue
            p_ext = pos_of(res.extension)
            if name in brute:
                assert (status == PASS) == sections_by_brute_force(p_ext, p_base), (name, facet.canonical)
            assert (status == PASS) == sections_by_cover_search(p_ext, p_base), (name, facet.canonical)
            checked += 1
    assert checked == 133


def test_facet_section_check_is_fast_where_brute_force_is_not():
    # the brute-force matcher took 10-19 s on one facet of torus (3, 1) and
    # refused (3, 3) as too large; here every facet of both, timed
    start = time.perf_counter()
    for b, c in ((3, 1), (3, 3)):
        m = torus_44(b, c)
        for facet in faces(m, 2):
            assert statuses(verify_extension(m, facet))["facet-sections-match-base"] == PASS
    assert time.perf_counter() - start < 10


def moved_pair(p: RankedPoset) -> RankedPoset:
    """p with one order pair (a, b) between ranks 0 and 1 replaced by
    (a, c), c another face of b's rank not above a: as many pairs, other
    structure."""
    a, b = min((a, b) for a, b in p.less if p.rank_of[a] == 0 and p.rank_of[b] == 1)
    c = min(x for x in p.level(1) if (a, x) not in p.less)
    return poset_by_labels(p.rank, p.faces, (p.less - {(a, b)}) | {(a, c)})


def swapped_facets(p: RankedPoset, a: str, b: str) -> RankedPoset:
    """p with the faces labelled a and b trading labels."""
    name = {a: b, b: a}
    return poset_by_labels(p.rank, p.faces, {(name.get(x, x), name.get(y, y)) for x, y in p.less})


def tables_by_search(m: Maniplex) -> list[array]:
    """m's face tables, one per rank, by the oracle's search, for any rows:
    on a valid maniplex, the tables `face_table` gives."""
    n = m.rank
    return [array("i", component_ids_by_search(m.perms, [c for c in range(n) if c != i], m.flag_count)) for i in range(n)]


def poset_by_search(m: Maniplex) -> RankedPoset:
    """The poset `pos_of` indexes from the face tables, from the searched
    ones (`tables_by_search`) and unmarked, for any rows: `pos_of` refuses
    a maniplex that is not valid."""
    ids, n = tables_by_search(m), m.rank
    incident = (((i, j), set(zip(ids[i], ids[j]))) for i in range(n) for j in range(i + 1, n))
    return poset.face_poset(n, [set(row) for row in ids], incident, False)


def over_by_tables(m: Maniplex, ext: Maniplex) -> list:
    """Per rank i < n, base face id c -> the ids of ext's i-faces at the
    flags 4c, ..., 4c + 3, read off ext's own face tables, or its searched
    ones when it is not valid (`tables_by_search`): the map `_quotient`
    reads off the base, for any rows."""
    tables = [face_table(ext, i) for i in range(ext.rank)] if validate(ext).ok else tables_by_search(ext)
    return [{c: tables[i][4 * c : 4 * c + 4] for c in set(face_table(m, i))} for i in range(m.rank)]


def test_facet_section_check_fails_on_mutated_posets():
    cube = platonic("cube")
    ext = extend(cube, faces(cube, 2)[0])
    p_base, p_ext = pos_of(cube), pos_of(ext)
    bottom, label = p_ext.level(-1)[0], "3:0"  # facet 0 is the tag class {4g}
    section_faces, section_less = section_by_filter(p_ext.faces, p_ext.less, bottom, label)
    over = over_by_tables(cube, ext)
    assert extension._sections_match_base(p_base, p_ext, over)
    assert sections_match_base_by_triples(p_base, ext.perms, p_ext)
    assert all(facet_section_matches_base_by_labels(p_base, ext.perms, p_ext, t) for t in range(4))
    assert order_isomorphic_by_cover_search(section_faces, section_less, p_base.faces, p_base.less)

    bad_base = moved_pair(p_base)
    assert not extension._sections_match_base(bad_base, p_ext, over)
    assert not sections_match_base_by_triples(bad_base, ext.perms, p_ext)
    assert not facet_section_matches_base_by_labels(bad_base, ext.perms, p_ext, 0)
    assert poset_isomorphism(section(p_ext, bottom, label), bad_base) is None
    assert not order_isomorphic_by_cover_search(section_faces, section_less, bad_base.faces, bad_base.less)

    bad_ext = moved_pair(p_ext)
    assert not extension._sections_match_base(p_base, bad_ext, over)
    assert not sections_match_base_by_triples(p_base, ext.perms, bad_ext)
    assert not facet_section_matches_base_by_labels(p_base, ext.perms, bad_ext, 0)
    assert poset_isomorphism(section(bad_ext, bottom, label), p_base) is None

    # facet 0 read through tag 1: its section is still a copy of the base,
    # but the faces at the flags 4c + 1 are not the faces below it
    misread = swapped_facets(p_ext, "3:0", "3:1")
    assert poset_isomorphism(section(misread, bottom, "3:1"), p_base) is not None
    assert not extension._sections_match_base(p_base, misread, over)
    assert not sections_match_base_by_triples(p_base, ext.perms, misread)
    assert not facet_section_matches_base_by_labels(p_base, ext.perms, misread, 1)


def test_facet_section_check_needs_a_bijection():
    # torus (1, 0) has two edges with the same vertex and face.  Glue four
    # copies by a new colour that joins both edges of copy 0 through copy 1:
    # facet 0 is still the tag class {4g}, a copy of the base, and every
    # base order pair still maps onto a pair of its section, but the section
    # has one edge, so the face map is not injective and the posets are not
    # isomorphic.  The glued rows are not a valid maniplex, so their faces
    # and poset are the oracle's search's, unmarked
    m = torus_44(1, 0)
    e1, e2 = (face.flags for face in faces(m, 1))
    rows = [tuple(4 * row[f] + t for f in range(8) for t in range(4)) for row in m.perms]
    copy0 = [4 * f for f in e1 + e2]
    copy1 = [4 * f + 1 for f in e1 + e2]
    partners = [copy1[k] for k in (0, 4, 5, 6, 1, 7, 2, 3)]  # e1's first and e2's first flag to e1 of copy 1
    glue = list(range(32))
    for x, y in zip(copy0, partners):
        glue[x], glue[y] = y, x
    for f in range(8):
        glue[4 * f + 2], glue[4 * f + 3] = 4 * f + 3, 4 * f + 2
    ext = Maniplex((*rows, tuple(glue)))
    assert not validate(ext).ok
    with pytest.raises(ValueError, match="only a valid maniplex"):
        pos_of(ext)
    facet = [f for f, c in enumerate(tables_by_search(ext)[3]) if c == 0]
    assert facet == list(range(0, 32, 4))
    assert isomorphic(restrict(ext, facet, range(3)), m) is not None
    p_base, p_ext = pos_of(m), poset_by_search(ext)
    assert not extension._sections_match_base(p_base, p_ext, over_by_tables(m, ext))
    assert not sections_match_base_by_triples(p_base, ext.perms, p_ext)
    assert not facet_section_matches_base_by_labels(p_base, ext.perms, p_ext, 0)
    assert poset_isomorphism(section(p_ext, p_ext.level(-1)[0], "3:0"), p_base) is None


def test_facet_sections_in_one_pass_match_each_facet(bstar_result):
    # the one pass over the order pairs answers as the four per-facet
    # checks do, on the tower's ranks 5-7 and on mutants of each whose
    # facet-t section lost its pair with one ridge: only that facet fails
    m = bstar_result.bstar
    for rank in (5, 6, 7):
        ext = extend(m, faces(m, rank - 2)[0])
        p_base, p_ext, over = pos_of(m), pos_of(ext), over_by_tables(m, ext)
        assert [facet_section_matches_base_by_labels(p_base, ext.perms, p_ext, t) for t in range(4)] == [True] * 4
        assert extension._sections_match_base(p_base, p_ext, over)
        for t in range(4):
            facet = f"{rank - 1}:{t}"
            ridge = min(a for a, b in p_ext.less if b == facet and p_ext.rank_of[a] == rank - 2)
            mutant = poset_by_labels(p_ext.rank, p_ext.faces, p_ext.less - {(ridge, facet)})
            per_facet = [facet_section_matches_base_by_labels(p_base, ext.perms, mutant, u) for u in range(4)]
            assert per_facet == [u != t for u in range(4)], (rank, t)
            assert not extension._sections_match_base(p_base, mutant, over), (rank, t)
            assert not sections_match_base_by_triples(p_base, ext.perms, mutant), (rank, t)
        m = ext


def section_pairs(p: RankedPoset, t: int) -> tuple[tuple[str, ...], frozenset]:
    """The faces strictly inside facet t's section of p, and its order
    pairs, as labels."""
    facet = f"{p.rank - 1}:{t}"
    below = {a for a, b in p.less if b == facet}
    held = below | {facet}
    return tuple(sorted(below - set(p.level(-1)))), frozenset((a, b) for a, b in p.less if a in held and b in held)


def section_mutants(p: RankedPoset, t: int) -> list[RankedPoset]:
    """Two mutants of p, or none when facet t's section has no faces a < b
    and c, of b's rank, not above a: with the pair (a, c) added, and with
    the pair (a, b) moved to (a, c), which keeps the section's faces and
    its count of pairs."""
    inside, _ = section_pairs(p, t)
    rank_of, less = p.rank_of, p.less
    found = (
        (a, b, c)
        for a in inside
        for c in inside
        if rank_of[a] < rank_of[c] and (a, c) not in less
        for b in inside
        if rank_of[b] == rank_of[c] and (a, b) in less
    )
    a, b, c = next(found, (None, None, None))
    if a is None:
        return []
    return [poset_by_labels(p.rank, p.faces, less | {(a, c)}), poset_by_labels(p.rank, p.faces, (less - {(a, b)}) | {(a, c)})]


def section_bases(bstar):
    """name -> base: the tower's ranks 4-6 (B* and its first facet's
    extensions), the cube and every census torus-pool map."""
    bases = {"cube": platonic("cube")}
    bases.update({f"torus_44{bc}": torus_44(*bc) for bc in TORUS_POOL})
    m = bstar
    for rank in (5, 6, 7):
        bases[f"tower{rank - 1}"] = m
        m = extend(m, faces(m, m.rank - 1)[0])
    return bases


def test_facet_sections_match_the_triple_sets(bstar_result):
    # the bit tests and pair counts answer as the sets of (t, a, b) triples
    # do, with the map over each base face and without, on the extensions
    # of the tower's ranks 5-7, of the cube and of the torus pool, and on
    # their mutants: a section with one extra pair, and one with a pair
    # moved, whose count of pairs the bit tests alone tell apart.  Over
    # torus (1, 0) and (0, 1) the extension is not valid: its poset is the
    # search's, unmarked
    tested = 0
    for name, m in section_bases(bstar_result.bstar).items():
        facet = faces(m, m.rank - 1)[0]
        ext = extend(m, facet)
        over, _ = _quotient(m, ext, facet)
        p_base, p_ext = pos_of(m), pos_of(ext) if validate(ext).ok else poset_by_search(ext)
        want = sections_match_base_by_triples(p_base, ext.perms, p_ext)
        assert want == sections_match_base_by_triples(p_base, ext.perms, p_ext, over), name
        assert extension._sections_match_base(p_base, p_ext, over_by_tables(m, ext)) == want, name
        assert extension._sections_match_base(p_base, p_ext, over) == want, name
        if not want:
            continue
        for t in range(4):
            mutants = section_mutants(p_ext, t)
            for mutant in mutants:
                assert not sections_match_base_by_triples(p_base, ext.perms, mutant, over), (name, t)
                assert not extension._sections_match_base(p_base, mutant, over), (name, t)
            if mutants:
                extra, moved = mutants
                assert len(section_pairs(extra, t)[1]) == len(p_base.less) + 1, (name, t)
                assert section_pairs(moved, t)[0] == section_pairs(p_ext, t)[0], (name, t)
                assert len(section_pairs(moved, t)[1]) == len(p_base.less), (name, t)
                tested += 1
    assert tested >= 4 * 5, tested  # every facet of the tower's ranks 5-7 and the cube, and more


def crossed(ext: Maniplex, colour: int = 0, x: int = 0, y: int = 1) -> Maniplex:
    """ext with the edges of the given colour at flags x and y crossed: x
    and y trade partners.  By default flag 0 (tag 0) and flag 1 (tag 1),
    so one colour-0 edge joins tags 0 and 1, and another joins tags 1 and
    0."""
    perms = list(ext.perms)
    row = list(perms[colour])
    a, b = row[x], row[y]
    row[x], row[y], row[a], row[b] = b, a, y, x
    perms[colour] = tuple(row)
    return Maniplex(tuple(perms))


def new_colour_swapped(ext: Maniplex) -> Maniplex:
    """ext with the new colour's edges at flags 0 and 2 crossed: base flag
    0 is then twisted as if it had changed sides of the marked facet."""
    return crossed(ext, ext.rank - 1, 0, 2)


def test_facet_section_check_skips_without_a_flag_isomorphism(monkeypatch):
    # old colours that cross two tags leave no facet a copy of the base, so
    # there is no flag isomorphism to carry the sections by: the rows are
    # not `extend`'s, and the step is refused before any check
    real = extension.extend
    monkeypatch.setattr(extension, "extend", lambda m, facet: crossed(real(m, facet)))
    cube = platonic("cube")
    facet = faces(cube, 2)[0]
    assert not facets_copy_base_by_search(extension.extend(cube, facet), cube)
    with pytest.raises(Refusal, match=r"^rank 4: the old colours fail their row equation$"):
        verify_extension(cube, facet)


def facets_copy_base_by_search(ext: Maniplex, m: Maniplex) -> bool:
    """m is a valid maniplex, and each facet of ext, found by the oracle's
    search, restricted and renumbered, is a valid maniplex isomorphic to
    it."""
    n = m.rank
    subs = (restrict(ext, flags, range(n)) for _, flags in faces_by_bfs(ext.perms, n))
    return validate(m).ok and all(validate(sub).ok and isomorphic(sub, m) is not None for sub in subs)


def test_facets_copy_base_matches_isomorphism_search(bstar_result, two_squares, monkeypatch):
    # over every extension of the extension corpus, `facets-copy-base`
    # passes, as the per-facet isomorphism search agrees, and `four-facets`
    # reports the distinct ids of a fresh copy's searched facet table; a
    # tag-crossing mutant of each, whose facets the search finds are not
    # copies, is refused at the old colours' row equation; a disconnected
    # base, which has no faces, is refused by `verify_extension` and by
    # `extend`
    real = extension.extend
    for canonical, flags in faces_by_bfs(two_squares.perms, 1):
        facet = Face(1, canonical, flags)
        with pytest.raises(ValueError, match="base is not a valid maniplex"):
            verify_extension(two_squares, facet)
        with pytest.raises(ValueError, match="only a valid maniplex has its faces labelled"):
            real(two_squares, facet)
    checked = 0
    for name, m in extension_corpus(bstar_result.bstar).items():
        n = m.rank
        for facet in faces(m, n - 1):
            where = name, facet.canonical
            res = verify_extension(m, facet)
            assert statuses(res)["facets-copy-base"] == PASS and facets_copy_base_by_search(res.extension, m), where
            count = next(c for c in res.checks if c.name == "four-facets")
            searched = component_ids_by_search(res.extension.perms, range(n), res.extension.flag_count)
            assert (count.status, count.detail) == (PASS, len(set(searched))) == (PASS, 4), where
            mutant = crossed(real(m, facet))
            assert not facets_copy_base_by_search(mutant, m), where
            with monkeypatch.context() as patch:
                patch.setattr(extension, "extend", lambda m, f: mutant)
                with pytest.raises(Refusal, match="the old colours fail their row equation"):
                    verify_extension(m, facet)
            checked += 1
    assert checked == 137


def test_tag_spans_match_agrees_with_face_search(bstar_result):
    # over every extension of the extension corpus, the check read off the
    # base poset and the face-by-face search of the extension's own faces
    # agree
    verdicts = Counter()
    for name, m in extension_corpus(bstar_result.bstar).items():
        for facet in faces(m, m.rank - 1):
            ok = extension._tag_spans_match(_quotient(m, extend(m, facet), facet)[1])
            assert ok == tag_spans_match_by_faces(m.perms, facet.flags, extend(m, facet).perms), (name, facet.canonical)
            verdicts[ok] += 1
    assert verdicts == {
        True: 135,
        False: 2,  # torus (1, 0) and (0, 1): each edge lies properly inside the one facet
    }


def test_tag_spans_match_fails_on_a_twisted_new_colour(monkeypatch):
    # a new colour twisted as if base flag 0 had changed sides of the
    # marked facet spans other tags over the base faces than the base
    # poset predicts, as the face search finds; it fails the new colour's
    # row equation, so the step is refused
    real = extension.extend
    monkeypatch.setattr(extension, "extend", lambda m, facet: new_colour_swapped(real(m, facet)))
    cube = platonic("cube")
    facet = faces(cube, 2)[0]
    assert not tag_spans_match_by_faces(cube.perms, facet.flags, extension.extend(cube, facet).perms)
    with pytest.raises(Refusal, match=r"^rank 4: the new colour fails its row equation$"):
        verify_extension(cube, facet)


def test_tag_spans_from_the_base_poset_match_the_counts(b_maniplex, bstar_result):
    # over every facet of B, of the tower's ranks 4-8 and of the extension
    # corpus (its tori have b, c < 4), at every rank below the top, the
    # spans read off the base poset's incidence with the marked facet are
    # those counted over the face table; torus (1, 0) and (0, 1) reach the
    # count for a lower face whose one facet is the marked one
    bases = {"B": b_maniplex, **extension_corpus(bstar_result.bstar)}
    m = bases["rank5"]
    for rank in (6, 7, 8):
        m = extend(m, faces(m, m.rank - 1)[0])
        bases[f"tower{rank}"] = m
    counted = Counter()
    for name, m in bases.items():
        for facet in faces(m, m.rank - 1):
            for i in range(m.rank):
                spans = _tag_spans(m, facet, i)
                assert spans == tag_spans_by_counts(face_table(m, i), facet.flags), (name, facet.canonical, i)
                counted["triples"] += 1
                equal = list(spans.values()).count(frozenset({(0, 0), (1, 1)}))
                counted["lower faces equal to the facet" if i < m.rank - 1 else "facets"] += equal
                counted["lower faces inside the facet"] += list(spans.values()).count(None)
    assert counted == {
        "triples": 519,
        "facets": 153,  # each marked facet
        "lower faces equal to the facet": 2,  # the one vertex of torus (1, 0) and of (0, 1)
        "lower faces inside the facet": 4,  # their two edges
    }


def test_quotient_reads_the_pair_sets_slice_by_slice(bstar_result):
    # the map over each base face, read off the base poset's incidence with
    # the marked facet, equals the oracle's, built entry by entry from
    # whether each base face's flags lie off the marked facet, on it or
    # both, and both refuse the same new-colour rows: on the tower's ranks
    # 5-9 built by `extend`, whose base posets come from their flags; on
    # the tower's ranks 5-8 built by `verify_extension`, whose bases above
    # B* keep the posets it read off their own bases (`_poset_over_base`);
    # and on every extension of the extension corpus and two mutants of
    # each, one with crossed old colours, which `_quotient` does not read,
    # and one with a swapped new colour, which both refuse
    def agree(m, facet, ext, where):
        tables = [face_table(m, i) for i in range(m.rank)]
        want = quotient_by_sides(tables, facet.flags, ext.perms[m.rank])
        read = _quotient(m, ext, facet)
        assert (read and read[0]) == want, where
        if read is not None:  # the spans it read the map from, for `tag-spans-match`
            assert read[1] == [tag_spans_by_counts(table, facet.flags) for table in tables], where
        return want is not None

    m = bstar_result.bstar
    for rank in range(5, 10):
        facet = faces(m, m.rank - 1)[0]
        ext = extend(m, facet)
        assert agree(m, facet, ext, rank)
        m = ext
    m = bstar_result.bstar
    for rank in range(5, 9):
        facet = faces(m, m.rank - 1)[0]
        assert rank == 5 or callable(m._cache[0]), rank  # its poset was read off its base, not its flags
        assert agree(m, facet, extend(m, facet), ("verified", rank))
        m = verify_extension(m, facet).extension
    read = Counter()
    for name, m in extension_corpus(bstar_result.bstar).items():
        for facet in faces(m, m.rank - 1):
            ext = extend(m, facet)
            for kind, built in (("real", ext), ("crossed", crossed(ext)), ("swapped", new_colour_swapped(ext))):
                read[kind, agree(m, facet, built, (name, facet.canonical, kind))] += 1
    assert read == {("real", True): 137, ("crossed", True): 137, ("swapped", False): 137}


def test_verify_extension_groups_only_the_base_facets(bstar_result, monkeypatch):
    # the checks, and the marked facet's lookup, read face ids; none groups
    # a face table into faces
    m = Maniplex(bstar_result.bstar.perms)
    facet = faces(m, 3)[0]
    grouped = []
    for name, module in list(sys.modules.items()):
        if name.startswith("maniplex") and getattr(module, "faces", None) is faces:
            monkeypatch.setattr(module, "faces", lambda mm, i: grouped.append((mm, i)) or faces(mm, i))
    res = verify_extension(m, facet)
    assert all_ok(res.checks)
    assert grouped == []


def test_ridge_check_names_a_ridge_under_one_facet(monkeypatch):
    # drop one ridge-facet pair from the extension's marked poset: that
    # ridge is then under one facet, and the check names it with the count
    cube = platonic("cube")
    ext_poset = pos_of(extend(cube, faces(cube, 2)[0]))
    ridge = ext_poset.level(2)[0]
    facet = min(x for x in ext_poset.level(3) if (ridge, x) in ext_poset.less)
    dropped = marked_without(ext_poset, ext_poset.labels.index(ridge), ext_poset.labels.index(facet))
    monkeypatch.setattr(extension, "pos_of", lambda m: dropped if m.rank == 4 else pos_of(m))
    res = verify_extension(cube, faces(cube, 2)[0])
    check = next(c for c in res.checks if c.name == "ridges-in-two-facets")
    assert (check.status, check.detail) == (FAIL, (ridge, 1))


def test_extend_matches_the_entry_by_entry_oracle(bstar_result):
    """Over every facet of B*, the cube, the hemicube, tori (1,0), (1,1)
    and (2,1) and the tower's ranks 5 to 7, the lanes give the oracle's
    rows, and both row equations hold: the old colours', and the new
    colour's against twists written out flag by flag."""
    bases = [bstar_result.bstar, platonic("cube"), platonic("hemicube"), torus_44(1, 0), torus_44(1, 1), torus_44(2, 1)]
    m = bstar_result.bstar
    for _ in (5, 6, 7):
        m = extend(m, faces(m, m.rank - 1)[0])
        bases.append(m)
    for m in bases:
        for facet in faces(m, m.rank - 1):
            ext = extend(m, facet)
            assert tuple(map(tuple, ext.perms)) == extension_by_entries(m.perms, facet.flags), (m, facet.canonical)
            assert all(type(row) is array for row in ext.perms)
            assert _rows_copy_base(m, ext)
            assert _new_colour_twists(ext.perms[-1], twists_by_flags(m, facet)), (m, facet.canonical)


def twists_by_flags(m: Maniplex, facet: Face) -> array:
    """Base flag g -> 3 when g lies on the facet, 1 when it does not, one
    membership test per flag."""
    inside = set(facet.flags)
    return array("i", (3 if g in inside else 1 for g in range(m.flag_count)))


def new_colour_mutants(m: Maniplex, ext: Maniplex, facet: Face):
    """ext's new-colour row, changed: its edges crossed, an image moved,
    fixed tags, one facet flag twisted by XOR 1, and one entry plus 1 in
    the lane of each tag."""
    yield "swapped", new_colour_swapped(ext).perms[-1]
    yield "out of quad", out_of_quad(ext).perms[-1]
    yield "image moved up", image_moved_up(ext).perms[-1]
    yield "quad 0 fixed", quad_0_fixed(m, ext).perms[-1]
    yield "fixed tags on a facet", fixed_tags_on_a_facet(m, ext).perms[-1]
    flipped = array("i", ext.perms[-1])
    g = facet.flags[-1]
    flipped[4 * g : 4 * g + 4] = array("i", (4 * g + (t ^ 1) for t in range(4)))
    yield "twist flipped", flipped
    for t in range(4):
        bumped = array("i", ext.perms[-1])
        bumped[8 + t] += 1
        yield f"+1 in lane {t}", bumped


def test_new_colour_equation_fails_on_every_new_colour_mutant(bstar_result, monkeypatch):
    # over every facet of the cube and of B*, each mutant of the new colour
    # fails its row equation, so `_quotient` reads nothing off the base and
    # `verify_extension` refuses the step, naming the equation
    for m in (platonic("cube"), bstar_result.bstar):
        for facet in faces(m, m.rank - 1):
            ext = extend(m, facet)
            twists = twists_by_flags(m, facet)
            assert _new_colour_twists(ext.perms[-1], twists)
            seen = []
            for name, row in new_colour_mutants(m, ext, facet):
                assert row != ext.perms[-1], name
                assert not _new_colour_twists(row, twists), (name, facet.canonical)
                mutant = Maniplex((*ext.perms[:-1], row))
                assert _quotient(m, mutant, facet) is None, (name, facet.canonical)
                with monkeypatch.context() as patch:
                    patch.setattr(extension, "extend", lambda m, f: mutant)
                    with pytest.raises(Refusal, match=rf"^rank {m.rank + 1}: the new colour fails its row equation$"):
                        verify_extension(m, facet)
                seen.append(name)
            assert len(seen) == 10


def row_mutants(ext: Maniplex):
    """ext with its first row changed: one entry plus 1 in each lane t, two
    entries swapped, one entry short, and the same values as a tuple row
    with one entry 1 written as True.  The constructor refuses the last
    two."""
    first = ext.perms[0]
    for t in range(4):
        bumped = array("i", first)
        bumped[8 + t] += 1
        yield f"+1 in lane {t}", bumped
    swapped = array("i", first)
    swapped[4], swapped[9] = swapped[9], swapped[4]
    yield "swapped", swapped
    yield "short", first[:-1]
    k = list(first).index(1)
    yield "tuple", tuple(True if f == k else v for f, v in enumerate(first))


def test_row_equation_fails_on_every_row_mutant(bstar_result):
    m = bstar_result.bstar
    ext = extend(m, faces(m, 3)[0])
    seen = []
    for name, row in row_mutants(ext):
        if name in ("short", "tuple"):
            with pytest.raises(FormatError):
                Maniplex((row, *ext.perms[1:]))
        else:
            assert not _rows_copy_base(m, Maniplex((row, *ext.perms[1:]))), name
        seen.append(name)
    assert len(seen) == 7


def test_extension_rows_share_one_int_per_flag(bstar_result):
    m = bstar_result.bstar
    ext = extend(m, faces(m, 3)[0])
    view = walk_rows(ext)
    assert len({id(v) for row in view for v in row}) == ext.flag_count
    # the faces hold the walk view's int objects too
    held = {id(f) for face in faces(ext, 4) for f in face.flags}
    assert held <= {id(v) for row in view for v in row}


def test_tower_rows_are_packed_and_never_walked(bstar_result):
    """The tower's extensions, certified and round-tripped as the tower
    is, hold array('i') rows and build no walk view; so do their decoded
    copies, which equal them and hash as they do."""
    m = bstar_result.bstar
    for rank in (5, 6, 7):
        res = verify_extension(m, faces(m, rank - 2)[0])
        assert all_ok(res.checks)
        m = res.extension
        decoded = maniplex_from_json(maniplex_to_json(m))
        assert decoded == m and hash(decoded) == hash(m)
        for held in (m, decoded):
            assert all(type(row) is array and row.typecode == "i" for row in held.perms), rank
            assert "walk" not in held._cache, rank


def counting_searches(monkeypatch):
    """Patch the flag-graph search to count its calls by (maniplex, colours),
    keeping every searched maniplex alive so that ids stay unique."""
    calls = Counter()
    searched = []
    component_ids = core._component_ids

    def counting(m, cols):
        cols = tuple(cols)
        searched.append(m)
        calls[id(m), cols] += 1
        return component_ids(m, cols)

    monkeypatch.setattr(core, "_component_ids", counting)
    return calls


def test_verify_extension_labels_each_rank_once(bstar_result, monkeypatch):
    calls = counting_searches(monkeypatch)
    m = Maniplex(bstar_result.bstar.perms)
    res = verify_extension(m, faces(m, 3)[0])
    assert all_ok(res.checks)
    # the base gets one search per rank, and validate walks its spanning tree
    # (`_spanning_tree`), not a search; the extension, read off the base, gets none
    assert sorted(calls.elements()) == sorted([(id(m), tuple(c for c in range(4) if c != i)) for i in range(4)])
    assert "tree" in m._cache
    assert not any(who == id(res.extension) for who, _ in calls)


def out_of_quad(ext: Maniplex) -> Maniplex:
    """ext with the new colour's edges at flags 0 and 4 crossed: flag 0's
    new-colour image leaves its quad {0, 1, 2, 3}."""
    return crossed(ext, ext.rank - 1, 0, 4)


def image_moved_up(ext: Maniplex) -> Maniplex:
    """ext with flag 3's new-colour image moved up one quad, from p(3) to
    4 + p(3): the new colour is no longer an involution, yet the moved
    image still names tag p(3) modulo 4, and no other image moves."""
    row = list(ext.perms[-1])
    row[3] += 4
    return Maniplex((*ext.perms[:-1], tuple(row)))


MUTANTS = (  # (name, mutation, the row equation it fails)
    ("crossed", crossed, "old colours"),
    ("crossed in tags 1, 2", lambda ext: crossed(ext, 0, 1, 2), "old colours"),  # every tag-0 entry still copies the base
    ("swapped", new_colour_swapped, "new colour"),
    ("out of quad", out_of_quad, "new colour"),
    ("image moved up", image_moved_up, "new colour"),
)


def assert_read_off_base(m: Maniplex, res) -> None:
    """Every face table, the validation report and the face poset that
    verify_extension left in the extension's cache equal those computed
    from a fresh copy's flags: its face tables, the full validate and the
    flag-based pos_of.  An extension that is not valid has its tables
    refused, and its poset equals the one built from the oracle's searched
    tables, unmarked.  So do the checks it decides by argument:
    `four-facets` and `facets-copy-base` the searched facet table's count
    and whether it is the tag classes, and `unfaithfulness-preserved`
    whether the base witness of the label-string oracle lifts to flags
    with the same searched face ids of an unfaithful extension."""
    ext = res.extension
    fresh = Maniplex(ext.perms)
    n = ext.rank
    valid = ext._cache["valid"].ok
    assert ext._cache["valid"] == validate(fresh)
    if valid:
        tables = [face_table(fresh, i) for i in range(n)]
        assert [face_table(ext, i) for i in range(n)] == tables
        want = pos_of(fresh)
    else:  # torus (1, 0) and (0, 1)
        tables = tables_by_search(fresh)
        for i in range(n):
            with pytest.raises(ValueError, match="only a valid maniplex"):
                face_table(ext, i)
        want = poset_by_search(fresh)
    got = ext._cache["poset"]
    assert (got.rank, got.labels, got.ranks) == (want.rank, want.labels, want.ranks)
    assert set(got.pairs) == set(want.pairs) and len(got.pairs) == len(want.pairs)
    assert got == want and got.down == want.down
    assert got.of_valid_maniplex == want.of_valid_maniplex == valid
    checks = {c.name: (c.status, c.detail) for c in res.checks}
    facets = len(set(tables[n - 1]))
    assert checks["four-facets"] == (PASS if facets == 4 else FAIL, facets)
    tag_classes = tables[n - 1] == array("i", range(4)) * m.flag_count
    assert checks["facets-copy-base"] == (PASS if tag_classes else FAIL, None)
    base_faithful, witness = faithfulness_by_labels(Maniplex(m.perms))
    if base_faithful:
        assert checks["unfaithfulness-preserved"] == (SKIP, "base is faithful")
    else:
        x, y = 4 * witness[0], 4 * witness[1]
        lifted = all(table[x] == table[y] for table in tables)
        preserved = lifted and not faithfulness_by_labels(fresh)[0]
        assert checks["unfaithfulness-preserved"] == (PASS if preserved else FAIL, (x, y))


def test_extension_read_off_base_matches_its_flags(bstar_result, two_squares, monkeypatch):
    # over every extension of the extension corpus, the tables, report and
    # poset that verify_extension keeps, and the checks it decides by
    # argument, equal the flag-based ones.  The face tables are read off the
    # base, and so is the validation unless the extension is disconnected,
    # when the full validate runs for its witnesses.  Each of five mutants
    # of each extension fails a row equation, and the step is refused,
    # naming it.  A disconnected base is refused before any of it
    real = extension.extend
    calls = counting_searches(monkeypatch)
    validated = []
    full_validate = core._validate
    monkeypatch.setattr(core, "_validate", lambda m: validated.append(m) or full_validate(m))
    paths = Counter()
    for name, m in extension_corpus(bstar_result.bstar).items():
        for facet in faces(m, m.rank - 1):
            calls.clear()
            validated.clear()
            res = verify_extension(m, facet)
            ext = res.extension
            searches = [len(cols) for who, cols in calls if who == id(ext)]
            paths["real", m.rank not in searches, not any(x is ext for x in validated)] += 1
            assert_read_off_base(m, res)
            for kind, mutate, equation in MUTANTS:
                mutant = mutate(real(m, facet))
                with monkeypatch.context() as patch:
                    patch.setattr(extension, "extend", lambda m, f: mutant)
                    with pytest.raises(Refusal, match=rf"^rank {m.rank + 1}: the {equation} fail"):
                        verify_extension(m, facet)
                paths[kind, equation] += 1
    assert paths == {
        # (real, tables read off, validation read off)
        ("real", True, True): 135,
        ("real", True, False): 2,  # torus (1, 0) and (0, 1): the extension is disconnected
        # (mutant, the row equation it fails)
        ("crossed", "old colours"): 137,
        ("crossed in tags 1, 2", "old colours"): 137,
        ("swapped", "new colour"): 137,
        ("out of quad", "new colour"): 137,
        ("image moved up", "new colour"): 137,
    }
    for canonical, flags in faces_by_bfs(two_squares.perms, 1):
        with pytest.raises(ValueError, match="base is not a valid maniplex"):
            verify_extension(two_squares, Face(1, canonical, flags))


def quad_0_fixed(m: Maniplex, ext: Maniplex) -> Maniplex:
    """ext with the new colour fixing the flags 0..3 of quad 0."""
    return Maniplex((*ext.perms[:-1], (0, 1, 2, 3) + tuple(ext.perms[-1][4:])))


def fixed_tags_on_a_facet(m: Maniplex, ext: Maniplex) -> Maniplex:
    """ext with the new colour swapping tags 0 and 2 and fixing tags 1 and
    3 at every flag of m's last facet: the pattern is the same along every
    edge of colour i <= n - 2, and with the other facets' patterns it still
    joins all four tags, so only fixed-point freedom fails."""
    ids = face_table(m, m.rank - 1)
    row = list(ext.perms[-1])
    for g in range(m.flag_count):
        if ids[g] == max(ids):
            row[4 * g : 4 * g + 4] = (4 * g + 2, 4 * g + 1, 4 * g, 4 * g + 3)
    return Maniplex((*ext.perms[:-1], tuple(row)))


def test_fast_validation_matches_full_on_mutants(monkeypatch):
    # each new-colour mutant breaks an axiom, which the full validate of
    # its own flags names: the swapped new colour breaks a square, a new
    # colour that fixes quad 0 breaks fixed-point freedom and the squares,
    # and one with fixed tags on a whole facet breaks fixed-point freedom
    # alone.  Each fails the new colour's row equation, so the step is
    # refused and no certificate is made
    real = extension.extend
    cube = platonic("cube")
    facet = faces(cube, 2)[0]
    for mutate, axioms in (
        (lambda m, ext: new_colour_swapped(ext), {"square"}),
        (quad_0_fixed, {"fixed-point-free", "square"}),
        (fixed_tags_on_a_facet, {"fixed-point-free"}),
    ):
        mutant = mutate(cube, real(cube, facet))
        assert {v.axiom for v in validate(mutant).violations} == axioms
        monkeypatch.setattr(extension, "extend", lambda m, f: mutant)
        with pytest.raises(Refusal, match=r"^rank 4: the new colour fails its row equation$"):
            verify_extension(cube, facet)


def test_tower_read_off_base_matches_its_flags(bstar_result, monkeypatch):
    # ranks 5 to 8, each over the facet of flag 0, each extension read off
    # its base with no search over its own flags
    calls = counting_searches(monkeypatch)
    m = bstar_result.bstar
    for rank in range(5, 9):
        calls.clear()
        res = verify_extension(m, faces(m, m.rank - 1)[0])
        assert all_ok(res.checks), rank
        assert not any(who == id(res.extension) for who, _ in calls), rank
        assert_read_off_base(m, res)
        m = res.extension
    assert m.flag_count == 49152


def test_tower_tables_on_demand_and_faithfulness_carried_over_every_facet(bstar_result):
    # ranks 5 to 8, over each of the base's four facets, the base being the
    # facet-0 extension one rank down: verify_extension leaves no flag-sized
    # face table below rank n until one is read; each table, then built
    # from the map over the base, equals the search over a fresh copy's
    # flags; the poset read off the base (`_poset_over_base`), its proper
    # pairs in set order, has the labels, ids, masks and pair set of the
    # fresh copy's, built from those tables; and the faithfulness result
    # carried up from the base's witness (0, w) equals a fresh is_faithful
    # and the label-string oracle
    m = bstar_result.bstar
    for rank in range(5, 9):
        n = m.rank
        for facet in faces(m, n - 1):
            ext = verify_extension(m, facet).extension
            where = rank, facet.canonical
            assert not any(isinstance(ext._cache.get(i), array) for i in range(n)), where
            fresh = Maniplex(ext.perms)
            carried = ext._cache["faithful"]
            assert carried == is_faithful(fresh) == (False, (0, 4 ** (rank - 4))), where
            assert tuple(carried) == faithfulness_by_labels(fresh), where
            for i in range(n):
                assert face_table(ext, i) == face_table(fresh, i), (*where, i)  # the fresh copy's is a search
            got, want = ext._cache["poset"], pos_of(fresh)
            assert (got.labels, got.ids, got.up, got.down) == (want.labels, want.ids, want.up, want.down), where
            assert frozenset(got.pairs) == frozenset(want.pairs) and len(got.pairs) == len(want.pairs), where
            if facet.canonical == 0:
                base = ext
        m = base
    assert m.flag_count == 49152


# a map of 16 flags (4 edges) whose flags 0..7 have chains of their own;
# its witness (14, 15) does not start at flag 0
_MIXED_MAP = (
    (3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12),
    (5, 14, 9, 6, 11, 0, 3, 12, 13, 2, 15, 4, 7, 8, 1, 10),
    (1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14),
)


def test_base_witness_off_flag_0_carries_nothing():
    # the base pair lifts, but the lifted pair is not the extension's witness,
    # so no faithfulness result is carried up
    m = Maniplex(_MIXED_MAP)
    assert validate(m).ok and is_faithful(m) == (False, (14, 15))
    for facet in faces(m, 2):
        res = verify_extension(m, facet)
        assert statuses(res)["unfaithfulness-preserved"] == PASS
        assert "faithful" not in res.extension._cache
        assert is_faithful(res.extension) == faithfulness_by_labels(res.extension) == (False, (40, 44))


def test_faithful_base_carries_faithfulness_up(monkeypatch):
    # over every facet of the cube and the hemicube, and the first and last
    # facet of each pool torus (a torus's facets are alike under its
    # rotations), the extension of a faithful base is judged faithful with
    # no chain listed for its flags; the carried result, and the
    # certificate's observation, equal a fresh is_faithful and the
    # label-string oracle
    chained = []
    inner = poset.flag_function
    monkeypatch.setattr(poset, "flag_function", lambda m: chained.append(m) or inner(m))
    bases = {"cube": platonic("cube"), "hemicube": platonic("hemicube")}
    bases.update({f"torus_44{bc}": torus_44(*bc) for bc in TORUS_POOL})
    carried = Counter()
    for name, m in bases.items():
        faithful = is_faithful(m).faithful
        facets = faces(m, m.rank - 1)
        for facet in facets if name in ("cube", "hemicube") else (facets[0], facets[-1]):
            chained.clear()
            res = verify_extension(m, facet)
            ext, fresh = res.extension, Maniplex(res.extension.perms)
            observed = next(c.detail for c in res.checks if c.name == "extension-faithful-observed")
            if faithful:
                assert ext._cache["faithful"] == (True, None) and not any(x is ext for x in chained), name
            want = faithfulness_by_labels(fresh)
            if validate(fresh).ok:
                assert is_faithful(ext) == is_faithful(fresh) == want, (name, facet.canonical)
            else:  # torus (1, 0) and (0, 1): the extension has no faces, so no faithfulness
                for x in (ext, fresh):
                    with pytest.raises(ValueError, match="only a valid maniplex"):
                        is_faithful(x)
            assert observed == want[0], (name, facet.canonical)
            carried[faithful] += 1
    assert carried == {True: 119, False: 4}  # torus (1, 0) and (0, 1), one facet each, are unfaithful


def test_extend_of_a_decoded_base_is_sound(bstar_result, monkeypatch):
    # extend builds its rows from a sound base in range, so it makes the
    # maniplex with no check of them, and neither the encoder nor
    # verify_extension checks them; a maniplex built from edited rows is
    # still refused
    text = maniplex_to_json(extend(bstar_result.bstar, faces(bstar_result.bstar, 3)[0]))
    m = maniplex_from_json(text)
    checked = []
    checked_row = core._checked_row
    monkeypatch.setattr(core, "_checked_row", lambda row, i, size: checked.append(len(row)) or checked_row(row, i, size))
    facet = faces(m, 4)[0]
    ext = extend(m, facet)
    written = maniplex_to_json(ext)
    res = verify_extension(m, facet)
    maniplex_to_json(res.extension)
    assert all_ok(res.checks) and checked == []
    assert maniplex_from_json(written) == ext
    last = tuple(ext.perms[-1][:-1]) + (ext.flag_count,)
    with pytest.raises(FormatError, match=rf"perms\[5\] entry out of range: {ext.flag_count}"):
        Maniplex(ext.perms[:-1] + (last,))
    assert checked


def test_verify_extension_one_pass_per_poset(bstar_result, monkeypatch):
    # one polytope search, the base's: the extension's report follows from
    # its facets by amalgamation; and at most one flag-function pass per
    # maniplex: the base's; the lifted base pair proves the extension
    # unfaithful without one.  The fixture's B* already holds its
    # faithfulness result, so use a fresh copy
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

    counting("_judge")
    counting("flag_function")
    res = verify_extension(m, faces(m, 3)[0])
    assert all_ok(res.checks)
    assert calls == {
        ("_judge", 4): 1,
        ("flag_function", 4): 1,
    }


def counting_judgements(monkeypatch) -> list:
    """Patch the axiom search to record each poset it judges."""
    judged = []
    inner = poset._judge
    monkeypatch.setattr(poset, "_judge", lambda p: judged.append(p) or inner(p))
    return judged


def test_amalgamated_reports_equal_a_fresh_search(bstar_result, monkeypatch):
    # on the tower's ranks 5-8 over each of the base's four facets, and on
    # every extension of the extension corpus: the report a step left on
    # the extension's poset equals a fresh search of that poset and the
    # mask reference's full test of it, which checks transitivity,
    # boundedness, gradedness and the sections at the least and greatest
    # faces too, and the step searched it exactly when a premise of the
    # amalgamation failed; with a base that is not polytopal it left no
    # report at all
    judged = counting_judgements(monkeypatch)
    paths = Counter()

    def step(name, m, facet):
        judged.clear()
        res = verify_extension(m, facet)
        p, st = pos_of(res.extension), statuses(res)
        if st["polytopal"] == SKIP:
            assert p._report is None, (name, facet.canonical)
            paths["base not polytopal"] += 1
            return res.extension
        premises = ("facet-sections-match-base", "ridges-in-two-facets", "extension-valid")
        amalgamated = all(st[check] == PASS for check in premises)
        assert any(q is p for q in judged) != amalgamated, (name, facet.canonical)
        report = p._report
        assert report == poset._judge(p), name
        assert (report.ok, report.failed, report.witness) == polytope_report_by_masks(p), name
        paths["amalgamated" if amalgamated else "searched"] += 1
        return res.extension

    m = bstar_result.bstar
    for rank in range(5, 9):
        exts = [step(f"tower{rank}", m, facet) for facet in faces(m, m.rank - 1)]
        m = exts[0]
    assert paths == {"amalgamated": 16}
    paths.clear()
    for name, m in extension_corpus(bstar_result.bstar).items():
        for facet in faces(m, m.rank - 1):
            step(name, m, facet)
    # torus (1, 0), (0, 1) and (1, 1) fail the diamond condition; every
    # other base's extension meets all four premises
    assert paths == {"amalgamated": 133, "base not polytopal": 4}


def marked_without(p: RankedPoset, a: int, b: int) -> RankedPoset:
    """The face poset p, rebuilt by `face_poset` and marked, without the
    order pair (a, b) of proper faces, given by face numbers."""
    levels = [set() for _ in range(p.rank)]
    for r, c in zip(p.ranks[1:-1], p.ids[1:-1]):
        levels[r].add(c)
    incident = defaultdict(set)
    top = len(p.labels) - 1
    for x, y in p.pairs:
        if 0 < x and y < top and (x, y) != (a, b):
            incident[p.ranks[x], p.ranks[y]].add((p.ids[x], p.ids[y]))
    return poset.face_poset(p.rank, levels, incident.items(), True)


def test_each_failed_premise_falls_back_to_the_search(monkeypatch):
    # the cube's extension, with each premise of the amalgamation made to
    # fail in turn: the step searches the extension's poset and reports
    # what the search finds, or, over a base that is not polytopal, skips
    # the polytope checks and leaves no report
    judged = counting_judgements(monkeypatch)
    cube = platonic("cube")
    facet = faces(cube, 2)[0]
    real_pos_of = extension.pos_of

    def step(base=cube):
        judged.clear()
        res = verify_extension(base, facet)
        p = extension.pos_of(res.extension)  # the poset the step read
        return statuses(res), p, any(q is p for q in judged)

    st, p, searched = step()
    assert all(st[c] == PASS for c in ("facet-sections-match-base", "ridges-in-two-facets", "polytopal"))
    assert not searched and p._report == poset._judge(p)

    with monkeypatch.context() as patch:
        patch.setattr(extension, "_sections_match_base", lambda *args: False)
        st, p, searched = step()
        assert searched and p._report == poset._judge(p) and p._report.ok
        assert (st["facet-sections-match-base"], st["polytopal"]) == (FAIL, PASS)

    with monkeypatch.context() as patch:
        # one ridge-facet pair dropped from a marked poset: the ridge lies
        # in one facet, and the sections are made to match
        whole = real_pos_of(extend(cube, facet))
        ridge = whole.ranks.index(2)
        dropped = marked_without(whole, ridge, next(k for k in range(len(whole.labels)) if whole.up[ridge] >> k & 1))
        patch.setattr(extension, "pos_of", lambda m: dropped if m.rank == 4 else real_pos_of(m))
        patch.setattr(extension, "_sections_match_base", lambda *args: True)
        st, p, searched = step()
        assert p is dropped and dropped.of_valid_maniplex
        assert searched and p._report == poset._judge(p) and not p._report.ok
        assert (st["facet-sections-match-base"], st["ridges-in-two-facets"], st["polytopal"]) == (PASS, FAIL, FAIL)

    base = Maniplex(cube.perms)
    validate(base)
    pos_of(base)._report = poset.PolytopeReport(False, "strong-flag-connectivity", ("0:0", "3:0"))
    st, p, searched = step(base)
    assert not searched and p._report is None
    assert (st["facet-sections-match-base"], st["polytopal"]) == (PASS, SKIP)


def test_every_invalid_extension_has_a_base_that_is_not_polytopal(bstar_result):
    # over every facet of the extension corpus, an extension that fails
    # `extension-valid` is one whose marked facet holds every base flag,
    # so the base, with one facet, fails the diamond condition: its
    # polytope checks are skipped with the base's, and its unmarked poset
    # is never judged.  Torus (1, 0) and (0, 1) are the only such bases
    invalid = []
    for name, m in extension_corpus(bstar_result.bstar).items():
        for facet in faces(m, m.rank - 1):
            res = verify_extension(m, facet)
            if statuses(res)["extension-valid"] == PASS:
                continue
            invalid.append(name)
            assert len(facet.flags) == m.flag_count and is_polytope(pos_of(m)).failed == "diamond", name
            p = pos_of(res.extension)
            assert not p.of_valid_maniplex and p._report is None, name
            skipped = {c.name: (c.status, c.detail) for c in res.checks[-3:]}
            assert skipped == dict.fromkeys(("diamond", "strong-flag-connectivity", "polytopal"), (SKIP, "base is not polytopal"))
    assert invalid == ["torus(0,1)", "torus(1,0)"]


def test_second_extension_step(bstar_result):
    m = bstar_result.bstar
    ext5 = verify_extension(m, faces(m, 3)[0]).extension
    res = verify_extension(ext5, faces(ext5, 4)[0])
    assert all_ok(res.checks)
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

import random

import pytest

from maniplex.core import Maniplex
from maniplex.corpus import platonic, torus_44
from maniplex.coxeter import verdict
from oracles import (
    act,
    coset_words_by_levels,
    in_stabilizer,
    schreier_report,
    shortest_lex_words_brute,
    stabilizer_label,
)


def test_act_basics():
    sq = platonic("square")
    assert act(sq.perms, (), 3) == 3
    for i in range(2):
        for f in range(8):
            assert act(sq.perms, (i,), f) == sq.perms[i][f]


def test_act_is_rightmost_first():
    sq = platonic("square")
    for f in range(8):
        assert act(sq.perms, (0, 1), f) == sq.perms[0][sq.perms[1][f]]


def test_act_composes():
    m = torus_44(2, 1)
    rng = random.Random(7)
    for _ in range(50):
        u = tuple(rng.randrange(3) for _ in range(rng.randrange(6)))
        v = tuple(rng.randrange(3) for _ in range(rng.randrange(6)))
        f = rng.randrange(m.flag_count)
        assert act(m.perms, u + v, f) == act(m.perms, u, act(m.perms, v, f))


def test_coset_words_against_brute_force():
    for m in (platonic("square"), torus_44(1, 0)):
        expected = shortest_lex_words_brute(m.perms, 0, max_len=8)
        assert coset_words_by_levels(m.perms, 0) == tuple(expected[f] for f in range(m.flag_count))


def test_coset_words_reach_their_flags():
    m = torus_44(2, 1)
    words = coset_words_by_levels(m.perms, 0)
    assert words[0] == ()
    for f, w in enumerate(words):
        assert act(m.perms, w, 0) == f
    # shortest-lex means prefixes are themselves coset representatives
    assert all(w[1:] in words for w in words if w)


def test_coset_words_other_base():
    m = platonic("cube")
    words = coset_words_by_levels(m.perms, 5)
    assert words[5] == ()
    assert all(act(m.perms, w, 5) == f for f, w in enumerate(words))


def test_coset_words_requires_connected():
    two_edges = Maniplex(((1, 0, 3, 2),))
    with pytest.raises(ValueError):
        coset_words_by_levels(two_edges.perms, 0)


def test_in_stabilizer():
    sq = platonic("square")
    assert in_stabilizer(sq.perms, 0, ())
    assert in_stabilizer(sq.perms, 0, (0, 0))
    assert not in_stabilizer(sq.perms, 0, (0,))


def test_relators_act_trivially_on_quotient(b_maniplex):
    from maniplex.counterexample import B_PRESENTATION

    for rel in B_PRESENTATION.relators:
        for f in range(0, b_maniplex.flag_count, 5):
            assert act(b_maniplex.perms, rel, f) == f


def test_schreier_correspondence_on_corpus(named_corpus, b_maniplex):
    for m in named_corpus.values():
        rep = schreier_report(m.perms, 0)
        assert rep.ok
        assert len(rep.words) == m.flag_count
    assert schreier_report(b_maniplex.perms, 0).ok


def test_schreier_report_holds_on_every_verdict_input(schreier_members, two_squares):
    # `verdict` writes schreier_ok without building a word, by the argument
    # in the `coxeter` docstring; here the report is computed in full
    for m, bases in schreier_members:
        for base in bases:
            rep = schreier_report(m.perms, base)
            assert rep.ok and len(rep.words) == m.flag_count, (m.rank, m.flag_count, base)
    assert len(schreier_members) == 61  # torus (b, 0) and (0, b) are one map
    assert max(m.flag_count for m, _ in schreier_members) == 12288  # the tower's rank 7
    with pytest.raises(ValueError):  # the one member that is not connected
        schreier_report(two_squares.perms, 0)


def test_cover_stabilizer_is_strictly_smaller(bstar_result):
    b = bstar_result.b
    bstar = bstar_result.bstar
    w = coset_words_by_levels(bstar.perms, 0)[1]
    # the word moves sheet 0 to sheet 1 upstairs yet fixes the base flag
    assert act(bstar.perms, w, 0) == 1
    assert act(b.perms, w, 0) == 0


def test_verdict_summaries(b_maniplex, bstar_result):
    vb = verdict(b_maniplex)
    assert vb.sparse and vb.semisparse
    assert vb.witness is None
    assert vb.summary == "semisparse"

    vs = verdict(bstar_result.bstar)
    assert vs.sparse and not vs.semisparse
    assert vs.witness == (0, 1)
    assert vs.summary == "sparse, not semisparse"


def test_verdict_on_tori():
    assert verdict(torus_44(2, 1)).summary == "semisparse"
    v11 = verdict(torus_44(1, 1))
    assert not v11.sparse and not v11.semisparse
    assert v11.summary == "not sparse"
    assert v11.witness is not None
    v10 = verdict(torus_44(1, 0))
    assert v10.summary == "not sparse"


def test_verdict_of_a_proper_section_failure_and_of_an_invalid_map(section_failure, two_squares):
    # faithful, but not sparse: the witness is the section between proper
    # faces that the poset search names; a maniplex that is not valid has
    # no verdict
    v = verdict(section_failure)
    assert (v.sparse, v.semisparse, v.summary) == (False, False, "not sparse")
    assert v.witness == ("strong-flag-connectivity", ("0:0", "3:0"))
    with pytest.raises(ValueError, match="valid maniplex"):
        verdict(Maniplex(two_squares.perms))


def test_verdict_is_base_independent(b_maniplex):
    # renumber the flags so that flag 17 becomes the base flag 0
    swap = list(range(b_maniplex.flag_count))
    swap[0], swap[17] = 17, 0
    moved = Maniplex(tuple(tuple(swap[row[g]] for g in swap) for row in b_maniplex.perms))
    assert moved != b_maniplex
    assert verdict(moved) == verdict(b_maniplex)


def test_stabilizer_labels():
    assert stabilizer_label((), 0) == "W0·e·N"
    assert stabilizer_label((1, 2), 5) == "W5·r1r2·N"

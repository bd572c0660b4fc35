"""Bulk property checks shared by the unit tests and the acceptance run.

Each suite raises AssertionError on the first violated property and returns
the number of individual cases it exercised.
"""

from maniplex.core import (
    Maniplex,
    automorphism_count,
    components,
    isomorphic,
    restrict,
    validate,
)
from maniplex.corpus import torus_44
from maniplex.coxeter import verdict
from maniplex.poset import (
    is_faithful,
    is_polytopal,
    maximal_chains,
    pos_of,
)
from maniplex.voltage import canonical_edge, double_cover
from oracles import act, flag_function, flag_graph_by_chains, schreier_report

SEED = 20260825

# every torus map {4,4}_(b,c) with b, c >= 0 and at most 512 flags
TORUS_POOL = tuple((b, c) for b in range(9) for c in range(9) if 1 <= b * b + c * c <= 64)


def torus_automorphisms(b, c):
    """Closed form: {4,4}_(b,c) is reflexible, with 8n automorphisms, when
    bc(b - c) = 0, and chiral, with 4n, otherwise; n = b^2 + c^2."""
    n = b * b + c * c
    return 8 * n if b * c * (b - c) == 0 else 4 * n


def trivial_extensions(rng):
    """Rank-4 two-orbit maniplexes that are not chiral, from two chiral
    pool tori on at most 160 flags, drawn by rng: two copies of a torus,
    flags f and f + N, joined by a new colour f <-> f + N that commutes
    with every old colour, with its flags renumbered by a permutation that
    rng draws.  The swap of the copies is an automorphism, so the new
    colour's image of flag 0 lies in its orbit, while r_0(0) of a chiral
    torus does not.  Each torus gives two: the new colour on top, class
    2_{3} (the lemma's j = 0), and at the bottom, the old colours shifted
    up by one, class 2_{0} (j = 1).  Returned as (maniplex, I) pairs."""
    chiral = [(b, c) for b, c in TORUS_POOL if b * c * (b - c) and b * b + c * c <= 20]
    members = []
    for b, c in rng.sample(chiral, 2):
        rows = [tuple(row) for row in torus_44(b, c).perms]
        size = len(rows[0])
        old = [row + tuple(f + size for f in row) for row in rows]
        new = tuple(range(size, 2 * size)) + tuple(range(size))
        sigma = rng.sample(range(2 * size), 2 * size)
        inverse = sorted(range(2 * size), key=sigma.__getitem__)
        for table, kept in (([*old, new], {3}), ([new, *old], {0})):
            members.append((Maniplex(tuple(tuple(sigma[row[g]] for g in inverse) for row in table)), kept))
    return members


def suite_square_axiom(members):
    """Distant colour pairs commute on every flag."""
    cases = 0
    for m in members:
        for i in range(m.rank):
            for j in range(i + 2, m.rank):
                ri, rj = m.perms[i], m.perms[j]
                for f in range(m.flag_count):
                    assert ri[rj[f]] == rj[ri[f]]
                    cases += 1
    return cases


def suite_component_refinement(members, rng, trials=5):
    """Components over a colour subset refine components over a superset."""
    cases = 0
    for m in members:
        for _ in range(trials):
            sup = [c for c in range(m.rank) if rng.random() < 0.7]
            if not sup:
                sup = [rng.randrange(m.rank)]
            sub = [c for c in sup if rng.random() < 0.6]
            if not sub:
                sub = sup[:1]
            coarse = {}
            for comp in components(m, sup):
                for f in comp.flags:
                    coarse[f] = comp.canonical
            for comp in components(m, sub):
                owners = {coarse[f] for f in comp.flags}
                assert len(owners) == 1
            cases += 1
    return cases


def suite_zero_voltage_cover(members):
    """The trivial voltage yields two exact copies, hence no maniplex."""
    cases = 0
    for m in members:
        cover = double_cover(m, frozenset())
        evens = range(0, cover.flag_count, 2)
        odds = range(1, cover.flag_count, 2)
        assert restrict(cover, evens, range(m.rank)).perms == m.perms
        assert restrict(cover, odds, range(m.rank)).perms == m.perms
        assert not validate(cover).ok  # two components
        cases += 1
    return cases


def suite_sheet_swap(members, rng, trials=5):
    """Every double cover commutes with the deck swap v -> v^1."""
    cases = 0
    for m in members:
        all_edges = sorted(
            {canonical_edge(m, f, c) for c in range(m.rank) for f in range(m.flag_count)}
        )
        for _ in range(trials):
            chosen = [e for e in all_edges if rng.random() < 0.25]
            cover = double_cover(m, frozenset(chosen))
            for row in cover.perms:
                assert all(row[v ^ 1] == row[v] ^ 1 for v in range(cover.flag_count))
            cases += 1
    return cases


def suite_poset_roundtrip(members):
    """Faithful polytopal maniplexes are recovered from their face posets."""
    cases = 0
    for m in members:
        if not (is_faithful(m).faithful and is_polytopal(m)):
            continue
        p = pos_of(m)
        assert isomorphic(Maniplex(flag_graph_by_chains(p.faces, p.less)), m) is not None
        cases += 1
    assert cases >= 5  # the corpus must exercise this path
    return cases


def suite_quotient_commutes(base, cover, rng, trials=1000):
    """Acting upstairs then projecting equals projecting then acting."""
    assert cover.flag_count == 2 * base.flag_count
    cases = 0
    for _ in range(trials):
        w = tuple(rng.randrange(base.rank) for _ in range(rng.randrange(21)))
        v = rng.randrange(cover.flag_count)
        assert act(cover.perms, w, v) // 2 == act(base.perms, w, v // 2)
        cases += 1
    return cases


def suite_automorphism_bounds(members):
    """The automorphism count divides the flag count; equality is reflexibility."""
    cases = 0
    for m in members:
        info = automorphism_count(m)
        assert m.flag_count % info.count == 0
        assert info.is_reflexible == (info.count == m.flag_count)
        cases += 1
    return cases


def suite_chain_counts(members, chain_limit=60):
    """Flag chains hit every level and count the flags exactly when faithful."""
    cases = 0
    for m in members:
        table = flag_function(m)
        assert len(table.chains) == m.flag_count
        assert sum(len(v) for v in table.fibers.values()) == m.flag_count
        distinct = set(table.chains.values())
        assert len(distinct) == len(table.fibers)
        assert (len(distinct) == m.flag_count) == is_faithful(m).faithful
        assert all(len(chain) == m.rank + 2 for chain in distinct)
        if m.flag_count <= chain_limit:
            assert distinct <= set(maximal_chains(pos_of(m)))
        cases += 1
    return cases


def suite_schreier_words(members):
    """Coset words are shortest-lex, reach their flags, and nest by prefix."""
    cases = 0
    for m in members:
        words = schreier_report(m.perms, 0).words
        assert words[0] == ()
        for f, w in enumerate(words):
            assert act(m.perms, w, 0) == f
            assert not w or w[1:] in words
            cases += 1
    return cases


def suite_torus_census(pool):
    """Each torus map is a valid maniplex on 8n flags, semisparse exactly when
    n >= 4, with its closed-form automorphism count."""
    cases = 0
    for b, c in pool:
        m = torus_44(b, c)
        n = b * b + c * c
        assert m.flag_count == 8 * n and validate(m).ok, (b, c)
        assert verdict(m).summary == ("semisparse" if n >= 4 else "not sparse"), (b, c)
        assert automorphism_count(m).count == torus_automorphisms(b, c), (b, c)
        cases += 1
    return cases

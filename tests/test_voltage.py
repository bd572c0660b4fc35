import random

import pytest

from maniplex.core import FormatError, Maniplex, components, from_int_rows, restrict, validate, walk_rows
from maniplex.corpus import platonic, torus_44
from maniplex.voltage import canonical_edge, double_cover, lift_connected
from oracles import component_ids_by_search, cover_graph, cover_is_maniplex, double_cover_by_flags, square_parities, voltage_edges
from suites import SEED

NO_VOLTAGE = frozenset()


def test_canonical_edge():
    sq = platonic("square")
    f = 0
    g = sq.perms[1][f]
    assert canonical_edge(sq, f, 1) == canonical_edge(sq, g, 1) == (min(f, g), 1)


def test_double_cover_swaps_sheets_from_both_endpoints():
    sq = platonic("square")
    f, g = 0, sq.perms[0][0]
    cover = double_cover(sq, frozenset({canonical_edge(sq, g, 0)}))
    for s in (0, 1):
        assert cover.perms[0][2 * f + s] == 2 * g + (1 - s)
        assert cover.perms[0][2 * g + s] == 2 * f + (1 - s)


def test_zero_voltage_gives_two_copies():
    m = platonic("hemicube")
    cover = double_cover(m, NO_VOLTAGE)
    evens = [2 * f for f in range(m.flag_count)]
    odds = [2 * f + 1 for f in range(m.flag_count)]
    assert restrict(cover, evens, range(m.rank)).perms == m.perms
    assert restrict(cover, odds, range(m.rank)).perms == m.perms
    assert len(set(component_ids_by_search(cover.perms, range(m.rank), cover.flag_count))) == 2
    # the two-part criterion is vacuously happy here, yet the cover splits
    assert cover_is_maniplex(m, NO_VOLTAGE).holds
    assert not validate(cover).ok


def test_single_edge_on_polygon_connects_cover():
    sq = platonic("square")  # flag graph is an 8-cycle
    edges = voltage_edges(sq, [(0, 0)])
    assert cover_is_maniplex(sq, edges).holds
    cover = double_cover(sq, edges)
    assert validate(cover).ok
    assert len(components(cover, range(2))) == 1
    assert cover.flag_count == 16


def test_all_edges_on_polygon_disconnects_cover():
    sq = platonic("square")
    edges = voltage_edges(sq, [(f, c) for f in range(8) for c in range(2)])
    assert not cover_is_maniplex(sq, edges).holds
    assert not validate(double_cover(sq, edges)).ok  # bipartite base graph, fully twisted cover splits


def test_odd_square_breaks_cover():
    cube = platonic("cube")
    # exactly one nontrivial edge inside some (0, 2) square makes its lift an 8-cycle
    sq = next(p for p in square_parities(cube, NO_VOLTAGE) if p.colours == (0, 2))
    edges = voltage_edges(cube, [(sq.canonical, 0)])
    report = cover_is_maniplex(cube, edges)
    assert not report.holds
    assert report.odd_square is not None
    assert report.odd_square.parity == 1
    bad = validate(double_cover(cube, edges))
    assert any(v.axiom == "square" for v in bad.violations)


def test_square_parities_counts():
    cube = platonic("cube")
    parities = square_parities(cube, NO_VOLTAGE)
    assert len(parities) == 12  # one (0,2) square per edge of the cube
    assert all(p.parity == 0 for p in parities)


def test_sheet_swap_commutes():
    m = platonic("hemioctahedron")
    cover = double_cover(m, voltage_edges(m, [(0, 0), (1, 1), (4, 2)]))
    swap = [v ^ 1 for v in range(cover.flag_count)]
    for row in cover.perms:
        assert all(row[swap[v]] == swap[row[v]] for v in range(cover.flag_count))


def test_projection_and_sheet():
    # cover flag 2f + s is flag f on sheet s: a trivial edge keeps the sheet,
    # a nontrivial one swaps it
    m = platonic("square")
    edges = voltage_edges(m, [(0, 0)])
    cover = double_cover(m, edges)
    for i, row in enumerate(cover.perms):
        for v in range(cover.flag_count):
            f, s = divmod(v, 2)
            assert row[v] == 2 * m.perms[i][f] + (s ^ (canonical_edge(m, f, i) in edges))
    assert cover.perms[0][0] == 2 * m.perms[0][0] + 1


def test_lift_connected_validates_input():
    m = platonic("cube")
    with pytest.raises(ValueError):
        lift_connected(m, NO_VOLTAGE, [], (0, 1))
    with pytest.raises(ValueError):
        lift_connected(m, NO_VOLTAGE, [0], (0,))  # not closed under colour 0
    face0 = [f for f in range(m.flag_count)]
    assert not lift_connected(m, NO_VOLTAGE, face0, range(3))  # zero voltage never connects


def test_lift_connected_positive(b_maniplex, etheta):
    assert lift_connected(b_maniplex, etheta, range(b_maniplex.flag_count), range(4))


def test_cover_graph_three_cycle():
    n, edges = cover_graph(3, [(0, 1), (1, 2), (2, 0)], [0])
    assert n == 6
    assert len(edges) == 6
    # one twisted edge over an odd cycle gives a single 6-cycle
    adj = {v: set() for v in range(6)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    assert len(seen) == 6


def test_double_cover_of_valid_base_is_involutive():
    m = torus_44(2, 1)
    cover = double_cover(m, voltage_edges(m, [(0, 0)]))
    for row in cover.perms:
        assert all(row[row[v]] == v for v in range(cover.flag_count))


def involution_rows(rng, size, rank):
    """rank random involutions of size flags, some with fixed points."""
    rows = []
    for _ in range(rank):
        flags = list(range(size))
        rng.shuffle(flags)
        row = list(range(size))
        for k in range(rng.randint(0, size // 2)):
            f, g = flags[2 * k], flags[2 * k + 1]
            row[f], row[g] = g, f
        rows.append(tuple(row))
    return tuple(rows)


def test_double_cover_matches_flag_by_flag_oracle(b_maniplex, etheta):
    """The lane-built cover has the oracle's rows and walk view, and the
    same `validate` report, on B over E_theta and on seeded random edge
    sets over B, the cube, a torus map and random involutions with fixed
    points.  The random sets hold canonical edges, the same edges keyed
    by their upper endpoints, and pairs whose flag or colour is out of
    range; all but the canonical edges are ignored."""
    rng = random.Random(SEED)
    bases = [b_maniplex, platonic("cube"), torus_44(2, 1)]
    bases += [Maniplex(involution_rows(rng, rng.randint(1, 40), rng.randint(1, 4))) for _ in range(20)]
    cases = [(b_maniplex, etheta)]
    for m in bases:
        size, n = m.flag_count, m.rank
        stray = [(-1, 0), (size, 0), (size + 3, n - 1), (0, n), (0, -1), (size - 1, n + 2), (-size, n)]
        for _ in range(10):
            pairs = [(f, c) for f in range(size) for c in range(n) if rng.random() < 0.2]
            pairs += rng.sample(stray, rng.randint(0, len(stray)))
            cases.append((m, frozenset(pairs)))
    upper = 0
    for m, edges in cases:
        upper += any(f > m.perms[c][f] for f, c in edges if 0 <= c < m.rank and 0 <= f < m.flag_count)
        cover = double_cover(m, edges)
        want = double_cover_by_flags(tuple(map(tuple, m.perms)), edges)
        assert tuple(map(tuple, cover.perms)) == want
        assert walk_rows(cover) == want
        assert validate(cover) == validate(from_int_rows(want))
    assert upper >= len(cases) // 2, upper


def test_double_cover_refuses_an_unsound_base():
    """An unsound base never reaches `double_cover`: the constructor
    refuses it."""
    with pytest.raises(FormatError, match=r"^perms\[0\] entry out of range: 2$"):
        double_cover(Maniplex(((1, 2),)), frozenset())

"""The flag-sized kernels of `maniplex.core` against the oracles: face
labelling (`_component_ids`), isomorphism and automorphism counting
(`_propagate`), `validate`'s reports, the row decoder and the
constructor's range check (`_lanes_in_range`), on seeded random row sets (involutions, permutations and
arbitrary maps), on seeded random rank-3 maps, on mutants and on the
package's own maniplexes.  The isomorphism and automorphism kernels
refuse every input that is not a valid maniplex, so the oracles are
compared with them on the valid ones."""

import collections
import itertools
import json
import random
from array import array

import pytest

import suites
from maniplex import core
from maniplex.core import (
    FormatError,
    Maniplex,
    automorphism_count,
    dual,
    face_table,
    faces,
    isomorphic,
    maniplex_from_json,
    validate,
)
from maniplex.corpus import platonic, torus_44
from maniplex.cosets import coset_enumerate, string_coxeter
from maniplex.extension import extend
from test_poset import random_map
from oracles import (
    automorphism_count_by_propagation,
    bad_entry_by_scan,
    base64_row,
    brute_isomorphisms,
    component_ids_by_search,
    isomorphism_by_propagation,
    maniplex_from_json_by_loads,
    partition_by_merging,
    polygon_flag_graph,
    propagate_by_bfs,
    renumber,
    violations_by_scan,
)

RANDOM_SETS = 5000
BRUTE_FLAGS = 5  # brute_isomorphisms tries every permutation of this many flags


@pytest.fixture(scope="module")
def kernel_members(named_corpus, b_maniplex, bstar_result):
    """name -> maniplex: the named corpus, every census torus-pool map, the
    24-cell and the rank-5 regular polytopes, B, B*, the tower's
    extensions of ranks 5 to 7, the segment (rank 1) and the hexagon."""
    members = dict(named_corpus)
    members.update({f"torus_44{bc}": torus_44(*bc) for bc in suites.TORUS_POOL})
    for name, symbol in (("24cell", (3, 4, 3)), ("5simplex", (3, 3, 3, 3)), ("5cube", (4, 3, 3, 3))):
        members[name] = coset_enumerate(string_coxeter(symbol)).to_maniplex()
    members["5orthoplex"] = dual(members["5cube"])
    members["B"], members["B*"] = b_maniplex, bstar_result.bstar
    m = bstar_result.bstar
    for rank in (5, 6, 7):
        m = extend(m, faces(m, m.rank - 1)[0])
        members[f"tower{rank}"] = m
    members["segment"], members["hexagon"] = Maniplex(((1, 0),)), Maniplex(polygon_flag_graph(6))
    return members


def random_row(rng, size):
    """A row of one of four kinds: an involution with as many 2-cycles as
    fit (fixed-point-free on an even size), an involution with fixed
    points, a permutation, or any map of the flags into themselves."""
    kind = rng.randrange(4)
    if kind == 3:
        return tuple(rng.randrange(size) for _ in range(size))
    flags = list(range(size))
    rng.shuffle(flags)
    if kind == 2:
        return tuple(flags)
    row = list(range(size))
    for k in range(size // 2 if kind == 0 else rng.randint(0, size // 2)):
        f, g = flags[2 * k], flags[2 * k + 1]
        row[f], row[g] = g, f
    return tuple(row)


def random_rows(rng, max_size):
    size = rng.randint(1, max_size)
    return tuple(random_row(rng, size) for _ in range(rng.randint(1, 4)))


def random_maps(rng, count):
    """The rows of the valid ones of count seeded random rank-3 maps
    (`test_poset.random_map`) of 8 to 32 flags, and of their duals."""
    maps = [random_map(rng, rng.randint(2, 8)) for _ in range(count)]
    return [tuple(map(tuple, x.perms)) for m in maps if validate(m).ok for x in (m, dual(m))]


def is_involution(row):
    return all(row[row[f]] == f for f in range(len(row)))


def partition_of(ids):
    """The classes of a labelling, each checked to be labelled by its least flag."""
    groups = {}
    for f, c in enumerate(ids):
        groups.setdefault(c, []).append(f)
    assert all(c == flags[0] for c, flags in groups.items())
    return sorted(map(tuple, groups.values()))


def single_swap(rows, rng):
    """One row with two of its entries exchanged."""
    i, size = rng.randrange(len(rows)), len(rows[0])
    f, g = rng.randrange(size), rng.randrange(size)
    row = list(rows[i])
    row[f], row[g] = row[g], row[f]
    return (*rows[:i], tuple(row), *rows[i + 1:])


def colour_swap(rows, rng):
    """Two rows with their entries at one flag exchanged."""
    if len(rows) < 2:
        return single_swap(rows, rng)
    i, j = rng.sample(range(len(rows)), 2)
    f = rng.randrange(len(rows[0]))
    out = [list(row) for row in rows]
    out[i][f], out[j][f] = rows[j][f], rows[i][f]
    return tuple(map(tuple, out))


def truncated(rows, rng):
    """One row with its last entry cut off."""
    i = rng.randrange(len(rows))
    return (*rows[:i], rows[i][:-1], *rows[i + 1:])


def result_or_value_error(fn, *args):
    """fn's result, or the class ValueError when it raises one."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def test_component_ids_match_oracles_on_random_rows():
    """On random row sets and on random rank-3 maps and their duals, with
    random colour sequences, fresh and after `validate`, the labels are
    those one search per unreached flag gives, and on involutions they are
    the orbits; both the cycle walk (a valid maniplex) and the search are
    taken often."""
    rng = random.Random(suites.SEED)
    cases = [random_rows(rng, 9) for _ in range(RANDOM_SETS)] + random_maps(random.Random(suites.SEED + 10), 1000)
    walked = searched = 0
    for rows in cases:
        size = len(rows[0])
        cols = rng.sample(range(len(rows)), rng.randint(1, len(rows)))
        want = component_ids_by_search(rows, cols, size)
        fresh, checked = Maniplex(rows), Maniplex(rows)
        validate(checked)
        for m in (fresh, checked):
            assert list(core._component_ids(m, cols)) == want, (rows, cols)
        if all(is_involution(rows[c]) for c in cols):
            assert partition_of(want) == partition_by_merging(rows, cols, size)
        if validate(checked).ok:
            walked += 1
        else:
            searched += 1
    assert walked >= 1000 and searched >= 1000, (walked, searched)


def test_component_ids_on_every_colour_set(kernel_members):
    """Every colour set of every member is labelled by its orbits, each by
    its least flag, along the cycles (a colour two or more away from the
    walked pair read once per cycle), on a fresh copy, which
    `_component_ids` validates itself, and on one validated first."""
    for name, m in kernel_members.items():
        rows = tuple(map(tuple, m.perms))
        fresh, checked = Maniplex(rows), Maniplex(rows)
        assert validate(checked).ok, name
        for k in range(1, m.rank + 1):
            for cols in itertools.combinations(range(m.rank), k):
                want = partition_by_merging(rows, cols, m.flag_count)
                for x in (fresh, checked):
                    assert partition_of(core._component_ids(x, cols)) == want, (name, cols)


def valid_rows(rows):
    return validate(Maniplex(rows)).ok


def test_isomorphic_and_automorphisms_match_oracles_on_random_rows():
    """On random row sets, and on random rank-3 maps and their duals,
    against a renumbering, another random set or map and a mutant:
    `isomorphic` and `automorphism_count` refuse, with ValueError, every
    input that is not a valid maniplex.  On valid ones, `isomorphic` gives
    the oracle propagation's map or None, and up to 5 flags the least map
    brute force finds; `automorphism_count` counts the images the oracle
    propagates, and up to 5 flags all of brute force's maps."""
    rng = random.Random(suites.SEED + 1)
    cases = [random_rows(rng, 7) for _ in range(RANDOM_SETS)] + random_maps(random.Random(suites.SEED + 12), 150)
    counts = collections.Counter()
    for k, rows in enumerate(cases):
        size = len(rows[0])
        if k % 3 == 0:
            sigma = list(range(size))
            rng.shuffle(sigma)
            other = renumber(rows, sigma)
        elif k % 3 == 1:
            other = tuple(random_row(rng, size) for _ in rows) if k < RANDOM_SETS else edge_switch(rows, rng)
        else:
            other = single_swap(rows, rng) if k < RANDOM_SETS else tuple(map(tuple, random_map(rng, size // 4).perms))
        got = result_or_value_error(isomorphic, Maniplex(rows), Maniplex(other))
        count = result_or_value_error(lambda m: automorphism_count(m).count, Maniplex(rows))
        small = size <= BRUTE_FLAGS
        if not (valid_rows(rows) and valid_rows(other)):
            assert got is ValueError, (rows, other)
            counts["refused"] += 1
        else:
            assert got == isomorphism_by_propagation(rows, other), (rows, other)
            if small:
                maps = brute_isomorphisms(rows, other)
                assert got == (maps[0] if maps else None), (rows, other)
            counts["compared", got is not None] += 1
            counts["brute"] += small
        if not valid_rows(rows):
            assert count is ValueError, rows
            continue
        assert count == automorphism_count_by_propagation(rows), rows
        if small:
            assert count == len(brute_isomorphisms(rows, rows)), rows
        counts["counted"] += 1
    assert counts["compared", True] >= 200 and counts["compared", False] >= 100, counts
    assert counts["counted"] >= 400 and counts["brute"] >= 84 and counts["refused"] >= 4000, counts


def test_isomorphic_and_automorphisms_on_members_and_mutants(kernel_members):
    """Each member against a renumbering of itself, and each member of up
    to 1 152 flags against its dual, agree with the oracle propagation, as
    do those members' automorphism counts.  Up to 200 flags, a
    single-swap, a colour-swap and an edge-switched mutant of each, against
    the member and itself, agree with the oracle when valid and are
    refused otherwise.  A larger member's renumbering keeps flag 0, so
    that the first image tried is taken.  The segment and the hexagon,
    which rank 1 and rank 2 walk along one colour and one cycle, are
    pinned."""
    rng = random.Random(suites.SEED + 2)
    mutants = collections.Counter()
    for name, m in kernel_members.items():
        rows = tuple(map(tuple, m.perms))
        small = m.flag_count <= 1152
        sigma = list(range(m.flag_count))
        rng.shuffle(sigma)
        if not small:
            k = sigma.index(0)
            sigma[0], sigma[k] = sigma[k], sigma[0]
        others = [renumber(rows, sigma)] + ([tuple(map(tuple, dual(m).perms))] if small else [])
        for other in others:
            assert isomorphic(m, Maniplex(other)) == isomorphism_by_propagation(rows, other), name
        if small:
            assert automorphism_count(m).count == automorphism_count_by_propagation(rows), name
        if m.flag_count <= 200:
            for mutate in (single_swap, colour_swap, edge_switch):
                mutant = mutate(rows, rng)
                valid = valid_rows(mutant)
                want = isomorphism_by_propagation(mutant, rows) if valid else ValueError
                assert result_or_value_error(isomorphic, Maniplex(mutant), m) == want, name
                want = isomorphism_by_propagation(rows, mutant) if valid else ValueError
                assert result_or_value_error(isomorphic, m, Maniplex(mutant)) == want, name
                count = result_or_value_error(lambda x: automorphism_count(x).count, Maniplex(mutant))
                assert count == (automorphism_count_by_propagation(mutant) if valid else ValueError), name
                mutants[mutate.__name__, valid] += 1
    assert mutants["edge_switch", True] >= 15 and mutants["single_swap", False] >= 40, mutants
    segment, hexagon = kernel_members["segment"], kernel_members["hexagon"]
    assert isomorphic(segment, Maniplex(((1, 0),))) == (0, 1)
    assert automorphism_count(segment) == (2, True)
    assert list(face_table(segment, 0)) == [0, 1]  # no colour left: each flag alone
    assert segment._cache["tree"] == (array("i", [0]), array("B", [0]), None)
    assert isomorphic(hexagon, Maniplex(polygon_flag_graph(6))) == tuple(range(12))
    assert automorphism_count(hexagon) == (12, True)
    assert [len(set(face_table(hexagon, i))) for i in range(2)] == [6, 6]
    assert hexagon._cache["tree"] == (array("i", [0]), array("B", [0]), None)  # one cycle holds every flag


def edge_switch(rows, rng):
    """One row with two of its 2-cycles (f, r f) and (g, r g) exchanged for
    (f, g) and (r f, r g): an involution stays one, fixed-point-free when
    it was."""
    i = rng.randrange(len(rows))
    row = list(rows[i])
    f, g = rng.sample(range(len(row)), 2)
    rf, rg = row[f], row[g]
    if len({f, g, rf, rg}) == 4:
        row[f], row[g], row[rf], row[rg] = g, f, rg, rf
    return (*rows[:i], tuple(row), *rows[i + 1:])


def test_isomorphic_along_cycles(kernel_members):
    """`_propagate` carries a map along the cycles of colours 0 and 1 and
    checks only the colours past 1, with no one-to-one test.  Each member
    of up to 1 152 flags, and up to 200 flags three edge-switched mutants
    of it, against a renumbering of the member, its dual, every other
    member of its rank and size, and up to 200 flags a single-swap, a
    colour-swap and an edge-switched mutant of it, agree with the oracle
    propagation when both are valid; any other pair is refused."""
    rng = random.Random(suites.SEED + 3)
    members = [m for m in kernel_members.values() if m.flag_count <= 1152]
    paths = collections.Counter()
    for m in members:
        rows = tuple(map(tuple, m.perms))
        small = m.flag_count <= 200
        sigma = list(range(m.flag_count))
        rng.shuffle(sigma)
        others = [x for x in members if x is not m and (x.rank, x.flag_count) == (m.rank, m.flag_count)]
        targets = [renumber(rows, sigma), *(tuple(map(tuple, x.perms)) for x in (dual(m), *others))]
        targets += [mutate(rows, rng) for mutate in (single_swap, colour_swap, edge_switch)] if small else []
        sources = [rows] + ([edge_switch(rows, rng) for _ in range(3)] if small else [])
        for target in targets:
            dst = Maniplex(target)
            for source in sources:
                src = Maniplex(source)
                valid = validate(src).ok and validate(dst).ok
                want = isomorphism_by_propagation(source, target) if valid else ValueError
                assert result_or_value_error(isomorphic, src, dst) == want, m
                paths[valid] += 1
    assert paths[True] >= 481 and paths[False] >= 400, paths


def test_closing_edges_are_checked():
    """The cube with the face of flag 0 halved is valid, and agrees with the
    cube on every edge but the closing colour-1 edges of its two halves,
    the cycles y_0, ..., y_3 and y_4, ..., y_7 of the face's cycle
    y_0 = 0, y_1 = r_0 y_0, y_2 = r_1 y_1, ...; its walk enters the second
    half at y_4 or y_7.  So the identity passes every check but those
    edges', and no image extends onto the validated cube, as the oracle
    finds."""
    cube = platonic("cube")
    r0, r1 = cube.perms[0], list(cube.perms[1])
    y = [0]
    while len(y) < 8:
        y.append((r0 if len(y) % 2 else r1)[y[-1]])
    r1[y[0]], r1[y[3]], r1[y[4]], r1[y[7]] = y[3], y[0], y[7], y[4]
    halved = Maniplex((r0, r1, cube.perms[2]))
    assert validate(cube).ok and validate(halved).ok
    assert next(f for f in core._spanning_tree(halved)[0] if f in y[4:]) in (y[4], y[7])
    assert isomorphic(halved, cube) is None
    assert isomorphism_by_propagation(tuple(map(tuple, halved.perms)), tuple(map(tuple, cube.perms))) is None


def test_disconnected_source_gives_partial_maps(two_squares):
    """A source whose flag 0 does not reach every flag: the oracle
    propagation's first map is partial, and `isomorphic` and
    `automorphism_count` refuse it, as it is not a valid maniplex, where
    the oracle counts each image the partial propagation takes."""
    square, hexagon = polygon_flag_graph(4), polygon_flag_graph(6)
    for rows, images in (
        (tuple(map(tuple, two_squares.perms)), 16),
        (tuple(a + tuple(f + 8 for f in b) for a, b in zip(square, hexagon)), 8),
        (tuple(a + tuple(f + 12 for f in b) for a, b in zip(hexagon, square)), 12),
    ):
        m = Maniplex(rows)
        with pytest.raises(ValueError, match="only valid maniplexes"):
            isomorphic(m, m)
        with pytest.raises(ValueError, match="disconnected"):
            isomorphism_by_propagation(rows, rows)
        with pytest.raises(ValueError, match="only a valid maniplex"):
            automorphism_count(m)
        assert automorphism_count_by_propagation(rows) == images


def test_validate_reports_match_scan_on_mutants(kernel_members):
    """On every member and random row set, and on their single-swap,
    colour-swap and truncated-row mutants, `validate` reports the oracle's
    violations and witnesses in its order; the constructor refuses a
    truncated-row mutant, as the decoder refuses its document, when its
    rows differ in length or hold an entry past the shortened flags."""
    rng = random.Random(suites.SEED + 3)
    cases = [tuple(map(tuple, m.perms)) for m in kernel_members.values()]
    cases += [random_rows(rng, 9) for _ in range(RANDOM_SETS // 5)]
    ragged = 0
    for rows in cases:
        for mutate in (None, single_swap, colour_swap, truncated):
            perms = rows if mutate is None else mutate(rows, rng)
            m = decoded_or_error(Maniplex, perms)
            if not isinstance(m, Maniplex):
                text = json.dumps({"rank": len(perms), "flags": len(perms[0]), "perms": perms})
                assert m == decoded_or_error(maniplex_from_json_by_loads, text) and mutate is truncated
                ragged += 1
                continue
            report = validate(m)
            want = violations_by_scan(perms)
            assert [(v.axiom, v.witness) for v in report.violations] == want, perms[:2]
            assert report.ok == (not want)
    assert ragged >= len(cases) // 2, ragged


FOREIGN = ("true", "false", "1.0", "1e0", '"0"', "null", "[0]", "-1", str(2**32))


@pytest.mark.parametrize("entry", FOREIGN)
def test_decoder_refuses_foreign_entries_as_plain_loads(entry):
    """A foreign literal in any row, at its first, middle or last entry, in
    a spaced and an indented layout, gives the oracle's FormatError; the
    same documents with no literal decode to the maniplex."""
    m = torus_44(2, 1)
    rows = [list(map(str, row)) for row in m.perms]

    def document(rows, sep, indent):
        body = ", ".join("[" + indent + sep.join(row) + indent + "]" for row in rows)
        return '{"flags": %d, "perms": [%s], "rank": %d}' % (m.flag_count, body, m.rank)

    for sep, indent in ((", ", ""), (",\n      ", "\n    ")):
        assert maniplex_from_json(document(rows, sep, indent)) == m
        for i, k in itertools.product(range(m.rank), (0, m.flag_count // 2, m.flag_count - 1)):
            changed = [list(row) for row in rows]
            changed[i][k] = entry
            text = document(changed, sep, indent)
            want = decoded_or_error(maniplex_from_json_by_loads, text)
            assert want[0] is FormatError
            assert decoded_or_error(lambda t: tuple(map(tuple, maniplex_from_json(t).perms)), text) == want, (i, k)


def decoded_or_error(decode, text):
    """The decoded rows, or the type and message of the ValueError raised."""
    try:
        return decode(text)
    except ValueError as exc:  # FormatError is one
        return type(exc), str(exc)


RANGE_LENGTHS = (1, 4095, 4096, 4097, 3 * 4096 + 1)  # around the range test's 4 096-lane slices


def range_specials(size):
    """The entries at and beyond the ends of 0..size-1 and of array('i')."""
    return [v for v in (-(2**31), -1, 0, size - 1, size, 2**31 - 1) if -(2**31) <= v < 2**31]


def assert_range_check_as_scan(row, size):
    """The lanes of the array('i') row (`_lanes_in_range`) pass exactly
    when the scan finds no bad entry, and, for a row of size entries, the
    constructor keeps the row, or refuses it naming the scan's first bad
    entry, as the decoder and the plain decoder do on the row as format-1
    text and as format-2 base64."""
    f = bad_entry_by_scan(row.tolist(), size)
    assert core._lanes_in_range(row, size) == (f is None), (len(row), size)
    if len(row) != size:
        return
    got = decoded_or_error(lambda rows: tuple(map(tuple, Maniplex(rows).perms)), (row,))
    assert got == ((tuple(row),) if f is None else (FormatError, f"perms[0] entry out of range: {row[f]}"))
    for text in (
        '{"flags": %d, "perms": [[%s]], "rank": 1}' % (size, ", ".join(map(str, row))),
        '{"flags": %d, "format": 2, "perms": ["%s"], "rank": 1}' % (size, base64_row(row)),
    ):
        assert decoded_or_error(lambda t: tuple(map(tuple, maniplex_from_json(t).perms)), text) == got
        assert decoded_or_error(maniplex_from_json_by_loads, text) == got


def test_lane_range_check_matches_scan():
    """On seeded random rows of lengths around the lane slice, in range or
    holding the entries just out of range or at the ends of array('i') at
    random places, and for sizes of the row's length, near 2**31 and 0."""
    rng = random.Random(suites.SEED + 7)
    cases = 0
    for n in RANGE_LENGTHS:
        for size in (n, n + 1, 2**31 - 1, 2**31, 2**31 + 1, 0):
            for trial in range(6):
                row = array("i", [rng.randrange(min(size, 2**31)) if size else 0 for _ in range(n)])
                places = [0, n - 1, min(4095, n - 1), min(4096, n - 1)] + [rng.randrange(n) for _ in range(3)]
                for _ in range(trial % 3):
                    row[rng.choice(places)] = rng.choice(range_specials(size))
                assert_range_check_as_scan(row, size)
                cases += 1
    assert cases == len(RANGE_LENGTHS) * 6 * 6


def test_lane_range_check_on_census_rows():
    """Every row of every census torus-pool map is in range, and stays
    as the scan finds it with one entry set to each special value."""
    rng = random.Random(suites.SEED + 8)
    for bc in suites.TORUS_POOL:
        m = torus_44(*bc)
        size = m.flag_count
        for row in m.perms:
            assert_range_check_as_scan(row, size)
            for v in range_specials(size):
                bad = array("i", row)
                bad[rng.randrange(size)] = v
                assert_range_check_as_scan(bad, size)

"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive — fixpoint merging instead of BFS,
brute force over all bijections, explicit solid geometry — and shares no
code with the modules under test.  Expected values frozen into the test
files were computed with these.
"""

from __future__ import annotations

import base64
import collections
import itertools
import json
import math
import struct
from typing import NamedTuple

from maniplex.core import FormatError, face_table, walk_rows
from maniplex.poset import RankedPoset

Perms = tuple[tuple[int, ...], ...]


def partition_by_merging(perms: Perms, colours, size: int) -> list[tuple[int, ...]]:
    """Orbit partition by repeatedly merging blocks joined by an edge, each
    flag mapped to the set object of its block, the smaller block poured
    into the larger."""
    block = {f: {f} for f in range(size)}
    changed = True
    while changed:
        changed = False
        for c in colours:
            row = perms[c]
            for f in range(size):
                bf, bg = block[f], block[row[f]]
                if bf is not bg:
                    if len(bf) < len(bg):
                        bf, bg = bg, bf
                    bf |= bg
                    for g in bg:
                        block[g] = bf
                    changed = True
    return sorted(tuple(sorted(b)) for b in {id(b): b for b in block.values()}.values())


def component_ids_by_search(perms: Perms, colours, size: int) -> list[int]:
    """flag -> the flag a breadth-first search first reached it from, the
    searches started, in increasing order, at each flag no earlier search
    reached, along the edges f -> row[f] of the given colours and through
    flags not yet reached.  On involutions these are the orbits, each
    labelled by its least flag; on any rows, what one search per unreached
    flag labels."""
    label: list = [None] * size
    for start in range(size):
        if label[start] is not None:
            continue
        label[start] = start
        queue = collections.deque([start])
        while queue:
            f = queue.popleft()
            for c in colours:
                g = perms[c][f]
                if label[g] is None:
                    label[g] = start
                    queue.append(g)
    return label


def propagate_by_bfs(src: Perms, dst: Perms, image: int):
    """Extend flag 0 -> image to a colour-preserving map, by one
    breadth-first search over src that checks every edge as it goes and
    refuses a second flag with the same image; None on a clash, else the
    map as a tuple, with -1 at every flag the search did not reach (src is
    disconnected)."""
    rows = tuple(zip(src, dst))
    size = len(src[0])
    phi = [-1] * size
    used = [False] * size
    phi[0] = image
    used[image] = True
    queue = collections.deque([0])
    while queue:
        f = queue.popleft()
        for src_row, dst_row in rows:
            g = src_row[f]
            h = dst_row[phi[f]]
            if phi[g] < 0:
                if used[h]:
                    return None
                phi[g] = h
                used[h] = True
                queue.append(g)
            elif phi[g] != h:
                return None
    return tuple(phi)


def isomorphism_by_propagation(p1: Perms, p2: Perms):
    """What `isomorphic` answers on valid maniplexes, from
    `propagate_by_bfs`: the map of the least image of flag 0 that
    propagates, or None when none does; on other rows, ValueError when
    that map is partial (p1 is disconnected)."""
    if len(p1) != len(p2) or len(p1[0]) != len(p2[0]):
        return None
    for image in range(len(p2[0])):
        phi = propagate_by_bfs(p1, p2, image)
        if phi is not None:
            if -1 in phi:
                raise ValueError("disconnected")
            return phi
    return None


def violations_by_scan(perms: Perms) -> list[tuple[str, tuple]]:
    """The (axiom, witness) pairs `validate` reports on rows that pass the
    structural checks, each witness the least failing flag of a scan over
    every flag: per colour, a flag f with r[r[f]] != f, then a fixed
    point; per colour pair i < j, a flag where the rows agree; the least
    flag `component_ids_by_search` does not reach from flag 0; per pair
    j >= i + 2, a flag f with (r_i r_j)^2 f != f."""
    n, size = len(perms), len(perms[0])
    out = []
    for i, row in enumerate(perms):
        for axiom, bad in (("involution", lambda f: row[row[f]] != f), ("fixed-point-free", lambda f: row[f] == f)):
            f = next((f for f in range(size) if bad(f)), None)
            if f is not None:
                out.append((axiom, (i, f)))
    for i, j in itertools.combinations(range(n), 2):
        f = next((f for f in range(size) if perms[i][f] == perms[j][f]), None)
        if f is not None:
            out.append(("proper-colouring", (i, j, f)))
    label = component_ids_by_search(perms, range(n), size)
    if any(label):
        out.append(("connected", (next(f for f, x in enumerate(label) if x),)))
    for i in range(n):
        for j in range(i + 2, n):
            ri, rj = perms[i], perms[j]
            f = next((f for f in range(size) if ri[rj[ri[rj[f]]]] != f), None)
            if f is not None:
                out.append(("square", (i, j, f)))
    return out


def brute_isomorphisms(p1: Perms, p2: Perms) -> list[tuple[int, ...]]:
    """All colour-preserving flag bijections, by trying every permutation.

    Only sane for at most 8 flags.
    """
    if len(p1) != len(p2) or len(p1[0]) != len(p2[0]):
        return []
    size = len(p1[0])
    rank = len(p1)
    out = []
    for phi in itertools.permutations(range(size)):
        if all(phi[p1[i][f]] == p2[i][phi[f]] for i in range(rank) for f in range(size)):
            out.append(phi)
    return out


def polygon_flag_graph(k: int) -> Perms:
    """Flag graph of the k-gon, built from (vertex, edge) incidence pairs."""
    flags = sorted((v, e) for e in range(k) for v in (e, (e + 1) % k))
    index = {fl: i for i, fl in enumerate(flags)}
    r0, r1 = [], []
    for v, e in flags:
        other_v = (e + 1) % k if v == e else e
        r0.append(index[(other_v, e)])
        other_e = (e + 1) % k if v == (e + 1) % k else (e - 1) % k
        r1.append(index[(v, other_e)])
    return (tuple(r0), tuple(r1))


def _cube_incidences():
    vertices = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    edges = []
    for a, b in itertools.combinations(vertices, 2):
        if sum(1 for i in range(3) if a[i] != b[i]) == 1:
            edges.append(frozenset((a, b)))
    faces = []
    for axis in range(3):
        for sign in (-1, 1):
            faces.append(frozenset(v for v in vertices if v[axis] == sign))
    return vertices, edges, faces


def geometric_cube_flags() -> tuple[Perms, list[tuple]]:
    """Flag graph of the solid cube from (vertex, edge, face) triples."""
    vertices, edges, faces = _cube_incidences()
    flags = sorted(
        (v, tuple(sorted(e)), tuple(sorted(f)))
        for v in vertices
        for e in edges
        if v in e
        for f in faces
        if e <= f
    )
    index = {fl: i for i, fl in enumerate(flags)}
    r0, r1, r2 = [], [], []
    for v, e, f in flags:
        (other_v,) = set(e) - {v}
        r0.append(index[(other_v, e, f)])
        (other_e,) = [
            tuple(sorted(e2)) for e2 in edges if v in e2 and e2 <= frozenset(f) and tuple(sorted(e2)) != e
        ]
        r1.append(index[(v, other_e, f)])
        (other_f,) = [
            tuple(sorted(f2)) for f2 in faces if frozenset(e) <= f2 and tuple(sorted(f2)) != f
        ]
        r2.append(index[(v, e, other_f)])
    return (tuple(r0), tuple(r1), tuple(r2)), flags


def antipodal_quotient(perms: Perms, flags: list[tuple]) -> Perms:
    """Quotient of the cube flag graph by the central symmetry v -> -v."""

    def negate(flag):
        v, e, f = flag
        return (
            tuple(-x for x in v),
            tuple(sorted(tuple(-x for x in w) for w in e)),
            tuple(sorted(tuple(-x for x in w) for w in f)),
        )

    index = {fl: i for i, fl in enumerate(flags)}
    partner = [index[negate(fl)] for fl in flags]
    reps = sorted(i for i in range(len(flags)) if i <= partner[i])
    rep_index = {r: k for k, r in enumerate(reps)}

    def orbit(i: int) -> int:
        return rep_index[min(i, partner[i])]

    out = []
    for row in perms:
        out.append(tuple(orbit(row[r]) for r in reps))
    return tuple(out)


def chains_by_product(levels: list[list[str]], lt) -> list[tuple[str, ...]]:
    """All full-length chains, filtering the cartesian product of levels
    one level at a time: a tuple is kept when each face lies below every
    face after it, so a prefix that fails is dropped with every tuple it
    begins."""
    chains = [()]
    for level in levels:
        chains = [chain + (x,) for chain in chains for x in level if all(lt(y, x) for y in chain)]
    return sorted(chains)


def flag_graph_by_chains(faces, less) -> Perms:
    """Flag graph of a poset given by label levels and order pairs: its
    full-length chains, i-adjacent when they differ only at rank i.  Raises
    ValueError when some chain lacks a unique partner at some rank, that is,
    when the diamond condition fails."""
    chains = chains_by_product(faces, lambda a, b: (a, b) in less)
    perms = []
    for i in range(len(faces) - 2):
        groups: dict[tuple[str, ...], list[int]] = {}
        for k, chain in enumerate(chains):
            groups.setdefault(chain[: i + 1] + chain[i + 2 :], []).append(k)
        row = [0] * len(chains)
        for members in groups.values():
            if len(members) != 2:
                raise ValueError(f"diamond condition fails at rank {i}: {len(members)} chains like {chains[members[0]]}")
            a, b = members
            row[a], row[b] = b, a
        perms.append(tuple(row))
    return tuple(perms)


def shortest_lex_words_brute(perms: Perms, base: int, max_len: int) -> dict[int, tuple[int, ...]]:
    """First word in (length, lex) order reaching each flag, exhaustively."""
    rank = len(perms)
    best: dict[int, tuple[int, ...]] = {base: ()}
    for length in range(1, max_len + 1):
        for word in itertools.product(range(rank), repeat=length):
            f = base
            for letter in reversed(word):
                f = perms[letter][f]
            if f not in best:
                best[f] = word
    return best


def faces_by_bfs(perms: Perms, i: int) -> list[tuple[int, tuple[int, ...]]]:
    """The i-faces as (least flag, sorted flags), by a fresh BFS from every
    unlabelled flag over the colours other than i."""
    size = len(perms[0])
    rows = [row for c, row in enumerate(perms) if c != i]
    seen: set[int] = set()
    out = []
    for start in range(size):
        if start in seen:
            continue
        seen.add(start)
        members, stack = [start], [start]
        while stack:
            f = stack.pop()
            for row in rows:
                if row[f] not in seen:
                    seen.add(row[f])
                    members.append(row[f])
                    stack.append(row[f])
        out.append((min(members), tuple(sorted(members))))
    return out


def extension_by_entries(base: Perms, facet_flags) -> Perms:
    """The rows of the extension over a facet, entry by entry: an old
    colour sends flag 4g + t to 4 base[i][g] + t, and the new colour sends
    it to 4g + (t XOR 1), or to 4g + (t XOR 3) when g lies in the facet."""
    size = len(base[0])
    inside = set(facet_flags)
    rows = [tuple(4 * row[g] + t for g in range(size) for t in range(4)) for row in base]
    rows.append(tuple(4 * g + (t ^ (3 if g in inside else 1)) for g in range(size) for t in range(4)))
    return tuple(rows)


_SPAN_MISSING = frozenset({(0, 0), (1, 0)})
_SPAN_EQUAL = frozenset({(0, 0), (1, 1)})
_SPAN_ALL = frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})


def tag_spans_by_counts(ids, facet_flags) -> dict:
    """Each face's tag span, keyed by its id in the face table ids, from
    the face sizes and the count of each face's flags in the marked facet:
    tags {(0, 0), (1, 0)} when none lies in it, all four when some but not
    all do, {(0, 0), (1, 1)} when the face's flags are the facet's, and
    None for a face properly inside the facet."""
    inside = collections.Counter(ids[f] for f in facet_flags)
    spans = {}
    for c, size in collections.Counter(ids).items():
        if not inside[c]:
            spans[c] = _SPAN_MISSING
        elif inside[c] < size:
            spans[c] = _SPAN_ALL
        else:
            spans[c] = _SPAN_EQUAL if size == len(facet_flags) else None
    return spans


def quotient_by_sides(tables, facet_flags, new_row):
    """A read-off extension's map over each base face, entry by entry, or
    None when some flag 4g + t's new-colour image is not 4g + (t XOR 3)
    for g in the marked facet and 4g + (t XOR 1) for g off it.  Over each
    face c of a base face table, the tags of the flags off the facet are
    joined by XOR 1 and those on it by XOR 3, by a union-find, and tag t's
    extension face is 4c plus the least tag of its class."""
    inside = set(facet_flags)
    twist = [3 if g in inside else 1 for g in range(len(tables[0]))]
    if any(new_row[4 * g + t] != 4 * g + (t ^ x) for g, x in enumerate(twist) for t in range(4)):
        return None
    over = []
    for ids in tables:
        twists = collections.defaultdict(set)
        for c, x in zip(ids, twist):
            twists[c].add(x)
        faces = {}
        for c, xs in twists.items():
            parent = list(range(4))

            def root(u):
                while parent[u] != u:
                    u = parent[u]
                return u

            for x in xs:
                for t in range(4):
                    parent[root(t)] = root(t ^ x)
            faces[c] = tuple(4 * c + min(u for u in range(4) if root(u) == root(t)) for t in range(4))
        over.append(faces)
    return over


def tag_spans_match_by_faces(base: Perms, facet_flags, ext: Perms) -> bool:
    """Over every base i-face below the top rank, the extension faces are
    the predicted tag spans, checked face by face.  With k of the face's
    flags in the marked facet, the span is tags {0, 1} when k is 0, {0, 3}
    when the face's flags are the facet's, and all four tags when
    0 < k < the face's size; a face properly inside the facet has no span
    and fails.  The flags {4f + t : f in the face, t in the span} must make
    up one extension i-face (faces found by `faces_by_bfs`)."""
    inside = set(facet_flags)
    for i in range(len(base)):
        ext_faces = {members for _, members in faces_by_bfs(ext, i)}
        for _, members in faces_by_bfs(base, i):
            k = len(inside.intersection(members))
            if k == 0:
                tags = (0, 1)
            elif k < len(members):
                tags = (0, 1, 2, 3)
            elif len(members) == len(inside):
                tags = (0, 3)
            else:
                return False
            if tuple(sorted(4 * f + t for f in members for t in tags)) not in ext_faces:
                return False
    return True


def facet_section_matches_base_by_labels(p_base, ext_perms: Perms, p_ext, t: int) -> bool:
    """One facet at a time, on labels: is the section of p_ext below facet
    'n:t' the image of p_base under base face 'i:c' -> the extension i-face
    holding flag 4c + t (faces by `faces_by_bfs`), bottom to bottom and top
    to the facet?  The map must be a bijection onto the faces at or below
    the facet that carries p_base's order exactly onto the section's."""
    n = p_base.rank
    face_of = []
    for i in range(n):
        face_of.append({f: c for c, members in faces_by_bfs(ext_perms, i) for f in members})
    facet = f"{n}:{t}"
    to = {p_base.level(-1)[0]: p_ext.level(-1)[0], p_base.level(n)[0]: facet}
    for r in range(n):
        for label in p_base.level(r):
            c = int(label.split(":")[1])
            to[label] = f"{r}:{face_of[r][4 * c + t]}"
    inside = {a for a, b in p_ext.less if b == facet} | {facet}
    if len(set(to.values())) != len(to) or set(to.values()) != inside:
        return False
    return {(to[a], to[b]) for a, b in p_base.less} == {(a, b) for a, b in p_ext.less if a in inside and b in inside}


def sections_match_base_by_triples(p_base, ext_perms: Perms, p_ext, over=None) -> bool:
    """All four facet sections at once, as sets of (t, a, b) triples: each
    base order pair carried into section t by base face 'i:c' -> the
    extension i-face at flag 4c + t (faces by `faces_by_bfs`, unless the
    map over each base face is given, as tag -> face id), against every
    extension order pair sorted into each section that holds both of its
    faces.  The map must first be a bijection onto the faces at or below
    facet t, whose id is t."""
    n = p_base.rank
    number = {face: k for k, face in enumerate(zip(p_ext.ranks, p_ext.ids))}
    proper = list(zip(p_base.ranks[1:-1], p_base.ids[1:-1]))
    if over is None:
        face_of = [{f: c for c, members in faces_by_bfs(ext_perms, i) for f in members} for i in range(n)]
        over = [{c: tuple(face_of[i][4 * c + t] for t in range(4)) for j, c in proper if j == i} for i in range(n)]
    member = [set() for _ in p_ext.labels]  # extension face number -> the sections holding it
    want = set()
    for t in range(4):
        to = [0] + [number[i, over[i][c][t]] for i, c in proper] + [number[n, t]]
        inside = {a for a, b in p_ext.pairs if b == to[-1]} | {to[-1]}
        if len(set(to)) != len(to) or set(to) != inside:
            return False
        for k in to:
            member[k].add(t)
        want.update((t, to[a], to[b]) for a, b in p_base.pairs)
    got = {(t, a, b) for a, b in p_ext.pairs for t in member[a] & member[b]}
    return got == want


def section_by_filter(faces, less, lower: str, upper: str):
    """(faces per rank from lower up to upper, strict order) of a section,
    filtering every pair of the whole order."""
    keep = {lower, upper} | {b for a, b in less if a == lower and (b, upper) in less}
    index = {x: k for k, level in enumerate(faces) for x in level}
    levels = tuple(
        tuple(sorted(x for x in faces[k] if x in keep)) for k in range(index[lower], index[upper] + 1)
    )
    return levels, frozenset((a, b) for a, b in less if a in keep and b in keep)


def automorphism_count_by_propagation(perms: Perms) -> int:
    """The number of `valid_images_by_propagation`."""
    return len(valid_images_by_propagation(perms))


def valid_images_by_propagation(perms: Perms) -> set[int]:
    """Images of flag 0 that extend to a colour-preserving map, trying every
    image with a fresh depth-first propagation over flag 0's component."""
    size = len(perms[0])
    valid = set()
    for image in range(size):
        phi = {0: image}
        stack = [0]
        ok = True
        while stack and ok:
            f = stack.pop()
            for row in perms:
                g, h = row[f], row[phi[f]]
                if g not in phi:
                    phi[g] = h
                    stack.append(g)
                elif phi[g] != h:
                    ok = False
                    break
        if ok and len(set(phi.values())) == len(phi):
            valid.add(image)
    return valid


def lemma_by_valid_images(perms: Perms, valid: set[int]):
    """The images that the lemma of `core.flag_orbits` propagates, in
    order, with the class I and the representatives it gives, worked out
    from the valid images of flag 0 (`valid_images_by_propagation`):
    r_i(0) up to the first r_j(0) that is not one, then r_i r_j (0), or
    else r_i(0), for each i > j, then r_j r_i r_j (0) for each i in I next
    to j.  I is every colour when no r_i(0) fails, and None when the
    lemma stops at a failure, undecided."""
    firsts = [row[0] for row in perms]
    images = []
    for image in firsts:
        images.append(image)
        if image not in valid:
            break
    else:
        return images, tuple(range(len(perms))), (0,)
    j = len(images) - 1
    rj, kept = firsts[j], list(range(j))
    for i in range(j + 1, len(perms)):
        images.append(perms[i][rj])
        if images[-1] in valid:
            continue
        images.append(firsts[i])
        if images[-1] not in valid:
            return images, None, ()
        kept.append(i)
    for i in kept:
        if abs(i - j) == 1:
            images.append(perms[j][perms[i][rj]])
            if images[-1] not in valid:
                return images, None, ()
    return images, tuple(kept), (0, rj)


def section_chains_connected(faces, less, lower: str, upper: str) -> bool:
    """Are the maximal chains of the section upper/lower all of one length
    and connected under 'differ in exactly one face'?

    The section is filtered out of the whole order (`section_by_filter`),
    its covers are the pairs with nothing strictly between, and its chains
    are walked from the bottom.
    """
    levels, sec_less = section_by_filter(faces, less, lower, upper)
    keep = [x for level in levels for x in level]
    above: dict[str, set[str]] = {x: set() for x in keep}
    below: dict[str, set[str]] = {x: set() for x in keep}
    for a, b in sec_less:
        above[a].add(b)
        below[b].add(a)
    up: dict[str, list[str]] = {x: [] for x in keep}
    for a, b in sec_less:
        if not above[a] & below[b]:  # nothing strictly between: a cover
            up[a].append(b)
    chains, stack = [], [(lower,)]
    while stack:
        chain = stack.pop()
        if up[chain[-1]]:
            stack.extend(chain + (b,) for b in up[chain[-1]])
        else:
            chains.append(chain)
    if len({len(c) for c in chains}) > 1:
        return False
    by_blank: dict[tuple, list[int]] = {}
    for k, chain in enumerate(chains):
        for pos in range(1, len(chain) - 1):
            by_blank.setdefault((pos, chain[:pos] + chain[pos + 1:]), []).append(k)
    reached, stack2 = {0}, [0]
    while stack2:
        k = stack2.pop()
        chain = chains[k]
        for pos in range(1, len(chain) - 1):
            for j in by_blank[(pos, chain[:pos] + chain[pos + 1:])]:
                if j not in reached:
                    reached.add(j)
                    stack2.append(j)
    return len(reached) == len(chains)


def flag_connectivity_by_sections(faces, less):
    """First comparable pair, in (rank of lower, pair) order, whose section
    fails `section_chains_connected`; None when every section passes.

    Pairs with the same lower end are consecutive, and their sections are
    filtered out of the order pairs at or above that end only."""
    rank_of = {x: k for k, level in enumerate(faces) for x in level}
    succ: dict[str, set[str]] = {x: set() for x in rank_of}
    for a, b in less:
        succ[a].add(b)
    last, above = None, frozenset()
    for lower, upper in sorted(less, key=lambda ab: (rank_of[ab[0]], ab)):
        if lower != last:
            last, above = lower, frozenset((a, b) for a in succ[lower] | {lower} for b in succ[a])
        if not section_chains_connected(faces, above, lower, upper):
            return (lower, upper)
    return None


class LabelledPoset(NamedTuple):
    rank: int
    faces: tuple[tuple[str, ...], ...]  # rank -1 first, each level in label order
    less: frozenset[tuple[str, str]]
    covers: tuple[tuple[str, str], ...]  # pairs with nothing strictly between, sorted
    rank_of: dict[str, int]  # faces by rank, then label


def pos_of_by_labels(m) -> LabelledPoset:
    """The face poset as label strings: 'i:c' for the i-face whose least
    flag is c (found by `faces_by_bfs`), plus '-1:0' below and 'n:0' above
    everything; faces of ranks i < j are incident when some flag lies in
    both, read as the label pairs of every flag's two faces.  `m` is
    anything with a `perms` attribute."""
    perms = m.perms
    n, size = len(perms), len(perms[0])
    labels = [[""] * size for _ in range(n)]
    for i in range(n):
        for least, members in faces_by_bfs(perms, i):
            for f in members:
                labels[i][f] = f"{i}:{least}"
    bottom, top = "-1:0", f"{n}:0"
    less = {(bottom, top)}
    for row in labels:
        less.update((bottom, label) for label in row)
        less.update((label, top) for label in row)
    for i in range(n):
        for j in range(i + 1, n):
            less.update(zip(labels[i], labels[j]))
    faces = ((bottom,), *(tuple(sorted(set(row))) for row in labels), (top,))
    above: dict[str, set[str]] = {x: set() for level in faces for x in level}
    below: dict[str, set[str]] = {x: set() for x in above}
    for a, b in less:
        above[a].add(b)
        below[b].add(a)
    covers = tuple(sorted((a, b) for a, b in less if not above[a] & below[b]))
    rank_of = {x: r for r, level in enumerate(faces, start=-1) for x in level}
    return LabelledPoset(n, faces, frozenset(less), covers, rank_of)


# corner k of the cell at (x, y) sits at (x, y) + ((0, 0), (1, 0), (1, 1),
# (0, 1))[k]; side j joins corners j and j + 1 and is crossed into the cell
# at (x, y) + _ACROSS[j]
_ACROSS = ((0, -1), (1, 0), (0, 1), (-1, 0))
# crossing side j, the neighbour's corner at the same grid point
_NEIGHBOUR_CORNER = ({0: 3, 1: 2}, {1: 0, 2: 3}, {2: 1, 3: 0}, {3: 2, 0: 1})


def torus_44_by_lattice(b: int, c: int) -> Perms:
    """Flag graph of the {4,4} torus map with translation lattice
    <(b, c), (-c, b)>, built flag by flag.

    Flag (cell, corner k, side s) is numbered (cell * 4 + k) * 2 + s, on
    side k for s = 0 and side k - 1 for s = 1.  A cell is a class of Z^2
    modulo the lattice: (u, v) is a lattice point exactly when u b + v c and
    v b - u c are both multiples of N = b^2 + c^2, so the pair of those two
    residues names the class.  Cells are numbered in increasing order of
    their representatives (x, t), 0 <= x < N/g, 0 <= t < g with
    g = gcd(b, c), which the function checks are N distinct classes, that
    is all of them.  Every flag's r0, r1 and r2 neighbour is found by naming
    the class of the cell it lies in."""
    n, g = b * b + c * c, math.gcd(b, c)

    def key(x: int, y: int) -> tuple[int, int]:
        return ((x * b + y * c) % n, (y * b - x * c) % n)

    rep = {key(x, t): (x, t) for x in range(n // g) for t in range(g)}
    assert len(rep) == n, "the representatives do not name every class"
    cells = sorted(rep.values())
    cell_index = {cell: k for k, cell in enumerate(cells)}

    def flag_id(cell: tuple[int, int], corner: int, side: int) -> int:
        return (cell_index[rep[key(*cell)]] * 4 + corner) * 2 + side

    r0, r1, r2 = [0] * (8 * n), [0] * (8 * n), [0] * (8 * n)
    for cell in cells:
        x, y = cell
        for k in range(4):
            for s in (0, 1):
                me = flag_id(cell, k, s)
                # r0: other endpoint of the side, same cell
                r0[me] = flag_id(cell, (k + 1) % 4, 1) if s == 0 else flag_id(cell, (k - 1) % 4, 0)
                # r1: other side at the same corner
                r1[me] = flag_id(cell, k, 1 - s)
                # r2: same corner and side, neighbouring cell
                j = k if s == 0 else (k - 1) % 4
                dx, dy = _ACROSS[j]
                k2 = _NEIGHBOUR_CORNER[j][k]
                r2[me] = flag_id((x + dx, y + dy), k2, 0 if k2 == (j + 2) % 4 else 1)
    return (tuple(r0), tuple(r1), tuple(r2))


class LabelledFlagFunction(NamedTuple):
    chains: dict[int, tuple[str, ...]]  # flag -> ('-1:0', '0:c0', ..., 'n:0')
    fibers: dict[tuple[str, ...], tuple[int, ...]]  # chain -> its flags, ascending


def flag_function(m) -> LabelledFlagFunction:
    """Each flag's maximal chain of the face poset as label strings 'i:c'
    (c the least flag of its i-face, found by `faces_by_bfs`), and the fibers.
    `m` is anything with a `perms` attribute."""
    perms = m.perms
    n, size = len(perms), len(perms[0])
    labels = [[""] * size for _ in range(n)]
    for i in range(n):
        for least, members in faces_by_bfs(perms, i):
            for f in members:
                labels[i][f] = f"{i}:{least}"
    chains = {f: ("-1:0",) + tuple(labels[i][f] for i in range(n)) + (f"{n}:0",) for f in range(size)}
    fibers: dict[tuple[str, ...], list[int]] = {}
    for f in range(size):
        fibers.setdefault(chains[f], []).append(f)
    return LabelledFlagFunction(chains, {k: tuple(v) for k, v in fibers.items()})


def faithfulness_by_labels(m) -> tuple[bool, object]:
    """(faithful, witness): the witness is the two least flags of the first
    fiber with more than one flag, fibers taken in label-string order."""
    table = flag_function(m)
    for chain in sorted(table.fibers):
        fiber = table.fibers[chain]
        if len(fiber) > 1:
            return False, (fiber[0], fiber[1])
    return True, None


def fiber_pair_by_labels(m, colour: int):
    """First {flag, flag^colour} inside one fiber, fibers taken in order of
    their least flag and each fiber in flag order; None when there is none."""
    row = m.perms[colour]
    for fiber in flag_function(m).fibers.values():
        for f in fiber:
            if row[f] in fiber:
                return (min(f, row[f]), max(f, row[f]))
    return None


def renumber(perms: Perms, sigma) -> Perms:
    """The same flag graph with flag f renamed sigma[f]."""
    inverse = [0] * len(sigma)
    for f, g in enumerate(sigma):
        inverse[g] = f
    return tuple(tuple(sigma[row[inverse[h]]] for h in range(len(sigma))) for row in perms)


def dual_face_counts(perms: Perms) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(face counts per rank, face counts per rank with the colours reversed)."""
    n = len(perms)
    ours = tuple(len(faces_by_bfs(perms, i)) for i in range(n))
    theirs = tuple(len(faces_by_bfs(perms[::-1], i)) for i in range(n))
    return ours, theirs


def cover_graph(
    n_vertices: int,
    edges: list[tuple[int, int]],
    nontrivial,
) -> tuple[int, list[tuple[int, int]]]:
    """Double cover of a plain (uncoloured) graph; nontrivial picks edge indices.

    Returns (vertex count, edge list) with vertices (v, s) numbered 2v+s.
    """
    hot = set(nontrivial)
    out = []
    for k, (u, v) in enumerate(edges):
        flip = 1 if k in hot else 0
        for s in (0, 1):
            out.append((2 * u + s, 2 * v + (s ^ flip)))
    return 2 * n_vertices, out


def act(perms: Perms, word, flag: int) -> int:
    """The flag a word carries `flag` to, rightmost letter first."""
    for letter in reversed(word):
        flag = perms[letter][flag]
    return flag


def in_stabilizer(perms: Perms, base: int, word) -> bool:
    """Does the word (rightmost letter first) fix the base flag?"""
    return act(perms, word, base) == base


def coset_words_by_levels(perms: Perms, base: int) -> tuple[tuple[int, ...], ...]:
    """Shortest-lex word from `base` to every flag.  Level by level, every
    flag not yet named looks at its neighbours on the last level and takes
    the least of the words (i,) + word(r_i g); ValueError when some flag is
    never reached."""
    size = len(perms[0])
    words: dict[int, tuple[int, ...]] = {base: ()}
    level = {base}
    while level:
        found = {}
        for g in range(size):
            if g in words:
                continue
            cands = [(i,) + words[row[g]] for i, row in enumerate(perms) if row[g] in level]
            if cands:
                found[g] = min(cands)
        words.update(found)
        level = set(found)
    if len(words) != size:
        raise ValueError("flag graph is not connected")
    return tuple(words[f] for f in range(size))


class SchreierReport(NamedTuple):
    words: tuple[tuple[int, ...], ...]
    acts_correctly: bool  # act(words[f], base) == f for every flag
    single_letters_free: bool  # no generator fixes the base flag
    letter_pairs_free: bool  # no word r_i r_j (i != j) fixes it

    @property
    def ok(self) -> bool:
        return self.acts_correctly and self.single_letters_free and self.letter_pairs_free


def schreier_report(perms: Perms, base: int) -> SchreierReport:
    """The flag/coset dictionary of shortest-lex words from `base`, with
    every word replayed and every word of one or two letters tried."""
    words = coset_words_by_levels(perms, base)
    rank = len(perms)
    return SchreierReport(
        words,
        all(act(perms, w, base) == f for f, w in enumerate(words)),
        not any(in_stabilizer(perms, base, (i,)) for i in range(rank)),
        not any(in_stabilizer(perms, base, (i, j)) for i in range(rank) for j in range(rank) if i != j),
    )


def stabilizer_label(word, index: int) -> str:
    """Double-coset style name W_index . word . N for a face of a quotient."""
    letters = "".join(f"r{letter}" for letter in word) if word else "e"
    return f"W{index}·{letters}·N"


def coset_enumerate_hlt(pres, subgroup_gens=()) -> Perms:
    """Plain HLT coset enumeration: one forward trace per relator that
    allocates a coset at every undefined step, sets one arrow per definition
    and merges the two ends; cosets keep their allocation order."""
    ngens = pres.ngens
    labels: list[int] = []
    neighbors: list[list[int]] = []

    def add_vertex() -> int:
        labels.append(len(labels))
        neighbors.append([-1] * ngens)
        return labels[-1]

    def find(c: int) -> int:
        while labels[c] != c:
            labels[c] = labels[labels[c]]
            c = labels[c]
        return c

    def trace(c: int, word) -> int:
        for d in word:
            c = find(c)
            if neighbors[c][d] == -1:
                neighbors[c][d] = add_vertex()
            c = find(neighbors[c][d])
        return c

    def unify(a: int, b: int) -> None:
        stack = [(a, b)]
        while stack:
            a, b = map(find, stack.pop())
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            labels[b] = a
            for d in range(ngens):
                nb = neighbors[b][d]
                if nb != -1:
                    if neighbors[a][d] == -1:
                        neighbors[a][d] = nb
                    else:
                        stack.append((neighbors[a][d], nb))

    add_vertex()
    for word in subgroup_gens:
        unify(trace(0, word), 0)
    scan = 0
    while scan < len(labels):
        if find(scan) == scan:
            for rel in pres.relators:
                unify(trace(scan, rel), scan)
        scan += 1
    live = [c for c in range(len(labels)) if find(c) == c]
    index = {c: k for k, c in enumerate(live)}
    return tuple(tuple(index[find(neighbors[c][d])] for c in live) for d in range(ngens))


def relator_trace_order(perms: Perms, pres, subgroup_gens=()) -> list[int]:
    """The cosets of a finished table in relator-trace order: coset 0, then
    each coset the first time it is reached by tracing the subgroup words
    from 0 and then every relator, in presentation order, from each coset
    already in the order, in turn."""
    order = [0]
    seen = {0}

    def visit(c: int, word) -> None:
        for d in word:
            c = perms[d][c]
            if c not in seen:
                seen.add(c)
                order.append(c)

    for word in subgroup_gens:
        visit(0, word)
    k = 0
    while k < len(order):
        for rel in pres.relators:
            visit(order[k], rel)
        k += 1
    return order


def order_isomorphic_by_cover_search(p_faces, p_less, q_faces, q_less) -> bool:
    """Is there a rank-preserving order isomorphism p -> q?  Each poset is
    given as (faces per rank, strict order pairs), with one least and one
    greatest face, which map to each other.  Backtracking that maps the
    proper faces in breadth-first order over p's covers among them, each
    to an unused image of its rank covering, or covered by, the image of
    the face it was reached from, checked against every face mapped so far."""
    if [len(level) for level in p_faces] != [len(level) for level in q_faces] or len(p_less) != len(q_less):
        return False
    if len(p_faces) < 3 or len(p_faces[0]) != 1 or len(p_faces[-1]) != 1:
        return False

    def proper_covers(faces, less):
        rank = {x: r for r, level in enumerate(faces) for x in level}
        near = {x: set() for x in rank}
        for a, b in less:
            if rank[b] == rank[a] + 1 and 0 < rank[a] and rank[b] < len(faces) - 1:
                near[a].add(b)
                near[b].add(a)
        return rank, near

    p_rank, p_near = proper_covers(p_faces, p_less)
    q_rank, q_near = proper_covers(q_faces, q_less)
    mapping = {p_faces[0][0]: q_faces[0][0], p_faces[-1][0]: q_faces[-1][0]}
    start = p_faces[1][0]
    order, parent = [start], {start: None}
    for x in order:
        for y in sorted(p_near[x]):
            if y not in parent:
                parent[y] = x
                order.append(y)
    if len(order) != len(p_rank) - 2:
        raise ValueError("proper faces are not connected under covers")
    extremes = list(mapping.items())
    if any(((a, b) in p_less) != ((x, y) in q_less) for a, x in extremes for b, y in extremes):
        return False

    def place(k: int) -> bool:
        if k == len(order):
            return True
        a = order[k]
        pool = q_faces[1] if parent[a] is None else q_near[mapping[parent[a]]]
        used = set(mapping.values())
        for b in sorted(pool):
            if b in used or q_rank[b] != p_rank[a]:
                continue
            if all(
                ((a, x) in p_less) == ((b, y) in q_less) and ((x, a) in p_less) == ((y, b) in q_less)
                for x, y in mapping.items()
            ):
                mapping[a] = b
                if place(k + 1):
                    return True
                del mapping[a]
        return False

    return place(0)


def poset_by_labels(rank: int, faces, less):
    """A `RankedPoset` given by hand, as label levels, rank -1 first, and
    label pairs: checked, then numbered by rank, then label, as the
    package numbers a face poset, with each face's masks set from the
    pairs given and nothing added, so it need not be bounded or transitive.
    Only the type is the package's: every field is set here.  It is not
    marked, so the package does not judge it; the tests feed it to the
    checks that read masks (`section`, the facet-section check) and judge
    it with `polytope_report_by_label_sets`."""
    faces = tuple(tuple(sorted(level)) for level in faces)
    if len(faces) != rank + 2:
        raise FormatError("need one face level per rank -1..n")
    number: dict[str, int] = {}
    ranks: list[int] = []
    for r, level in enumerate(faces, start=-1):
        for label in level:
            if label in number:
                raise FormatError(f"duplicate face label {label!r}")
            number[label] = len(ranks)
            ranks.append(r)
    pairs = set()
    for a, b in less:
        if a not in number or b not in number:
            raise FormatError(f"order pair ({a!r}, {b!r}) uses unknown labels")
        if ranks[number[a]] >= ranks[number[b]]:
            raise FormatError(f"order pair ({a!r}, {b!r}) does not increase rank")
        pairs.add((number[a], number[b]))
    up, down = [0] * len(ranks), [0] * len(ranks)
    for i, j in pairs:
        up[i] |= 1 << j
        down[j] |= 1 << i
    p = RankedPoset.__new__(RankedPoset)
    p.rank, p.labels, p.ranks = rank, tuple(number), tuple(ranks)
    p.up, p.down, p.pairs, p._report = tuple(up), tuple(down), tuple(sorted(pairs)), None
    return p


def _above_below(faces, less):
    """Each face's rank, and the sets of faces above and below it."""
    rank_of = {x: r for r, level in enumerate(faces, start=-1) for x in level}
    above: dict[str, set[str]] = {x: set() for x in rank_of}
    below: dict[str, set[str]] = {x: set() for x in rank_of}
    for a, b in less:
        above[a].add(b)
        below[b].add(a)
    return rank_of, above, below


def transitivity_witness_by_label_sets(faces, less):
    """The least (a, b, c) with a < b < c but not a < c, or None: b by
    (rank, label), then a, then c by label, so that the witness does not
    depend on how the string-keyed sets iterate."""
    rank_of, above, below = _above_below(faces, less)
    for b in sorted(rank_of, key=lambda x: (rank_of[x], x)):
        for a in sorted(below[b]):
            for c in sorted(above[b]):
                if (a, c) not in less:
                    return (a, b, c)
    return None


def polytope_report_by_label_sets(faces, less):
    """(ok, failed axiom, witness) of the abstract-polytope test on a poset
    given as (faces per rank from -1 up, strict order pairs), computed on
    sets of labels: each face's faces above and below as sets, covers and
    diamonds by intersecting them, connectivity by
    `flag_connectivity_by_sections`.  The axioms, in order:
    "order-not-transitive" (witness by `transitivity_witness_by_label_sets`),
    "bounded", "graded", "diamond" and "strong-flag-connectivity".  Every
    witness but transitivity's is the first failure in label order, pairs
    sorted."""
    witness = transitivity_witness_by_label_sets(faces, less)
    if witness is not None:
        return (False, "order-not-transitive", witness)
    rank_of, above, below = _above_below(faces, less)
    if len(faces[0]) != 1:
        return (False, "bounded", ("minimum", tuple(faces[0])))
    if len(faces[-1]) != 1:
        return (False, "bounded", ("maximum", tuple(faces[-1])))
    bottom, top = faces[0][0], faces[-1][0]
    for x in sorted(rank_of, key=lambda x: (rank_of[x], x)):
        if x != bottom and (bottom, x) not in less:
            return (False, "bounded", ("minimum-not-below", x))
        if x != top and (x, top) not in less:
            return (False, "bounded", ("maximum-not-above", x))
    covers = sorted((a, b) for a, b in less if not above[a] & below[b])
    for a, b in covers:
        if rank_of[b] - rank_of[a] != 1:
            return (False, "graded", (a, b))
    for a, b in sorted(less):
        if rank_of[b] - rank_of[a] == 2:
            middles = tuple(sorted(above[a] & below[b]))
            if len(middles) != 2:
                return (False, "diamond", (a, b, middles))
    witness = flag_connectivity_by_sections(faces, less)
    if witness is not None:
        return (False, "strong-flag-connectivity", witness)
    return (True, None, None)


def _labels_by_mask(labels, mask: int) -> list[str]:
    return [label for k, label in enumerate(labels) if mask >> k & 1]


def transitivity_witness_by_masks(p):
    """The least (a, b, c) with a < b < c but not a < c, or None, on a
    `RankedPoset`'s masks: b first by face number (rank, then label), then
    a, then c by label, the order `transitivity_witness_by_label_sets`
    takes.  Every pair is tested, with no mark read."""
    labels, up = p.labels, p.up
    bad = [(j, i) for i, j in p.pairs if up[j] & ~up[i]]
    if not bad:
        return None
    j = min(bad)[0]
    a, i = min((labels[i], i) for k, i in bad if k == j)
    return (a, labels[j], min(_labels_by_mask(labels, up[j] & ~up[i])))


def boundedness_witness_by_masks(p):
    """The first failure of: one least face, one greatest face, then per
    face, by rank and label, lying above the least and below the greatest;
    None when there is none."""
    labels, ranks, up, down = p.labels, p.ranks, p.up, p.down
    for end, r in (("minimum", -1), ("maximum", p.rank)):
        if ranks.count(r) != 1:
            return (end, tuple(label for label, s in zip(labels, ranks) if s == r))
    # faces are numbered by rank, so the least face is the first and the greatest the last
    top = len(labels) - 1
    not_over_min = ((1 << top + 1) - 2) & ~up[0]
    not_under_max = ((1 << top) - 1) & ~down[top]
    missed = not_over_min | not_under_max
    if not missed:
        return None
    k = (missed & -missed).bit_length() - 1
    return ("minimum-not-below" if not_over_min >> k & 1 else "maximum-not-above", labels[k])


def gradedness_witness_by_masks(p):
    """The least cover pair, in label order, skipping a rank, or None.
    With transitivity and boundedness in hand, every maximal chain is a
    bottom-to-top cover path, so 'all maximal chains have n + 2 faces' is
    'every cover raises rank by one'."""
    labels, ranks, up, down = p.labels, p.ranks, p.up, p.down
    bad = [(labels[i], labels[j]) for i, j in p.pairs if ranks[j] - ranks[i] > 1 and not up[i] & down[j]]
    return min(bad, default=None)


def polytope_report_by_masks(p):
    """(ok, failed axiom, witness) of the abstract-polytope test on any
    `RankedPoset`, marked or not, as `polytope_report_by_label_sets` gives
    it, computed on the masks: transitivity, boundedness and gradedness by
    the witnesses above, the diamond condition per pair two ranks apart,
    and strong flag connectivity as connectivity under incidence of the
    proper faces of every section three or more ranks apart, the least and
    greatest faces' included (McMullen-Schulte, Abstract Regular Polytopes
    (2002), Proposition 2A1), each a breadth-first search over masks, in
    (lower, label of upper) order.  Fast enough for the tower's rank-8
    posets (12 ms), where the label sets take about 2 s."""
    witness = transitivity_witness_by_masks(p)
    if witness is not None:
        return (False, "order-not-transitive", witness)
    for axiom, find in (("bounded", boundedness_witness_by_masks), ("graded", gradedness_witness_by_masks)):
        witness = find(p)
        if witness is not None:
            return (False, axiom, witness)
    labels, ranks, up, down = p.labels, p.ranks, p.up, p.down
    bad = [(labels[i], labels[j], up[i] & down[j]) for i, j in p.pairs if ranks[j] - ranks[i] == 2]
    bad = [(a, b, middles) for a, b, middles in bad if middles.bit_count() != 2]
    if bad:
        a, b, middles = min(bad)
        return (False, "diamond", (a, b, tuple(sorted(_labels_by_mask(labels, middles)))))
    near = [u | d for u, d in zip(up, down)]
    for i, upper, j in sorted((i, labels[j], j) for i, j in p.pairs if ranks[j] - ranks[i] > 2):
        inside = up[i] & down[j]
        reached = frontier = inside & -inside
        while frontier:
            grown = 0
            for k in range(frontier.bit_length()):
                if frontier >> k & 1:
                    grown |= near[k]
            frontier = grown & inside & ~reached
            reached |= frontier
        if reached != inside:
            return (False, "strong-flag-connectivity", (labels[i], upper))
    return (True, None, None)


def shifted_flags(b, flags, colours) -> tuple[int, ...]:
    """Apply the given colours (leftmost last) to every flag, sorted."""
    out = []
    for f in flags:
        for c in reversed(colours):
            f = b.perms[c][f]
        out.append(f)
    return tuple(sorted(out))


def double_cover_by_flags(perms: Perms, edges) -> Perms:
    """The rows of the double cover, flag by flag: flag (f, s) = 2f + s
    crosses its colour-i edge to sheet s, or to the other sheet when the
    edge's canonical form (min(f, r_i f), i) is listed."""
    rows = []
    for i, base in enumerate(perms):
        row = []
        for f, g in enumerate(base):
            swap = (min(f, g), i) in edges
            row += [2 * g + swap, 2 * g + (1 - swap)]
        rows.append(tuple(row))
    return tuple(rows)


def bad_entry_by_scan(row, size: int):
    """Index of the first entry that is not an int in 0..size-1 (bools
    excluded), by one test per entry; None when every entry passes."""
    for f, v in enumerate(row):
        if type(v) is not int or not 0 <= v < size:
            return f
    return None


def voltage_edges(m, pairs) -> frozenset[tuple[int, int]]:
    """The given (flag, colour) edges in canonical (lower endpoint, colour) form."""
    return frozenset((min(f, m.perms[c][f]), c) for f, c in pairs)


class SquareParity(NamedTuple):
    colours: tuple[int, int]
    canonical: int  # least flag of the bicoloured square
    parity: int  # of the number of nontrivial edges in the square


def square_parities(m, nontrivial) -> list[SquareParity]:
    """Voltage parity of every bicoloured square (colours at distance > 1),
    squares found by merging."""
    out = []
    for i in range(m.rank):
        for j in range(i + 2, m.rank):
            for square in partition_by_merging(m.perms, (i, j), m.flag_count):
                edges = {(min(f, m.perms[c][f]), c) for f in square for c in (i, j)}
                out.append(SquareParity((i, j), square[0], len(edges & nontrivial) % 2))
    return out


class CoverReport(NamedTuple):
    """The classical two-part criterion for a double cover to be a maniplex:
    the nontrivial edges are not a cut-set, and every bicoloured square
    carries an even number of them.  Tests compare it with validating the
    cover directly, which is authoritative."""

    not_cutset: bool
    odd_square: SquareParity | None  # the first square of odd parity

    @property
    def holds(self) -> bool:
        return self.not_cutset and self.odd_square is None


def _connected_avoiding(m, banned) -> bool:
    seen = [False] * m.flag_count
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        f = stack.pop()
        for c in range(m.rank):
            g = m.perms[c][f]
            if (min(f, g), c) in banned or seen[g]:
                continue
            seen[g] = True
            reached += 1
            stack.append(g)
    return reached == m.flag_count


def cover_is_maniplex(m, nontrivial) -> CoverReport:
    """The two-part criterion over the canonical `nontrivial` edges."""
    odd = next((sq for sq in square_parities(m, nontrivial) if sq.parity), None)
    return CoverReport(_connected_avoiding(m, nontrivial), odd)


def to_json_dict_v1(m) -> dict:
    """The format-1 maniplex document: each row a list of ints.  Written
    by `dumps_json`, it is the text the package wrote up to version 0.1.0,
    and the package still reads it."""
    return {"rank": m.rank, "flags": m.flag_count, "perms": [list(row) for row in m.perms]}


def base64_row(row) -> str:
    """The padded base64 of the row's entries packed by `struct` as
    little-endian int32."""
    return base64.b64encode(struct.pack("<%di" % len(row), *row)).decode("ascii")


def to_json_dict_v2(m) -> dict:
    """The format-2 maniplex document that `maniplex_to_json` must encode
    exactly as the generic JSON encoder does: each row its `base64_row`."""
    return {"rank": m.rank, "flags": m.flag_count, "format": 2, "perms": list(map(base64_row, m.perms))}


def maniplex_from_json_by_loads(text: str) -> Perms:
    """The rows of a maniplex document, decoded by plain `json.loads` with
    no pool, or the FormatError its first failed check gives: the JSON,
    then the object, its format, its keys, rank, flags, the rows' count,
    and each row in turn: in format 2 its base64 (refused unless it is
    the one padded spelling of its bytes) and its byte count, unpacked by
    `struct`; then its length, then its entries one by one."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # an int literal over the digit limit is a ValueError
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("maniplex document must be a JSON object")
    fmt = doc.get("format")
    if "format" in doc and (type(fmt) is not int or fmt != 2):
        raise FormatError(f'unknown format {fmt!r}: format 2 is read, and format 1 has no "format" key')
    for key in ("rank", "flags", "perms"):
        if key not in doc:
            raise FormatError(f"missing key {key!r}")
    rank, flags, perms = doc["rank"], doc["flags"], doc["perms"]
    if type(rank) is not int or rank < 1:
        raise FormatError("rank must be a positive integer")
    if type(flags) is not int or flags < 1:
        raise FormatError("flags must be a positive integer")
    if type(perms) is not list or len(perms) != rank:
        raise FormatError("perms must be a list with one row per colour")
    for i, row in enumerate(perms):
        if "format" in doc:
            row = perms[i] = _row_by_struct(row, i, flags)
        if type(row) is not list or len(row) != flags:
            raise FormatError(f"perms[{i}] must be a list of length {flags}")
        for v in row:
            if type(v) is not int or not 0 <= v < flags:
                raise FormatError(f"perms[{i}] entry out of range: {v!r}")
    return tuple(map(tuple, perms))


def _row_by_struct(text, i: int, flags: int) -> list[int]:
    try:
        data = base64.b64decode(text, validate=True)
        canonical = base64.b64encode(data).decode("ascii") == text
    except (TypeError, ValueError):  # binascii.Error is a ValueError
        canonical = False
    if not canonical:
        raise FormatError(f"perms[{i}] must be a string of canonical base64")
    if len(data) != 4 * flags:
        raise FormatError(f"perms[{i}] must decode to {4 * flags} bytes, 4 per flag, not {len(data)}")
    return list(struct.unpack("<%di" % flags, data))


def _balanced(perms: Perms, face_of, levels, theta) -> bool:
    """(A.2)-(A.4) for a marked set, from every face's member list: in each
    vertex (i = 0) and facet (i = 3), one or two marked flags, plus the
    marked flags whose colour-i neighbour lands there, make three; two
    members of one such face lie in different faces of every other rank;
    levels[i] lists the i-faces."""
    for i in (0, 3):
        shifts = collections.Counter(face_of[i][perms[i][f]] for f in theta)
        for face in levels[i]:
            inside = [f for f in theta if face_of[i][f] == face]
            if len(inside) not in (1, 2) or len(inside) + shifts[face] != 3:
                return False
            if len(inside) == 2 and any(face_of[j][inside[0]] == face_of[j][inside[1]] for j in range(4) if j != i):
                return False
    return True


def theta_leaves_by_load(perms: Perms) -> list[tuple[int, ...]]:
    """Every leaf of the rank-4 marked-set search that meets (A.2)-(A.4),
    as its flags in search order: over the 1-faces by least flag, each
    flag of the 1-face in increasing order, cut only where a 2-face is
    taken twice or a vertex or facet would hold three marked flags."""
    face_of = []  # rank -> flag -> least flag of its face
    for i in range(4):
        ids = [0] * len(perms[0])
        for least, flags in faces_by_bfs(perms, i):
            for f in flags:
                ids[f] = least
        face_of.append(ids)
    levels = [sorted(set(ids)) for ids in face_of]
    one_faces = [flags for _, flags in faces_by_bfs(perms, 1)]
    leaves: list[tuple[int, ...]] = []

    def walk(prefix: tuple[int, ...]) -> None:
        if len(prefix) == len(one_faces):
            if _balanced(perms, face_of, levels, prefix):
                leaves.append(prefix)
            return
        for f in one_faces[len(prefix)]:
            if face_of[2][f] in {face_of[2][g] for g in prefix}:
                continue
            if any(sum(1 for g in prefix if face_of[i][g] == face_of[i][f]) >= 2 for i in (0, 3)):
                continue
            walk(prefix + (f,))

    walk(())
    return leaves


# The orbit-representative judges as they read the whole face tables, kept
# as the reference the local face searches of `poset._polytopal_at` and
# `poset._faithful_at` are compared with.

def _face_flags(table, face: int) -> list[int]:
    """The flags whose entry in the face table is face, by one pass in C."""
    return list(itertools.compress(range(len(table)), map(face.__eq__, table)))


def _orbit_size(view: tuple, flag: int, colours) -> int:
    """The number of flags reached from flag by steps of the given colours."""
    rows = [view[c] for c in colours]
    queue, seen = [flag], {flag}
    for f in queue:
        for row in rows:
            g = row[f]
            if g not in seen:
                seen.add(g)
                queue.append(g)
    return len(queue)


def polytopal_at_by_tables(m, reps: tuple[int, ...]) -> bool:
    """Whether fact (f) of the `poset` module docstring accepts the valid
    maniplex at the given flags, read off its whole face tables.  The orbit
    under the colours other than i and j lies in the flags that share the
    representative's i-face and j-face, so it is all of them when it is
    as many."""
    n, view = m.rank, walk_rows(m)
    tables = [face_table(m, i) for i in range(n)]
    for rep in reps:
        if any(ids[rep] == ids[row[rep]] for ids, row in zip(tables, view)):
            return False
        for i in range(1, n - 1):
            low, mid, high = tables[i - 1 : i + 2]
            top = high[rep]
            if len({mid[f] for f in _face_flags(low, low[rep]) if high[f] == top}) != 2:
                return False
        for i in range(n - 3):
            flags = _face_flags(tables[i], tables[i][rep])
            for j in range(i + 3, n):
                ids, face = tables[j], tables[j][rep]
                shared = sum(ids[f] == face for f in flags)
                if _orbit_size(view, rep, (c for c in range(n) if c != i and c != j)) != shared:
                    return False
    return True


def faithful_at_by_tables(m, reps: tuple[int, ...]) -> bool:
    """Whether no other flag has the chain of one of the given flags, read
    off the whole face tables: only the flags of its 0-face are looked at,
    and kept rank by rank."""
    tables = [face_table(m, i) for i in range(m.rank)]
    for rep in reps:
        same = [f for f in _face_flags(tables[0], tables[0][rep]) if f != rep]
        for ids in tables[1:]:
            face = ids[rep]
            same = [f for f in same if ids[f] == face]
        if same:
            return False
    return True

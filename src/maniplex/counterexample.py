"""The 96-flag flat regular 4-polytope, its marked flag set, and the double cover.

`build_B` enumerates the automorphism group of the self-dual flat polytope
with hemicube facets and hemioctahedron vertex figures (Schlafli symbol
{4,3,4}, 96 flags) and takes its Cayley graph as the flag graph B.  The
presentation is trusted only because every structural claim about the
result is re-verified afterwards; any failure raises.

`find_theta` searches for a six-flag set meeting every 1-face and every
2-face exactly once and satisfying the vertex/facet balance conditions
(A.2)-(A.4); the search is cut by its vertex and facet counts, so a leaf
meets them when it marks every vertex and facet.  Candidates are
post-filtered so that the derived voltage assignment yields a connected
maniplex double cover with all face lifts connected.  `build_B_star`
takes the cover the filter accepted and certifies that it is an
unfaithful yet polytopal maniplex whose face poset projects
isomorphically onto the one of B.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from . import coxeter
from .certify import Check, Refusal, passed
from .core import (
    Maniplex,
    automorphism_count,
    dual,
    face_table,
    faces,
    isomorphic,
    lane_ones,
    restrict,
    row_lanes,
    validate,
)
from .corpus import platonic
from .cosets import coset_enumerate, string_coxeter
from .poset import flag_function, is_faithful, is_polytopal
from .voltage import Edge, canonical_edge, double_cover

B_FLAGS = 96
B_FACE_VECTOR = (4, 6, 6, 4)

# {4,3,4} quotient: hemicube facets and hemioctahedron vertex figures are
# imposed by collapsing the two length-3 zigzag words.
B_PRESENTATION = string_coxeter([4, 3, 4]).extended((0, 1, 2) * 3, (1, 2, 3) * 3)


class BuildError(Refusal):
    """A post-check on a constructed object failed."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BuildError(message)


def build_B() -> Maniplex:
    """Flag graph of the 96-flag counterexample substrate, fully post-checked.

    Reflexibility is decided before the sections, and only flag 0's facet
    and vertex figure are restricted and matched.  Reflexible means
    flag-transitive: for each flag f an automorphism carries flag 0 to f.
    An automorphism commutes with every r_k, so it carries the facet of
    flag 0, its orbit under colours 0, 1, 2, onto the facet of f, and its
    restriction there is an isomorphism of the two sub-maniplexes; so for
    the vertex figures, orbits under colours 1, 2, 3.  Every facet is then
    a hemicube exactly when flag 0's is, and every vertex figure a
    hemioctahedron exactly when flag 0's is (McMullen & Schulte, Abstract
    Regular Polytopes, 2002)."""
    b = coset_enumerate(B_PRESENTATION).to_maniplex()
    _require(b.flag_count == B_FLAGS, f"expected {B_FLAGS} flags, got {b.flag_count}")
    _require(validate(b).ok, "enumerated graph is not a maniplex")
    vector = tuple(len(set(face_table(b, i))) for i in range(4))
    _require(vector == B_FACE_VECTOR, f"face vector {vector} != {B_FACE_VECTOR}")
    # flat: every vertex is incident to every facet
    incident = set(zip(face_table(b, 0), face_table(b, 3)))
    _require(len(incident) == B_FACE_VECTOR[0] * B_FACE_VECTOR[3], "not flat")
    _require(automorphism_count(b).is_reflexible, "not reflexible")
    # faces come in increasing canonical order, so flag 0's comes first
    facet = restrict(b, faces(b, 3)[0].flags, (0, 1, 2))
    _require(isomorphic(facet, platonic("hemicube")) is not None, "facet is not a hemicube")
    figure = restrict(b, faces(b, 0)[0].flags, (1, 2, 3))
    _require(isomorphic(figure, platonic("hemioctahedron")) is not None, "vertex figure is not a hemioctahedron")
    _require(isomorphic(b, dual(b)) is not None, "not self-dual")
    _require(is_faithful(b).faithful, "flag function not faithful")
    _require(is_polytopal(b), "face poset is not a polytope")
    return b


# ---------- the marked flag set ----------

class ThetaNotFound(Refusal):
    pass


def _face_lifts_connected(cover: Maniplex, b: Maniplex) -> bool:
    """Does every face of b lift to one connected face of its double cover?

    Each base face's preimage is one cover face or two, so this holds
    exactly when the cover has as many faces as b at every rank."""
    return all(len(set(face_table(cover, i))) == len(set(face_table(b, i))) for i in range(b.rank))


def _cover_certified(b: Maniplex, theta: tuple[int, ...]) -> Optional[Maniplex]:
    """Post-filter: the voltage cover derived from the sorted marked set,
    when it is a maniplex and all face lifts connect, else None; its
    validation report and face tables stay cached."""
    cover = double_cover(b, build_E_theta(b, theta))
    return cover if validate(cover).ok and _face_lifts_connected(cover, b) else None


class _MarkCounts:
    """The running counts of the marked-set search, per vertex (i = 0) and
    per facet (i = 3): the marked flags in each face (members) and the
    marked flags whose colour-i neighbour lands in it (shifts), together
    with the 2-faces and the (vertex, facet) pairs already marked.

    (A.2)-(A.4) force, at every leaf, one or two members and members plus
    shifts equal to 3 in each such face, and two members of one vertex (of
    one facet) in different facets (vertices); the two members of a face
    already lie in different 1-faces and, marked here, 2-faces.  Marking a
    flag only raises the counts, so a prefix that breaks one of these
    bounds has no valid leaf below it.

    At a leaf the bounds leave one of (A.2)-(A.4) open: that every vertex
    and facet has a member.  A leaf marks one flag per 1-face, f1 flags;
    each is a member of one vertex and its colour-0 neighbour lies in one,
    so the vertex loads sum to 2 f1, which the gate of `find_theta` makes
    3 f0.  No load exceeds 3, so each is 3, and a vertex with a member has
    one member and two shifts or two members and one.  Two members of a
    vertex differ in 1-face, in 2-face and, as the (vertex, facet) pairs
    are distinct, in facet.  The facets go likewise, with colour 3 and f3.

    The counts are flat lists indexed by face id, a face's least flag, one
    list per count and extreme rank, and marking a flag tests the bounds
    of the six counts it raised, the only ones that can have broken one;
    `members` reads a count by rank and face id."""

    def __init__(self, b: Maniplex, maps) -> None:
        self.b, self.maps = b, maps
        size = b.flag_count
        self.vertex_members, self.facet_members = [0] * size, [0] * size
        self.vertex_load, self.facet_load = [0] * size, [0] * size  # members plus shifts
        self.twos: set[int] = set()
        self.pairs: set[tuple[int, int]] = set()

    def members(self, i: int, c: int) -> int:
        """The marked flags in face c of rank i, 0 or 3."""
        return (self.vertex_members if i == 0 else self.facet_members)[c]

    def _keys(self, f: int) -> tuple[int, int, int, int, int]:
        """f's 2-face, vertex and facet, and the vertex and facet of its
        colour-0 and colour-3 neighbours, whose loads it raises."""
        maps, perms = self.maps, self.b.perms
        return maps[2][f], maps[0][f], maps[3][f], maps[0][perms[0][f]], maps[3][perms[3][f]]

    def push(self, f: int) -> bool:
        """Mark f when the marked set stays within the bounds, and say whether it did."""
        two, vertex, facet, vertex_shift, facet_shift = self._keys(f)
        if two in self.twos or (vertex, facet) in self.pairs:
            return False
        self.twos.add(two)
        self.pairs.add((vertex, facet))
        vm, fm, vl, fl = self.vertex_members, self.facet_members, self.vertex_load, self.facet_load
        vm[vertex] += 1
        fm[facet] += 1
        vl[vertex] += 1
        vl[vertex_shift] += 1
        fl[facet] += 1
        fl[facet_shift] += 1
        if vm[vertex] <= 2 and fm[facet] <= 2 and max(vl[vertex], vl[vertex_shift], fl[facet], fl[facet_shift]) <= 3:
            return True
        self.pop(f)
        return False

    def pop(self, f: int) -> None:
        """Unmark f, the last flag marked."""
        two, vertex, facet, vertex_shift, facet_shift = self._keys(f)
        self.twos.discard(two)
        self.pairs.discard((vertex, facet))
        self.vertex_members[vertex] -= 1
        self.facet_members[facet] -= 1
        self.vertex_load[vertex] -= 1
        self.vertex_load[vertex_shift] -= 1
        self.facet_load[facet] -= 1
        self.facet_load[facet_shift] -= 1


def find_theta(b: Maniplex) -> tuple[int, ...]:
    """Lexicographically least valid marked set under canonical flag order,
    as its sorted flags: one flag per 1-face and per 2-face.

    Refused at once when the face counts rule a marked set out.  Otherwise
    depth-first over the 1-faces in canonical order, choosing flags in
    increasing order; a branch is cut as soon as its counts break a bound
    that every valid leaf meets (`_MarkCounts`), so the order and the
    answer are those of the search without the cuts.  A leaf that marks
    every vertex and facet meets (A.2)-(A.4) (`_MarkCounts`); the cover
    certification filters those leaves.  Computed once per maniplex and
    kept in its cache with the cover it certified, which is B* when b is B.
    """
    if b.rank != 4:
        raise ValueError("find_theta expects a rank-4 maniplex")
    found = b._cache.get("theta")
    if found is not None:
        return found[0]
    maps = [face_table(b, i) for i in range(4)]
    canonical = [set(ids) for ids in maps]
    f0, f1, f2, f3 = map(len, canonical)
    # one flag per 1-face and members plus shifts 3 in every vertex and facet
    # give 2 f1 = 3 f0 = 3 f3; the 2-faces must be distinct, so f2 >= f1
    if not (2 * f1 == 3 * f0 == 3 * f3 and f2 >= f1):
        raise ThetaNotFound("no marked set satisfies the conditions")
    one_faces = faces(b, 1)
    chosen: list[int] = []
    counts = _MarkCounts(b, maps)

    def dfs(level: int) -> Optional[tuple[tuple[int, ...], Maniplex]]:
        if level == len(one_faces):
            theta = tuple(sorted(chosen))
            marked = all(counts.members(i, c) for i in (0, 3) for c in canonical[i])
            cover = _cover_certified(b, theta) if marked else None
            return None if cover is None else (theta, cover)
        for f in one_faces[level].flags:
            if not counts.push(f):
                continue
            chosen.append(f)
            found = dfs(level + 1)
            chosen.pop()
            counts.pop(f)
            if found is not None:
                return found
        return None

    found = dfs(0)
    if found is None:
        raise ThetaNotFound("no marked set satisfies the conditions")
    b._cache["theta"] = found
    return found[0]


# ---------- the voltage edge set ----------

class EThetaOverlap(Refusal):
    pass


def path_edges(b: Maniplex, flag: int) -> tuple[Edge, ...]:
    """The four edges, in path order, hung off one marked flag."""
    f0 = b.perms[0][flag]
    f3 = b.perms[3][flag]
    return (
        canonical_edge(b, f3, 1),  # flag^31 -- flag^3
        canonical_edge(b, flag, 3),  # flag^3  -- flag
        canonical_edge(b, flag, 0),  # flag    -- flag^0
        canonical_edge(b, f0, 2),  # flag^0  -- flag^02
    )


def build_E_theta(b: Maniplex, theta: tuple[int, ...]) -> frozenset[Edge]:
    """The voltage edges: the union of the marked flags' paths, which must
    be edge-disjoint, in canonical (lower endpoint, colour) form."""
    union: set[Edge] = set()
    for f in theta:
        edges = path_edges(b, f)
        if len(set(edges)) != 4 or union & set(edges):
            raise EThetaOverlap(f"path edges of flag {f} overlap another group")
        union.update(edges)
    return frozenset(union)


# ---------- the balance conditions on faces ----------

@dataclass
class BConditionsReport:
    ok: bool
    failures: list[tuple[str, object]]
    outcomes: dict[tuple[int, int], str]  # (rank in {0,3}, canonical) -> "two-two-one" | "one-one-two"


def verify_B_conditions(b: Maniplex, theta: tuple[int, ...], edges: frozenset[Edge]) -> BConditionsReport:
    """Per-face balance of marked edges.

    Edge and polygon faces (ranks 1, 2) must contain exactly one marked
    edge of each other colour, and marked edges of their own colour avoid
    the marked flags while touching the right shifted set.  Vertex and
    facet faces (ranks 0, 3) split into the two allowed patterns.
    """
    failures: list[tuple[str, object]] = []
    outcomes: dict[tuple[int, int], str] = {}
    maps = [face_table(b, i) for i in range(4)]
    theta_set = set(theta)
    shifted = {i: set(b.perms[i][f] for f in theta) for i in range(4)}

    for colour in (1, 2):
        partner = (colour + 2) % 4
        for f, c in sorted(edges):
            if c != colour:
                continue
            g = b.perms[c][f]
            if f not in shifted[partner] and g not in shifted[partner]:
                failures.append(("B.1", (f, c)))
            if f in theta_set or g in theta_set:
                failures.append(("B.2", (f, c)))

    # count marked edges inside each face, per colour
    per_face: dict[tuple[int, int], dict[int, int]] = {}
    for f, c in edges:
        for i in range(4):
            if i == c:
                continue  # a colour-c edge joins two different c-faces
            key = (i, maps[i][f])
            per_face.setdefault(key, {}).setdefault(c, 0)
            per_face[key][c] += 1

    for i in (1, 2):
        for c in sorted(set(maps[i])):
            counts = per_face.get((i, c), {})
            for j in range(4):
                if j != i and counts.get(j, 0) != 1:
                    failures.append(("B.3", (i, c, j, counts.get(j, 0))))

    for i in (0, 3):
        near = ((i + 1) % 4, (i - 1) % 4)
        far = (i + 2) % 4
        for c in sorted(set(maps[i])):
            counts = per_face.get((i, c), {})
            two_two_one = all(counts.get(j, 0) == 2 for j in near) and counts.get(far, 0) == 1
            one_one_two = all(counts.get(j, 0) == 1 for j in near) and counts.get(far, 0) == 2
            if two_two_one == one_one_two:
                failures.append(("B.4", (i, c, dict(counts))))
            else:
                outcomes[(i, c)] = "two-two-one" if two_two_one else "one-one-two"
    return BConditionsReport(not failures, failures, outcomes)


# ---------- the double cover ----------

@dataclass
class BStarResult:
    b: Maniplex
    theta: tuple[int, ...]
    e_theta: frozenset[Edge]
    bstar: Maniplex
    checks: list[Check]
    witness: Optional[tuple[int, int]]  # sheet pair in one fiber
    verdict: coxeter.Verdict


def _projection_poset_iso(bstar: Maniplex, b: Maniplex) -> bool:
    """pos_of(bstar) = pos_of(b) after halving every canonical flag id.

    The projection sends cover flag v to v // 2, and the least member of a
    lifted face projects onto the least member of its image, so relabelling
    is exact; every face must also be a 2-to-1 lift.  A cover face whose
    flags all project into the base face of half its id, and which is twice
    that face's size, is such a lift (each base flag has two preimages).
    Halving is then a bijection of the faces of each rank, and it carries
    the order too: incidences are read off the flags, and each cover flag's
    faces halve to the faces of the base flag it projects to.

    The projection test is one comparison of whole rows per rank, on their
    32-bit lanes (`core.row_lanes`): `double_cover` numbers flag (f, s) as
    2f + s, so each entry of the cover's face table, its sheet bit cleared,
    must be twice the entry of its flag's base flag, read off the base row
    with each entry repeated for the two sheets.
    """
    if bstar.flag_count != 2 * b.flag_count:
        return False
    ones = lane_ones(bstar.flag_count)
    for i in range(bstar.rank):
        up, down = face_table(bstar, i), face_table(b, i)
        lifted, size = Counter(up), Counter(down)  # face id -> flags in the face
        if len(lifted) != len(size):
            return False
        repeated = array("i", [0]) * len(up)
        repeated[0::2] = repeated[1::2] = down
        if row_lanes(up) & ~ones != row_lanes(repeated) << 1:
            return False
        if any(count != 2 * size[c // 2] for c, count in lifted.items()):
            return False
    return True


def build_B_star() -> BStarResult:
    """Assemble and certify the unfaithful polytopal double cover of B.
    `cover-valid-maniplex` is a pass by construction: `find_theta` returns
    only a cover that validates (`_cover_certified`)."""
    b = build_B()
    theta = find_theta(b)
    bstar = b._cache["theta"][1]  # the cover the search certified, with its report and face tables
    e_theta = build_E_theta(b, theta)
    conditions = verify_B_conditions(b, theta, e_theta)

    checks = [
        passed("marked-set-conditions", conditions.ok, conditions.failures or None),
        passed("cover-flag-count", bstar.flag_count == 2 * B_FLAGS, bstar.flag_count),
        passed("cover-valid-maniplex", validate(bstar).ok),
    ]
    checks.append(passed("face-lifts-connected", _face_lifts_connected(bstar, b)))
    checks.append(passed("poset-projects-isomorphically", _projection_poset_iso(bstar, b)))

    faith = is_faithful(bstar)
    witness = faith.witness
    checks.append(passed("cover-unfaithful", not faith.faithful, witness))
    # every fiber is a sheet pair {2f, 2f + 1}: the two sheets share a chain
    # and the sheet pairs have distinct chains
    chains = flag_function(bstar)
    sheet_pairs = 2 * len(set(chains)) == len(chains) and all(
        chains[v] == chains[v + 1] for v in range(0, len(chains), 2)
    )
    checks.append(passed("fibers-are-sheet-pairs", sheet_pairs))
    v = coxeter.verdict(bstar)  # sparse is exactly polytopal
    checks.append(passed("cover-polytopal", v.sparse))
    checks.append(passed("verdict-sparse-not-semisparse", v.sparse and not v.semisparse))
    return BStarResult(b, theta, e_theta, bstar, checks, witness, v)

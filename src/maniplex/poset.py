"""Ranked face posets of maniplexes and the abstract-polytope axioms.

The i-faces of a maniplex are the connected components after deleting the
colour-i edges; two faces of different ranks are incident exactly when
their flag sets intersect.  A least face (rank -1) and greatest face
(rank n) are adjoined.  Only the face poset of a valid maniplex is
judged: its construction proves it a bounded, graded partial order
(facts (a), (b) and (d) below), so `is_polytope` checks the diamond
condition and strong flag connectivity, decided as connectivity of every
section's proper faces under incidence (see `flag_connectivity_witness`).

A `RankedPoset` is its integers: faces numbered by rank, then label, and
for each face the faces above and below it as bits of a Python int.
`pos_of` builds them straight from the face tables, and `section` slices
a poset's masks with the same numbering.  Covers and diamonds are one
mask test per order pair, and connectivity a breadth-first search over
masks.  The label views (`faces`, `less`, `rank_of`, `covers`) are
derived only when read, and the `is_polytope` report is computed once and
kept on the poset.

`pos_of` marks what it builds (`of_valid_maniplex`) by the maniplex's
memoised `validate` report, which it reads itself, and the extension's
read-off poset is marked by the extension's report.  Facts (a) to (d) are
the invariant of a marked poset, and `is_polytope` refuses any other with
ValueError:

(a) Gradedness.  Two faces are incident only when they share a flag, and
    that flag's faces of every rank in between lie above the one and below
    the other, so no cover skips a rank.  This needs no precondition.
(b) Boundedness, and transitivity of the pairs with the least or
    greatest face.  `face_poset` sets their masks as whole ranges: the
    least face lies below, and the greatest above, every other face.  This
    needs no precondition.
(c) Connectivity of every section whose lower face is the least face or
    whose upper face is the greatest, the whole poset included.  The flags
    of a face are joined by steps of the other colours, and a colour-k step
    changes only the k-face of a flag's chain, so the chains of the face's
    flags, and with them its faces below (above) it, are connected under
    incidence; the flag graph itself is connected.  This needs the face
    tables to be true components, that is involutory rows, and a connected
    flag graph: the valid report.
(d) Transitivity of the pairs of proper faces, and more: proper faces
    F_1, ..., F_m of increasing rank, each incident with the next, all lie
    in one flag.  Colours below rank k commute with colours above it, by
    the square axiom, so a word in the colours other than k splits as
    u v, with u in the colours below k and v in those above.  By
    induction, take a flag Φ in F_1, ..., F_{m-1} and a flag Ψ in F_{m-1}
    and F_m, with k the rank of F_{m-1}: both lie in F_{m-1}, so
    Ψ = u v Φ.  Then v Φ stays in F_1, ..., F_{m-1}, whose ranks are at
    most k, and Ψ = u (v Φ) puts it in F_m, whose rank is above k.  This
    needs the valid report, as (c) does, and with (b) it makes a marked
    poset transitive.

(f) Judging at one flag per automorphism orbit.  On a valid maniplex of
    any rank whose flag orbits `core.flag_orbits` decides, each flag is
    the image under an automorphism of a representative: flag 0 when the
    maniplex is reflexible, flag 0 or r_j(0) when it has two orbits.  An
    automorphism commutes with every r_k, so it carries each i-face, an
    orbit of the colours other than i, onto an i-face, and keeps
    incidence: it is an automorphism of the face poset.  By (d), each
    chain, incident pair and section between proper faces lies in a flag,
    and that flag is the image of a representative, so each is carried
    onto one at a representative.  Each test reads only the
    representative R's own faces F_k(R), its orbit under the colours
    other than k, each found by a search of its own size (`_faces_at`).
    The maniplex is polytopal when, at every representative R:
    - r_i R is not in F_i(R), for every rank i.  At the end ranks this is
      the diamond condition: a 1-face is an orbit of r_0 and the colours
      >= 2, which fix the 0-face and commute with r_0, so it has at most
      the 0-faces of f and r_0 f, for any flag f in it; mirrored at rank
      n - 1;
    - for 1 <= i <= n - 2, F_{i-1}(R) & F_{i+1}(R) lies in
      F_i(R) | F_i(r_i R).  By (d), the i-faces between R's (i-1)-face
      and (i+1)-face are those of the flags in that intersection.  R and
      r_i R both lie in it, as r_i changes only the i-face, and the first
      test makes their i-faces distinct, so it holds exactly two i-faces
      iff each of its flags lies in one of those two;
    - for proper ranks i, j with j - i >= 3, the orbit of R under the
      colours other than i and j is all of F_i(R) & F_j(R); it lies in
      that intersection, so it is all of it when it is as many.  Two such
      flags then differ by a word in those colours.  Colours below i,
      between i and j, and above j are two or more apart across blocks,
      so by the square axiom the word splits as
      w_low w_mid w_high with the three blocks commuting.  w_low and
      w_high change no face strictly between ranks i and j, and each
      letter of w_mid changes one, so the chains of the section between
      the two faces, each the middle of such a flag by (d), are joined by
      steps that change one face: the section is flag-connected, and so
      its proper faces are connected under incidence.
    The diamond condition then holds everywhere, (c) covers the sections
    at the least and greatest faces, and the construction gives a
    bounded, graded partial order, so McMullen-Schulte 2A1 makes the
    poset a polytope.  `polytope_report` accepts a maniplex by this test
    (`_polytopal_at`), with no face poset, no chain set and no face
    table; a maniplex it refuses, or one without representatives, is
    judged by the poset search, which names the witness.
    Likewise, when two flags share a chain, an automorphism carries the
    one onto a representative and the other onto another flag with the
    representative's chain, a flag of every face of the representative:
    the maniplex is faithful when F_0(R) & ... & F_{n-1}(R) is {R} at
    each representative R (`_faithful_at`).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

from .core import Maniplex, face_table, flag_orbits, validate, walk_rows

ISO_FACE_LIMIT = 64  # brute-force poset matching is only vouched for below this


class PosetTooLarge(ValueError):
    """A poset is over ISO_FACE_LIMIT proper faces, too large to match by brute force."""


def _labels_in(labels: tuple[str, ...], mask: int) -> list[str]:
    """The labels of the faces whose bits are set in mask, by face number."""
    return [label for k, label in enumerate(labels) if mask >> k & 1]


class RankedPoset:
    """A bounded ranked poset held as integers.  Face k is labels[k], an
    opaque string, of rank ranks[k], faces numbered by rank, then label; on
    a face poset, ids[k] is its id in the face table of its rank.  Bit j of
    up[k] (of down[k]) is set when face j lies above (below) face k; pairs
    are the order pairs as (k, j), and `less` is the strict order as label
    pairs.  Two posets are equal when they have the same rank, faces and
    order.  A poset is not changed once numbered, so `is_polytope` keeps
    its report on it.  `face_poset` and `section` build one."""

    # the face poset of a valid maniplex, as its builders mark it (see the module docstring)
    of_valid_maniplex = False

    def _set(self, rank: int, labels: list[str], ranks: list[int], proper) -> None:
        """Number the faces as listed and set their masks from the order
        pairs between proper faces, given as proper: face 0 lies below and
        the last face above every other face, so their pairs are added and
        their masks set as whole ranges of face numbers."""
        count = len(labels)
        bit = [1 << k for k in range(count)]
        top = count - 1
        up, down = [bit[top]] * count, [1] * count
        up[0], down[0], up[top], down[top] = (1 << count) - 2, 0, 0, (1 << top) - 1
        pairs = [(0, k) for k in range(1, count)] + [(k, top) for k in range(1, top)]
        pairs += proper
        for i, j in proper:
            up[i] |= bit[j]
            down[j] |= bit[i]
        self.rank, self.labels, self.ranks = rank, tuple(labels), tuple(ranks)
        self.up, self.down, self.pairs = tuple(up), tuple(down), tuple(pairs)
        self._report: Optional[PolytopeReport] = None  # kept by the first `is_polytope`

    # faces are numbered canonically, so equal faces and order mean equal integers
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankedPoset):
            return NotImplemented
        return (self.rank, self.labels, self.ranks, self.up) == (other.rank, other.labels, other.ranks, other.up)

    def __hash__(self) -> int:
        return hash((self.rank, self.labels, self.ranks, self.up))

    def __repr__(self) -> str:
        return f"RankedPoset(rank={self.rank}, faces={self.faces!r})"

    @cached_property
    def faces(self) -> tuple[tuple[str, ...], ...]:
        """The labels of each rank, in label order; index r + 1 holds rank r."""
        ranked = list(zip(self.labels, self.ranks))
        return tuple(tuple(x for x, r in ranked if r == rank) for rank in range(-1, self.rank + 1))

    @cached_property
    def less(self) -> frozenset[tuple[str, str]]:
        labels = self.labels
        return frozenset((labels[i], labels[j]) for i, j in self.pairs)

    @cached_property
    def ids(self) -> tuple[int, ...]:
        """Face number -> c of its label 'i:c'; `face_poset` sets them."""
        return tuple(int(label.split(":")[1]) for label in self.labels)

    @cached_property
    def rank_of(self) -> dict[str, int]:
        return dict(zip(self.labels, self.ranks))

    @cached_property
    def covers(self) -> tuple[tuple[str, str], ...]:
        """Pairs a < b with nothing strictly between, sorted."""
        labels, up, down = self.labels, self.up, self.down
        return tuple(sorted((labels[i], labels[j]) for i, j in self.pairs if not up[i] & down[j]))

    def lt(self, a: str, b: str) -> bool:
        return (a, b) in self.less

    @property
    def proper_face_count(self) -> int:
        return sum(len(level) for level in self.faces[1:-1])

    def level(self, r: int) -> tuple[str, ...]:
        return self.faces[r + 1]


def pos_of(m: Maniplex) -> RankedPoset:
    """The face poset, with labels 'rank:canonicalFlag' plus '-1:0' and 'n:0';
    faces of different ranks are incident when some flag lies in both.
    Indexed straight from the face tables: per pair of ranks, the id pairs
    of the flags' faces.  Built once per maniplex and kept in its cache,
    marked when the maniplex's memoised `validate` report is ok; no polytope
    report is computed here."""
    p = m._cache.get("poset")
    if p is None:
        n, valid = m.rank, validate(m).ok
        ids = [face_table(m, i) for i in range(n)]
        incident = (((i, j), set(zip(ids[i], ids[j]))) for i in range(n) for j in range(i + 1, n))
        p = m._cache["poset"] = face_poset(n, [set(row) for row in ids], incident, valid)
    return p


def face_poset(n: int, levels: list, incident: Iterable, valid: bool) -> RankedPoset:
    """The bounded rank-n poset whose rank-i faces are the ids in levels[i],
    labelled 'i:c' and numbered by rank, then label, with '-1:0' below and
    'n:0' above them all; incident yields, per pair of ranks (i, j), the id
    pairs (a, b) with face a of rank i below face b of rank j.  valid marks
    it as the face poset of a maniplex whose `validate` report is ok."""
    ids, ranks = [0], [-1]
    numbers: list[dict[int, int]] = []
    for i, level in enumerate(levels):
        level = sorted(level, key=str)
        numbers.append({c: k for k, c in enumerate(level, start=len(ids))})
        ids += level
        ranks += [i] * len(level)
    ids, ranks = ids + [0], ranks + [n]
    pairs = []
    for (i, j), ab in incident:
        lower, upper = numbers[i], numbers[j]
        pairs += [(lower[a], upper[b]) for a, b in ab]
    p = RankedPoset.__new__(RankedPoset)
    p._set(n, [f"{i}:{c}" for i, c in zip(ranks, ids)], ranks, pairs)
    p.ids = tuple(ids)
    p.of_valid_maniplex = valid
    return p


# ---------- flag function ----------

def flag_function(m: Maniplex) -> list[tuple[int, ...]]:
    """flag -> maximal chain of pos_of(M), as the face-table ids of the
    flag's faces of ranks 0..n-1 (face id c at rank i is the label 'i:c')."""
    return list(zip(*(face_table(m, i) for i in range(m.rank))))


class FaithfulnessResult(NamedTuple):
    faithful: bool
    witness: Optional[tuple[int, int]]  # two flags sharing every face


def is_faithful(m: Maniplex) -> FaithfulnessResult:
    """Faithful when no two flags share a chain.  Otherwise the witness is
    the two least flags of the first shared chain, with chains ordered by
    their 'i:c' labels, that is by the ids as strings; chains are counted
    only then.  The first chain is found rank by rank: keep the shared
    chains whose id at rank i is the least of theirs as a string, a
    choice among the under-100 faces of a rank.  When the maniplex's flag
    orbits' representatives are already in its cache
    (`core.flag_orbits`), a faithful maniplex is accepted at them from
    their own faces (`_faithful_at`): no face poset, no chain set, no
    face table; any other is judged from every flag's chain.  Computed
    once per maniplex and kept in its cache, which only this and
    `extension.verify_extension`'s carried witness write."""
    result = m._cache.get("faithful")
    if result is None:
        reps = m._cache.get("orbits")
        if reps and _faithful_at(m, reps):
            result = FaithfulnessResult(True, None)
        else:
            result = _faithfulness(m)
        m._cache["faithful"] = result
    return result


def _faithfulness(m: Maniplex) -> FaithfulnessResult:
    """`is_faithful` from every flag's chain."""
    chains = flag_function(m)
    if len(set(chains)) == m.flag_count:
        return FaithfulnessResult(True, None)
    shared = [c for c, count in Counter(chains).items() if count > 1]
    for i in range(m.rank):
        least = min({c[i] for c in shared}, key=str)
        shared = [c for c in shared if c[i] == least]
    first = chains.index(shared[0])
    return FaithfulnessResult(False, (first, chains.index(shared[0], first + 1)))


def _faithful_at(m: Maniplex, reps: tuple[int, ...]) -> bool:
    """Whether no other flag has the chain of a representative of the
    flag orbits: every flag is an automorphic image of one, and an
    automorphism carries chains onto chains, so the maniplex is then
    faithful.  The flags with a representative's chain are those in all
    of its faces, read off its own faces (`_faces_at`), with no face
    table."""
    return all(len(set.intersection(*_faces_at(m, rep))) == 1 for rep in reps)


# ---------- polytope axioms ----------

@dataclass(frozen=True)
class PolytopeReport:
    ok: bool
    failed: Optional[str]  # first failed axiom: "diamond" or "strong-flag-connectivity"
    witness: object


def proper_pairs(p: RankedPoset) -> tuple[tuple[int, int], ...]:
    """The order pairs of proper faces, which `_set` lists after the
    2 * faces - 3 pairs with the least or greatest face."""
    return p.pairs[2 * len(p.labels) - 3 :]


def diamond_witness(p: RankedPoset) -> Optional[tuple[str, str, tuple[str, ...]]]:
    """The least pair two ranks apart, in label order, with other than two
    faces strictly between, and those faces; None when there is none."""
    labels, ranks, up, down = p.labels, p.ranks, p.up, p.down
    bad = [
        (labels[i], labels[j], up[i] & down[j])
        for i, j in p.pairs
        if ranks[j] - ranks[i] == 2 and (up[i] & down[j]).bit_count() != 2
    ]
    if not bad:
        return None
    a, b, middles = min(bad)
    return (a, b, tuple(sorted(_labels_in(labels, middles))))


def maximal_chains(p: RankedPoset) -> list[tuple[str, ...]]:
    """All maximal chains, as cover paths from the least to the greatest face."""
    cover_up: dict[str, list[str]] = defaultdict(list)
    for a, b in p.covers:  # sorted, so each face's covers are too
        cover_up[a].append(b)
    bottom = p.level(-1)[0]
    out: list[tuple[str, ...]] = []
    stack: list[tuple[str, ...]] = [(bottom,)]
    while stack:
        chain = stack.pop()
        nxt = cover_up.get(chain[-1])
        if not nxt:
            out.append(chain)
        else:
            for b in nxt:
                stack.append(chain + (b,))
    return sorted(out)


def section(p: RankedPoset, lower: str, upper: str) -> RankedPoset:
    """The section upper/lower, re-ranked so lower sits at rank -1: the
    faces between them, with both ends, keep p's labels and numbering
    order.  It is not built from a maniplex's face tables, so it is not
    marked.  Public API that nothing in the package calls: `is_polytope`
    searches the parent's masks and builds no section."""
    if lower not in p.rank_of or upper not in p.rank_of:
        raise ValueError("section endpoints must be faces of the poset")
    if not p.lt(lower, upper):
        raise ValueError(f"section endpoints must be comparable: {lower!r}, {upper!r}")
    i, j = p.labels.index(lower), p.labels.index(upper)
    inside = p.up[i] & p.down[j]
    keep = [i, *(k for k in range(i + 1, j) if inside >> k & 1), j]
    number = {k: x for x, k in enumerate(keep)}
    pairs = [(number[a], number[b]) for a in keep[1:-1] for b in keep[1:-1] if p.up[a] >> b & 1]
    low = p.ranks[i] + 1
    s = RankedPoset.__new__(RankedPoset)
    s._set(p.ranks[j] - low, [p.labels[k] for k in keep], [p.ranks[k] - low for k in keep], pairs)
    return s


def flag_connectivity_witness(p: RankedPoset) -> Optional[tuple[str, str]]:
    """First section, as its (lower, upper) pair, whose proper faces are not
    connected under incidence; None when there is none.

    McMullen-Schulte, Abstract Regular Polytopes (2002), Proposition 2A1: a
    poset with least and greatest faces whose maximal chains all have
    rank + 2 faces (P1, P2) is strongly flag-connected iff it is strongly
    connected, i.e. every section of rank >= 2, itself included, has its
    proper faces connected under incidence.  A marked poset is such a
    poset by construction (facts (a), (b) and (d) of the module
    docstring).  Pairs go in (rank of lower, pair) order, three or more
    ranks apart (a section of rank <= 1 is connected by definition).  The
    named section's chain graph is disconnected too, but a search over
    chain graphs may stop at an earlier pair whose proper faces are
    connected while a subsection's are not.

    Each search runs on the face masks: the section's proper faces are the
    mask up[lower] & down[upper], and each round adds every face above or
    below one on the frontier.  The sections whose lower face is the least
    or whose upper face is the greatest are connected by construction
    (fact (c) of the module docstring) and are not searched.
    """
    labels, ranks, up, down = p.labels, p.ranks, p.up, p.down
    # faces are numbered by rank, then label, so (rank, label) of lower is its number
    sections = sorted((i, labels[j], j) for i, j in proper_pairs(p) if ranks[j] - ranks[i] > 2)
    near = [u | d for u, d in zip(up, down)] if sections else []
    for i, upper, j in sections:
        inside = up[i] & down[j]
        reached = frontier = inside & -inside
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= near[low.bit_length() - 1]
                frontier ^= low
            frontier = grown & inside & ~reached
            reached |= frontier
        if reached != inside:
            return (labels[i], upper)
    return None


def is_polytope(p: RankedPoset) -> PolytopeReport:
    """Abstract-polytope test of a marked poset with first-failure
    reporting; ValueError on any other poset.

    The construction proves a bounded, graded partial order (see the module
    docstring), so the diamond condition is checked, then strong flag
    connectivity, decided by McMullen-Schulte's Proposition 2A1; its witness
    is the first (lower, upper) section whose proper faces are disconnected
    under incidence (`flag_connectivity_witness`).  The report is computed
    once per poset and kept on it.
    """
    if not p.of_valid_maniplex:
        raise ValueError("only the face poset of a valid maniplex is judged")
    if p._report is None:
        p._report = _judge(p)
    return p._report


def _judge(p: RankedPoset) -> PolytopeReport:
    witness = diamond_witness(p)
    if witness is not None:
        return PolytopeReport(False, "diamond", witness)
    witness = flag_connectivity_witness(p)
    if witness is not None:
        return PolytopeReport(False, "strong-flag-connectivity", witness)
    return PolytopeReport(True, None, None)


def polytope_report(m: Maniplex) -> PolytopeReport:
    """The report `is_polytope(pos_of(m))` gives, computed once per
    maniplex and kept in its cache; ValueError when m's `validate` report
    fails.  A maniplex whose flag orbits `flag_orbits` decides is accepted
    at its representatives when fact (f) of the module docstring passes
    there (`_polytopal_at`), from their own faces: no face poset, no
    chain set, no face table.  Any other, or one that fails there, has
    its poset built, or read from its cache, and searched, which names
    the witness."""
    report = m._cache.get("polytope")
    if report is None:
        if not validate(m).ok:
            raise ValueError("only a valid maniplex is judged")
        reps = flag_orbits(m)
        if reps and _polytopal_at(m, reps):
            report = PolytopeReport(True, None, None)
        else:
            report = is_polytope(pos_of(m))
        m._cache["polytope"] = report
    return report


def _orbit(view: tuple, flag: int, colours: Iterable[int]) -> set[int]:
    """The flags reached from flag by steps of the given colours."""
    rows = [view[c] for c in colours]
    queue, seen = [flag], {flag}
    for f in queue:
        for row in rows:
            g = row[f]
            if g not in seen:
                seen.add(g)
                queue.append(g)
    return seen


def _faces_at(m: Maniplex, flag: int) -> tuple[set[int], ...]:
    """The flag sets of the flag's faces F_0, ..., F_{n-1}, F_k its orbit
    under the colours other than k, each found by a search of its own
    size; searched once per maniplex and flag, and kept in its cache."""
    found = m._cache.setdefault("faces at", {})
    faces = found.get(flag)
    if faces is None:
        n, view = m.rank, walk_rows(m)
        faces = found[flag] = tuple(_orbit(view, flag, (c for c in range(n) if c != k)) for k in range(n))
    return faces


def _polytopal_at(m: Maniplex, reps: tuple[int, ...]) -> bool:
    """Whether fact (f) of the module docstring accepts the valid maniplex
    at its orbit representatives, tested in its order on the
    representatives' own faces (`_faces_at`), with no face table."""
    n, view = m.rank, walk_rows(m)
    for rep in reps:
        faces = _faces_at(m, rep)
        if any(row[rep] in face for face, row in zip(faces, view)):
            return False
        for i in range(1, n - 1):
            other = _orbit(view, view[i][rep], (c for c in range(n) if c != i))
            if not (faces[i - 1] & faces[i + 1]) - faces[i] <= other:
                return False
        for i in range(n - 3):
            for j in range(i + 3, n):
                shared = len(faces[i] & faces[j])
                if len(_orbit(view, rep, (c for c in range(n) if c != i and c != j))) != shared:
                    return False
    return True


def is_polytopal(m: Maniplex) -> bool:
    """Does the maniplex have polytopal face structure?"""
    return polytope_report(m).ok


# ---------- poset isomorphism (small posets) ----------

def _signatures(p: RankedPoset) -> dict[str, tuple]:
    labels = p.labels
    sig = {label: (r,) for label, r in zip(labels, p.ranks)}
    for _ in range(2):  # two refinement rounds are plenty at these sizes
        sig = {
            label: (
                sig[label],
                tuple(sorted(sig[x] for x in _labels_in(labels, up))),
                tuple(sorted(sig[x] for x in _labels_in(labels, down))),
            )
            for label, up, down in zip(labels, p.up, p.down)
        }
    return sig


def poset_isomorphism(p: RankedPoset, q: RankedPoset) -> Optional[dict[str, str]]:
    """Rank-preserving order isomorphism by backtracking, or None.

    Only vouched for on posets with at most ISO_FACE_LIMIT proper faces.
    The package's own facet-section check no longer calls it (see
    `extension._sections_match_base`); the tests keep it as the
    brute-force oracle for that check.
    """
    if p.rank != q.rank:
        return None
    if tuple(len(level) for level in p.faces) != tuple(len(level) for level in q.faces):
        return None
    if max(p.proper_face_count, q.proper_face_count) > ISO_FACE_LIMIT:
        raise PosetTooLarge(f"poset too large for brute-force matching (> {ISO_FACE_LIMIT} proper faces)")
    sig_p, sig_q = _signatures(p), _signatures(q)
    if sorted(sig_p.values()) != sorted(sig_q.values()):
        return None
    order = [label for level in p.faces for label in level]
    candidates = {
        label: [x for x in q.level(p.rank_of[label]) if sig_q[x] == sig_p[label]]
        for label in order
    }
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        a = order[k]
        for b in candidates[a]:
            if b in used:
                continue
            good = True
            for a2, b2 in mapping.items():
                if ((a, a2) in p.less) != ((b, b2) in q.less) or ((a2, a) in p.less) != ((b2, b) in q.less):
                    good = False
                    break
            if good:
                mapping[a] = b
                used.add(b)
                if extend(k + 1):
                    return True
                del mapping[a]
                used.remove(b)
        return False

    return dict(mapping) if extend(0) else None


# ---------- exports ----------

def poset_to_json_dict(p: RankedPoset) -> dict:
    return {
        "rank": p.rank,
        "faces": [list(level) for level in p.faces],
        "hasse": [list(pair) for pair in p.covers],
    }


def poset_to_dot(p: RankedPoset, include_extremes: bool = True) -> str:
    """Hasse diagram in DOT form, one same-rank group per rank."""
    skip: set[str] = set()
    if not include_extremes:
        skip = set(p.level(-1)) | set(p.level(p.rank))
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=box];"]
    for r in range(-1, p.rank + 1):
        labels = [label for label in p.level(r) if label not in skip]
        if labels:
            inner = " ".join(f'"{label}";' for label in labels)
            lines.append(f"  {{ rank=same; {inner} }}")
    for a, b in p.covers:
        if a not in skip and b not in skip:
            lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


"""Maniplexes as properly n-edge-coloured flag graphs.

A rank-n maniplex on m flags is stored as n involutions of {0, ..., m-1}:
``perms[i][f]`` is the flag joined to f by its colour-i edge.  The
constructor holds the table to n >= 1 maps of m >= 1 flags into
themselves, the rows the decoder reads; the axioms (fixed-point-free
involutions, proper colouring, connectivity, and the square condition for
colours at distance > 1) are checked by `validate`, not by the
constructor, so deliberately broken maniplexes can be represented and
reported on.  The face labelling and the isomorphism and automorphism
kernels take valid maniplexes only, and so walk one path: the alternating
cycles of two colours.
"""

from __future__ import annotations

import json
import sys
from array import array
from binascii import a2b_base64, b2a_base64
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import compress, count, islice
from operator import itemgetter, ne
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

DOT_PALETTE = ("red", "green", "blue", "orange")

AXIOM_INVOLUTION = "involution"
AXIOM_FIXED_POINT_FREE = "fixed-point-free"
AXIOM_PROPER = "proper-colouring"
AXIOM_CONNECTED = "connected"
AXIOM_SQUARE = "square"


class FormatError(ValueError):
    """A maniplex description that is structurally malformed."""


@dataclass(frozen=True, slots=True)
class Maniplex:
    """Plain container for the edge-colouring permutations, plus a cache kept
    out of equality, hashing and repr: under key i, the face table of rank i,
    each flag's face id as an `array('i')` (`face_table`); under "valid",
    the `validate` report; under "orbits", one flag per orbit of a valid
    maniplex's automorphisms, as the lemma decides them, or () when it
    does not (`flag_orbits`); under
    "automorphisms", the `automorphism_count` result; under "faithful",
    the faithfulness result (`poset.is_faithful`, or the witness
    `extension.verify_extension` carries to an unfaithful extension);
    under "faces at", a dict from an orbit
    representative to the flag sets of its n faces, which
    `poset.polytope_report` and `poset.is_faithful` read
    (`poset._faces_at`); under "poset",
    the face poset (`poset.pos_of`, or the extension pipeline's poset read
    off the base); under "polytope", the polytope report
    (`poset.polytope_report`);
    under "theta", the marked set of a rank-4 maniplex and the double cover
    it gives (`counterexample.find_theta`); under "walk", its rows as
    tuples (`walk_rows`); under "tree", the spanning tree of flag 0's
    component, recorded by whichever of `validate` and the first
    propagation walks it first, on rows that pass the row axioms, that
    `validate` reads connectivity off and `isomorphic` and
    `automorphism_count` carry a map along (`_spanning_tree`).
    A face-table entry may also be a zero-argument callable that builds
    the table, as the extension pipeline leaves one; `face_table` calls it
    on the first read.

    The table must be sound: a list or a tuple of at least one row, each
    a list, a tuple or an array of m >= 1 plain ints in 0..m-1 (bools
    excluded), m the length of the first row, or 0 when that row is none
    of these.  Any other table raises the FormatError that
    `maniplex_from_json` raises on its format-1 document (`_checked_row`).
    Each row is kept as an `array('i')` of its own, 4 bytes an entry: an
    `array('i')` row is copied, so that the caller's later writes to it
    do not reach the maniplex, and any other row is packed.  The
    package's builders, whose rows are sound by construction, skip the
    checks and the copy (`from_sound_rows`)."""

    perms: tuple[array, ...]
    _cache: dict[int | str, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.perms, (list, tuple)):
            raise FormatError("perms must be a list with one row per colour")
        rows = tuple(self.perms)
        if not rows:
            raise FormatError("rank must be a positive integer")
        size = len(rows[0]) if isinstance(rows[0], (list, tuple, array)) else 0
        if size < 1:
            raise FormatError("flags must be a positive integer")
        perms = []
        for i, row in enumerate(rows):
            checked = _checked_row(row, i, size)
            perms.append(checked[:] if checked is row else checked)
        object.__setattr__(self, "perms", tuple(perms))

    def __hash__(self) -> int:
        return hash(tuple(row.tobytes() for row in self.perms))

    @property
    def rank(self) -> int:
        return len(self.perms)

    @property
    def flag_count(self) -> int:
        return len(self.perms[0])

    def __repr__(self) -> str:
        return f"Maniplex(rank={self.rank}, flags={self.flag_count})"


def from_sound_rows(perms: tuple[array, ...]) -> Maniplex:
    """The maniplex on rows the caller has made sound: at least one, each
    an `array('i')` of one length, at least one, with every entry in
    range.  The rows are kept as given, with none of the constructor's
    checks."""
    m = object.__new__(Maniplex)
    object.__setattr__(m, "perms", perms)
    object.__setattr__(m, "_cache", {})
    return m


def from_int_rows(rows: Iterable[Iterable[int]]) -> Maniplex:
    """The maniplex on rows of plain ints in range, as the package's
    builders make them: packed with no check, and the rows, as tuples,
    kept as its walk view (`walk_rows`)."""
    view = tuple(map(tuple, rows))
    m = from_sound_rows(tuple(array("i", row) for row in view))
    m._cache["walk"] = view
    return m


def walk_rows(m: Maniplex) -> tuple[tuple[int, ...], ...]:
    """The rows as tuples of int objects, for the loops that read them
    entry by entry (`_validate`, `_component_ids`, `_spanning_tree`,
    `_propagate`, `restrict`): reading an `array('i')` entry above 256
    boxes a fresh int, and indexing a tuple is about twice as fast.  Built
    once per maniplex, on the first call, from the pool of flag ints
    (`flag_ints`), 8 bytes an entry.  A maniplex whose rows are never
    walked, such as an extension read off its base, never builds it."""
    view = m._cache.get("walk")
    if view is None:
        pool = flag_ints(m.flag_count).__getitem__
        view = m._cache["walk"] = tuple(tuple(map(pool, row)) for row in m.perms)
    return view


class Violation(NamedTuple):
    axiom: str
    witness: tuple


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]


class Component(NamedTuple):
    canonical: int
    flags: tuple[int, ...]


class Face(NamedTuple):
    rank: int
    canonical: int
    flags: tuple[int, ...]


_FLAG_INTS: list[int] = []


def flag_ints(n: int) -> list[int]:
    """The pool of flag ints, grown to hold at least 0..n-1: entry k is the
    int object k.  Every walk view (`walk_rows`), every table that
    `cosets.coset_enumerate` builds and every `faces` list takes its
    entries from the pool, so a flag value is one int object across all
    of them.  The pool never shrinks: it keeps the ints of the largest
    maniplex walked, tabulated or grouped into faces in the process alive,
    about 40 bytes a flag (2 MB at 49 152 flags)."""
    if len(_FLAG_INTS) < n:
        _FLAG_INTS.extend(range(len(_FLAG_INTS), n))
    return _FLAG_INTS


def validate(m: Maniplex) -> ValidationReport:
    """Check the maniplex axioms, reporting one witness per violated axiom;
    computed once per maniplex and kept in its cache."""
    report = m._cache.get("valid")
    if report is None:
        report = m._cache["valid"] = _validate(m)
    return report


def _validate(m: Maniplex) -> ValidationReport:
    """Each axiom is decided over whole rows in C, and its witness, the
    least failing flag, read off the same rows: involutions and squares
    by composing rows (`_compose`), fixed points and improper colouring
    by the lanes of the packed rows (`_zero_lane`)."""
    violations: list[Violation] = []  # one witness per failing row or colour pair
    perms = walk_rows(m)
    n, size = m.rank, m.flag_count
    ident = _identity(size)
    ones, ident_lanes = lane_ones(size), row_lanes(array("i", range(size)))
    for i, row in enumerate(perms):
        f = _first_difference(_compose(row, row), ident)
        if f is not None:
            violations.append(Violation(AXIOM_INVOLUTION, (i, f)))
        f = _zero_lane(row_lanes(m.perms[i]) ^ ident_lanes, ones)
        if f is not None:
            violations.append(Violation(AXIOM_FIXED_POINT_FREE, (i, f)))
    for i in range(n):
        lanes = row_lanes(m.perms[i])  # one row's lanes at a time: at rank 10, 3 MB each
        for j in range(i + 1, n):
            f = _zero_lane(lanes ^ row_lanes(m.perms[j]), ones)
            if f is not None:
                violations.append(Violation(AXIOM_PROPER, (i, j, f)))
    # connectivity: the witness is the least flag not reached from flag 0,
    # on rows that pass the axioms above by the walk that `_propagate`
    # carries maps along
    missing = _unreached(perms, size) if violations else _spanning_tree(m)[2]
    if missing is not None:
        violations.append(Violation(AXIOM_CONNECTED, (missing,)))
    # colours at distance > 1 must generate 4-cycles: (r_i r_j)^2 is the identity
    for i in range(n):
        for j in range(i + 2, n):
            rirj = _compose(perms[i], perms[j])
            f = _first_difference(_compose(rirj, rirj), ident)
            if f is not None:
                violations.append(Violation(AXIOM_SQUARE, (i, j, f)))
    return ValidationReport(not violations, tuple(violations))


def _identity(size: int) -> tuple[int, ...]:
    """The row f -> f on size flags, as the pool's ints (`flag_ints`)."""
    return tuple(islice(flag_ints(size), size))


def _getter(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """row -> the tuple of row[k] for k in indices, read in C by one
    `itemgetter`."""
    if len(indices) == 1:  # a one-item itemgetter returns the item, not a tuple
        k = indices[0]
        return lambda row: (row[k],)
    return itemgetter(*indices)


def _compose(outer: Sequence[int], inner: Sequence[int]) -> tuple[int, ...]:
    """The row f -> outer[inner[f]]."""
    return _getter(inner)(outer)


def _first_difference(row: tuple, other: tuple) -> Optional[int]:
    """Least index where the rows differ, or None when they are equal; the
    equality test is one C comparison of the two tuples."""
    return None if row == other else next(compress(count(), map(ne, row, other)))


def row_lanes(row: array) -> int:
    """The row's entries as the 32-bit lanes of one int, one lane an entry."""
    return int.from_bytes(row.tobytes(), sys.byteorder)


def lane_ones(size: int) -> int:
    """The int with a 1 in each of `size` 32-bit lanes."""
    return row_lanes(array("i", [1]) * size)


def tagged_row(base: int, ones: int, twist: int, size: int, tags: int) -> array:
    """The row of tags * size entries whose entry tags * g + t is lane g
    of base plus t XOR lane g of twist, for lanes whose sums stay below
    2**31; ones has a 1 in each of the size lanes.  One extended slice
    assignment per tag writes it, with no Python step per entry."""
    row = array("i", [0]) * (tags * size)
    for t in range(tags):
        row[t::tags] = array("i", (base + (t * ones ^ twist)).to_bytes(4 * size, sys.byteorder))
    return row


def _zero_lane(x: int, ones: int) -> Optional[int]:
    """The lowest 32-bit lane of x that is 0, or None, for x whose lanes
    are all below 2**31 and ones with a 1 in each of them.  A lane v sets
    its top bit in (x - ones) & ~x only when v - 1, less a borrow from the
    lane below, wraps; a borrow comes only from a lane that wrapped, so
    the lowest top bit set is that of the lowest lane 0 (SIMD within a
    register)."""
    hits = (x - ones) & ~x & ones << 31
    return (hits & -hits).bit_length() - 1 >> 5 if hits else None


_RANGE_LANES = 4096  # lanes per range test, so that each of its ints is 16 KB
_RANGE_ONES = lane_ones(_RANGE_LANES)


def _lanes_in_range(row: array, size: int) -> bool:
    """Whether every entry of the `array('i')` row is in 0..size-1, decided
    on the 32-bit lanes x of each slice of `_RANGE_LANES` entries, with no
    int per entry, by the top bits of x and of x plus 2**31 - size in each
    lane.  A negative entry is a lane with its top bit set.  Once none is,
    a lane v stays below 2**31, and v plus 2**31 - size sets the top bit
    exactly when v >= size, while the sum stays below 2**32, so no carry
    reaches the next lane.  A negative lane's sum may carry, but its own
    top bit has already failed the slice.  A short last slice lacks lanes,
    which read as 0 and pass whenever size >= 1; for a smaller size every
    entry is out of range, and 0 + 2**31 fails."""
    below = min(max((1 << 31) - size, 0), 1 << 31)
    ones = _RANGE_ONES >> 32 * max(_RANGE_LANES - len(row), 0)  # one lane per entry of the first slice
    adds, tops = below * ones, ones << 31
    for k in range(0, len(row), _RANGE_LANES):
        x = row_lanes(row[k : k + _RANGE_LANES])
        if (x | x + adds) & tops:
            return False
    return True


def _check_colours(m: Maniplex, colours: Iterable[int]) -> tuple[int, ...]:
    cols = tuple(sorted(set(colours)))
    for c in cols:
        if not 0 <= c < m.rank:
            raise ValueError(f"colour {c} out of range for rank {m.rank}")
    return cols


def components(m: Maniplex, colours: Iterable[int]) -> list[Component]:
    """Connected components of the subgraph spanned by the given colours;
    ValueError unless m is a valid maniplex (`validate`, cached)."""
    cols = _check_colours(m, colours)
    if not validate(m).ok:
        raise ValueError("only a valid maniplex has its components labelled")
    groups: dict[int, list[int]] = {}
    for f, c in enumerate(_component_ids(m, cols)):
        groups.setdefault(c, []).append(f)
    return [Component(c, tuple(flags)) for c, flags in groups.items()]


def _component_ids(m: Maniplex, cols: Sequence[int]) -> array:
    """flag -> least flag of its component under the given colours.

    On a valid maniplex, each orbit of <r_a, r_b>, for the first two
    colours, or the one colour taken twice, is one alternating cycle f,
    r_a f, r_b r_a f, ..., back to f (McMullen & Schulte, Abstract Regular
    Polytopes, 2B), walked with no stack; only the other colours'
    neighbours are queued, each at most once.  A colour two or more away
    from both commutes with r_a and r_b, so it carries the whole cycle
    onto one cycle: only its image of the cycle's first flag is looked
    at.  For no colour, each flag is its own component."""
    if not cols:
        return array("i", range(m.flag_count))
    view = walk_rows(m)
    a, b, others = view[cols[0]], view[cols[min(len(cols), 2) - 1]], cols[2:]
    far = {c for c in others if abs(c - cols[0]) > 1 and abs(c - cols[1]) > 1}
    near_rows = [view[c] for c in others if c not in far]
    far_rows = [view[c] for c in others if c in far]
    ids = [-1] * m.flag_count  # -1 unreached, -2 queued, else the least flag of the component
    start = 0
    while True:  # start is the least unreached flag, so the least of its component
        queue = [start]
        for f in queue:
            if ids[f] >= 0:  # its cycle is walked
                continue
            g = f
            while True:
                h = a[g]
                ids[g] = ids[h] = start
                for row in near_rows:
                    x = row[g]
                    if ids[x] == -1:
                        ids[x] = -2
                        queue.append(x)
                    x = row[h]
                    if ids[x] == -1:
                        ids[x] = -2
                        queue.append(x)
                g = b[h]
                if g == f:
                    break
            for row in far_rows:
                x = row[f]
                if ids[x] == -1:
                    ids[x] = -2
                    queue.append(x)
        try:
            start = ids.index(-1, start + 1)
        except ValueError:
            return array("i", ids)


def face_table(m: Maniplex, i: int) -> array:
    """flag -> canonical id (least flag) of its i-face, the component after
    deleting the colour-i edges; computed once per maniplex and rank, or
    built by the callable the cache holds for it, on the first read;
    ValueError, before the cache is read, unless m is a valid maniplex."""
    if not 0 <= i < m.rank:
        raise ValueError(f"face rank {i} out of range for rank {m.rank}")
    if not validate(m).ok:
        raise ValueError("only a valid maniplex has its faces labelled")
    ids = m._cache.get(i)
    if ids is None:
        ids = m._cache[i] = _component_ids(m, [c for c in range(m.rank) if c != i])
    elif callable(ids):
        ids = m._cache[i] = ids()
    return ids


def faces(m: Maniplex, i: int) -> list[Face]:
    """The i-faces, in increasing canonical order, grouped from the face
    table on each call.  Each flag is stored as the pool's int for it
    (`flag_ints`), so the faces add no int objects of their own."""
    groups: dict[int, list[int]] = defaultdict(list)
    for f, c in zip(flag_ints(m.flag_count), face_table(m, i)):
        groups[c].append(f)
    return [Face(i, c, tuple(flags)) for c, flags in groups.items()]


def dual(m: Maniplex) -> Maniplex:
    """Reverse the colours: colour i becomes colour n-1-i.  The rows are
    shared, and so is the walk view, reversed, when m has one.  The axioms
    read the same with the colours reversed, so m's `validate` report,
    computed here if m has none, is shared too when it is ok: m and its
    dual are walked once between them."""
    d = from_sound_rows(tuple(reversed(m.perms)))
    report = validate(m)
    view = m._cache.get("walk")
    if view is not None:
        d._cache["walk"] = view[::-1]
    if report.ok:
        d._cache["valid"] = report
    return d


def _propagate(src: Maniplex, dst: Maniplex, image: int) -> Optional[tuple[int, ...]]:
    """Extend flag 0 -> image to a colour-preserving isomorphism between
    valid maniplexes of one rank and size, or fail.

    The proper colouring forces the whole map once one image is chosen: it
    is carried down the spanning tree of src (`_spanning_tree`), one
    assignment per flag, phi(g) = r_c'(phi(p)) for the flag p that g is
    reached from by its colour-c edge, along each alternating cycle of
    colours 0 and 1 in step with its image, whose closing colour-1 edge is
    checked as the cycle ends.  Every colour-0 edge and every colour-1
    edge but the closing ones is a tree edge, and r_0', r_1' are
    involutions, so only the colours past 1 are then checked, in C, as
    phi . r_i = r_i' . phi.  Nor is injectivity: a map that commutes with
    every colour on the connected src carries it onto a union of
    components of dst, so onto the connected dst, which has as many flags.
    """
    starts, colours, _ = _spanning_tree(src)
    view, rows = walk_rows(src), walk_rows(dst)
    k = min(src.rank, 2) - 1  # at rank 1, colour 0 closes its own cycles
    a, b, a2, b2 = view[0], view[k], rows[0], rows[k]
    phi = [-1] * src.flag_count
    for f, c in zip(starts, colours):
        x = phi[f] = rows[c][phi[view[c][f]]] if f else image
        g = f
        while True:
            h = a[g]
            x = phi[h] = a2[x]
            g = b[h]
            if g == f:
                break
            x = phi[g] = b2[x]
        if b2[x] != phi[f]:  # the cycle's closing edge
            return None
    at_phi = _getter(phi)
    for i in range(2, src.rank):
        if _getter(view[i])(phi) != at_phi(rows[i]):
            return None
    return tuple(phi)


def _spanning_tree(m: Maniplex) -> tuple[array, array, Optional[int]]:
    """The spanning tree of flag 0's component, for rows that are
    fixed-point-free involutions, properly coloured, walked once per
    maniplex, by `validate` or by the first propagation, whichever comes
    first, and kept in its cache under "tree", with the least flag it does
    not reach, or None.  The walk runs along the alternating cycles of
    colours 0 and 1, colour 0 taken twice at rank 1 (`_cycle_walk`): the
    tree is each cycle's first flag f, in the order walked, and the colour
    c of the edge it is reached by, from the flag r_c(f) walked before it,
    one byte each while the rank is at most 256; the cycle's other flags
    follow from f, edge by edge."""
    tree = m._cache.get("tree")
    if tree is None:
        tree = m._cache["tree"] = _cycle_walk(walk_rows(m), m.flag_count)
    return tree


def _cycle_walk(view: tuple[tuple[int, ...], ...], size: int) -> tuple[array, array, Optional[int]]:
    """The tree of `_spanning_tree`: flag 0's component walked as
    `_component_ids` walks it, along the alternating cycles of colours 0
    and 1, with the other colours' neighbours queued once each.  A cycle's
    first flag, other than flag 0, is reached from its neighbour already
    walked by the least such colour."""
    a, b, near = view[0], view[min(len(view), 2) - 1], view[2:]
    seen = bytearray(size)  # 0 unreached, 1 queued, 2 walked
    starts, colours = array("i"), array("B" if len(view) <= 256 else "i")
    seen[0] = 1
    queue = [0]
    for f in queue:
        if seen[f] == 2:  # its cycle is walked
            continue
        c = 0
        if f:
            c = 2
            while seen[view[c][f]] != 2:
                c += 1
        starts.append(f)
        colours.append(c)
        g = f
        while True:
            h = a[g]
            seen[g] = seen[h] = 2
            for row in near:
                x = row[g]
                if not seen[x]:
                    seen[x] = 1
                    queue.append(x)
                x = row[h]
                if not seen[x]:
                    seen[x] = 1
                    queue.append(x)
            g = b[h]
            if g == f:
                break
    missing = seen.find(0)
    return starts, colours, None if missing < 0 else missing


def _unreached(rows: Sequence[Sequence[int]], size: int) -> Optional[int]:
    """The least flag not reached from flag 0 along the rows' edges, or
    None, for rows that need not be involutions: one search from flag 0."""
    seen = bytearray(size)
    seen[0] = 1
    queue = [0]
    for f in queue:
        for row in rows:
            g = row[f]
            if not seen[g]:
                seen[g] = 1
                queue.append(g)
    missing = seen.find(0)
    return None if missing < 0 else missing


def isomorphic(m1: Maniplex, m2: Maniplex) -> Optional[tuple[int, ...]]:
    """A colour-preserving flag bijection m1 -> m2, or None; ValueError
    unless both are valid maniplexes (`validate`, cached)."""
    if not (validate(m1).ok and validate(m2).ok):
        raise ValueError("only valid maniplexes are tested for isomorphism")
    if m1.rank != m2.rank or m1.flag_count != m2.flag_count:
        return None
    for image in range(m2.flag_count):
        phi = _propagate(m1, m2, image)
        if phi is not None:
            return phi
    return None


class AutomorphismInfo(NamedTuple):
    count: int
    is_reflexible: bool


def flag_orbits(m: Maniplex) -> tuple[int, ...]:
    """One flag per orbit of the automorphism group on the flags of a
    valid maniplex, as one lemma decides them from a few images of flag 0:
    (0,) for one orbit, (0, r_j(0)) for two, () when the lemma stops
    undecided; ValueError on any other maniplex.  Computed once per
    maniplex and kept in its cache under "orbits".

    The group acts freely (connectivity plus forced propagation), so its
    orbit of flag 0 is the set of valid images, those that extend to an
    automorphism.  An automorphism commutes with each colour, so if
    phi(0) = u(0) and psi(0) = v(0) for words u, v in the colours, then
    phi(psi(0)) = v u (0) and phi^-1(0) = u^-1(0): the words w with w(0)
    valid form a subgroup S.

    The lemma.  Propagate r_i(0) for i = 0, 1, ... up to the first r_j(0)
    that fails.  If none fails, S holds every colour: one orbit.
    Otherwise I holds the colours below j; for each i > j, r_i r_j (0) is
    tried, then r_i(0), which joins I when it extends, and the lemma stops
    undecided when both fail.  Last, r_j r_i r_j (0) is propagated for
    each i in I next to j; when all extend, there are two orbits, of class
    2_I (Hubard, Two-orbit polyhedra from groups, 2010; Pellicer,
    Potocnik & Toledo, JCTA 166, 2019), represented by flags 0 and r_j(0).
    Proof: by Reidemeister-Schreier with the transversal {1, r_j}, the
    words with an even number of letters outside I form a subgroup H of
    index at most 2, generated by r_i for i in I, r_i r_j for i not in I,
    and r_j r_i r_j for i in I, which is r_i when i is two or more from j
    (the square axiom).  So S holds H, but not r_j: S is H, the valid
    images are H(0), and r_j(0) lies in the other orbit.

    A reflexible map pays its n images r_i(0), and a chiral one, I empty,
    r_0(0) and the n - 1 images r_i r_0 (0).  Each colour i > j that joins
    I costs one failure, r_i r_j (0), as S holds r_i but not r_j; an
    undecided maniplex stops at a colour whose two images fail, or at the
    first r_j r_i r_j (0) that fails."""
    reps = m._cache.get("orbits")
    if reps is None:
        if not validate(m).ok:
            raise ValueError("only a valid maniplex has its flag orbits decided")
        rows = walk_rows(m)

        def extends(image: int) -> bool:
            return _propagate(m, m, image) is not None

        j = next((i for i, row in enumerate(rows) if not extends(row[0])), None)
        if j is None:
            reps = (0,)
        else:
            rj, kept, reps = rows[j][0], set(range(j)), ()
            for i in range(j + 1, m.rank):
                if not extends(rows[i][rj]):
                    if not extends(rows[i][0]):
                        break
                    kept.add(i)
            else:
                if all(extends(rows[j][rows[i][rj]]) for i in (j - 1, j + 1) if i in kept):
                    reps = (0, rj)
        m._cache["orbits"] = reps
    return reps


def automorphism_count(m: Maniplex) -> AutomorphismInfo:
    """Number of colour-preserving automorphisms, computed once per
    maniplex and kept in its cache under "automorphisms".

    The action on flags is free (connectivity plus forced propagation), so
    the count equals the number of valid images of flag 0 and divides the
    flag count; equality is reflexibility.  On a valid maniplex whose flag
    orbits the lemma decides (`flag_orbits`), the count is the flags over
    the number of orbits, with no further propagation.

    Otherwise, as for B*, one image per orbit is propagated.  The valid
    images are the Aut-orbit of flag 0, so for the subgroup K generated by
    the automorphisms found so far, the valid images and the invalid ones
    are both unions of K-orbits: each success closes the valid set under
    the new generator (at least doubling K, by Lagrange), and each failure
    marks its flag's whole K-orbit invalid.  An image is marked invalid
    with no propagation when its face-size signature, the flag count of
    its i-face for each i, differs from flag 0's: an automorphism is
    colour-preserving and one to one, so it carries each face of flag 0,
    an orbit of the colours but one, onto the same-rank face of its image
    (`_alike_flag_0`).

    ValueError on a maniplex that is not valid, as `flag_orbits` raises.
    """
    info = m._cache.get("automorphisms")
    if info is None:
        info = m._cache["automorphisms"] = _automorphism_count(m)
    return info


def _automorphism_count(m: Maniplex) -> AutomorphismInfo:
    size = m.flag_count
    reps = len(flag_orbits(m))
    if reps:
        return AutomorphismInfo(size // reps, reps == 1)
    valid = [None] * size  # None: not yet decided
    valid[0] = True  # the identity
    gens = []
    alike = _alike_flag_0(m)
    for image in range(1, size):
        if valid[image] is not None:
            continue
        if not alike(image):
            valid[image] = False
            continue
        phi = _propagate(m, m, image)
        if phi is None:
            _close_orbit(valid, gens, [image], False)
        else:
            gens.append(phi)
            _close_orbit(valid, gens, list(compress(range(size), valid)), True)
    count = valid.count(True)
    return AutomorphismInfo(count, count == size)


def _alike_flag_0(m: Maniplex) -> Callable[[int], bool]:
    """flag -> whether each of its faces has as many flags as flag 0's
    face of the same rank, read off the face tables: only the ranks whose
    faces differ in size are looked at."""
    checks = []
    for i in range(m.rank):
        table = face_table(m, i)
        sizes = Counter(table)
        want = sizes[table[0]]
        alike = {c for c, k in sizes.items() if k == want}
        if len(alike) < len(sizes):
            checks.append((table, alike))
    return lambda f: all(table[f] in alike for table, alike in checks)


def _close_orbit(valid: list, gens: list[tuple[int, ...]], seeds: list[int], status: bool) -> None:
    """Mark every flag reachable from the seeds under the generators."""
    for f in seeds:
        valid[f] = status
    stack = list(seeds)
    while stack:
        f = stack.pop()
        for phi in gens:
            g = phi[f]
            if valid[g] is None:
                valid[g] = status
                stack.append(g)


def restrict(m: Maniplex, flags: Iterable[int], colours: Iterable[int]) -> Maniplex:
    """Sub-maniplex on a flag set closed under the given colours.

    Colours are relabelled in increasing order, flags in increasing order.
    Both sets must be nonempty, and every flag in 0..m.flag_count-1
    (ValueError otherwise, naming the least flag out of range).
    """
    cols = _check_colours(m, colours)
    flag_list = sorted(set(flags))
    if not cols or not flag_list:
        raise ValueError("a sub-maniplex needs at least one flag and one colour")
    if flag_list[0] < 0 or flag_list[-1] >= m.flag_count:
        bad = next(f for f in flag_list if not 0 <= f < m.flag_count)
        raise ValueError(f"flag {bad} out of range for {m.flag_count} flags")
    index = {f: k for k, f in enumerate(flag_list)}
    view = walk_rows(m)
    perms = []
    for c in cols:
        row = []
        for f in flag_list:
            g = view[c][f]
            if g not in index:
                raise ValueError(f"flag set not closed under colour {c} at flag {f}")
            row.append(index[g])
        perms.append(row)
    return from_int_rows(perms)


# ---------- serialization ----------

_FORMAT = 2  # the "format" of the documents `maniplex_json_chunks` writes
_BIG_ENDIAN = sys.byteorder == "big"


def _checked_row(row: object, i: int, size: int) -> array:
    """Row i of a table on size >= 1 flags as an `array('i')`, once it is
    checked to be a list, a tuple or an array of size plain ints in
    0..size-1 (bools excluded); else the FormatError that names the row
    or its first bad entry.  An `array('i')` row is kept, without a copy,
    once its lanes settle its range (`_lanes_in_range`); any other row
    takes a pass over its entries' types, then its min and max, and is
    packed.  A row that fails is scanned entry by entry."""
    if not isinstance(row, (list, tuple, array)) or len(row) != size:
        raise FormatError(f"perms[{i}] must be a list of length {size}")
    if type(row) is array and row.typecode == "i":
        if _lanes_in_range(row, size):
            return row
    elif set(map(type, row)) <= {int} and 0 <= min(row) and max(row) < size:
        return array("i", row)
    bad = next(v for v in row if type(v) is not int or not 0 <= v < size)
    raise FormatError(f"perms[{i}] entry out of range: {bad!r}")


def _checked_perms(doc: object) -> list[array]:
    """The document's rows, once its shape is checked, each as the
    `array('i')` that `_checked_row` makes of it, in place, so that a row
    of format 1, a list of ints, is dropped once it is packed.  In a
    format-2 document each row is a string, decoded into an `array('i')`
    before its checks (`_unpacked`); a document with no "format" key is
    format 1."""
    if not isinstance(doc, dict):
        raise FormatError("maniplex document must be a JSON object")
    packed = "format" in doc
    if packed and (type(doc["format"]) is not int or doc["format"] != _FORMAT):
        raise FormatError(f'unknown format {doc["format"]!r}: format 2 is read, and format 1 has no "format" key')
    for key in ("rank", "flags", "perms"):
        if key not in doc:
            raise FormatError(f"missing key {key!r}")
    rank, nflags, perms = doc["rank"], doc["flags"], doc["perms"]
    if type(rank) is not int or rank < 1:  # a bool is an int, but not a rank
        raise FormatError("rank must be a positive integer")
    if type(nflags) is not int or nflags < 1:
        raise FormatError("flags must be a positive integer")
    if not isinstance(perms, list) or len(perms) != rank:
        raise FormatError("perms must be a list with one row per colour")
    for i, row in enumerate(perms):
        perms[i] = _checked_row(_unpacked(row, i, nflags) if packed else row, i, nflags)
    return perms


def _unpacked(text: object, i: int, nflags: int) -> array:
    """The `array('i')` row that format-2 row i spells: the canonical
    base64 (RFC 4648 section 4: padded, no line breaks) of its entries'
    bytes as little-endian int32.  The text must be the one encoding of
    its bytes, so each row has one spelling, on every Python version."""
    try:
        data = a2b_base64(text)
        canonical = b2a_base64(data, newline=False) == text.encode()
    except (TypeError, ValueError):  # not a string, not ASCII, or not base64 (binascii.Error)
        canonical = False
    if not canonical:
        raise FormatError(f"perms[{i}] must be a string of canonical base64")
    if len(data) != 4 * nflags:
        raise FormatError(f"perms[{i}] must decode to {4 * nflags} bytes, 4 per flag, not {len(data)}")
    row = array("i", data)
    if _BIG_ENDIAN:
        row.byteswap()
    return row


def _base64(row: array) -> str:
    """The canonical base64 text of the row's entries as little-endian int32."""
    if _BIG_ENDIAN:
        row = array("i", row)
        row.byteswap()
    return b2a_base64(row, newline=False).decode("ascii")


def dumps_json(obj: object) -> str:
    """Canonical JSON used for every artifact this package writes."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_SLICE_ENTRIES = 3 << 12  # row entries encoded per chunk: 49 152 bytes, 64 KiB of base64


def maniplex_json_chunks(m: Maniplex) -> Iterator[str]:
    """The text of `maniplex_to_json`, generated in chunks: each row's
    base64 in slices of `_SLICE_ENTRIES` entries, a multiple of 3 bytes,
    so that the slices' texts join into the row's and no whole row's text
    is held.  Every maniplex holds rows the decoder reads (`Maniplex`), so
    the text decodes to it."""
    yield '{\n  "flags": %d,\n  "format": %d,\n  "perms": [' % (m.flag_count, _FORMAT)
    sep = '\n    "'
    for row in m.perms:
        yield sep
        for k in range(0, len(row), _SLICE_ENTRIES):
            yield _base64(row[k:k + _SLICE_ENTRIES])
        sep = '",\n    "'
    yield '"\n  ],\n  "rank": %d\n}\n' % m.rank


def maniplex_to_json(m: Maniplex) -> str:
    """`dumps_json` of the document {"rank", "flags", "format", "perms"}
    (the test oracle `oracles.to_json_dict_v2` builds it), appended to one
    string chunk by chunk: joining a list of the chunks would hold the
    text twice."""
    text = ""
    for chunk in maniplex_json_chunks(m):
        text += chunk
    return text


def maniplex_from_json(text: str) -> Maniplex:
    """Decode a document of format 2, or of format 1, by one `json.loads`
    and `_checked_perms`, into `array('i')` rows, which the maniplex keeps
    with no second check; text that fails to decode is a FormatError."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # an int literal over the digit limit, nesting too deep
        raise FormatError(f"invalid JSON: {exc}") from exc
    return from_sound_rows(tuple(_checked_perms(doc)))


def to_dot(m: Maniplex) -> str:
    """Flag graph in DOT form: one node per flag, coloured edges per matching."""
    lines = ["graph maniplex {", "  node [shape=circle];"]
    for f in range(m.flag_count):
        lines.append(f"  {f};")
    for i in range(m.rank):
        colour = DOT_PALETTE[i % len(DOT_PALETTE)]
        row = m.perms[i]
        for f in range(m.flag_count):
            if f < row[f]:
                lines.append(f'  {f} -- {row[f]} [color={colour}, label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

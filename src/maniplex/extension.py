"""Rank-raising extension of a maniplex over a marked facet.

The extension of a rank-n maniplex M over a facet F has flags (f, x) with
x in Z_2 x Z_2, numbered 4f + code(x) where code maps (0,0),(1,0),(0,1),
(1,1) to 0,1,2,3.  The old colours act on the flag part only; the new
colour n adds (1,0) outside F and (1,1) inside F, so it toggles the tag by
XOR 1 or XOR 3.  When M is connected, the four facets are the tag classes
{4g + t}, each carried from M by g -> 4g + t colour for colour, and the
face structure over any face of M is governed by its tag span:
{(0,0),(1,0)} when the face misses F, {(0,0),(1,1)} when it equals F, and
all four tags when it meets F without being contained in it.  Each span
is read off M's face poset, from the face's incidence with F (`_tag_spans`),
and it fixes the face id of every extension flag over the face.  When the
extension is searched on its own flags, the spans are certified by
comparing the predicted ids over each base face with the extension's.

When both row equations hold (the old colours copy a valid M tag by tag,
and the new colour moves the tag by XOR 1 off F and XOR 3 on it, as
`extend` builds it), the extension is read off M and F, with no search
over its flags: over each base i-face, the extension's i-faces are the
tag classes joined by XOR 1, XOR 3 or both, as the face has flags off F,
on F or both, which is its incidence with F in M's face poset
(`_quotient`).  So the map from each base face to the four extension
faces over it, the face poset and the axioms that involve the new colour
all follow from M's poset and F, and the checks read that map; the
extension's flag-sized face tables are built from it only when first
read.  The map is built from the spans, so there `tag-spans-match` fails
exactly when a base face lies properly inside F.  Any other row set is
searched on the extension's own flags.

The extension is polytopal, with no search of its poset, by amalgamation
(McMullen & Schulte, Abstract Regular Polytopes, 2002, section 2A) when
four premises hold: M's report is ok; the section below each facet is
order-isomorphic to M's poset (`facet-sections-match-base`); every ridge
lies in two facets (`ridges-in-two-facets`); and the extension's
`validate` report is ok, so its poset is marked, and so bounded, graded
and connected in each section at the least or greatest face (facts (a) to
(c) of the `poset` module docstring).  Every other section, every triple
a < b < c of proper faces and every pair two ranks apart below the
greatest face lie at or below a facet, where the order is M's, so their
transitivity, diamonds and connectivity are M's; a pair two ranks apart
at the greatest face is a ridge, with its two facets between.  When a
facet or ridge premise fails, `is_polytope` searches the poset; when the
extension is not valid, its poset is not judged, and its polytope checks
are skipped.  The extension of a valid, polytopal base over a facet is
always valid, so only a faulty `extend` can reach that case.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress
from typing import Optional

from .certify import INFO, SKIP, Check, passed
from .core import (
    Face,
    Maniplex,
    ValidationReport,
    face_table,
    from_sound_rows,
    lane_ones,
    row_lanes,
    tagged_row,
    validate,
)
from .poset import (
    FaithfulnessResult,
    PolytopeReport,
    RankedPoset,
    face_poset,
    is_faithful,
    is_polytope,
    pos_of,
    proper_pairs,
)

TAG_CODES = ((0, 0), (1, 0), (0, 1), (1, 1))
_TAGS_MISSING = frozenset({(0, 0), (1, 0)})
_TAGS_EQUAL = frozenset({(0, 0), (1, 1)})
_TAGS_ALL = frozenset(TAG_CODES)
# span -> for tag codes 0..3, the id of the extension face holding that tag over base face c, minus 4c
_TAG_OFFSETS = {_TAGS_MISSING: (0, 0, 2, 2), _TAGS_EQUAL: (0, 1, 1, 0), _TAGS_ALL: (0, 0, 0, 0)}


def _resolve_facet(m: Maniplex, facet: Face) -> Face:
    """The facet, once its flags are checked to be exactly those whose face
    id is its canonical id, in one pass over the facet table."""
    if facet.rank != m.rank - 1:
        raise ValueError(f"marked face has rank {facet.rank}, need {m.rank - 1}")
    ids = face_table(m, m.rank - 1)
    if not facet.flags or facet.flags != tuple(compress(range(len(ids)), map(facet.canonical.__eq__, ids))):
        raise ValueError("marked face does not match any facet of this maniplex")
    return facet


def extend(m: Maniplex, facet: Face) -> Maniplex:
    """The rank-(n+1) extension of M over the given facet.  Its rows are
    in range by construction, so the maniplex is made with no check of
    them.

    Each row is built by lane arithmetic on Python ints (SIMD within a
    register, Fisher & Dietz, LCPC 1998), with no Python step per entry:
    a base row's entries v, read as the 32-bit lanes of one int and
    shifted left by 2, are the lanes 4v, and adding t to every lane gives
    the entries 4v + t of flags 4g + t, which one extended slice
    assignment writes (`tagged_row`).  The new colour is built the same way from the
    lanes 4g, with t XOR 1, or t XOR 3 at the facet's flags.  No lane
    carries into the next while 4 * flags < 2**31, so the extension must
    fit an `array('i')`.
    """
    facet = _resolve_facet(m, facet)
    size = m.flag_count
    if 4 * size > 1 << 31:
        raise ValueError(f"an extension of {4 * size} flags does not fit an array('i')")
    ones = lane_ones(size)
    perms = [tagged_row(row_lanes(row) << 2, ones, 0, size, 4) for row in m.perms]
    perms.append(tagged_row(row_lanes(array("i", range(0, 4 * size, 4))), ones, row_lanes(_twists(m, facet)), size, 4))
    return from_sound_rows(tuple(perms))


def _twists(m: Maniplex, facet: Face) -> array:
    """Base flag g -> the XOR by which the new colour moves the tag of
    each flag 4g + t: 1 off the facet, 3 on it."""
    twist = array("i", [1]) * m.flag_count
    for f in facet.flags:
        twist[f] = 3
    return twist


def _tag_spans(m: Maniplex, facet: Face, i: int) -> dict[int, frozenset[tuple[int, int]] | None]:
    """Each i-face's tag span, keyed by canonical id, from the base poset's
    incidence with the marked facet F; None for an i-face properly
    contained in F.  Two faces are incident exactly when they share a flag,
    and faces of one rank share none, so a face not below F misses it, and
    one below F and another facet meets F without lying in it.  Each flag
    of a face lies in a facet above it, so a face whose one facet is F lies
    in F, and equals it when it has as many flags, counted in its table."""
    p, n = pos_of(m), m.rank
    facets = sum(1 << k for k, r in enumerate(p.ranks) if r == n - 1)
    marked = 1 << p.labels.index(f"{n - 1}:{facet.canonical}")
    spans: dict[int, frozenset[tuple[int, int]] | None] = {}
    for k, (r, c, up) in enumerate(zip(p.ranks, p.ids, p.up)):
        if r != i:
            continue
        if 1 << k == marked:
            spans[c] = _TAGS_EQUAL
        elif not up & marked:
            spans[c] = _TAGS_MISSING
        elif up & facets != marked:
            spans[c] = _TAGS_ALL
        else:
            spans[c] = _TAGS_EQUAL if face_table(m, i).count(c) == len(facet.flags) else None
    return spans


@dataclass
class ExtensionResult:
    extension: Maniplex
    checks: list[Check]


def verify_extension(m: Maniplex, facet: Face) -> ExtensionResult:
    """Extend and certify; polytopality claims are gated on the base's own
    status.  ValueError when the base is not a valid maniplex.

    Faithfulness of the extension is recorded, never asserted; only the
    preservation of unfaithfulness is a hard check.  The posets of the base
    and of the extension are kept in their caches, each with its polytope
    report, so the next rank up starts from this one's and judges its base
    no second time.

    When the extension is read off the base (`_quotient`), its checks read
    the map over each base face instead of its face tables, and its
    faithfulness result is carried up from the base's, with no chain
    listed per flag.  Flag 4g + t has facet id t, and its i-face for i < n
    has id 4c plus the least tag of the class of t over g's base i-face c,
    a tag in 0..3.  So two flags 4g + t and 4h + u share a chain only if
    t = u and g and h share their base chain: over a faithful base the
    extension is faithful, (True, None).  Over a base witness (0, w): flag
    0 is the least flag of each of its faces, so its chain is all zeros,
    and "0" is the least label, so when that chain is shared it is the one
    `is_faithful` picks: w is the least other flag with the all-zero
    chain.  Tag 0 is the least of its class, so the extension's flags with
    the all-zero chain are exactly 4g for the base flags g with it, and
    the extension's result is (False, (0, 4w)).
    """
    if not validate(m).ok:
        raise ValueError("base is not a valid maniplex")
    ext = extend(m, facet)  # resolves the facet
    base_faith = is_faithful(m)  # before the extension's face tables, so the two peaks do not add up
    n = m.rank
    checks: list[Check] = []

    copies = _rows_copy_base(m, ext)
    over = _quotient(m, ext, facet) if copies else None
    report = validate(ext) if over is None else _validate_over_base(m, ext, facet)
    checks.append(passed("extension-valid", report.ok, report.violations or None))
    checks.append(passed("flag-count", ext.flag_count == 4 * m.flag_count, ext.flag_count))

    facet_ids = face_table(ext, n)
    in_order = _tags_in_order(facet_ids)
    # ids running 0, 1, 2, 3 in turn over four or more entries are exactly those four
    count = 4 if in_order and len(facet_ids) >= 4 else len(set(facet_ids))
    checks.append(passed("four-facets", count == 4, count))
    # the old colours carry m onto facet t, colour for colour, exactly when they
    # copy it tag by tag and facet t is the tag class {4g + t}; the row
    # equation has already fixed the table's length at 4 entries a base flag
    copies = copies and in_order
    checks.append(passed("facets-copy-base", copies))

    if base_faith.faithful:
        if over is not None:  # carried up, see the docstring
            ext._cache["faithful"] = FaithfulnessResult(True, None)
        ext_faithful = is_faithful(ext).faithful
        preserved = Check("unfaithfulness-preserved", SKIP, "base is faithful")
    else:
        w1, w2 = base_faith.witness
        lifted = all(_face_id(m, ext, over, i, 4 * w1) == _face_id(m, ext, over, i, 4 * w2) for i in range(n + 1))
        if over is not None and w1 == 0:  # carried up, see the docstring
            ext._cache["faithful"] = FaithfulnessResult(False, (0, 4 * w2))
        # two flags with the same faces already make the extension unfaithful
        ext_faithful = False if lifted else is_faithful(ext).faithful
        preserved = passed("unfaithfulness-preserved", lifted and not ext_faithful, (4 * w1, 4 * w2))
    checks.append(Check("extension-faithful-observed", INFO, ext_faithful))
    checks.append(preserved)

    p_base = pos_of(m)
    if over is not None:
        ext._cache["poset"] = _poset_over_base(p_base, over, report.ok)
    p_ext = pos_of(ext)

    # every ridge of the extension lies under exactly two of its facets
    facets = sum(1 << k for k, r in enumerate(p_ext.ranks) if r == n)
    ridges = ((p_ext.labels[k], (p_ext.up[k] & facets).bit_count()) for k, r in enumerate(p_ext.ranks) if r == n - 1)
    witness = next((ridge for ridge in ridges if ridge[1] != 2), None)
    checks.append(passed("ridges-in-two-facets", witness is None, witness))

    base = is_polytope(p_base)
    sections = False
    if base.failed == "diamond":
        checks.append(Check("facet-sections-match-base", SKIP, "base fails the diamond condition"))
        checks.append(Check("tag-spans-match", SKIP, "base fails the diamond condition"))
    else:
        if not copies:
            checks.append(Check("facet-sections-match-base", SKIP, "a facet is not a copy of the base"))
        else:
            sections = _sections_match_base(m, p_base, ext, p_ext, over)
            checks.append(passed("facet-sections-match-base", sections))
        checks.append(passed("tag-spans-match", _tag_spans_match(m, facet, ext, over)))

    skip = None
    if not base.ok:
        skip = "base is not polytopal"
    elif not report.ok:  # its poset is not marked, so not judged
        skip = "extension is not a valid maniplex"
    if skip:
        for name in ("diamond", "strong-flag-connectivity", "polytopal"):
            checks.append(Check(name, SKIP, skip))
    else:
        if sections and witness is None:
            p_ext._report = PolytopeReport(True, None, None)  # by amalgamation, see the module docstring
        poly = is_polytope(p_ext)
        diamond = poly.failed == "diamond"
        checks.append(passed("diamond", not diamond, poly.witness if diamond else None))
        checks.append(passed("strong-flag-connectivity", poly.ok, ("earlier failure",) if diamond else poly.witness))
        checks.append(passed("polytopal", poly.ok))

    return ExtensionResult(ext, checks)


def _face_id(m: Maniplex, ext: Maniplex, over: Optional[list], i: int, f: int) -> int:
    """The id of the i-face of extension flag f: read off the map over its
    base face, when there is one (`_quotient`) and i < n, else off the
    extension's face table."""
    if over is not None and i < m.rank:
        return over[i][face_table(m, i)[f >> 2]][f & 3]
    return face_table(ext, i)[f]


def _rows_copy_base(m: Maniplex, ext: Maniplex) -> bool:
    """The row equation: every old colour i sends 4g + t to 4 m.perms[i][g] + t.
    For each tag t, the entries 4g + t of the extension's row, as bytes,
    must be the lanes of m's row shifted left by 2, plus t (see `extend`)."""
    size = m.flag_count
    if ext.flag_count != 4 * size:
        return False
    ones = lane_ones(size)
    for base_row, row in zip(m.perms, ext.perms):
        lanes = row_lanes(base_row) << 2
        if any(row[t::4].tobytes() != (lanes + t * ones).to_bytes(4 * size, sys.byteorder) for t in range(4)):
            return False
    return True


_TAGS = array("i", range(4)) * 1024  # entry k is k % 4, for 1 024 flags of the base


def _tags_in_order(ids: array) -> bool:
    """Whether entry k of ids is k % 4 for every k: each slice of at most
    len(_TAGS) entries is compared with as long a prefix of _TAGS, so that
    no second table of the ids' length is built."""
    step = len(_TAGS)
    for k in range(0, len(ids), step):
        part = ids[k : k + step]
        if part != _TAGS[: len(part)]:
            return False
    return True


def _spread(over: dict[int, tuple[int, ...]], ids: array) -> array:
    """An extension face table from the base's: flag 4g + t gets
    over[ids[g]][t], copied from one packed 4-tuple per base face."""
    packed = {c: array("i", quad).tobytes() for c, quad in over.items()}
    return array("i", b"".join(map(packed.__getitem__, ids)))[:]  # the slice holds no spare room


def _new_colour_twists(row: array, twist: array) -> bool:
    """The new colour's row equation: it sends 4g + t to 4g + (t XOR
    twist[g]) (`_twists`).  For each tag t, the entries 4g + t of the row,
    as bytes, must be the lanes 4g plus t XOR the twist lanes, as `extend`
    builds them.  The lane ints, each as large as a base row, are freed on
    return, before `_quotient` reads the base's face tables."""
    size = len(twist)
    starts, twists, ones = row_lanes(array("i", range(0, 4 * size, 4))), row_lanes(twist), lane_ones(size)
    return all(row[t::4].tobytes() == (starts + (t * ones ^ twists)).to_bytes(4 * size, sys.byteorder) for t in range(4))


def _quotient(m: Maniplex, ext: Maniplex, facet: Face) -> Optional[list]:
    """Read the extension's faces off the base poset's incidence with the
    marked facet F, with no search over its flags, and return, per rank
    i < n, base face id -> the ids of the extension faces over that face
    holding tags 0..3; None when the new colour's row equation fails.  The
    extension's cache gets its facet table and, per rank i < n, a callable
    that spreads the map onto its flags when the table is first read.
    Needs the old colours to copy the valid (so connected) base tag by tag.

    Deleting colour i < n leaves the old colours moving g within its
    i-face c with the tag fixed, and the new colour joining the tags by
    XOR 1 at c's flags off F and by XOR 3 at those on it: classes {0, 1}
    and {2, 3} when c misses F, {0, 3} and {1, 2} when all its flags lie
    on F, one class of all four tags when it has flags on both sides.  A
    face shares a flag with F exactly when the two are incident, so these
    sides are c's tag span (`_tag_spans`), with a face properly inside F,
    whose span is None, taking F's.  The least flag of the class of tag t
    is 4c plus its least tag (`_TAG_OFFSETS`).  Deleting colour n leaves
    four copies of the base, one per tag.  The map is not checked against
    the flags here: the tests rebuild it flag by flag and search the
    extension's own faces for the spans."""
    n = m.rank
    if not _new_colour_twists(ext.perms[n], _twists(m, facet)):
        return None
    over = []
    for i in range(n):
        spans = _tag_spans(m, facet, i).items()
        faces = {c: tuple(4 * c + off for off in _TAG_OFFSETS[span or _TAGS_EQUAL]) for c, span in spans}
        ext._cache[i] = partial(_spread, faces, face_table(m, i))
        over.append(faces)
    ext._cache[n] = array("i", range(4)) * m.flag_count
    return over


def _validate_over_base(m: Maniplex, ext: Maniplex, facet: Face) -> ValidationReport:
    """`validate(ext)` when both row equations hold over the valid base,
    decided from the marked facet F.

    At flag 4g + t, old colour i gives 4 r_i(g) + t, and the new colour n
    gives 4g + (t XOR x), x being 3 when g lies on F and 1 when it does not.
    The axioms among the old colours hold as they do in the base.  XOR 1
    and XOR 3 are fixed-point-free involutions of the tags, so colour n is
    one too.  Proper colouring (i, n) holds: the two images are equal only
    if r_i fixes g, which the valid base rules out.  For i <= n - 2, r_i
    keeps a flag on or off F, a face of the colours below n - 1, so both
    r_n r_i and r_i r_n send 4g + t to 4 r_i(g) + (t XOR x): the square
    (i, n) closes.  The base is connected, so the old colours join 4g + t
    to every 4h + t, and XOR 1 and XOR 3 together join all four tags: the
    extension is connected exactly when some base flag lies off F.  When
    none does, the full `validate` runs, whose witnesses are reported."""
    if len(facet.flags) == m.flag_count:
        return validate(ext)
    report = ext._cache["valid"] = ValidationReport(True, ())
    return report


def _poset_over_base(p_base: RankedPoset, over: list, valid: bool) -> RankedPoset:
    """`pos_of(ext)` from `pos_of(m)`, in time linear in faces and order pairs,
    marked when valid, the extension's `validate` report, is ok.

    A base order pair, faces c < d, gives for each tag t the pair of the
    extension faces over c and over d that hold t (each flag 4g + t lies
    in both), and an extension face lies under facet t exactly when its
    class holds t."""
    n = p_base.rank
    at = list(zip(p_base.ranks, p_base.ids))  # face number -> (rank, id)
    incident: dict[tuple[int, int], set[tuple[int, int]]] = defaultdict(set)
    for a, b in proper_pairs(p_base):
        (i, c), (j, d) = at[a], at[b]
        incident[i, j].update(zip(over[i][c], over[j][d]))
    for i, faces in enumerate(over):
        incident[i, n] = {(x, t) for ids in faces.values() for t, x in enumerate(ids)}
    levels = [set(chain.from_iterable(faces.values())) for faces in over] + [range(4)]
    return face_poset(n + 1, levels, incident.items(), valid)


def _tag_spans_match(m: Maniplex, facet: Face, ext: Maniplex, over: Optional[list] = None) -> bool:
    """Every extension face over a base face spans exactly the predicted tags.

    Over a base i-face with least flag c, the face holding tag 0 has id 4c
    and the face holding the other tags, if any, has as id its least flag.
    So the spans predict every flag's face id, and a rank matches when the
    prediction equals the extension's face table flag for flag.  A base
    face properly inside the marked facet has no span and fails.  Given
    the map of a read-off extension (`_quotient`), which is built from
    these same spans, comparing the two would prove nothing: there the
    check fails exactly when a base face lies properly inside the facet.
    """
    for i in range(m.rank):
        spans = _tag_spans(m, facet, i)
        if None in spans.values():
            return False
        if over is None:
            predicted = {c: tuple(4 * c + off for off in _TAG_OFFSETS[span]) for c, span in spans.items()}
            if _spread(predicted, face_table(m, i)) != face_table(ext, i):
                return False
    return True


def _sections_match_base(
    m: Maniplex, p_base: RankedPoset, ext: Maniplex, p_ext: RankedPoset, over: Optional[list] = None
) -> bool:
    """The section of pos(ext) below each of the four facets is isomorphic to pos(m).

    Facet t must be the tag class {4g + t}, carried from M by g -> 4g + t.
    The base face of rank i at flag c then goes to the extension's i-face
    at flag 4c + t, the bottom to the bottom and the top to the facet,
    whose id is its least flag t.  When that map is a bijection onto the
    faces at or below the facet and carries the base's order pairs exactly
    onto the section's, it is an order isomorphism.  Once it is a
    bijection, it carries the pairs exactly when each base pair (a, b) goes
    to a pair, bit to[b] of up[to[a]] set, and the section has as many
    pairs as the base: the images are distinct pairs of the section, so
    they are all of them.  The section's pairs are counted off the masks
    of its faces, so the four checks cost linear time in flags plus order
    pairs in all.  The extension's face at flag 4c + t is read off the map
    over base face c when given (`_quotient`), else off its face table.
    """
    n = m.rank
    number = {face: k for k, face in enumerate(zip(p_ext.ranks, p_ext.ids))}  # (rank, id) -> face number
    proper = list(zip(p_base.ranks[1:-1], p_base.ids[1:-1]))  # base face number - 1 -> (rank, id)
    if over is None:  # the faces at flags 4c, ..., 4c + 3
        over = [{} for _ in range(n)]
        for i, c in proper:
            over[i][c] = face_table(ext, i)[4 * c : 4 * c + 4]
    pair_count = sum(map(int.bit_count, p_base.up))
    for t in range(4):
        # base face number -> extension face number; both bottoms are face 0
        to = [0] + [number[i, over[i][c][t]] for i, c in proper] + [number[n, t]]
        inside = p_ext.down[to[-1]] | 1 << to[-1]
        if len(set(to)) != len(to) or sum(1 << k for k in to) != inside:
            return False
        up = [p_ext.up[k] for k in to]  # base face number -> the extension faces above its image
        if sum((mask & inside).bit_count() for mask in up) != pair_count:
            return False
        if not all(up[a] >> to[b] & 1 for a, b in p_base.pairs):
            return False
    return True

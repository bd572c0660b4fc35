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
comes from two counts over M's face ids, and it fixes the face id of every
extension flag over the face, so the spans are certified by comparing one
predicted id array per rank with the extension's face table.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .certify import INFO, SKIP, Check, passed
from .core import Face, Maniplex, face_table, validate
from .poset import PolytopeReport, RankedPoset, is_faithful, is_polytope, pos_of

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
    if not facet.flags or facet.flags != tuple(f for f, c in enumerate(ids) if c == facet.canonical):
        raise ValueError("marked face does not match any facet of this maniplex")
    return facet


def extend(m: Maniplex, facet: Face) -> Maniplex:
    """The rank-(n+1) extension of M over the given facet.

    Every row is indexed into one list of the flags 0..4m-1, so all rows
    share one int object per flag.
    """
    facet = _resolve_facet(m, facet)
    size = m.flag_count
    ints = list(range(4 * size))
    quads = [tuple(ints[k:k + 4]) for k in range(0, 4 * size, 4)]  # flag f -> (4f, ..., 4f + 3)
    perms = [tuple(chain.from_iterable(map(quads.__getitem__, row))) for row in m.perms]
    new_colour = [(b, a, d, c) for a, b, c, d in quads]  # tag XOR 1 outside the facet
    for f in facet.flags:
        new_colour[f] = quads[f][::-1]  # tag XOR 3 inside it
    perms.append(tuple(chain.from_iterable(new_colour)))
    return Maniplex(tuple(perms))


def _tag_spans(m: Maniplex, facet: Face, i: int) -> dict[int, frozenset[tuple[int, int]] | None]:
    """Each i-face's tag span, keyed by canonical id, from the face sizes and
    the count of each face's flags in the marked facet; None for an i-face
    properly contained in the facet."""
    ids = face_table(m, i)
    facet_ids = face_table(m, m.rank - 1)
    inside = Counter(c for c, t in zip(ids, facet_ids) if t == facet.canonical)
    spans: dict[int, frozenset[tuple[int, int]] | None] = {}
    for c, size in Counter(ids).items():
        if not inside[c]:
            spans[c] = _TAGS_MISSING
        elif inside[c] < size:
            spans[c] = _TAGS_ALL
        else:
            spans[c] = _TAGS_EQUAL if size == len(facet.flags) else None
    return spans


@dataclass
class ExtensionResult:
    extension: Maniplex
    checks: list[Check]


def _graded_with_diamonds(report: PolytopeReport) -> bool:
    """A partial order that is bounded, graded and meets the diamond condition."""
    return report.ok or report.failed == "strong-flag-connectivity"


def verify_extension(m: Maniplex, facet: Face) -> ExtensionResult:
    """Extend and certify; polytopality claims are gated on the base's own status.

    Faithfulness of the extension is recorded, never asserted; only the
    preservation of unfaithfulness is a hard check.
    """
    ext = extend(m, facet)  # resolves the facet
    n = m.rank
    checks: list[Check] = []

    report = validate(ext)
    checks.append(passed("extension-valid", report.ok, report.violations or None))
    checks.append(passed("flag-count", ext.flag_count == 4 * m.flag_count, ext.flag_count))

    facet_ids = face_table(ext, n)
    count = len(set(facet_ids))
    checks.append(passed("four-facets", count == 4, count))
    # facet t is the tag class {4g + t}, which the old colours keep, so colour i
    # sends 4g + t to 4 m.perms[i][g] + t exactly when the flag parts agree
    copies = facet_ids == array("i", range(4)) * m.flag_count and all(
        [x >> 2 for x in row[t::4]] == list(base_row) for base_row, row in zip(m.perms, ext.perms) for t in range(4)
    )
    checks.append(passed("facets-copy-base", copies))

    base_faith = is_faithful(m)
    if base_faith.faithful:
        ext_faithful = is_faithful(ext).faithful
        preserved = Check("unfaithfulness-preserved", SKIP, "base is faithful")
    else:
        w1, w2 = base_faith.witness
        lifted = all(face_table(ext, i)[4 * w1] == face_table(ext, i)[4 * w2] for i in range(n + 1))
        # two flags with the same faces already make the extension unfaithful
        ext_faithful = False if lifted else is_faithful(ext).faithful
        preserved = passed("unfaithfulness-preserved", lifted and not ext_faithful, (4 * w1, 4 * w2))
    checks.append(Check("extension-faithful-observed", INFO, ext_faithful))
    checks.append(preserved)

    p_base = pos_of(m)
    p_ext = pos_of(ext)

    # every ridge of the extension lies under exactly two of its facets
    facets = sum(1 << k for k, r in enumerate(p_ext.ranks) if r == n)
    ridges = ((p_ext.labels[k], (p_ext.up[k] & facets).bit_count()) for k, r in enumerate(p_ext.ranks) if r == n - 1)
    witness = next((ridge for ridge in ridges if ridge[1] != 2), None)
    checks.append(passed("ridges-in-two-facets", witness is None, witness))

    base = is_polytope(p_base)
    if not _graded_with_diamonds(base):
        checks.append(Check("facet-sections-match-base", SKIP, "base fails the diamond condition"))
        checks.append(Check("tag-spans-match", SKIP, "base fails the diamond condition"))
    else:
        if not copies:
            checks.append(Check("facet-sections-match-base", SKIP, "a facet is not a copy of the base"))
        else:
            sections_ok = all(_section_matches_base(m, p_base, ext, p_ext, t) for t in range(4))
            checks.append(passed("facet-sections-match-base", sections_ok))
        checks.append(passed("tag-spans-match", _tag_spans_match(m, facet, ext)))

    if not base.ok:
        checks.append(Check("diamond", SKIP, "base is not polytopal"))
        checks.append(Check("strong-flag-connectivity", SKIP, "base is not polytopal"))
        checks.append(Check("polytopal", SKIP, "base is not polytopal"))
    else:
        poly = is_polytope(p_ext)
        if _graded_with_diamonds(poly):
            dia, conn = None, poly.witness
        else:
            dia = poly.witness if poly.failed == "diamond" else ("poset not graded",)
            conn = ("earlier failure",)
        checks.append(passed("diamond", dia is None, dia))
        checks.append(passed("strong-flag-connectivity", poly.ok, conn))
        checks.append(passed("polytopal", poly.ok))

    return ExtensionResult(ext, checks)


def _tag_spans_match(m: Maniplex, facet: Face, ext: Maniplex) -> bool:
    """Every extension face over a base face spans exactly the predicted tags.

    Over a base i-face with least flag c, the face holding tag 0 has id 4c
    and the face holding the other tags, if any, has as id its least flag.
    So the spans predict every flag's face id, and a rank matches when the
    prediction equals the extension's face table flag for flag.
    """
    for i in range(m.rank):
        spans = _tag_spans(m, facet, i)
        if None in spans.values():
            return False
        predicted = array("i", [4 * c + off for c in face_table(m, i) for off in _TAG_OFFSETS[spans[c]]])
        if predicted != face_table(ext, i):
            return False
    return True


def _section_matches_base(m: Maniplex, p_base: RankedPoset, ext: Maniplex, p_ext: RankedPoset, t: int) -> bool:
    """The section of pos(ext) below facet t is isomorphic to pos(m).

    Facet t must be the tag class {4g + t}, carried from M by g -> 4g + t.
    The base face of rank i at flag c then goes to the extension's i-face
    at flag 4c + t, the bottom to the bottom and the top to the facet,
    whose id is its least flag t.  When that map is a bijection onto the
    faces at or below the facet and carries the base's order pairs exactly
    onto the section's, it is an order isomorphism.  Linear in flags plus
    order pairs.
    """
    n = m.rank
    number = {label: k for k, label in enumerate(p_ext.labels)}
    ids = [face_table(ext, i) for i in range(n)]
    proper = (map(int, label.split(":")) for label in p_base.labels[1:-1])  # 'i:c' -> (i, c)
    # base face number -> extension face number; both bottoms are face 0
    to = [0] + [number[f"{i}:{ids[i][4 * c + t]}"] for i, c in proper] + [number[f"{n}:{t}"]]
    inside = p_ext.down[to[-1]] | 1 << to[-1]
    if len(set(to)) != len(to) or sum(1 << k for k in to) != inside:
        return False
    pairs = {(i, j) for i, j in p_ext.pairs if inside >> i & 1 and inside >> j & 1}
    return {(to[i], to[j]) for i, j in p_base.pairs} == pairs

"""Z_2 voltage assignments and the derived double covers.

A voltage assignment marks a set of edges of the flag graph as nontrivial;
edges are undirected and keyed by (lower endpoint flag, colour).  The
double cover lives on flags (f, s) numbered 2f+s: crossing a trivial edge
keeps the sheet s, crossing a nontrivial edge swaps it.

Whether a cover is again a maniplex is always decided by direct
validation; the classical two-part criterion (nontrivial edges are not a
cut-set, and every bicoloured square carries an even number of nontrivial
edges) is evaluated alongside for reporting, and any disagreement between
the two is flagged rather than trusted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .core import Maniplex, ValidationReport, components, validate

Edge = tuple[int, int]  # (lower endpoint flag, colour)


def canonical_edge(m: Maniplex, flag: int, colour: int) -> Edge:
    return (min(flag, m.perms[colour][flag]), colour)


@dataclass(frozen=True)
class VoltageAssignment:
    base: Maniplex
    nontrivial: frozenset[Edge]

    @classmethod
    def from_edges(cls, base: Maniplex, edges: Iterable[tuple[int, int]]) -> "VoltageAssignment":
        canon = set()
        for flag, colour in edges:
            if not 0 <= colour < base.rank:
                raise ValueError(f"edge colour {colour} out of range")
            if not 0 <= flag < base.flag_count:
                raise ValueError(f"edge endpoint {flag} out of range")
            canon.add(canonical_edge(base, flag, colour))
        return cls(base, frozenset(canon))

    def voltage(self, flag: int, colour: int) -> int:
        return 1 if canonical_edge(self.base, flag, colour) in self.nontrivial else 0

    def to_json_dict(self) -> dict:
        return {"edges": sorted([f, c] for f, c in self.nontrivial)}


def voltage_from_json_dict(base: Maniplex, doc: object) -> VoltageAssignment:
    if not isinstance(doc, dict) or "edges" not in doc or not isinstance(doc["edges"], list):
        raise ValueError("voltage document must be an object with an 'edges' list")
    pairs = []
    for item in doc["edges"]:
        if not isinstance(item, list) or len(item) != 2:
            raise ValueError(f"voltage edge must be [flag, colour]: {item!r}")
        pairs.append((item[0], item[1]))
    return VoltageAssignment.from_edges(base, pairs)


@dataclass(frozen=True)
class DoubleCover:
    base: Maniplex
    cover: Maniplex  # flags (f, s) -> 2f + s; may fail the maniplex axioms


def double_cover(m: Maniplex, z: VoltageAssignment) -> DoubleCover:
    perms = []
    for i in range(m.rank):
        row = [0] * (2 * m.flag_count)
        base_row = m.perms[i]
        for f in range(m.flag_count):
            flip = z.voltage(f, i)
            g = base_row[f]
            row[2 * f] = 2 * g + flip
            row[2 * f + 1] = 2 * g + (1 ^ flip)
        perms.append(tuple(row))
    return DoubleCover(m, Maniplex(tuple(perms)))


def lift_connected(m: Maniplex, z: VoltageAssignment, flags: Iterable[int], colours: Iterable[int]) -> bool:
    """Is the preimage of a connected colour-closed flag set connected in the cover?

    Decided by direct BFS on the lifted subgraph.
    """
    cols = sorted(set(colours))
    flag_set = set(flags)
    if not flag_set:
        raise ValueError("empty flag set")
    # the downstairs subgraph must itself be connected
    start = min(flag_set)
    seen = {start}
    queue = deque([start])
    while queue:
        f = queue.popleft()
        for c in cols:
            g = m.perms[c][f]
            if g not in flag_set:
                raise ValueError(f"flag set not closed under colour {c} at flag {f}")
            if g not in seen:
                seen.add(g)
                queue.append(g)
    if seen != flag_set:
        raise ValueError("flag set is not connected under the given colours")

    target = 2 * len(flag_set)
    seen_up = {2 * start}
    queue = deque([2 * start])
    while queue:
        v = queue.popleft()
        f, s = v // 2, v % 2
        for c in cols:
            g = 2 * m.perms[c][f] + (s ^ z.voltage(f, c))
            if g not in seen_up:
                seen_up.add(g)
                queue.append(g)
    return len(seen_up) == target


class SquareParity(NamedTuple):
    colours: tuple[int, int]
    canonical: int  # least flag of the bicoloured square
    parity: int
    nontrivial_edges: tuple[Edge, ...]


def square_parities(m: Maniplex, z: VoltageAssignment) -> list[SquareParity]:
    """Voltage parity of every bicoloured square (colours at distance > 1)."""
    out = []
    for i in range(m.rank):
        for j in range(i + 2, m.rank):
            for comp in components(m, (i, j)):
                square = set(comp.flags)
                edges = set()
                for f in square:
                    edges.add(canonical_edge(m, f, i))
                    edges.add(canonical_edge(m, f, j))
                hot = tuple(sorted(e for e in edges if e in z.nontrivial))
                out.append(SquareParity((i, j), comp.canonical, len(hot) % 2, hot))
    return out


@dataclass
class CoverReport:
    is_maniplex: bool  # the direct verdict; authoritative
    direct: ValidationReport
    lemma_not_cutset: bool
    lemma_squares_even: bool
    odd_square: Optional[SquareParity]
    disagreement: bool  # lemma criterion vs direct validation


def _connected_avoiding(m: Maniplex, banned: frozenset[Edge]) -> bool:
    seen = [False] * m.flag_count
    seen[0] = True
    queue = deque([0])
    reached = 1
    while queue:
        f = queue.popleft()
        for c in range(m.rank):
            if canonical_edge(m, f, c) in banned:
                continue
            g = m.perms[c][f]
            if not seen[g]:
                seen[g] = True
                reached += 1
                queue.append(g)
    return reached == m.flag_count


def cover_is_maniplex(m: Maniplex, z: VoltageAssignment) -> CoverReport:
    direct = validate(double_cover(m, z).cover)
    not_cutset = _connected_avoiding(m, z.nontrivial)
    odd = None
    for sq in square_parities(m, z):
        if sq.parity != 0:
            odd = sq
            break
    lemma_verdict = not_cutset and odd is None
    return CoverReport(
        is_maniplex=direct.ok,
        direct=direct,
        lemma_not_cutset=not_cutset,
        lemma_squares_even=odd is None,
        odd_square=odd,
        disagreement=lemma_verdict != direct.ok,
    )

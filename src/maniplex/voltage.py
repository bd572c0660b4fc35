"""Z_2 voltage assignments and the derived double covers.

Over Z_2 a voltage assignment is its set of nontrivial edges of the flag
graph; edges are undirected and keyed by (lower endpoint flag, colour).
The double cover lives on flags (f, s) numbered 2f+s: crossing a trivial
edge keeps the sheet s, crossing a nontrivial edge swaps it.  Whether a
cover is again a maniplex is decided by validating it directly.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .core import Maniplex, from_int_rows

Edge = tuple[int, int]  # (lower endpoint flag, colour)


def canonical_edge(m: Maniplex, flag: int, colour: int) -> Edge:
    return (min(flag, m.perms[colour][flag]), colour)


def double_cover(m: Maniplex, edges: frozenset[Edge]) -> Maniplex:
    """The cover over the nontrivial `edges`, which must be in canonical
    form; flags (f, s) -> 2f + s, and the result may fail the axioms."""
    perms = []
    for i in range(m.rank):
        row = [0] * (2 * m.flag_count)
        base_row = m.perms[i]
        for f in range(m.flag_count):
            flip = canonical_edge(m, f, i) in edges
            g = base_row[f]
            row[2 * f] = 2 * g + flip
            row[2 * f + 1] = 2 * g + (1 ^ flip)
        perms.append(row)
    return from_int_rows(perms)


def lift_connected(m: Maniplex, edges: frozenset[Edge], flags: Iterable[int], colours: Iterable[int]) -> bool:
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
            g = 2 * m.perms[c][f] + (s ^ (canonical_edge(m, f, c) in edges))
            if g not in seen_up:
                seen_up.add(g)
                queue.append(g)
    return len(seen_up) == target

"""Z_2 voltage assignments and the derived double covers.

Over Z_2 a voltage assignment is its set of nontrivial edges of the flag
graph; edges are undirected and keyed by (lower endpoint flag, colour).
The double cover lives on flags (f, s) numbered 2f+s: crossing a trivial
edge keeps the sheet s, crossing a nontrivial edge swaps it.  Whether a
cover is again a maniplex is decided by validating it directly.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Iterable

from .core import Maniplex, from_sound_rows, lane_ones, row_lanes, tagged_row

Edge = tuple[int, int]  # (lower endpoint flag, colour)


def canonical_edge(m: Maniplex, flag: int, colour: int) -> Edge:
    return (min(flag, m.perms[colour][flag]), colour)


def double_cover(m: Maniplex, edges: frozenset[Edge]) -> Maniplex:
    """The cover over the nontrivial `edges`, which must be in canonical
    form; flags (f, s) -> 2f + s, and the result may fail the axioms.  Its
    rows are in range by construction, so the maniplex is made with no
    check of them.

    The sheet swaps are marked from `edges` alone: a listed (f, i) with
    f <= r_i f swaps the sheets at f and at r_i f.  Any other pair names no
    edge of a maniplex and is ignored; where the rows are involutions, the
    swaps are exactly those at the flags whose `canonical_edge` is listed.
    Each row is then built by lane arithmetic, as `extension.extend`
    builds its rows (`tagged_row`): entry 2g + s is lane g of the base
    row, doubled, plus s XOR the swap at g."""
    n, size = m.rank, m.flag_count
    if 2 * size > 1 << 31:
        raise ValueError(f"a cover of {2 * size} flags does not fit an array('i')")
    swaps = [array("i", [0]) * size for _ in range(n)]
    for f, i in edges:
        if 0 <= i < n and 0 <= f < size and f <= m.perms[i][f]:
            swaps[i][f] = swaps[i][m.perms[i][f]] = 1
    ones = lane_ones(size)
    return from_sound_rows(
        tuple(tagged_row(row_lanes(r) << 1, ones, row_lanes(s), size, 2) for r, s in zip(m.perms, swaps))
    )


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

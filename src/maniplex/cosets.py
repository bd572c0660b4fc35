"""Todd-Coxeter coset enumeration for involutory presentations.

Every generator is its own inverse: `Presentation` refuses a generator
without its relator (i, i).  So the table keeps one arrow per generator and
sets it both ways: defining c = x.d also records c.d = x.

The enumeration is Hasselgrove-Leech-Trotter with deductions (Holt, Eick
and O'Brien, Handbook of Computational Group Theory, 5.1-5.2).  The
subgroup words are scanned from coset 0, then every relator from each live
coset in label order.  A scan runs forward and backward; it allocates a
coset only while the gap between the two ends is longer than one letter.
A one-letter gap is closed by a deduction.  Two ends that meet on
different cosets start a coincidence, merged through a union-find in which
the smaller label survives.  Enumeration either completes below the coset
cap or fails loudly - no partial tables.

Slot 0 of the working table is a sink, not a coset: every generator maps
it to itself, and an undefined entry holds 0, so it points at the sink.
The cosets take slots 1 up, the subgroup's coset in slot 1, and the
finished table numbers the live ones from 0, as the text below does.

Most relator scans from a coset meet a cycle that deductions have already
closed.  So the main loop first walks each relator forward from alpha and
scans it only if the walk ends on a coset other than alpha.  A walk that
meets an undefined entry falls into the sink and stays there, so the walk
tests no letter on its way.  A closed walk is not a scan: the scan it
replaces would run its forward end all the way round to alpha and stop,
allocating nothing, deducing nothing and finding no coincidence.  The
table and the union-find are left exactly as that scan leaves them, so
every later scan, and with it the allocation order, is unchanged; and
since nothing merges, alpha is still live after a closed walk.

An involution relator (d, d) needs no walk: from a live coset it closes
exactly when rows[d][alpha] is defined.  Between scans every arrow of a
live coset c.d = x runs to a live coset x with x.d = c.  A definition and
a deduction set both arrows, from live cosets to live or new ones.  A
coincidence kills cosets, and `unify` handles each dead coset once: it
clears the arrow back to it from its neighbour x, then either merges or
sets both arrows between the live representatives, each undefined before.
So when `unify` returns, no live coset's arrow leads to a dead one, and the
walk c.d.d comes back to c whenever c.d is defined.

Live cosets keep their labels, compacted in increasing order, and that is
relator-trace order: coset 0, then each coset the first time it is reached
by tracing the subgroup words from 0 and then every relator, in
presentation order, from each numbered coset in turn.  Each live coset but
0 is allocated at the forward end of a scan (alpha, w) with alpha live: one
allocated from an alpha that later dies is identified with the smaller
coset at the same place of the cycle that alpha's representative closed
earlier.  The trace of w from alpha in the finished table passes through
the live coset where the scan allocated it, and every earlier trace is an
earlier scan, closed by cosets that already existed, so it passes only
through smaller labels.  So the numbering, like every table built here,
does not depend on how the enumeration went; the tests check it by tracing
the finished table and against a scan that allocates at every undefined
step, with no deductions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .certify import Refusal
from .core import Maniplex, flag_ints, from_int_rows

SINK = 0  # the slot every undefined entry points at (see the module docstring)
DEFAULT_CAP = 100_000
CAP_ENV_VAR = "MANIPLEX_COSET_CAP"


def default_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{CAP_ENV_VAR} must be positive")
    return cap


class CosetCapExceeded(Refusal):
    pass


@dataclass(frozen=True)
class Presentation:
    """Involutory generators 0..ngens-1 and relator words over them."""

    ngens: int
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "relators", tuple(tuple(w) for w in self.relators))
        if self.ngens < 1:
            raise ValueError("need at least one generator")
        for word in self.relators:
            if not word:
                raise ValueError("relators must be nonempty words")
            for letter in word:
                if not 0 <= letter < self.ngens:
                    raise ValueError(f"relator letter {letter} out of range")
        involutions = {w[0] for w in self.relators if w == (w[0], w[0])}
        for d in range(self.ngens):
            if d not in involutions:
                raise ValueError(f"generator {d} lacks its involution relator ({d}, {d})")

    def extended(self, *extra: Sequence[int]) -> "Presentation":
        return Presentation(self.ngens, self.relators + tuple(tuple(w) for w in extra))


def string_coxeter(orders: Sequence[int]) -> Presentation:
    """String Coxeter presentation [p_1, ..., p_{n-1}] on n involutions."""
    n = len(orders) + 1
    relators: list[tuple[int, ...]] = [(i, i) for i in range(n)]
    for i, p in enumerate(orders):
        if p < 2:
            raise ValueError(f"branch order must be >= 2, got {p}")
        relators.append((i, i + 1) * p)
    for i in range(n):
        for j in range(i + 2, n):
            relators.append((i, j) * 2)
    return Presentation(n, tuple(relators))


@dataclass(frozen=True)
class CosetTable:
    """Action of each generator on the cosets 0..count-1 (coset 0 = the subgroup)."""

    perms: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.perms[0]) if self.perms else 0

    def to_maniplex(self) -> Maniplex:
        return from_int_rows(self.perms)


def coset_enumerate(
    pres: Presentation,
    subgroup_gens: Sequence[Sequence[int]] = (),
    cap: int | None = None,
) -> CosetTable:
    """Enumerate cosets of the subgroup generated by the given words.

    Raises CosetCapExceeded once more than `cap` cosets have been allocated
    (live or since merged); the sink is not one.
    """
    for word in subgroup_gens:
        for letter in word:
            if not 0 <= letter < pres.ngens:
                raise ValueError(f"subgroup letter {letter} out of range")
    if cap is None:
        cap = default_cap()
    rows: list[list[int]] = [[SINK] for _ in range(pres.ngens)]  # rows[d][c] = c.d
    parent: list[int] = [SINK]

    def add_vertex() -> int:
        if len(parent) > cap:
            raise CosetCapExceeded(f"allocated more than {cap} cosets")
        c = len(parent)
        parent.append(c)
        for row in rows:
            row.append(SINK)
        return c

    def find(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def unify(a: int, b: int) -> None:
        """Process the coincidence a = b and every one it implies."""
        dead: list[int] = []

        def merge(a: int, b: int) -> None:
            a, b = find(a), find(b)
            if a != b:
                if b < a:
                    a, b = b, a
                parent[b] = a
                dead.append(b)

        merge(a, b)
        for gone in dead:  # grows while it is walked
            for row in rows:
                x = row[gone]
                if x == SINK:
                    continue
                row[x] = SINK
                mu, nu = find(gone), find(x)
                if row[mu] != SINK:
                    merge(nu, row[mu])
                elif row[nu] != SINK:
                    merge(mu, row[nu])
                else:
                    row[mu], row[nu] = nu, mu

    def scan_and_fill(alpha: int, word: Sequence[list[int]]) -> None:
        """Scan a relator given as its generators' rows."""
        f, i, b, j = alpha, 0, alpha, len(word) - 1
        while True:
            while i <= j and (x := word[i][f]) != SINK:
                f = x
                i += 1
            if i > j:
                if f != b:
                    unify(f, b)
                return
            while j > i and (x := word[j][b]) != SINK:
                b = x
                j -= 1
            row = word[i]
            if j == i:  # one letter left: deduce it, both arrows
                if row[b] == SINK:
                    row[f], row[b] = b, f
                else:
                    unify(f, row[b])
                return
            c = add_vertex()
            row[f], row[c] = c, f

    # rows are only appended to, so a word's rows stay valid throughout
    relators = [[rows[d] for d in rel] for rel in pres.relators]
    # an involution relator (d, d) is checked by its row alone (see the module docstring)
    plan = [(rel[0] if len(rel) == 2 and rel[0] is rel[1] else None, rel) for rel in relators]
    first = add_vertex()
    for word in subgroup_gens:
        scan_and_fill(first, [rows[d] for d in word])
    alpha = first
    while alpha < len(parent):
        if parent[alpha] == alpha:
            for involution, rel in plan:
                if involution is not None:
                    if involution[alpha] != SINK:  # alpha.d.d = alpha
                        continue
                else:
                    f = alpha
                    for row in rel:
                        f = row[f]
                    if f == alpha:  # a closed cycle: nothing to scan
                        continue
                scan_and_fill(alpha, rel)
                if parent[alpha] != alpha:
                    break
        alpha += 1

    # live labels are already in relator-trace order (see the module docstring)
    order = [c for c, p in enumerate(parent) if c == p and c != SINK]
    number = [SINK] * len(parent)
    for c, k in zip(order, flag_ints(len(order))):
        number[c] = k
    if len(order) == 1:  # itemgetter of one index returns the entry, not a tuple
        return CosetTable(tuple((number[row[0]],) for row in rows))
    live = itemgetter(*order)
    return CosetTable(tuple(itemgetter(*live(row))(number) for row in rows))

"""Reference corpus of small rank-3 (and rank-2) maniplexes.

torus_44(b, c) builds the flag graph of the square-grid map on the torus
obtained by quotienting the plane by the lattice spanned by (b, c) and
(-c, b); it has 8(b^2+c^2) flags, eight per unit cell.  With N = b^2 + c^2
and g = gcd(b, c), the Hermite form of the lattice makes the cells (x, t)
with x < N/g and t < g one representative per class, so cell (x, t) is
numbered x*g + t outright.  r0 and r1 stay inside a cell and r2 crosses into
a neighbouring one, so only each cell's four neighbours are reduced modulo
the lattice: one list per side, in cell order, where a step in x is g cells
mod N and a step in t wraps past 0 or g - 1 by the lattice's shear.  Flag
8k + l is local flag l of cell k, so r0 and r2 are written as eight slices
[l::8] each, and r1 as two, with no Python step per flag.  platonic(name)
builds flag graphs of a few classical maps by coset enumeration over their
standard presentations.
"""

from __future__ import annotations

import math

from .certify import Refusal
from .core import Maniplex, from_int_rows, validate
from .cosets import coset_enumerate, string_coxeter

# Corner k of cell (x, y) is (x, y) + ((0, 0), (1, 0), (1, 1), (0, 1))[k];
# side j joins corners j and j + 1, and across it lies cell
# (x, y) + ((0, -1), (1, 0), (0, 1), (-1, 0))[j].  Local flag l = 2k + s is
# at corner k on side k - s.  r1 takes it to l ^ 1, r0 to _R0[l] (the side's
# other corner), and r2 to local flag _R2[l][1] of the cell across side
# _R2[l][0] (the same corner and side).
_R0 = (3, 6, 5, 0, 7, 2, 1, 4)
_R2 = ((0, 7), (3, 2), (1, 1), (0, 4), (2, 3), (1, 6), (3, 5), (2, 0))


def _bezout(a: int, b: int) -> tuple[int, int]:
    """(u, v) with u*a + v*b = gcd(a, b)."""
    if b == 0:
        return 1, 0
    u, v = _bezout(b, a % b)
    return v, u - a // b * v


def torus_44(b: int, c: int) -> Maniplex:
    """Flag graph of the {4,4} torus map with translation lattice <(b,c), (-c,b)>."""
    if b < 0 or c < 0 or (b == 0 and c == 0):
        raise ValueError("need b, c >= 0 and not both zero")
    n, g = b * b + c * c, math.gcd(b, c)
    period = n // g
    # solve p*c + q*b = g, giving the lattice point (p*b - q*c, g): stepping
    # past t = g - 1 (below t = 0) wraps to t = 0 (g - 1), x shifted by -shear (+shear)
    q, p = _bezout(b, c)
    shear = (p * b - q * c) % period
    cells = range(n)
    # across[j][k]: 8 times the number of the cell across side j of cell k
    across = (
        [8 * (k - 1 if k % g else (k // g + shear) % period * g + g - 1) for k in cells],
        [8 * ((k + g) % n) for k in cells],
        [8 * (k + 1 if (k + 1) % g else (k // g - shear) % period * g) for k in cells],
        [8 * ((k - g) % n) for k in cells],
    )
    size = 8 * n
    r0, r1, r2 = [0] * size, [0] * size, [0] * size
    r1[0::2], r1[1::2] = range(1, size, 2), range(0, size, 2)
    for l in range(8):
        r0[l::8] = range(_R0[l], size, 8)
        side, image = _R2[l]
        r2[l::8] = [a + image for a in across[side]]
    return from_int_rows((r0, r1, r2))


_PETRIE_CUBE = ((0, 1, 2) * 3,)

_PLATONIC = {
    "square": lambda: string_coxeter([4]),
    "cube": lambda: string_coxeter([4, 3]),
    "hemicube": lambda: string_coxeter([4, 3]).extended(*_PETRIE_CUBE),
    "hemioctahedron": lambda: string_coxeter([3, 4]).extended(*_PETRIE_CUBE),
}


def platonic(name: str) -> Maniplex:
    """Flag graph of a named classical map (square, cube, hemicube, hemioctahedron)."""
    try:
        pres = _PLATONIC[name]()
    except KeyError:
        raise ValueError(f"unknown map {name!r}; choose from {sorted(_PLATONIC)}") from None
    m = coset_enumerate(pres).to_maniplex()
    report = validate(m)
    if not report.ok:
        raise Refusal(f"enumerated {name} is not a maniplex: {report.violations}")
    return m


def corpus_names() -> list[str]:
    return sorted(_PLATONIC)

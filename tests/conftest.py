import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from maniplex.core import Maniplex, faces
from maniplex.corpus import platonic, torus_44
from maniplex.cosets import coset_enumerate, string_coxeter
from maniplex.counterexample import build_B, build_B_star, build_E_theta, find_theta
from maniplex.extension import extend
from suites import SEED, TORUS_POOL


@pytest.fixture(scope="session")
def b_maniplex():
    return build_B()


@pytest.fixture(scope="session")
def theta(b_maniplex):
    return find_theta(b_maniplex)


@pytest.fixture(scope="session")
def etheta(b_maniplex, theta):
    return build_E_theta(b_maniplex, theta)


@pytest.fixture(scope="session")
def bstar_result():
    return build_B_star()


@pytest.fixture(scope="session")
def named_corpus():
    members = {name: platonic(name) for name in ("square", "cube", "hemicube", "hemioctahedron")}
    for b in range(4):
        for c in range(4):
            if 0 < b * b + c * c <= 10:
                members[f"torus({b},{c})"] = torus_44(b, c)
    return members


@pytest.fixture(scope="session")
def simplex5():
    return coset_enumerate(string_coxeter([3, 3, 3, 3])).to_maniplex()


@pytest.fixture(scope="session")
def two_squares():
    """Two disjoint copies of the square: a flag graph that is not connected."""
    sq = platonic("square")
    return Maniplex(tuple(tuple(row) + tuple(f + 8 for f in row) for row in sq.perms))


@pytest.fixture(scope="session")
def section_failure():
    """A valid, faithful rank-4 maniplex of 192 flags with face vector
    (4, 12, 12, 4), a quotient of the cubic honeycomb {4,3,4}, whose face
    poset meets the diamond condition and is connected at its least and
    greatest faces, but whose section between vertex '0:0' and facet '3:0'
    is not connected: it fails strong flag connectivity only between
    proper faces."""
    return coset_enumerate(string_coxeter([4, 3, 4]).extended((0, 1, 2, 3) * 3)).to_maniplex()


@pytest.fixture(scope="session")
def oracle_members(named_corpus, b_maniplex, bstar_result, simplex5, two_squares):
    """The named maps, B, B*, the tower's rank-5 and rank-6 extensions, the
    24-cell, the 5-simplex, two squares and torus_44(b, c) for b, c <= 6."""
    cell24 = coset_enumerate(string_coxeter([3, 4, 3])).to_maniplex()
    members = [*named_corpus.values(), b_maniplex, bstar_result.bstar, cell24, simplex5, two_squares]
    members += [torus_44(b, c) for b in range(7) for c in range(7) if b or c]
    m = bstar_result.bstar
    for _ in (5, 6):  # the tower's extensions
        m = extend(m, faces(m, m.rank - 1)[0])
        members.append(m)
    return members


@pytest.fixture(scope="session")
def schreier_members(oracle_members, two_squares):
    """The valid maniplexes `verdict` is run on, each once: the oracle
    members but two squares, every census torus-pool map and the tower's
    rank-7 extension, each with base flag 0 and one base flag drawn by a
    seeded generator."""
    m = oracle_members[-1]  # the tower's rank 6
    tower7 = extend(m, faces(m, m.rank - 1)[0])
    pool = [torus_44(b, c) for b, c in TORUS_POOL]
    members = {m: m for m in [*oracle_members, *pool, tower7] if m is not two_squares}
    rng = random.Random(SEED)
    return [(m, (0, rng.randrange(m.flag_count))) for m in members.values()]

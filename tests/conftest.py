import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from maniplex.core import Maniplex
from maniplex.corpus import platonic, torus_44
from maniplex.cosets import coset_enumerate, string_coxeter
from maniplex.counterexample import build_B, build_B_star, build_E_theta, find_theta


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
    return Maniplex(tuple(row + tuple(f + 8 for f in row) for row in sq.perms))

import pytest

from maniplex.core import dual, faces, isomorphic, validate
from maniplex.corpus import platonic
from maniplex.counterexample import B_PRESENTATION
from maniplex.cosets import (
    CAP_ENV_VAR,
    CosetCapExceeded,
    Presentation,
    coset_enumerate,
    default_cap,
    string_coxeter,
)
from oracles import coset_enumerate_hlt

PETRIE_CUBE = (0, 1, 2) * 3


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(2, ((),))
    with pytest.raises(ValueError):
        Presentation(2, ((0, 2),))
    with pytest.raises(ValueError):
        Presentation(0, ())
    pres = Presentation(2, ((0, 0), (1, 1)))
    assert pres.extended((0, 1, 0, 1)).relators[-1] == (0, 1, 0, 1)


def test_presentation_requires_involution_relators():
    # the table sets both arrows of every definition, so a generator
    # without (d, d) would silently get d^2 = 1
    with pytest.raises(ValueError, match=r"generator 1 lacks its involution relator \(1, 1\)"):
        Presentation(2, ((0, 0), (0, 1) * 3))
    with pytest.raises(ValueError):
        Presentation(3, ((0, 0), (1, 1), (2, 2, 2)))


def test_string_coxeter_shape():
    pres = string_coxeter([4, 3])
    assert pres.ngens == 3
    assert (0, 0) in pres.relators and (2, 2) in pres.relators
    assert (0, 1) * 4 in pres.relators
    assert (1, 2) * 3 in pres.relators
    assert (0, 2) * 2 in pres.relators
    with pytest.raises(ValueError):
        string_coxeter([1])


def test_enumerate_triangle_group():
    table = coset_enumerate(string_coxeter([3]))
    assert table.count == 6
    m = table.to_maniplex()
    assert validate(m).ok
    assert m.rank == 2


def test_enumerate_full_cube_group():
    table = coset_enumerate(string_coxeter([4, 3]))
    assert table.count == 48
    assert isomorphic(table.to_maniplex(), platonic("cube")) is not None


def test_enumerate_with_subgroup():
    pres = string_coxeter([4, 3])
    assert coset_enumerate(pres, subgroup_gens=((0,),)).count == 24
    assert coset_enumerate(pres, subgroup_gens=((1,), (2,))).count == 8  # vertex cosets
    assert coset_enumerate(pres, subgroup_gens=((0,), (1,))).count == 6  # face cosets


def test_quotient_by_extra_relator():
    hemi = coset_enumerate(string_coxeter([4, 3]).extended((0, 1, 2) * 3))
    assert hemi.count == 24
    assert isomorphic(hemi.to_maniplex(), platonic("hemicube")) is not None


def test_cap_raises():
    with pytest.raises(CosetCapExceeded):
        coset_enumerate(string_coxeter([4, 3]), cap=10)
    # the affine group is infinite; the cap must stop it
    with pytest.raises(CosetCapExceeded):
        coset_enumerate(string_coxeter([4, 4]), cap=2000)


def test_default_cap_env(monkeypatch):
    monkeypatch.delenv(CAP_ENV_VAR, raising=False)
    assert default_cap() == 100_000
    monkeypatch.setenv(CAP_ENV_VAR, "123")
    assert default_cap() == 123
    monkeypatch.setenv(CAP_ENV_VAR, "not-a-number")
    with pytest.raises(ValueError):
        default_cap()


def test_enumeration_is_deterministic():
    first = coset_enumerate(string_coxeter([4, 3]))
    second = coset_enumerate(string_coxeter([4, 3]))
    assert first.perms == second.perms


def test_coset_enumerate_matches_hlt_oracle():
    symbols = (
        [3], [4], [4, 3], [3, 4], [3, 3], [3, 5], [5, 3], [3, 3, 3], [4, 3, 3], [3, 4, 3],
        [3, 3, 3, 3], [4, 3, 3, 3], [3, 3, 3, 4], [3, 3, 3, 3, 3],
    )
    cases = [(string_coxeter(s), ()) for s in symbols]
    cases += [
        (string_coxeter([4, 3]).extended(PETRIE_CUBE), ()),
        (string_coxeter([3, 4]).extended(PETRIE_CUBE), ()),
        (B_PRESENTATION, ()),
        (string_coxeter([4, 3]), ((0,),)),
        (string_coxeter([4, 3]), ((1,), (2,))),
        (string_coxeter([4, 3]), ((0,), (1,))),
        (string_coxeter([3, 4, 3]), ((0, 1, 0), (2,))),
        # a rotation word: tracing it numbers cosets before any relator does
        (string_coxeter([4, 3]), ((1, 2),)),
    ]
    for pres, subgroup in cases:
        assert coset_enumerate(pres, subgroup).perms == coset_enumerate_hlt(pres, subgroup), (pres, subgroup)


def test_rank5_cube_and_orthoplex_fit_a_small_cap():
    # 3 840 cosets each; a scan without deductions allocates ~118 000
    cube = coset_enumerate(string_coxeter([4, 3, 3, 3]), cap=6000).to_maniplex()
    orthoplex = coset_enumerate(string_coxeter([3, 3, 3, 4]), cap=6000).to_maniplex()
    assert tuple(len(faces(cube, i)) for i in range(5)) == (32, 80, 80, 40, 10)
    assert tuple(len(faces(orthoplex, i)) for i in range(5)) == (10, 40, 80, 80, 32)
    assert isomorphic(cube, dual(orthoplex)) is not None

import hashlib
import random

import pytest

from maniplex.core import dual, dumps_json, faces, isomorphic, maniplex_to_json, validate
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
from oracles import coset_enumerate_hlt, relator_trace_order, to_json_dict_v1

PETRIE_CUBE = (0, 1, 2) * 3

NAMED_SYMBOLS = (
    [3], [4], [4, 3], [3, 4], [3, 3], [3, 5], [5, 3], [3, 3, 3], [4, 3, 3], [3, 4, 3],
    [3, 3, 3, 3], [4, 3, 3, 3], [3, 3, 3, 4], [3, 3, 3, 3, 3],
)
NAMED_CASES = [(string_coxeter(s), ()) for s in NAMED_SYMBOLS] + [
    (string_coxeter([4, 3]).extended(PETRIE_CUBE), ()),
    (string_coxeter([3, 4]).extended(PETRIE_CUBE), ()),
    (B_PRESENTATION, ()),
    (string_coxeter([4, 3]), ((0,),)),
    (string_coxeter([4, 3]), ((1,), (2,))),
    (string_coxeter([4, 3]), ((0,), (1,))),
    (string_coxeter([3, 4, 3]), ((0, 1, 0), (2,))),
    # a rotation word: tracing it numbers cosets before any relator does
    (string_coxeter([4, 3]), ((1, 2),)),
    # the whole group: a one-coset table
    (string_coxeter([4, 3]), ((0,), (1,), (2,))),
    # (0 1)^2 collapses the squares: some relator walks from a live coset
    # come round complete but end on another coset, which only a scan merges
    (string_coxeter([4, 3]).extended((0, 1) * 2), ()),
]

# SHA-256 of the format-1 text (`dumps_json(to_json_dict_v1(m))`, the bytes
# version 0.1.0 wrote) for every maniplex the package builds by coset
# enumeration; any drift in the numbering changes these bytes
COSET_BUILT_SHA256_V1 = {
    "B": "436810899bae0a76ff199b3e153f5984ba28677a665290f98524a073a9a88050",
    "square": "ab4d42725ac20a91cca232944a6853ede58789b8bad41fa9f15b68fd4eb908a7",
    "cube": "2374f5d30fa718930f8cdf6c6cf61330069bebd6e79af018197c8e52ae201e1b",
    "hemicube": "847dee9675dd47e75a79d1652ac23d10dd8f7f87ba5953e2c3d00fea5b3addce",
    "hemioctahedron": "d281a0f056466be2cf4d29c8011a255ffa75cad57aa74e28716d9bf829f2c3ef",
    "24cell": "1597941bb292640956cede1575ce253f64e3265f15978e4cbb55aed93867009a",
    "5simplex": "43588f667b7bea371c196995e1c1f7896e784c7634909c59cc2fb2fa9a1b5042",
    "5cube": "0b03d73fa1939476acd807def90d3a0cee6ad6e4949781f77c1f8f05a941c4dc",
    "5orthoplex": "7bcbce85fa39b10bbe16c166cbb59ab30ac14a934da039713e65f395a3da8b52",
}

# SHA-256 of maniplex_to_json, the format-2 text, for the same maniplexes
COSET_BUILT_SHA256 = {
    "B": "0d7d9dda51bc951ca854cf7429a5b9988287fe0cc9a0ac4ef13af3152b0afcbc",
    "square": "3e8bc019234a127c1a714be1a21921b94ce79b6e8946af35e7582aab3d7708f0",
    "cube": "c01e1e4e30424df611100fd4caafe351fab9419b3737904275201b90301cb7a8",
    "hemicube": "b5f710ae10e01cb6ae1b70f38fbe5cb277a3fb46d595cad236e2b02a85bbef7e",
    "hemioctahedron": "557beb14efcd0b040c79e51ae71a62c18ae682d0279d054d85c5a4436f15bc9b",
    "24cell": "eb681d864568c422df41bb91f7934e8bfd5fa75b657f488e9d4a7d486e124352",
    "5simplex": "89d3e0a6ad085ec55621c3fdaa5df8cb2353c064f22b6d707c229c1b2d78acf9",
    "5cube": "b1d6109ca268998175f68132a179395d975cf3693ad8c7594f707f075f7cb91e",
    "5orthoplex": "129c2314f86003360c1f3b01d0892b0055a3351f2022b65216790892ae8965b0",
}
REGULAR_SYMBOLS = {"24cell": [3, 4, 3], "5simplex": [3, 3, 3, 3], "5cube": [4, 3, 3, 3], "5orthoplex": [3, 3, 3, 4]}

# cosets allocated, merged ones included, in building each of them: the
# smallest cap under which the enumeration completes
COSET_BUILT_ALLOCATIONS = {
    "B": (B_PRESENTATION, 161),
    "square": (string_coxeter([4]), 8),
    "cube": (string_coxeter([4, 3]), 48),
    "hemicube": (string_coxeter([4, 3]).extended(PETRIE_CUBE), 28),
    "hemioctahedron": (string_coxeter([3, 4]).extended(PETRIE_CUBE), 28),
    "24cell": (string_coxeter(REGULAR_SYMBOLS["24cell"]), 1181),
    "5simplex": (string_coxeter(REGULAR_SYMBOLS["5simplex"]), 817),
    "5cube": (string_coxeter(REGULAR_SYMBOLS["5cube"]), 4598),
    "5orthoplex": (string_coxeter(REGULAR_SYMBOLS["5orthoplex"]), 4609),
}


def random_involutory_case(rng: random.Random) -> tuple[Presentation, tuple[tuple[int, ...], ...]]:
    """2-5 involutions, a random order for each pair's product, up to two
    powers of random short words, and up to three random subgroup words."""
    n = rng.randint(2, 5)
    relators = [(d, d) for d in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            relators.append((i, j) * rng.choice((2, 2, 3, 3, 4, 5, 6)))
    for _ in range(rng.randint(0, 2)):
        word = tuple(rng.randrange(n) for _ in range(rng.randint(2, 4)))
        relators.append(word * rng.randint(1, 4))
    rng.shuffle(relators)
    subgroup = tuple(
        tuple(rng.randrange(n) for _ in range(rng.randint(1, 4))) for _ in range(rng.randint(0, 3))
    )
    return Presentation(n, tuple(relators)), subgroup


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
    for pres, subgroup in NAMED_CASES:
        assert coset_enumerate(pres, subgroup).perms == coset_enumerate_hlt(pres, subgroup), (pres, subgroup)


def test_live_cosets_are_in_relator_trace_order():
    # the table is returned without renumbering; tracing the subgroup words
    # and then the relators must reach its cosets in label order, so that
    # renumbering by trace order would leave it unchanged
    for pres, subgroup in NAMED_CASES:
        perms = coset_enumerate(pres, subgroup).perms
        assert relator_trace_order(perms, pres, subgroup) == list(range(len(perms[0]))), (pres, subgroup)
    rng = random.Random(20261018)
    checked = coincided = 0
    for _ in range(1700):
        pres, subgroup = random_involutory_case(rng)
        try:
            table = coset_enumerate(pres, subgroup, cap=500)
        except CosetCapExceeded:
            continue
        assert relator_trace_order(table.perms, pres, subgroup) == list(range(table.count)), (pres, subgroup)
        checked += 1
        try:  # a cap of the live count is exceeded exactly when some coset died
            coset_enumerate(pres, subgroup, cap=table.count)
        except CosetCapExceeded:
            coincided += 1
    assert checked >= 1000
    assert coincided >= checked // 2


def test_involution_relators_close_by_one_lookup():
    # an involution relator (d, d) is decided by whether alpha.d is defined,
    # with no walk: the tables still equal plain HLT's, which has no such
    # shortcut, on seeded random presentations (the named cases are compared
    # in test_coset_enumerate_matches_hlt_oracle), and every arrow has its
    # partner, the invariant the shortcut rests on.  The allocation counts,
    # the 5-cube's 4 598 among them, are pinned in
    # test_coset_built_maniplexes_pin_their_allocations
    cases = []
    rng = random.Random(20261019)
    while len(cases) < 200:
        pres, subgroup = random_involutory_case(rng)
        try:
            coset_enumerate(pres, subgroup, cap=500)
        except CosetCapExceeded:
            continue
        cases.append((pres, subgroup))
    for pres, subgroup in cases:
        perms = coset_enumerate(pres, subgroup).perms
        assert perms == coset_enumerate_hlt(pres, subgroup), (pres, subgroup)
        assert all(row[row[c]] == c for row in perms for c in range(len(row))), (pres, subgroup)


def test_subgroup_letters_are_validated():
    pres = string_coxeter([4, 3])
    # -1 would otherwise index the last generator's row and act as generator 2
    with pytest.raises(ValueError, match="subgroup letter -1 out of range"):
        coset_enumerate(pres, ((-1,),))
    with pytest.raises(ValueError, match="subgroup letter 3 out of range"):
        coset_enumerate(pres, ((3,),))
    assert coset_enumerate(pres, ((2,),)).count == 24


def test_coset_built_maniplexes_are_byte_pinned():
    built = {"B": coset_enumerate(B_PRESENTATION).to_maniplex()}
    for name in ("square", "cube", "hemicube", "hemioctahedron"):
        built[name] = platonic(name)
    for name, symbol in REGULAR_SYMBOLS.items():
        built[name] = coset_enumerate(string_coxeter(symbol)).to_maniplex()
    digests = {name: hashlib.sha256(maniplex_to_json(m).encode()).hexdigest() for name, m in built.items()}
    assert digests == COSET_BUILT_SHA256
    v1 = {name: hashlib.sha256(dumps_json(to_json_dict_v1(m)).encode()).hexdigest() for name, m in built.items()}
    assert v1 == COSET_BUILT_SHA256_V1


def test_coset_built_maniplexes_pin_their_allocations():
    for name, (pres, allocated) in COSET_BUILT_ALLOCATIONS.items():
        m = coset_enumerate(pres, cap=allocated).to_maniplex()
        assert hashlib.sha256(maniplex_to_json(m).encode()).hexdigest() == COSET_BUILT_SHA256[name], name
        with pytest.raises(CosetCapExceeded):
            coset_enumerate(pres, cap=allocated - 1)


def test_rank5_cube_and_orthoplex_fit_a_small_cap():
    # 3 840 cosets each; a scan without deductions allocates ~118 000
    cube = coset_enumerate(string_coxeter([4, 3, 3, 3]), cap=6000).to_maniplex()
    orthoplex = coset_enumerate(string_coxeter([3, 3, 3, 4]), cap=6000).to_maniplex()
    assert tuple(len(faces(cube, i)) for i in range(5)) == (32, 80, 80, 40, 10)
    assert tuple(len(faces(orthoplex, i)) for i in range(5)) == (10, 40, 80, 80, 32)
    assert isomorphic(cube, dual(orthoplex)) is not None

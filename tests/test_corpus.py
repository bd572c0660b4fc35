import hashlib

import pytest

from maniplex.core import (
    Maniplex,
    automorphism_count,
    dual,
    faces,
    isomorphic,
    maniplex_to_json,
    validate,
)
from maniplex.corpus import corpus_names, platonic, torus_44

import suites
from oracles import antipodal_quotient, geometric_cube_flags, polygon_flag_graph, torus_44_by_lattice

# hand-derived flag graph of the one-cell torus map, frozen
TORUS_1_0_PERMS = (
    (3, 6, 5, 0, 7, 2, 1, 4),
    (1, 0, 3, 2, 5, 4, 7, 6),
    (7, 2, 1, 4, 3, 6, 5, 0),
)

# SHA-256 of maniplex_to_json(torus_44(b, c)) for the census pool (every
# (b, c) with b, c >= 0 and 1 <= b^2 + c^2 <= 64, so each map's mirror
# (c, b) too), computed with the flag-by-flag lattice construction
TORUS_POOL_SHA256 = {
    (0, 1): "ee2b48fc4debaf46992c59deb04bde76b030dbefa13914497fade8645a79cbd8",
    (0, 2): "79ef90815f0c3e94c6c1d7f0e109757dcafe532a0395224c4a508c703b7f2160",
    (0, 3): "6cdfeb3464793dec5cfc65689cb1efea0038b7cd68c801372a28233553759ed8",
    (0, 4): "6759d092f7f3c6fd7021fb29b0df52e4ceb57053282fb872cef66246e8b8be1f",
    (0, 5): "e74bc08059ddb258439c138f44f3e8dbadafd28b74921d0b672dab4f78da1006",
    (0, 6): "c19685bce559dc95f2be9868a82b9eb3babc5bbe503de2c4b905bff46062bef7",
    (0, 7): "d6463be461fb9c9beafb0010d10e4e4b6a221f5afffbebb02c989afcdd4d391e",
    (0, 8): "44f1284d8d9a91c419a76ed2c662cee83db59bb58a565fb2ebded3718713ef09",
    (1, 0): "ee2b48fc4debaf46992c59deb04bde76b030dbefa13914497fade8645a79cbd8",
    (1, 1): "ef7d2f312aa47ac13bf1b9eca7a6104283a8abc1ea304703406ee10f7dcc9d51",
    (1, 2): "d410bfb7a39638d799e4e5cc7a1582279ccf0739272586b7f41da014fa0922a8",
    (1, 3): "d94ec4f5ba992dda828d05e677fcebfd89eb3f74c4616e5be988f21f350cbb73",
    (1, 4): "da6ebd20221839a5252472c0669bc73079e253953697f36a5ef959823f089bc3",
    (1, 5): "918d922e80bcd283189b13f52e2c5152ad3112f4973d9c332cebe3b9d5a8503a",
    (1, 6): "2fa4bc3435fe337f0fd2b789c95ceaae6e5a8c0d6cf6aa88127f883ae939f69e",
    (1, 7): "f65ff83d180e905750e5ebb6ceb86b2ef780abcb314c10faf6c977998fed4843",
    (2, 0): "79ef90815f0c3e94c6c1d7f0e109757dcafe532a0395224c4a508c703b7f2160",
    (2, 1): "436360ecb2300a9d09f7ecf7198514cfa9cc1f1db9d0f2584ee999e000ec96fe",
    (2, 2): "101d6dcb687b8fb4e12e9c9bf32dffc755e2d83c97eb4bee3908b0d231008821",
    (2, 3): "0e4775ec424b085089395d816a96c7d34bd71163c75d8cfa515489c29f7739ae",
    (2, 4): "7dd4279faf531def81349d714b83eec67535d6e0803d5700c28359302220ca2b",
    (2, 5): "3dca07292894f79b4f47f3f01836a6120be3c50d1fac48da53e3fd69d76eeeeb",
    (2, 6): "d23b64b8035463d26461240a40fddb938d047bbe25c84feddb0a54f77afd6d0a",
    (2, 7): "149b74e0e13fa8e30e5d1bb4a07b6a0cf1488c6d98ad0705b52702e0b04c2ca6",
    (3, 0): "6cdfeb3464793dec5cfc65689cb1efea0038b7cd68c801372a28233553759ed8",
    (3, 1): "b50c5fca7c0db8f43653a77a0cfe01bdf9448f4b071a98ce5d52e984a6b93229",
    (3, 2): "f80dbe29393da19d5f37c50c6493dc6fc0f995f9c4e8d901b651e6256ad22011",
    (3, 3): "5e1b2a75b16030fe3b7af9e6b9958c59c89b114ebb6416cad2e0330893a6f2e7",
    (3, 4): "3500f4e314bab0538d0a3dd19b290fcec80e83ea0ce83c24a808bbea2547cd83",
    (3, 5): "65c7118f0282ec04b10a382c507a8c05442143c7ced2a54ade9437840bb4158f",
    (3, 6): "00c6d0010d4f20f15674954fb853e00daefd3200e51fe7b0358e584f14386a2a",
    (3, 7): "46afcd8b5847a80378f4519b3ecb38cbfa0400acfaec8134b7abfb32cedd91a2",
    (4, 0): "6759d092f7f3c6fd7021fb29b0df52e4ceb57053282fb872cef66246e8b8be1f",
    (4, 1): "f8daa13f57b24b0b77d08aab4bddb1c0bd7a6075c2300b2745ad6cc3b460db66",
    (4, 2): "cacb205b5630119dbb8164365fdaf990febd0540dadbdaa98986254c1ce7fae1",
    (4, 3): "dadb9fb58ff7bed54734bc296abec45860349de0512a6fb7d4f7c63dd7c29538",
    (4, 4): "91015acf29870800a1f2c296b2b529621fff0d7b0560e29ac11daa0b7b47d8f0",
    (4, 5): "1298a01bf6a09c4d02b7b0dea77676760cd1060d7567e2f435da445c446ef486",
    (4, 6): "c2b0623eda763e03e121a559c1404632d1e59382c3fa8c88e2500e0161cc5cb4",
    (5, 0): "e74bc08059ddb258439c138f44f3e8dbadafd28b74921d0b672dab4f78da1006",
    (5, 1): "802c7585ee7b26cb6540256488c9d0c3c189bdabc56e403169bc6c1ca752a5c4",
    (5, 2): "9bb4895e8066f5471295f249dbbc502b0cbe2d78d9e3df4999e2ba5f2a53d5a6",
    (5, 3): "e8ff418f916fcb155a3a9b316103ff53c5612b3fd67b904fb2df37bde941b51b",
    (5, 4): "11e9a4c3104349defece78e46bfc27a9307502b0c4d0d11b37b9d1607c942149",
    (5, 5): "efdb4cd2fbad191e909feb262d3899e85b16c58671edd7798082c057c041f167",
    (5, 6): "9405361fd16078f619a55b5daae35eaf6f2ef4ea7ff783f7ff4bb6dbdec615e0",
    (6, 0): "c19685bce559dc95f2be9868a82b9eb3babc5bbe503de2c4b905bff46062bef7",
    (6, 1): "c1122773d0927e75846e470d12c5b2b6337582db81c850533691b05109bf00cf",
    (6, 2): "c2995d5dc0a8e1ce83954d8bc6875cec464c9a16d0d8f3939bc52ed709ac8590",
    (6, 3): "9febd0613a76b3ef3155fd366c4ea6e339ba8c3df3ad9c1bd4edbbe7f62a89dc",
    (6, 4): "d42769331e89ed27e0d154c3f83a4291ff0b057aec7a7ca39f1d81b15423bb56",
    (6, 5): "6e268935f57addad635293ec7c7bc0db40b09d29e0e734f47f19f2d741a3e073",
    (7, 0): "d6463be461fb9c9beafb0010d10e4e4b6a221f5afffbebb02c989afcdd4d391e",
    (7, 1): "ab5c3680b187813aaf7672162d2a3745105b8d4e45d1c0d639991252a6d7c4a7",
    (7, 2): "0ea07c1b9ea18c7ed09e7bab74334834d09c86dc4f61319161d5668b4676ce30",
    (7, 3): "8bd6ccfc5b8efcd30d80242a834379a06ae8df29bdc1ec8c08a69e24cda7f456",
    (8, 0): "44f1284d8d9a91c419a76ed2c662cee83db59bb58a565fb2ebded3718713ef09",
}


def test_torus_1_0_frozen():
    assert tuple(map(tuple, torus_44(1, 0).perms)) == TORUS_1_0_PERMS


def test_torus_flag_counts():
    for b in range(4):
        for c in range(4):
            if b == c == 0:
                continue
            m = torus_44(b, c)
            assert m.flag_count == 8 * (b * b + c * c), (b, c)
            assert validate(m).ok, (b, c)


def test_torus_face_vectors():
    m = torus_44(2, 0)
    assert tuple(len(faces(m, i)) for i in range(3)) == (4, 8, 4)
    m = torus_44(1, 1)
    assert tuple(len(faces(m, i)) for i in range(3)) == (2, 4, 2)


def test_torus_mirror_symmetry():
    assert isomorphic(torus_44(2, 1), torus_44(1, 2)) is not None
    assert isomorphic(torus_44(3, 1), torus_44(1, 3)) is not None


def test_torus_rejects_bad_vectors():
    with pytest.raises(ValueError):
        torus_44(0, 0)
    with pytest.raises(ValueError):
        torus_44(-1, 2)


def test_torus_self_duality():
    # the {4,4} maps are self-dual
    m = torus_44(2, 1)
    assert isomorphic(m, dual(m)) is not None


def test_square_is_polygon():
    assert isomorphic(platonic("square"), Maniplex(polygon_flag_graph(4))) is not None
    assert automorphism_count(platonic("square")) == (8, True)


def test_cube_matches_solid_geometry():
    perms, _ = geometric_cube_flags()
    geometric = Maniplex(perms)
    assert validate(geometric).ok
    assert isomorphic(geometric, platonic("cube")) is not None


def test_hemicube_is_antipodal_quotient():
    perms, flags = geometric_cube_flags()
    quotient = Maniplex(antipodal_quotient(perms, flags))
    assert validate(quotient).ok
    assert quotient.flag_count == 24
    assert isomorphic(quotient, platonic("hemicube")) is not None


def test_hemioctahedron_is_dual_of_hemicube():
    assert isomorphic(platonic("hemioctahedron"), dual(platonic("hemicube"))) is not None


def test_platonic_regularity():
    for name in corpus_names():
        m = platonic(name)
        info = automorphism_count(m)
        assert info == (m.flag_count, True), name


def test_platonic_unknown_name():
    with pytest.raises(ValueError):
        platonic("icosahedron")


def test_corpus_names_sorted():
    names = corpus_names()
    assert names == sorted(names)
    assert set(names) == {"square", "cube", "hemicube", "hemioctahedron"}


def test_torus_canonical_cell_reduction():
    # (b, c) and (-c, b) generate the same lattice, so rotating by 90 degrees
    # must give the same map
    m1 = torus_44(2, 1)
    assert m1.flag_count == 40
    # four corners x two flag selectors on each of five cells
    assert tuple(len(faces(m1, i)) for i in range(3)) == (5, 10, 5)


def test_torus_matches_flag_by_flag_lattice_oracle():
    for b in range(13):
        for c in range(13):
            if b or c:
                assert tuple(map(tuple, torus_44(b, c).perms)) == torus_44_by_lattice(b, c), (b, c)


def test_torus_pool_is_byte_pinned():
    digests = {
        (b, c): hashlib.sha256(maniplex_to_json(torus_44(b, c)).encode()).hexdigest() for b, c in suites.TORUS_POOL
    }
    assert digests == TORUS_POOL_SHA256

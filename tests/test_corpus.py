import hashlib

import pytest

from maniplex.core import (
    Maniplex,
    automorphism_count,
    dual,
    dumps_json,
    faces,
    isomorphic,
    maniplex_to_json,
    validate,
)
from maniplex.corpus import corpus_names, platonic, torus_44

import suites
from oracles import antipodal_quotient, geometric_cube_flags, polygon_flag_graph, to_json_dict_v1, torus_44_by_lattice

# hand-derived flag graph of the one-cell torus map, frozen
TORUS_1_0_PERMS = (
    (3, 6, 5, 0, 7, 2, 1, 4),
    (1, 0, 3, 2, 5, 4, 7, 6),
    (7, 2, 1, 4, 3, 6, 5, 0),
)

# SHA-256 of the format-1 text, `dumps_json(to_json_dict_v1(torus_44(b, c)))`,
# for the census pool (every (b, c) with b, c >= 0 and 1 <= b^2 + c^2 <= 64,
# so each map's mirror (c, b) too), computed with the flag-by-flag lattice
# construction: the bytes version 0.1.0 wrote, so the rows are unchanged
TORUS_POOL_SHA256_V1 = {
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

# SHA-256 of maniplex_to_json(torus_44(b, c)), the format-2 text, for the
# same pool, computed from the lattice construction by `to_json_dict_v2`
TORUS_POOL_SHA256 = {
    (0, 1): "6921bdab5164408b4687cc0024829b43d5fc7a1aef88ee4afa36e4ba348e89b0",
    (0, 2): "d4a68b479bd88c9bca2993a7ae3d901b1565efc9a4c94f29701f07d1a96afc16",
    (0, 3): "cce63503868f64e7577ba296906ee042a245bb5dd336eb5d1ec860e7c8b50cb6",
    (0, 4): "51b4b5281ac3265ac05b09fad325d3b5d20af612f155d191ff4b87e60898b7e8",
    (0, 5): "a5bcc19abafe43004965fff41cf743aeafebaba3e401e55c245c0f55ddab6b62",
    (0, 6): "c1271eb64521dea49bff5e6af54d609d771a6fbfa918001caddd88c3f2f442e2",
    (0, 7): "fdf31cb4aac417ba8b2034e8fdb9c89e7d97b4459ae60bccb033d64a2a096210",
    (0, 8): "783bf86acd5197410c58e0bb0f3ef5694c3753f1ffad719388f1f2a26e9ad3d9",
    (1, 0): "6921bdab5164408b4687cc0024829b43d5fc7a1aef88ee4afa36e4ba348e89b0",
    (1, 1): "d91bfea8b779bf432c1aafb1b8a6b4f698a7673a1332fbc5bb3c99bb52e60b7a",
    (1, 2): "fd648d48736a343146f22c2879d6258b27e6cf6a69c2d927ed65f6441dca0bdd",
    (1, 3): "ffbdf285be97305b606f3d6beb8e91fb745505bea970b5fc94a69af410732fbc",
    (1, 4): "13587a448dbc815879f7e25099ea57168a68d05bca1a960442248a585f457b38",
    (1, 5): "418fe39649c663a72cfc0f940a3f7656b896cb30f1f69f59ec310293b681b025",
    (1, 6): "df47408df013217f87670ff6ceb5f05da9d210025ec13a5652af5d4293809aae",
    (1, 7): "2e9b05f5857555a26dc3f7793ee967e2bcd302b4c3a5adc596896336f2d9e8a8",
    (2, 0): "d4a68b479bd88c9bca2993a7ae3d901b1565efc9a4c94f29701f07d1a96afc16",
    (2, 1): "5e8a986ae028c0505850100c700a4248dbf9e440a05779b0575e66e792b1828d",
    (2, 2): "c4490adeefe2706190a28a160e5af816c1a1ab0f7ca6e806f0625e39788594fb",
    (2, 3): "f3392a60f462f54c54b4c6fed3bce5a8ddb3a2daedeea3d870d093a728d5a663",
    (2, 4): "8c65824260da61ea220f7776ce90f2bf123e82925197f521adb27182780bfe77",
    (2, 5): "2d0851ac23009ce14e3097e3ed97dd595e8f1133b52ca7e02948f7cccde6c8c0",
    (2, 6): "e295136781d78318f701b94acb5083f3ca8cf7854f25cf0374b9e9862902bb47",
    (2, 7): "9c429bec85320e80a7e14690d82d99da5146790cbbff28f4cd8f3aa20580f98c",
    (3, 0): "cce63503868f64e7577ba296906ee042a245bb5dd336eb5d1ec860e7c8b50cb6",
    (3, 1): "3d00cf44605c9f3b3af1a132a8e821b2f9cce9a388fb4a1b4e554e1fe4b16399",
    (3, 2): "479b3280e57135a35c2232ba669bc6972ad485205dd208008c4f2f999580fc7e",
    (3, 3): "92b567a39022deb6b8961e8cf05225ceb31c2f2d05a9f9f0e8abd831c279c163",
    (3, 4): "bb31573ac1c206faa9ae6e8e4bb1ce4f39e90536669ac45120f1f3597c01a76d",
    (3, 5): "3eff914f69f5b19bb0ce7f66d76b7749d1441b6a31bed9b849460f2750a600a7",
    (3, 6): "62f056616e6d9d33231b5bade0531f415032ec369da7b7388b4a958125ab730b",
    (3, 7): "63d25c2128f72cc52eb4825b8b7296372fe46df0ad3165c1c318976a7fd35ecf",
    (4, 0): "51b4b5281ac3265ac05b09fad325d3b5d20af612f155d191ff4b87e60898b7e8",
    (4, 1): "606d0aba1813da62ed7eaed81eb7b738998c77a618079c51270d279559481044",
    (4, 2): "b19fa93a28e2731711fa4e2e58f7c9e495d387678a5b059a63c05390f1dd00a1",
    (4, 3): "9554f2c78f59aa94e61797391588119d46817bf946fa6417032bb68e4bb7a1d8",
    (4, 4): "a27e2a4c1fc175d0cfee1aec5f56b5e94df65bb033f198c8d8eadbdd0f2d9823",
    (4, 5): "bbbdf76c51eb73865f8f47222bb6dd9320a11ec3ca9677bf82c7ace4e7874346",
    (4, 6): "59a0fde777f4f72035c2dfe54bb604f1a7dbc7dbc3e6b40730d9a57bcb98c075",
    (5, 0): "a5bcc19abafe43004965fff41cf743aeafebaba3e401e55c245c0f55ddab6b62",
    (5, 1): "81bd5469cedf2e192d0ab8a71fe6c966f4e7473af480f56b8ae163148999b884",
    (5, 2): "3d51e6284a0721fbb2db2afa896c831e5dd6ae97a67b78c15ec4d1cb335bc35e",
    (5, 3): "d022f018cd3cb3d50b1a46cf9980b454b13dec920cba53ee3db053bfe3e97c3d",
    (5, 4): "2990db42da792d81aaeb081d3579e0a1a8d5ccaed5d0699472ded2956c8584f7",
    (5, 5): "1b84397d3f4c4ee3c1ea33434084681dd4bfec8cd0491eada15f5a91a0bc897f",
    (5, 6): "70e4775bc50112f74780781bac20dce994a84490925a699df92d75afb31f59fc",
    (6, 0): "c1271eb64521dea49bff5e6af54d609d771a6fbfa918001caddd88c3f2f442e2",
    (6, 1): "132014de94fae3c3dbc60e4d423456dde1a3472dc1e84acc2907392114a791c5",
    (6, 2): "d2a7cf51db3735e1734eb0a81f399d364eca23d48536a62838d7d27a08fa7c65",
    (6, 3): "cf04637a5494dc6684b258371c24726d5dcec7dd88f4e2cb49bc7a028410af8b",
    (6, 4): "87a3ed17672742fcca6693f6746f1ecb00bb6d33a0e3ed950c8b786643d29e40",
    (6, 5): "6efc47d3e3fb7e6f9e28f1f9ee87d13ecca631fbd99c9e0fc9f48bfaa96fd12a",
    (7, 0): "fdf31cb4aac417ba8b2034e8fdb9c89e7d97b4459ae60bccb033d64a2a096210",
    (7, 1): "c8a8c320c579954881c70efa22c0d6077818589a942f5f066fa92f80dfa17b9b",
    (7, 2): "e97b6831cc9461d5e5e8e151cfc43fa4820529d3d1445a33f8997b2c89b4b65e",
    (7, 3): "4f3cda5dfd81f36ec3385b037c00a98720ef56d901b96fa6e9f3e80474f73a98",
    (8, 0): "783bf86acd5197410c58e0bb0f3ef5694c3753f1ffad719388f1f2a26e9ad3d9",
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
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    maps = {(b, c): torus_44(b, c) for b, c in suites.TORUS_POOL}
    assert {bc: digest(maniplex_to_json(m)) for bc, m in maps.items()} == TORUS_POOL_SHA256
    assert {bc: digest(dumps_json(to_json_dict_v1(m))) for bc, m in maps.items()} == TORUS_POOL_SHA256_V1

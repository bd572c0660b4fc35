import filecmp
import hashlib
import json
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import maniplex
from maniplex import cli, corpus, extension, poset
from maniplex.certify import FAIL, Refusal
from maniplex.cli import main
from maniplex.core import (
    AXIOM_CONNECTED,
    AXIOM_FIXED_POINT_FREE,
    AXIOM_INVOLUTION,
    AXIOM_PROPER,
    Maniplex,
    ValidationReport,
    dumps_json,
    faces,
    maniplex_from_json,
    maniplex_json_chunks,
    maniplex_to_json,
    validate,
)
from maniplex.corpus import platonic
from maniplex.cosets import CosetCapExceeded
from maniplex.counterexample import BuildError, EThetaOverlap, ThetaNotFound
from maniplex.extension import extend
from maniplex.voltage import double_cover

from oracles import maniplex_from_json_by_loads, to_json_dict_v1, to_json_dict_v2

# SHA-256 of build-bstar's certificate.json for this version; any change to
# the certificate's bytes must be deliberate (version 0.1.0's is in
# ARTIFACT_SHA256_V1)
BSTAR_CERTIFICATE_SHA256 = "67d86c5531cc6588d36d64035346c00a27cdac385590e2051823e2122abf9e38"

# SHA-256 of the artifacts that read the face tables, the face poset and
# the voltage edges: every file of `counterexample --rank 8` and of
# `build-bstar`, `find-theta` on build-bstar's B, the poset exports of B and
# of the cube, the failing extension certificate of torus (1,0) and the
# verdict document of torus (1,1), whose witness is a face-poset diamond.
# These are the bytes version 0.1.0 wrote, pinned before format 2: each
# artifact of this version, turned back into them by `v1_bytes`, must still
# give them, so its rows, checks, statuses, details and witnesses are
# unchanged.  The extension of the cube and its passing certificate, the
# verdict of B (a rank-4 poset search) and of torus (3,2) (judged from its
# flags) were pinned later, at version 0.2.0, each with the bytes
# `v1_bytes` gives for it
ARTIFACT_SHA256_V1 = {
    "bstar/b.json": "436810899bae0a76ff199b3e153f5984ba28677a665290f98524a073a9a88050",
    "bstar/bstar.json": "a27c1f6ad7d80f97518fc439e9431a59bba9203246008263cc88176ec2d774a7",
    "bstar/certificate.json": "4cb82e2de94fa39989800a7c676826585430e1c0c246ec6197829835d8e13937",
    "bstar/voltage-theta.json": "0b09b339667b9dfba765b5488e50108055ac78c85798c69e8763751f7e747c16",
    "find-theta.json": "0b09b339667b9dfba765b5488e50108055ac78c85798c69e8763751f7e747c16",
    "rank8/certificate-rank4.json": "4cb82e2de94fa39989800a7c676826585430e1c0c246ec6197829835d8e13937",
    "rank8/certificate-rank5.json": "68218f62ba596970c05c0ce512eae26a4805be20134a75e7459c308afe86333c",
    "rank8/certificate-rank6.json": "d3ab0a83e7d0a21061dd6aa0422cc6c8aca95ab1d6809ae9612a2a0b9c05bc4e",
    "rank8/certificate-rank7.json": "c840cbbf392c0358202f718f294339d759e032b435255050466252a38a812da1",
    "rank8/certificate-rank8.json": "4f51492f45ea28630a8ed03fd9d48ce731f332596db9fe3143145622caf1e6aa",
    "rank8/maniplex-rank4.json": "a27c1f6ad7d80f97518fc439e9431a59bba9203246008263cc88176ec2d774a7",
    "rank8/maniplex-rank5.json": "afb0707a3a66056008e48a5874039e6c8823d394f906251acfcc45cf5684992c",
    "rank8/maniplex-rank6.json": "4f380743be6b5652fe1358172e0d913c4ca205ab6637e227f4951915a97c65b4",
    "rank8/maniplex-rank7.json": "ced7a3a4ed6521f2170488a306cf9eb6b1795d0d08a59280856b4bd6a1c96090",
    "rank8/maniplex-rank8.json": "ac43bb86a9c1a5501072f34fd852ceecf84aa85b282ce52dc9d90dbf3ec7f119",
    "b.poset.json": "6eb997d41c6bd4c3b56874f3d1bb05b451ad07905b3891c076e44dd36ce3dbae",
    "b.hasse.dot": "a14deb7a99338e855fcef6ecdd3031322a31f7761c75a0c0589ccc9f94d709f3",
    "cube.poset.json": "77d2bab7f47b80439212144b32e1574228b6063b542723bb3cb6629a6d8efb80",
    "cube.hasse.dot": "89c56074605ef22876c919d560f423f7e80f3266e45a0e1f8128df4404ca5b44",
    "torus10.extension-certificate.json": "4cc8de8ccece56808e28861c1683f5fb6ebfb48fe57af0396fb225d9ecebc419",
    "torus11.verdict.json": "40595a85d4ee93b897cbdebcd35ac71aa94cc2eee63eab37d49d625e3f92ee4d",
    "b.verdict.json": "f1aa789f31c5afc7ca6973f40b90317de9b00c7d4f0b9bc4bef3c63e74fa5f2e",
    "cube.extension-certificate.json": "ef20d305ffdb533082ad6ebc932ca27326fd02a8870050de3e9e906a3abc5157",
    "cube.extension-extension.json": "748808e154d20e7eafaee0d1103fdb7cbca68196657a3c7c0c6ddb119173050e",
    "torus32.verdict.json": "6b3c672e4089d1bd8d86c575a792bd9d51319908fa9de9907eba2012f118246f",
}

# SHA-256 of the same artifacts as this version writes them
ARTIFACT_SHA256 = {
    "b.hasse.dot": "a14deb7a99338e855fcef6ecdd3031322a31f7761c75a0c0589ccc9f94d709f3",
    "b.poset.json": "6eb997d41c6bd4c3b56874f3d1bb05b451ad07905b3891c076e44dd36ce3dbae",
    "b.verdict.json": "d28cc5d45c6e9b68ce13ccc8c46180cc61bef41d92b54f183ef884e5e8e36474",
    "bstar/b.json": "0d7d9dda51bc951ca854cf7429a5b9988287fe0cc9a0ac4ef13af3152b0afcbc",
    "bstar/bstar.json": "38c0b45ebf52788b605d9d86d2bf24eb4948a144fe61046b53292e862a653328",
    "bstar/certificate.json": "67d86c5531cc6588d36d64035346c00a27cdac385590e2051823e2122abf9e38",
    "bstar/voltage-theta.json": "770544cf9946b27f3c02cea1bd136a389d0616fc6f1f168b939cda6a532af4fb",
    "cube.extension-certificate.json": "c3ddd6e59d79200fe2e450897aaac4bc6cb67138ae741f8c485aae1d0d036c78",
    "cube.extension-extension.json": "df6a329eecf069f046b7e1d996b6d9f7a3bf3be15cace6dc68fe595dd7a4f0e3",
    "cube.hasse.dot": "89c56074605ef22876c919d560f423f7e80f3266e45a0e1f8128df4404ca5b44",
    "cube.poset.json": "77d2bab7f47b80439212144b32e1574228b6063b542723bb3cb6629a6d8efb80",
    "find-theta.json": "770544cf9946b27f3c02cea1bd136a389d0616fc6f1f168b939cda6a532af4fb",
    "rank8/certificate-rank4.json": "67d86c5531cc6588d36d64035346c00a27cdac385590e2051823e2122abf9e38",
    "rank8/certificate-rank5.json": "8091401bd56968a059ac26341ba3f64149d28191b067c33c103b7abe52b89921",
    "rank8/certificate-rank6.json": "3d4868dafad511fbd1cf767c492cfd6cb5bd5d73dc121992aaf0acc6083ea28a",
    "rank8/certificate-rank7.json": "ed95e7207c35caac75113eefe451abfe4ffdeb87384b142fd828d99ba08af9ec",
    "rank8/certificate-rank8.json": "7178a83289a27b164fd993df66fbd662da15b6eb2f713e0866913eb775169917",
    "rank8/maniplex-rank4.json": "38c0b45ebf52788b605d9d86d2bf24eb4948a144fe61046b53292e862a653328",
    "rank8/maniplex-rank5.json": "d42069f6465353d20d4fc6407dd499e9bc14083dd4fa43d74d41b26fa87bca26",
    "rank8/maniplex-rank6.json": "3051e6c2216a77ccdb58a1083604c95e1e865e59da126dc20ffb4f8ce16e0df6",
    "rank8/maniplex-rank7.json": "16786e98951e7fcd18b39105f8d4d3667375c768c478a1e47ba12bfdc02771db",
    "rank8/maniplex-rank8.json": "d1ba247a840424072c3c7fed66ef98e76465c5dd0576c74e4523fbd69b6275bc",
    "torus10.extension-certificate.json": "2925182a1905123e3dba14b7698a304c643743f8f9e2b4b95f361462b160d5d1",
    "torus11.verdict.json": "247ebe4ff94296793485360fdf59418d088d94d8a71f95bf37a0cf881a1c9916",
    "torus32.verdict.json": "8a5c83502f50d68a38aa8ecee75f4ae53b32a364b265919c8306da756a970abc",
}

XOR4_DOC = {
    "rank": 4,
    "flags": 16,
    "perms": [[f ^ (1 << i) for f in range(16)] for i in range(4)],
}


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def gen(tmp_path, name, *argv):
    out = tmp_path / name
    assert main([*argv, "-o", str(out)]) == 0
    return str(out)


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "maniplex" in capsys.readouterr().out


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_gen_writes_to_stdout_by_default(capsys):
    assert main(["gen", "platonic", "--name", "square"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["flags"] == 8
    assert "[time] gen:" in captured.err


def test_interrupted_write_leaves_no_torn_file(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", fail)
    fresh = tmp_path / "fresh.json"
    assert main(["gen", "platonic", "--name", "cube", "-o", str(fresh)]) == 2
    kept = tmp_path / "kept.json"
    kept.write_text("earlier", encoding="utf-8")
    assert main(["gen", "platonic", "--name", "cube", "-o", str(kept)]) == 2
    assert kept.read_text(encoding="utf-8") == "earlier"
    assert main(["build-bstar", "-o", str(tmp_path / "bstar")]) == 2
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["bstar", "kept.json"]


def test_write_failing_partway_leaves_no_torn_artifact(bstar_result, tmp_path, monkeypatch):
    """Chunks that raise after the first is written, to `_write` or to
    `_write_certified`, leave neither the file nor its .tmp."""

    class Interrupted(Exception):
        pass

    held = []

    def failing(chunks):
        yield next(iter(chunks))
        held.append(sorted(p.name for p in tmp_path.iterdir()))  # the first chunk is in the .tmp file
        raise Interrupted

    m = bstar_result.bstar
    with pytest.raises(Interrupted):
        cli._write(tmp_path / "bstar.json", failing(maniplex_json_chunks(m)))
    monkeypatch.setattr(cli, "maniplex_json_chunks", lambda m: failing(maniplex_json_chunks(m)))
    with pytest.raises(Interrupted):
        cli._write_certified(tmp_path, "maniplex.json", "certificate.json", m, [])
    assert held == [["bstar.json.tmp"], ["maniplex.json.tmp"]]
    assert list(tmp_path.iterdir()) == []


def test_streamed_write_holds_no_whole_text(bstar_result, tmp_path):
    m = bstar_result.bstar
    while m.rank < 8:
        m = extend(m, faces(m, m.rank - 1)[0])
    path = tmp_path / "maniplex-rank8.json"
    tracemalloc.start()
    try:
        digest = cli._write(path, maniplex_json_chunks(m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    data = maniplex_to_json(m).encode("utf-8")
    assert len(data) > 2_000_000 and peak < 1_000_000, peak
    assert path.read_bytes() == data
    assert digest == hashlib.sha256(data).hexdigest()


def test_check_ok_document(tmp_path):
    path = gen(tmp_path, "t21.json", "gen", "torus", "--b", "2", "--c", "1")
    report_path = tmp_path / "report.json"
    assert main(["check", "-i", path, "-o", str(report_path)]) == 0
    doc = load(report_path)
    assert set(doc) == {"version", "input_digest", "ok", "structural", "violations"}
    assert doc["ok"] is True
    assert doc["violations"] == []
    raw = (tmp_path / "t21.json").read_bytes()
    assert doc["input_digest"] == hashlib.sha256(raw).hexdigest()


def test_check_flags_corruption(tmp_path, capsys):
    path = gen(tmp_path, "t11.json", "gen", "torus", "--b", "1", "--c", "1")
    rows = [list(row) for row in maniplex_from_json_by_loads(Path(path).read_text())]
    rows[0][0] = 0  # fixed point, and the row is no longer a bijection
    for to_json_dict in (to_json_dict_v1, to_json_dict_v2):
        broken = write_json(tmp_path / "broken.json", to_json_dict(Maniplex(rows)))
        assert main(["check", "-i", broken]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is False
        assert out["structural"] or out["violations"]


def test_missing_input_file(tmp_path):
    assert main(["check", "-i", str(tmp_path / "nope.json")]) == 2


def test_non_json_input(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    for text in ("not json at all", "[" * 200_000):
        path.write_text(text, encoding="utf-8")
        assert main(["check", "-i", str(path)]) == 2
        assert "error: invalid JSON" in capsys.readouterr().err


def test_gen_torus_rejects_bad_vectors(tmp_path):
    assert main(["gen", "torus", "--b", "0", "--c", "0"]) == 2
    assert main(["gen", "torus", "--b", "-1", "--c", "2"]) == 2


def test_build_b_respects_coset_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MANIPLEX_COSET_CAP", "10")
    assert main(["build-b", "-o", str(tmp_path / "b.json")]) == 1
    assert "error:" in capsys.readouterr().err
    monkeypatch.setenv("MANIPLEX_COSET_CAP", "frogs")
    assert main(["build-b", "-o", str(tmp_path / "b.json")]) == 2


def test_find_theta_pipeline(tmp_path):
    b_path = gen(tmp_path, "b.json", "build-b")
    out = tmp_path / "theta.json"
    assert main(["find-theta", "-i", b_path, "-o", str(out)]) == 0
    doc = load(out)
    assert set(doc) == {"version", "input_digest", "theta", "edges"}
    assert doc["theta"] == [0, 24, 25, 57, 74, 87]
    assert len(doc["edges"]) == 24


def test_find_theta_exit_codes(tmp_path, capsys):
    # wrong rank is a parameter error (2); a genuine exhausted search is
    # a semantic failure (1)
    path = gen(tmp_path, "sq.json", "gen", "platonic", "--name", "square")
    assert main(["find-theta", "-i", path]) == 2
    xor4 = write_json(tmp_path / "xor4.json", XOR4_DOC)
    assert main(["find-theta", "-i", xor4]) == 1
    assert "no marked set" in capsys.readouterr().err


@pytest.fixture(scope="module")
def bstar_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bstar")
    assert main(["build-bstar", "-o", str(out)]) == 0
    return out


def test_build_bstar_artifacts(bstar_dir):
    names = sorted(p.name for p in bstar_dir.iterdir())
    assert names == ["b.json", "bstar.json", "certificate.json", "voltage-theta.json"]
    cert = load(bstar_dir / "certificate.json")
    assert cert["ok"] is True
    assert cert["flags"] == 192
    assert cert["faithful"] is False
    assert cert["polytopal"] is True
    assert cert["poset_iso"] is True
    assert cert["witness"] == [0, 1]
    assert cert["verdict"] == {"semisparse": False, "sparse": True}
    assert all(c["status"] in ("pass", "skip", "info") for c in cert["checks"])


def test_build_bstar_is_deterministic(bstar_dir, tmp_path):
    again = tmp_path / "again"
    assert main(["build-bstar", "-o", str(again)]) == 0
    for name in ("b.json", "voltage-theta.json", "bstar.json", "certificate.json"):
        assert filecmp.cmp(bstar_dir / name, again / name, shallow=False), name


def test_build_bstar_certificate_bytes(bstar_dir):
    data = (bstar_dir / "certificate.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == BSTAR_CERTIFICATE_SHA256


def test_voltage_document_rebuilds_cover(bstar_dir):
    b = maniplex_from_json((bstar_dir / "b.json").read_text())
    edges = frozenset(tuple(e) for e in load(bstar_dir / "voltage-theta.json")["edges"])
    cover = double_cover(b, edges)
    assert cover.perms == maniplex_from_json((bstar_dir / "bstar.json").read_text()).perms


def test_counterexample_rank4_matches_bstar(bstar_dir, tmp_path):
    out = tmp_path / "ce"
    assert main(["counterexample", "--rank", "4", "-o", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["certificate-rank4.json", "maniplex-rank4.json"]
    assert filecmp.cmp(out / "maniplex-rank4.json", bstar_dir / "bstar.json", shallow=False)
    assert filecmp.cmp(out / "certificate-rank4.json", bstar_dir / "certificate.json", shallow=False)


def v1_bytes(data: bytes, v1_digests: dict[str, str]) -> bytes:
    """The bytes version 0.1.0 wrote for an artifact this version wrote: a
    maniplex in format 1 (`to_json_dict_v1`); a document with an input
    digest with version 0.1.0, the digest its input had in format 1 (from
    v1_digests) and, for a verdict, the base flag 0 it carried; any other
    file as it is."""
    try:
        doc = json.loads(data)
    except ValueError:  # a DOT file
        return data
    if "perms" in doc:
        return dumps_json(to_json_dict_v1(maniplex_from_json(data.decode()))).encode()
    if "input_digest" in doc:
        doc.update(version="0.1.0", input_digest=v1_digests[doc["input_digest"]])
        if "schreier_ok" in doc:
            doc["base"] = 0
        return dumps_json(doc).encode()
    return data


def test_artifact_bytes_pinned(tmp_path):
    def digest(data):
        return hashlib.sha256(data).hexdigest()

    paths = {}
    rank8 = tmp_path / "rank8"
    assert main(["counterexample", "--rank", "8", "-o", str(rank8)]) == 0
    for path in rank8.iterdir():
        paths[f"rank8/{path.name}"] = path
    bstar = tmp_path / "bstar"
    assert main(["build-bstar", "-o", str(bstar)]) == 0
    for path in bstar.iterdir():
        paths[f"bstar/{path.name}"] = path
    paths["find-theta.json"] = Path(gen(tmp_path, "find-theta.json", "find-theta", "-i", str(bstar / "b.json")))
    srcs = {}
    for name, argv in (("b", ["build-b"]), ("cube", ["gen", "platonic", "--name", "cube"])):
        src = srcs[name] = gen(tmp_path, f"{name}.json", *argv)
        for fmt, suffix in (("json", "poset.json"), ("hasse-dot", "hasse.dot")):
            paths[f"{name}.{suffix}"] = Path(gen(tmp_path, f"{name}.{suffix}", "export", "--format", fmt, "-i", src))
    paths["b.verdict.json"] = Path(gen(tmp_path, "b.verdict.json", "verdict", "-i", srcs["b"]))
    assert main(["extend", "--verify", "-i", srcs["cube"], "-o", str(tmp_path / "cube-ext")]) == 0
    for name in ("extension.json", "certificate.json"):
        paths[f"cube.extension-{name}"] = tmp_path / "cube-ext" / name
    for b, c in ((1, 0), (1, 1), (3, 2)):
        srcs[f"torus{b}{c}"] = gen(tmp_path, f"torus{b}{c}.json", "gen", "torus", "--b", str(b), "--c", str(c))
    assert main(["extend", "--verify", "-i", srcs["torus10"], "-o", str(tmp_path / "ext")]) == 1
    paths["torus10.extension-certificate.json"] = tmp_path / "ext" / "certificate.json"
    for name in ("torus11", "torus32"):
        paths[f"{name}.verdict.json"] = Path(gen(tmp_path, f"{name}.verdict.json", "verdict", "-i", srcs[name]))
    files = {name: path.read_bytes() for name, path in paths.items()}
    assert {name: digest(data) for name, data in files.items()} == ARTIFACT_SHA256
    inputs = [*files.values(), *(Path(src).read_bytes() for src in srcs.values())]
    v1_digests = {digest(data): digest(v1_bytes(data, {})) for data in inputs if b'"perms"' in data}
    assert {name: digest(v1_bytes(data, v1_digests)) for name, data in files.items()} == ARTIFACT_SHA256_V1


def test_counterexample_size_refusal_exits_1(monkeypatch, tmp_path, capsys):
    # an internal size limit (here the coset cap, hit while building B) is a
    # refusal: exit 1 with the reason, and no artifact written
    monkeypatch.setenv("MANIPLEX_COSET_CAP", "10")
    out = tmp_path / "ce"
    assert main(["counterexample", "--rank", "5", "-o", str(out)]) == 1
    assert "error: allocated more than 10 cosets" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_counterexample_one_flag_function_pass_per_maniplex(tmp_path, monkeypatch):
    # B none, as it is judged faithful at flag 0 from the flag orbits
    # `automorphism_count` found; B* twice (faithfulness, then the
    # sheet-pair check), its later
    # faithfulness reads (verdict, the rank-5 step) memoised; the rank-5
    # extension none, as the rank-6 step's base, because its step carried
    # B*'s witness (0, 1) up to (0, 4); the rank-6 extension none, because
    # the lifted base pair already proves it unfaithful
    inner = poset.flag_function
    calls = Counter()

    def counting(m):
        calls[m.rank, m.flag_count] += 1
        return inner(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("maniplex") and getattr(module, "flag_function", None) is inner:
            monkeypatch.setattr(module, "flag_function", counting)
    assert main(["counterexample", "--rank", "6", "-o", str(tmp_path / "ce")]) == 0
    assert calls == {(4, 192): 2}


def test_counterexample_judges_each_poset_once(tmp_path, monkeypatch):
    # B* is searched, and B, reflexible, is judged at flag 0 with no poset;
    # the rank-5 and rank-6 extensions are certified
    # by amalgamation with no search, and each step's base reuses the report
    # the step below kept on its poset
    judged = []
    inner = poset._judge
    monkeypatch.setattr(poset, "_judge", lambda p: judged.append(p) or inner(p))
    assert main(["counterexample", "--rank", "6", "-o", str(tmp_path / "ce")]) == 0
    assert [p.rank for p in judged] == [4]
    assert len(set(judged)) == len(judged)


def test_counterexample_rank_too_low(tmp_path):
    assert main(["counterexample", "--rank", "3", "-o", str(tmp_path / "x")]) == 2


def test_export_dot_edge(tmp_path, capsys):
    path = write_json(tmp_path / "edge.json", {"rank": 1, "flags": 2, "perms": [[1, 0]]})
    assert main(["export", "--format", "dot", "-i", path]) == 0
    out = capsys.readouterr().out
    assert out.count("--") == 1
    assert '0 -- 1 [color=red, label="0"];' in out


def test_poset_exports_refuse_a_non_maniplex(tmp_path, capsys):
    # three flags cannot carry a fixed-point-free involution: the rows can be
    # drawn, but there is no face poset to export
    path = write_json(tmp_path / "cycle.json", {"rank": 1, "flags": 3, "perms": [[1, 2, 0]]})
    for fmt in ("json", "hasse-dot"):
        assert main(["export", "--format", fmt, "-i", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: input is not a valid maniplex" in captured.err
    assert main(["export", "--format", "dot", "-i", path]) == 0
    assert capsys.readouterr().out.startswith("graph maniplex {")


def test_export_poset_json(bstar_dir, tmp_path, capsys):
    assert main(["export", "--format", "json", "-i", str(bstar_dir / "b.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"rank", "faces", "hasse"}
    assert doc["rank"] == 4
    assert [len(level) for level in doc["faces"]] == [1, 4, 6, 6, 4, 1]
    assert doc["faces"][0] == ["-1:0"] and doc["faces"][-1] == ["4:0"]
    assert len(doc["hasse"]) == 56


def test_export_hasse_dot(bstar_dir, capsys):
    b_path = str(bstar_dir / "b.json")
    assert main(["export", "--format", "hasse-dot", "-i", b_path]) == 0
    full = capsys.readouterr().out
    assert full.count("rank=same") == 6
    assert main(["export", "--format", "hasse-dot", "--no-extremes", "-i", b_path]) == 0
    trimmed = capsys.readouterr().out
    assert trimmed.count("rank=same") == 4
    assert '"-1:0"' not in trimmed


def test_extend_plain_output(tmp_path):
    path = gen(tmp_path, "cube.json", "gen", "platonic", "--name", "cube")
    out = tmp_path / "ext.json"
    assert main(["extend", "-i", path, "-o", str(out)]) == 0
    doc = load(out)
    assert doc["rank"] == 4
    assert doc["flags"] == 192


def test_extend_verify_directory(tmp_path):
    path = gen(tmp_path, "cube.json", "gen", "platonic", "--name", "cube")
    out = tmp_path / "verified"
    assert main(["extend", "-i", path, "--verify", "-o", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["certificate.json", "extension.json"]
    cert = load(out / "certificate.json")
    assert cert["ok"] is True
    assert cert["rank"] == 4
    assert cert["flags"] == 192
    assert cert["facet"] == 0


def test_extend_facet_out_of_range(tmp_path):
    path = gen(tmp_path, "cube.json", "gen", "platonic", "--name", "cube")
    assert main(["extend", "-i", path, "--facet", "99"]) == 2


def test_extend_verify_refuses_rows_that_are_not_extends(tmp_path, monkeypatch, capsys):
    # a faulty `extend`, whose new colour crosses its edges at flags 0 and
    # 2, gives rows that fail the new colour's row equation: the step is
    # refused with exit 1, and neither the extension nor a certificate is
    # written
    path = gen(tmp_path, "cube.json", "gen", "platonic", "--name", "cube")
    real = extension.extend

    def faulty(m, facet):
        ext = real(m, facet)
        row = list(ext.perms[-1])
        a, b = row[0], row[2]
        row[0], row[2], row[a], row[b] = b, a, 2, 0
        return Maniplex((*ext.perms[:-1], tuple(row)))

    monkeypatch.setattr(extension, "extend", faulty)
    out = tmp_path / "verified"
    assert main(["extend", "-i", path, "--verify", "-o", str(out)]) == 1
    assert "error: rank 4: the new colour fails its row equation\n" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_verdict_document(tmp_path):
    path = gen(tmp_path, "t21.json", "gen", "torus", "--b", "2", "--c", "1")
    out = tmp_path / "verdict.json"
    assert main(["verdict", "-i", path, "-o", str(out)]) == 0
    doc = load(out)
    assert doc["sparse"] is True
    assert doc["semisparse"] is True
    assert doc["summary"] == "semisparse"
    assert doc["witness"] is None
    assert doc["schreier_ok"] is True
    assert set(doc) == {"version", "input_digest", "sparse", "semisparse", "summary", "witness", "schreier_ok"}


def test_verdict_base_out_of_range(tmp_path):
    # version 0.2.0 dropped `--base`, which no computation read: every base
    # flag, in range or not, is now a usage error
    path = gen(tmp_path, "sq.json", "gen", "platonic", "--name", "square")
    for base in ("0", "8"):
        with pytest.raises(SystemExit) as exc:
            main(["verdict", "-i", path, "--base", base])
        assert exc.value.code == 2


def test_verdict_writes_schreier_ok_on_valid_inputs(schreier_members, tmp_path):
    # `schreier_ok` holds from every base flag (`tests/test_coxeter.py`
    # checks the full report from two of each member's flags)
    for k, (m, _) in enumerate(schreier_members):
        path = tmp_path / f"member{k}.json"
        path.write_text(maniplex_to_json(m), encoding="utf-8")
        out = tmp_path / f"member{k}.verdict.json"
        assert main(["verdict", "-i", str(path), "-o", str(out)]) == 0
        doc = load(out)
        assert doc["schreier_ok"] is True and "base" not in doc


def test_verdict_refuses_what_schreier_ok_assumes(tmp_path, capsys, two_squares):
    # schreier_ok rests on the axioms below (see the `coxeter` docstring), so
    # a file that breaks any one of them is refused before anything is written
    cube = platonic("cube").perms
    mutants = {}

    rows = [list(row) for row in cube]  # colour 0 sends flag 0 past its partner
    rows[0][0] = min(set(range(48)) - {0, *(row[0] for row in cube)})
    mutants[AXIOM_INVOLUTION] = rows

    rows = [list(row) for row in cube]  # colour 0 fixes flag 0 and its partner
    rows[0][cube[0][0]] = cube[0][0]
    rows[0][0] = 0
    mutants[AXIOM_FIXED_POINT_FREE] = rows

    rows = [list(row) for row in cube]  # colours 0 and 1 agree at flag 0
    a, p, q = cube[0][0], cube[1][0], cube[1][cube[0][0]]
    rows[1][0], rows[1][a], rows[1][p], rows[1][q] = a, 0, q, p
    mutants[AXIOM_PROPER] = rows

    mutants[AXIOM_CONNECTED] = two_squares.perms

    for axiom, rows in mutants.items():
        report = validate(Maniplex(tuple(map(tuple, rows))))
        assert axiom in {v.axiom for v in report.violations}, axiom
        doc = {"rank": len(rows), "flags": len(rows[0]), "perms": [list(row) for row in rows]}
        path = write_json(tmp_path / f"{axiom}.json", doc)
        out = tmp_path / f"{axiom}.verdict.json"
        assert main(["verdict", "-i", path, "-o", str(out)]) == 1, axiom
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: input is not a valid maniplex" in captured.err
        assert not out.exists()
        assert list(tmp_path.glob(f"{axiom}.verdict.json*")) == []


def test_internal_failures_exit_1(tmp_path, monkeypatch, capsys):
    # a refusal raised inside the pipeline, not bad usage or IO
    failures = (
        BuildError("B fails its own checks"),
        ThetaNotFound("no marked set"),
        EThetaOverlap("E_x and E_y share an edge"),
        CosetCapExceeded("allocated more than 10 cosets"),
        Refusal("declined"),
    )
    for failure in failures:

        def fail():
            raise failure

        monkeypatch.setattr(cli, "build_B_star", fail)
        assert main(["build-bstar", "-o", str(tmp_path / "bstar")]) == 1
        assert f"error: {failure}" in capsys.readouterr().err
        assert main(["counterexample", "--rank", "5", "-o", str(tmp_path / "rank5")]) == 1
        assert f"error: {failure}" in capsys.readouterr().err


def test_every_runtime_error_is_a_refusal():
    # the CLI's exit 1 catches Refusal alone, so no other runtime error may
    # be defined in the package
    defined = {
        cls
        for module in sys.modules.values()
        if module.__name__.startswith("maniplex.")
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, RuntimeError) and cls.__module__ == module.__name__
    }
    assert {cls.__name__ for cls in defined} >= {"BuildError", "ThetaNotFound", "EThetaOverlap", "CosetCapExceeded"}
    assert all(issubclass(cls, Refusal) for cls in defined)
    assert maniplex.Refusal is Refusal


def test_platonic_self_check_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(corpus, "validate", lambda m: ValidationReport(False, []))
    assert main(["gen", "platonic", "--name", "cube"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: enumerated cube is not a maniplex" in captured.err


def test_counterexample_failure_at_rank_5_writes_its_artifacts(tmp_path, monkeypatch, capsys):
    verify = cli.verify_extension

    def failing(m, facet):
        res = verify(m, facet)
        res.checks[1] = res.checks[1]._replace(status=FAIL)
        return res

    monkeypatch.setattr(cli, "verify_extension", failing)
    out = tmp_path / "ce"
    assert main(["counterexample", "--rank", "6", "-o", str(out)]) == 1
    assert "error: certification failed at rank 5: flag-count\n" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == [
        "certificate-rank4.json",
        "certificate-rank5.json",
        "maniplex-rank4.json",
        "maniplex-rank5.json",
    ]
    cert = load(out / "certificate-rank5.json")
    assert cert["ok"] is False
    assert cert["input_digest"] == hashlib.sha256((out / "maniplex-rank5.json").read_bytes()).hexdigest()

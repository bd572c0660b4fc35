import filecmp
import hashlib
import json
import sys
from collections import Counter

import pytest

from maniplex import cli, extension, poset
from maniplex.cli import main
from maniplex.core import from_json_dict
from maniplex.voltage import double_cover, voltage_from_json_dict

# SHA-256 of build-bstar's certificate.json for this version; any change to
# the certificate's bytes must be deliberate
BSTAR_CERTIFICATE_SHA256 = "4cb82e2de94fa39989800a7c676826585430e1c0c246ec6197829835d8e13937"

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
    doc = load(path)
    doc["perms"][0][0] = 0  # fixed point, and the row is no longer a bijection
    broken = write_json(tmp_path / "broken.json", doc)
    assert main(["check", "-i", broken]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False
    assert out["structural"] or out["violations"]


def test_missing_input_file(tmp_path):
    assert main(["check", "-i", str(tmp_path / "nope.json")]) == 2


def test_non_json_input(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("not json at all", encoding="utf-8")
    assert main(["check", "-i", str(path)]) == 2


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
    b = from_json_dict(load(bstar_dir / "b.json"))
    assignment = voltage_from_json_dict(b, load(bstar_dir / "voltage-theta.json"))
    cover = double_cover(b, assignment).cover
    assert cover.perms == from_json_dict(load(bstar_dir / "bstar.json")).perms


def test_counterexample_rank4_matches_bstar(bstar_dir, tmp_path):
    out = tmp_path / "ce"
    assert main(["counterexample", "--rank", "4", "-o", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["certificate-rank4.json", "maniplex-rank4.json"]
    assert filecmp.cmp(out / "maniplex-rank4.json", bstar_dir / "bstar.json", shallow=False)
    assert filecmp.cmp(out / "certificate-rank4.json", bstar_dir / "certificate.json", shallow=False)


def test_counterexample_size_refusal_exits_1(monkeypatch, tmp_path, capsys):
    # an internal size limit (here the coset cap, hit while building B) is a
    # refusal: exit 1 with the reason, and no artifact written
    monkeypatch.setenv("MANIPLEX_COSET_CAP", "10")
    out = tmp_path / "ce"
    assert main(["counterexample", "--rank", "5", "-o", str(out)]) == 1
    assert "error: allocated more than 10 cosets" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_counterexample_one_flag_function_pass_per_maniplex(tmp_path, monkeypatch):
    # B once; B* twice (faithfulness, then the sheet-pair check), its later
    # faithfulness reads (verdict, the rank-5 step) memoised; the rank-5
    # extension once, as the rank-6 step's base; the rank-6 extension none,
    # because the lifted base pair already proves it unfaithful
    inner = poset.flag_function
    calls = Counter()

    def counting(m):
        calls[m.rank, m.flag_count] += 1
        return inner(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("maniplex") and getattr(module, "flag_function", None) is inner:
            monkeypatch.setattr(module, "flag_function", counting)
    assert main(["counterexample", "--rank", "6", "-o", str(tmp_path / "ce")]) == 0
    assert calls == {(4, 96): 1, (4, 192): 2, (5, 768): 1}


def test_counterexample_rank_too_low(tmp_path):
    assert main(["counterexample", "--rank", "3", "-o", str(tmp_path / "x")]) == 2


def test_export_dot_edge(tmp_path, capsys):
    path = write_json(tmp_path / "edge.json", {"rank": 1, "flags": 2, "perms": [[1, 0]]})
    assert main(["export", "--format", "dot", "-i", path]) == 0
    out = capsys.readouterr().out
    assert out.count("--") == 1
    assert '0 -- 1 [color=red, label="0"];' in out


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
    assert doc["base"] == 0


def test_verdict_base_out_of_range(tmp_path):
    path = gen(tmp_path, "sq.json", "gen", "platonic", "--name", "square")
    assert main(["verdict", "-i", path, "--base", "8"]) == 2


def test_internal_failures_exit_1(tmp_path, monkeypatch, capsys):
    # YProfileUndefined and DiamondError are ValueErrors, but they report a
    # failure inside the package, not bad usage or IO
    path = gen(tmp_path, "cube.json", "gen", "platonic", "--name", "cube")
    capsys.readouterr()

    def refuse_spans(m, facet):
        raise extension.YProfileUndefined("1-face of flag 0 is properly contained in the marked facet")

    def refuse_diamond(m):
        raise poset.DiamondError(("-1:0", "0:0"))

    monkeypatch.setattr(cli, "verify_extension", refuse_spans)
    assert main(["extend", "-i", path, "--verify", "-o", str(tmp_path / "ext")]) == 1
    assert "error: 1-face of flag 0" in capsys.readouterr().err
    monkeypatch.setattr(cli, "pos_of", refuse_diamond)
    assert main(["export", "--format", "json", "-i", path]) == 1
    assert "error: diamond condition fails" in capsys.readouterr().err

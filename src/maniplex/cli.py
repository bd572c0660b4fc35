"""Command-line front end: generate, check, certify, and export.

Exit codes: 0 success, 1 a failed `check` or a `Refusal` (invalid input,
failed certification, a size limit or an internal failure), 2 I/O, usage
or parse failure.  All file output is byte-deterministic for a fixed
input and version; wall-clock timings go to stderr only.
"""

from __future__ import annotations

import argparse
import operator
import os
import sys
import time
from itertools import compress, count, islice
from pathlib import Path
from typing import Iterable, Optional

from . import __version__
from .certify import FAIL, INFO, Check, Refusal, all_ok, checks_to_json, passed
from .core import (
    Face,
    Maniplex,
    dumps_json,
    face_table,
    maniplex_from_json,
    maniplex_json_chunks,
    to_dot,
    validate,
)
from .corpus import corpus_names, platonic, torus_44
from .counterexample import BStarResult, build_B, build_B_star, build_E_theta, find_theta
from .coxeter import verdict as classify
from .extension import extend, verify_extension
from .poset import pos_of, poset_to_dot, poset_to_json_dict


_SLICE = 1 << 20  # characters of a string written at a time


def _chunks(text: str | Iterable[str]) -> Iterable[str]:
    """The text in slices, or the chunks as given."""
    if isinstance(text, str):
        return (text[start:start + _SLICE] for start in range(0, len(text), _SLICE))
    return text


def _write(path: Path | str, text: str | Iterable[str]) -> str:
    """Write a string, or its chunks (`maniplex_json_chunks`), as UTF-8 to
    `<path>.tmp`, then rename it over `path`: an interrupted write, or a
    chunk that raises, leaves no torn file under either name.  Returns the
    SHA-256 of the bytes written.  Each chunk is encoded, written and
    hashed in turn, so no whole copy of the text or of its bytes is ever
    held."""
    import hashlib  # loads OpenSSL, which a command that writes only to stdout never needs

    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    digest = hashlib.sha256()
    try:
        with tmp.open("wb") as out:
            for chunk in _chunks(text):
                data = chunk.encode("utf-8")
                out.write(data)
                digest.update(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest.hexdigest()


def _emit(text: str | Iterable[str], path: Optional[str]) -> None:
    if path is None:
        sys.stdout.writelines(_chunks(text))
    else:
        _write(path, text)


def _outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_maniplex(path: str) -> tuple[Maniplex, str]:
    """The maniplex in the file and the SHA-256 of its bytes.  The bytes
    are read, hashed and decoded as UTF-8 whole, then dropped before the
    text is parsed; text that is not UTF-8 raises the decoder's error,
    which names its offset in the file."""
    import hashlib  # loads OpenSSL, which a command that reads no file never needs

    data = Path(path).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    text = data.decode("utf-8")
    del data
    return maniplex_from_json(text), digest


def _load_valid(path: str) -> tuple[Maniplex, str]:
    """`_load_maniplex`, refusing a file that fails the maniplex axioms."""
    m, digest = _load_maniplex(path)
    if not validate(m).ok:
        raise Refusal("input is not a valid maniplex")
    return m, digest


def _certificate(digest: str, checks: list[Check], **extras: object) -> str:
    doc = {
        "version": __version__,
        "input_digest": digest,
        "ok": all_ok(checks),
        "checks": checks_to_json(checks),
    }
    doc.update(extras)
    return dumps_json(doc)


def _refuse_failed(checks: list[Check], where: str = "") -> None:
    failed = [c.name for c in checks if c.status == FAIL]
    if failed:
        raise Refusal(f"certification failed at {where}{failed[0]}")


def _write_certified(
    out: Path, name: str, cert_name: str, m: Maniplex, checks: list[Check], where: str = "", **extras: object
) -> None:
    """Write the maniplex and the certificate of its checks, whose digest is
    of that file; then refuse at the first failed check."""
    digest = _write(out / name, maniplex_json_chunks(m))
    _write(out / cert_name, _certificate(digest, checks, **extras))
    _refuse_failed(checks, where)


def cmd_check(args: argparse.Namespace) -> int:
    m, digest = _load_maniplex(args.input)
    report = validate(m)
    doc = {
        "version": __version__,
        "input_digest": digest,
        "ok": report.ok,
        "structural": [],  # every row the decoder passes is in range
        "violations": [{"axiom": v.axiom, "witness": v.witness} for v in report.violations],
    }
    _emit(dumps_json(doc), args.output)
    return 0 if report.ok else 1


def cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "torus":
        m = torus_44(args.b, args.c)
    else:
        m = platonic(args.name)
    _emit(maniplex_json_chunks(m), args.output)
    return 0


def cmd_build_b(args: argparse.Namespace) -> int:
    b = build_B()
    _emit(maniplex_json_chunks(b), args.output)
    return 0


def _voltage_doc(digest: str, theta_flags, edges) -> str:
    return dumps_json(
        {
            "version": __version__,
            "input_digest": digest,
            "theta": list(theta_flags),
            "edges": [list(e) for e in sorted(edges)],
        }
    )


def cmd_find_theta(args: argparse.Namespace) -> int:
    m, digest = _load_valid(args.input)
    theta = find_theta(m)
    _emit(_voltage_doc(digest, theta, build_E_theta(m, theta)), args.output)
    return 0


def _write_bstar(out: Path, result: BStarResult, name: str, cert_name: str) -> None:
    v = result.verdict
    _write_certified(
        out,
        name,
        cert_name,
        result.bstar,
        result.checks,
        flags=result.bstar.flag_count,
        faithful=result.witness is None,
        polytopal=v.sparse,  # the cover-polytopal check
        witness=list(result.witness) if result.witness is not None else None,
        poset_iso=passed("poset-projects-isomorphically", True) in result.checks,  # passed, no detail
        verdict={"sparse": v.sparse, "semisparse": v.semisparse},
    )


def cmd_build_bstar(args: argparse.Namespace) -> int:
    out = _outdir(args.output)
    result = build_B_star()
    digest = _write(out / "b.json", maniplex_json_chunks(result.b))
    _write(out / "voltage-theta.json", _voltage_doc(digest, result.theta, result.e_theta))
    _write_bstar(out, result, "bstar.json", "certificate.json")
    return 0


def _facet(m: Maniplex, k: int) -> Face:
    """Facet k of `faces(m, n - 1)`, whose canonical id is the k-th least,
    read off the facet table.  A face's canonical id is its least flag, so
    the canonical ids are the flags f of id f, found in order: facet 0 is
    found at flag 0."""
    ids = face_table(m, m.rank - 1)
    canonical = compress(count(), map(operator.eq, ids, count()))
    c = next(islice(canonical, k, None), None) if k >= 0 else None
    if c is None:
        raise ValueError(f"facet index {k} out of range (0..{len(set(ids)) - 1})")
    return Face(m.rank - 1, c, tuple(compress(range(len(ids)), map(c.__eq__, ids))))


def cmd_counterexample(args: argparse.Namespace) -> int:
    if args.rank < 4:
        raise ValueError(f"rank must be at least 4, got {args.rank}")
    out = _outdir(args.output)
    result = build_B_star()
    _write_bstar(out, result, "maniplex-rank4.json", "certificate-rank4.json")
    m = result.bstar
    for rank in range(5, args.rank + 1):
        res = verify_extension(m, _facet(m, 0))
        m = res.extension
        _write_certified(
            out,
            f"maniplex-rank{rank}.json",
            f"certificate-rank{rank}.json",
            m,
            res.checks,
            where=f"rank {rank}: ",
            rank=rank,
            flags=m.flag_count,
            faithful=Check("extension-faithful-observed", INFO, True) in res.checks,
        )
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    if args.format == "dot":  # draws the rows as they are, so it claims nothing
        text = to_dot(_load_maniplex(args.input)[0])
    elif args.format == "hasse-dot":
        text = poset_to_dot(pos_of(_load_valid(args.input)[0]), include_extremes=not args.no_extremes)
    else:
        text = dumps_json(poset_to_json_dict(pos_of(_load_valid(args.input)[0])))
    _emit(text, args.output)
    return 0


def cmd_extend(args: argparse.Namespace) -> int:
    m, digest = _load_valid(args.input)
    facet = _facet(m, args.facet)
    if not args.verify:
        _emit(maniplex_json_chunks(extend(m, facet)), args.output)
        return 0
    out = _outdir(args.output) if args.output else None
    res = verify_extension(m, facet)
    cert = _certificate(
        digest,
        res.checks,
        rank=res.extension.rank,
        flags=res.extension.flag_count,
        facet=args.facet,
    )
    if out is None:
        sys.stdout.write(cert)
    else:
        _write(out / "extension.json", maniplex_json_chunks(res.extension))
        _write(out / "certificate.json", cert)
    _refuse_failed(res.checks)
    return 0


def cmd_verdict(args: argparse.Namespace) -> int:
    m, digest = _load_valid(args.input)
    v = classify(m)
    doc = {
        "version": __version__,
        "input_digest": digest,
        "sparse": v.sparse,
        "semisparse": v.semisparse,
        "summary": v.summary,
        "witness": v.witness,
        # holds on every valid maniplex, from every base flag: see the `coxeter` module docstring
        "schreier_ok": True,
    }
    _emit(dumps_json(doc), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maniplex",
        description="Flag graphs, face posets, voltage covers, and extension pipelines.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, needs_input: bool = True, out_help: str = "output file (default: stdout)") -> None:
        if needs_input:
            p.add_argument("--input", "-i", required=True, help="maniplex JSON file")
        p.add_argument("--output", "-o", default=None, help=out_help)

    p = sub.add_parser("check", help="validate a maniplex file against the axioms")
    add_io(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="generate a corpus maniplex")
    gen_sub = p.add_subparsers(dest="family", required=True)
    pt = gen_sub.add_parser("torus", help="torus map {4,4} with translation vector (b, c)")
    pt.add_argument("--b", type=int, required=True)
    pt.add_argument("--c", type=int, required=True)
    pt.add_argument("--output", "-o", default=None)
    pt.set_defaults(func=cmd_gen)
    pp = gen_sub.add_parser("platonic", help="named small map")
    pp.add_argument("--name", required=True, choices=corpus_names())
    pp.add_argument("--output", "-o", default=None)
    pp.set_defaults(func=cmd_gen)

    p = sub.add_parser("build-b", help="build the certified 96-flag rank-4 base maniplex")
    add_io(p, needs_input=False)
    p.set_defaults(func=cmd_build_b)

    p = sub.add_parser("find-theta", help="find the marked flag set and its voltage edges")
    add_io(p)
    p.set_defaults(func=cmd_find_theta)

    p = sub.add_parser("build-bstar", help="run the full double-cover pipeline into a directory")
    p.add_argument("--output", "-o", required=True, help="output directory")
    p.set_defaults(func=cmd_build_bstar)

    p = sub.add_parser("counterexample", help="build the rank-n example by iterated extension")
    p.add_argument("--rank", type=int, required=True, help="target rank (>= 4)")
    p.add_argument("--output", "-o", required=True, help="output directory")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("export", help="render a maniplex or its face poset")
    p.add_argument("--format", required=True, choices=("dot", "hasse-dot", "json"))
    p.add_argument("--no-extremes", action="store_true", help="omit least and greatest faces")
    add_io(p)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("extend", help="extend a maniplex over one of its facets")
    add_io(p, out_help="output file, or directory with --verify")
    p.add_argument("--facet", type=int, default=0, help="index into the sorted facet list")
    p.add_argument("--verify", action="store_true", help="also emit a certificate")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("verdict", help="classify a maniplex as sparse / semisparse")
    add_io(p)
    p.set_defaults(func=cmd_verdict)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        rc = args.func(args)
    except Refusal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        elapsed = time.perf_counter() - start
        print(f"[time] {args.command}: {elapsed:.3f}s", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())

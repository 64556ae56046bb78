"""Command-line interface.

Subcommands: ``construct``, ``analyze``, ``minor``, ``iso``, ``verify``,
``corpus``.  Exit codes: 0 success / all checks pass / predicate true;
1 check failure or false predicate; 2 usage, parse, or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import MatroidError
from .constructions import named_matroid
from .laminar import (
    is_laminar,
    is_nested,
    is_paving,
    min_closure_laminar_k,
    min_laminar_k,
)
from .minors import find_isomorphism, has_minor
from .formats import ParseError, parse_matroid, serialize_matroid
from .corpus import CorpusSpec, generate_corpus
from .checks import available_checks, run_check


def _load(path: str):
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, "input is not valid UTF-8") from None
    return parse_matroid(text)


def _set_names(M, S: int) -> str:
    return "{" + " ".join(M.names(S)) + "}"


def _cmd_construct(args) -> int:
    M = named_matroid(args.family, n=args.n, k=args.k)
    text = serialize_matroid(M)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_analyze(args) -> int:
    M = _load(args.file)
    nested = is_nested(M)
    laminar = is_laminar(M)
    report = {
        "elements": list(M.labels),
        "rank": M.full_rank(),
        "circuits": [list(M.names(C)) for C in M.circuits()],
        "nonspanning_circuits": [list(M.names(C)) for C in M.nonspanning_circuits()],
        "cyclic_flats": [[list(M.names(F)), r] for F, r in M.cyclic_flats()],
        "hamiltonian_flats": [list(M.names(F)) for F in M.hamiltonian_flats()],
        "nested": bool(nested),
        "laminar": bool(laminar),
        "paving": is_paving(M),
        "min_laminar_k": min_laminar_k(M),
        "min_closure_laminar_k": min_closure_laminar_k(M),
    }
    if args.json:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    print(f"elements ({M.n}): {' '.join(M.labels)}")
    print(f"rank: {report['rank']}")
    print(f"circuits ({len(report['circuits'])}):")
    for C in M.circuits():
        print(f"  {_set_names(M, C)}")
    print(f"cyclic flats ({len(report['cyclic_flats'])}):")
    for F, r in M.cyclic_flats():
        print(f"  {_set_names(M, F)} rank {r}")
    print(f"hamiltonian flats ({len(report['hamiltonian_flats'])}):")
    for F in M.hamiltonian_flats():
        print(f"  {_set_names(M, F)}")
    for key in ("nested", "laminar", "paving"):
        print(f"{key}: {'yes' if report[key] else 'no'}")
    print(f"min_laminar_k: {report['min_laminar_k']}")
    print(f"min_closure_laminar_k: {report['min_closure_laminar_k']}")
    return 0


def _cmd_minor(args) -> int:
    host = _load(args.host)
    target = _load(args.target)
    spec = has_minor(host, target)
    if spec is None:
        print("no minor")
        return 1
    print(f"delete {_set_names(host, spec.delete)} "
          f"contract {_set_names(host, spec.contract)}")
    return 0


def _cmd_iso(args) -> int:
    M1 = _load(args.file1)
    M2 = _load(args.file2)
    mapping = find_isomorphism(M1, M2)
    if mapping is None:
        print("not isomorphic")
        return 1
    pairs = ", ".join(
        f"{M1.labels[i]}->{M2.labels[j]}" for i, j in enumerate(mapping))
    print(f"isomorphic: {pairs}" if pairs else "isomorphic: (empty)")
    return 0


def _cmd_verify(args) -> int:
    ids = args.check or list(available_checks())
    unknown = [c for c in ids if c not in available_checks()]
    if unknown:
        raise MatroidError(f"unknown check {unknown[0]!r}")
    results = [run_check(check_id, seed=args.seed) for check_id in ids]
    if args.json:
        payload = []
        for r in results:
            obj = {"check_id": r.check_id, "status": r.status,
                   "elapsed_ms": r.elapsed_ms}
            if r.witness is not None:
                obj["witness"] = r.witness
            payload.append(obj)
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for r in results:
            print(f"{r.check_id}: {r.status.upper()} ({r.elapsed_ms} ms)")
            if r.witness is not None and r.status == "fail":
                note = r.witness.get("note", "")
                if note:
                    print(f"  {note}")
        passed = sum(1 for r in results if r.status == "pass")
        print(f"{passed}/{len(results)} checks passed")
    return 0 if all(r.status == "pass" for r in results) else 1


def _cmd_corpus(args) -> int:
    spec = CorpusSpec(seed=args.seed, count=args.count,
                      max_elements=args.max_elements)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    members = generate_corpus(spec)
    width = len(str(max(len(members) - 1, 0)))
    for i, M in enumerate(members):
        (out / f"corpus-{i:0{width}d}.matroid").write_text(
            serialize_matroid(M), encoding="utf-8")
    print(f"wrote {len(members)} matroids to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamina",
        description="finite-matroid computations: constructions, laminar-"
                    "hierarchy classification, minors, and verification checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a catalog matroid")
    p.add_argument("--family", required=True,
                   help="catalog identifier (e.g. mk23, f7, mn, nn, pn, uniform)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("analyze", help="report structure and class verdicts")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("minor", help="search for a minor isomorphic to the target")
    p.add_argument("--host", required=True)
    p.add_argument("--target", required=True)
    p.set_defaults(func=_cmd_minor)

    p = sub.add_parser("iso", help="test two matroids for isomorphism")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("verify", help="run registered verification checks")
    p.add_argument("--check", action="append", default=None,
                   help="check id (repeatable; default all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("corpus", help="write a deterministic corpus to a directory")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--max-elements", type=int, default=8)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_corpus)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, MatroidError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

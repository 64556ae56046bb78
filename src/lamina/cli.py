"""Command-line interface.

Subcommands: ``construct``, ``analyze``, ``minor``, ``iso``, ``verify``,
``corpus``.  Exit codes: 0 success / all checks pass / predicate true;
1 check failure or false predicate; 2 usage, parse, or validation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii
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


def _load_pair(path1: str, path2: str):
    """The matroids of a two-file command; a parse error names its file."""
    matroids = []
    for path in (path1, path2):
        try:
            matroids.append(_load(path))
        except ParseError as exc:
            raise MatroidError(f"{path}: {exc}") from None
    return matroids


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


def _subset_joins(words, sep: str) -> list[str]:
    """``sep.join`` of the words of every mask over ``words``, by mask."""
    joins = [""]
    for w in words:
        joins += [w, *(j + sep + w for j in joins[1:])]
    return joins


def _set_texts(words, sep: str, opening: str, closing: str, empty: str):
    """Map a mask to ``opening``, its ``words`` joined by ``sep`` in
    ground-set order and ``closing``; the empty mask to ``empty``.

    One table per byte of the mask holds its at most 256 subsets, with
    the brackets in place, so a set costs two lookups and one
    concatenation.
    """
    low, high = _subset_joins(words[:8], sep), _subset_joins(words[8:], sep)
    low = [opening + j for j in low]
    after = [closing] + [sep + j + closing for j in high[1:]]
    alone = [empty] + [opening + j + closing for j in high[1:]]
    return lambda S: low[S & 255] + after[S >> 8] if S & 255 else alone[S >> 8]


def _json_list(items: list[str], depth: int) -> str:
    """JSON texts ``items`` as ``json.dumps(..., indent=2)`` lays out a
    list ``depth`` levels deep."""
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]" if items else "[]"


def _json_sets(words: list[str], depth: int):
    pad = "\n" + "  " * (depth + 1)
    return _set_texts(words, "," + pad, "[" + pad, pad[:-2] + "]", "[]")


def _verdicts(M) -> dict:
    return {"nested": bool(is_nested(M)), "laminar": bool(is_laminar(M)),
            "paving": is_paving(M), "min_laminar_k": min_laminar_k(M),
            "min_closure_laminar_k": min_closure_laminar_k(M)}


def _json_report(M) -> str:
    """``analyze --json``: an indent-2 JSON object, keys in a fixed order."""
    words = [encode_basestring_ascii(label) for label in M.labels]
    sets, deep = _json_sets(words, 2), _json_sets(words, 3)
    fields = {
        "elements": _json_list(words, 1),
        "rank": str(M.full_rank()),
        "circuits": _json_list([sets(C) for C in M.circuits()], 1),
        "nonspanning_circuits": _json_list([sets(C) for C in M.nonspanning_circuits()], 1),
        "cyclic_flats": _json_list(
            [_json_list([deep(F), str(r)], 2) for F, r in M.cyclic_flats()], 1),
        "hamiltonian_flats": _json_list([sets(F) for F in M.hamiltonian_flats()], 1),
    }
    for key, value in _verdicts(M).items():
        fields[key] = ("false", "true")[value] if isinstance(value, bool) else str(value)
    return "{\n" + ",\n".join(f'  "{key}": {text}' for key, text in fields.items()) + "\n}\n"


def _text_report(M) -> str:
    """Plain ``analyze``: one set per line, then the verdicts."""
    text = _set_texts(M.labels, " ", "  {", "}", "  {}")
    circuits, cyclic, ham = M.circuits(), M.cyclic_flats(), M.hamiltonian_flats()
    lines = [f"elements ({M.n}): {' '.join(M.labels)}", f"rank: {M.full_rank()}",
             f"circuits ({len(circuits)}):", *map(text, circuits),
             f"cyclic flats ({len(cyclic)}):", *(f"{text(F)} rank {r}" for F, r in cyclic),
             f"hamiltonian flats ({len(ham)}):", *map(text, ham)]
    for key, value in _verdicts(M).items():
        lines.append(f"{key}: {('no', 'yes')[value] if isinstance(value, bool) else value}")
    return "\n".join(lines) + "\n"


def _cmd_analyze(args) -> int:
    M = _load(args.file)
    sys.stdout.write(_json_report(M) if args.json else _text_report(M))
    return 0


def _cmd_minor(args) -> int:
    host, target = _load_pair(args.host, args.target)
    spec = has_minor(host, target)
    if spec is None:
        print("no minor")
        return 1
    print(f"delete {_set_names(host, spec.delete)} "
          f"contract {_set_names(host, spec.contract)}")
    return 0


def _cmd_iso(args) -> int:
    M1, M2 = _load_pair(args.file1, args.file2)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``lamina`` parser, built on the first call and shared after."""
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

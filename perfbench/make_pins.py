#!/usr/bin/env python3
"""Regenerate ``pins.json``: input digests and expected outputs.

    python3 perfbench/make_pins.py [--workload NAME ...]

Run it only on a commit whose outputs are trusted: every op of every
seed variant runs once, its closed-form and replay checks must pass, and
its canonical output digest becomes the expectation later runs compare
against.  Corpus outputs are also compared with the rank tables that
``generate_corpus`` builds in memory.  Existing pins of workloads not
named are kept.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from inputs import VARIANTS, digest
from workloads import BUILDERS


def corpus_tables(argv: list[str]) -> dict:
    from lamina.corpus import CorpusSpec, generate_corpus
    seed, count = int(argv[argv.index("--seed") + 1]), int(argv[argv.index("--count") + 1])
    members = generate_corpus(CorpusSpec(seed=seed, count=count, max_elements=12))
    return {"count": len(members),
            "tables": [[list(M.labels), digest(M.rank_table.hex())] for M in members]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(BUILDERS))
    args = parser.parse_args()
    cli = run.import_lamina()
    pins = run.load_pins() if run.PINS.exists() else {"inputs": {}, "outputs": {}}
    problems = []
    for workload in args.workload or sorted(BUILDERS):
        runner = run.Runner(cli, workload, 0, pins, small=False)
        outputs = pins["outputs"][workload] = {}
        for variant in range(VARIANTS):
            ops = BUILDERS[workload](variant)
            pins["inputs"][f"{workload}/{variant}"] = digest("\n".join(op.key for op in ops))
            for i, op in enumerate(ops):
                if op.key in outputs:
                    continue
                root = runner.work / f"{variant}-{i:03d}"
                op.materialize(root)
                rc, out, dt, _ = runner.call(op.args(root))
                errors, summary = op.check(rc, out, root / "out") \
                    if not isinstance(rc, str) else ([rc], None)
                if workload == "corpus" and summary != corpus_tables(op.argv):
                    errors.append("files do not re-parse to the generated rank tables")
                if errors:
                    problems.append(f"{workload}/{variant} {op.name}: {errors}")
                elif summary is not None:
                    outputs[op.key] = digest(json.dumps(summary, sort_keys=True))
                print(f"{workload}/{variant} {op.name} {dt:.3f}s"
                      f"{' FAILED' if errors else ''}", file=sys.stderr)
        runner.close()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    run.PINS.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

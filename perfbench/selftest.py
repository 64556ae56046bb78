#!/usr/bin/env python3
"""Self-test of the benchmark at its smallest size.

    python3 perfbench/selftest.py

Runs every workload with tracing off and on, checks that every metric
named in BENCHMARK.json is reported with its unit, that a corrupted
expected output is counted as a failed op, and that the benchmark
refuses to run without the library's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from workloads import BUILDERS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_metrics(workload: str, trace: int) -> None:
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--small")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, sorted(set(got) ^ set(want))
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    print(f"ok  {workload} --trace {trace}: {result['attempted']} ops")


def check_corruption() -> None:
    """A wrong pinned output must count as one failed op."""
    cli = run.import_lamina()
    pins = run.load_pins()
    runner = run.Runner(cli, "analyze", 0, pins, small=True)
    victim = runner.ops_for(0)[0]
    pins["outputs"]["analyze"] = dict(pins["outputs"]["analyze"], **{victim.key: "0" * 16})
    try:
        runner.run_pass(0)
    finally:
        runner.close()
    assert runner.attempted >= 2, runner.attempted
    assert len(runner.failures) == 1, runner.failures
    assert "differs from the pinned output" in runner.failures[0], runner.failures
    print(f"ok  corrupted expectation counted: {runner.failures[0]}")


def check_bare_directory() -> None:
    """Without src/ the benchmark exits nonzero and prints no result."""
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("--workload", "minor", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, done.stdout
    assert '"correct"' not in done.stdout, done.stdout
    print("ok  bare directory refused")


def main() -> int:
    for workload in sorted(BUILDERS):
        for trace in (0, 1):
            check_metrics(workload, trace)
    check_corruption()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())

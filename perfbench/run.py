#!/usr/bin/env python3
"""Benchmark of the lamina CLI, run in-process by one closed-loop client.

    python3 perfbench/run.py --workload {verify,analyze,minor,corpus} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the library is imported from
``src/`` of the checkout this file lives in.  Each workload is a list of
ops, each one ``lamina.cli.main([...])`` call with stdout captured; ops
run back to back with no threads.  Whole passes over the list repeat
while the next one is expected to end within ``--seconds`` (at least one
pass); pass ``p`` uses the inputs of seed ``N + p``.  Every op's output is
checked after its pass, outside the timed region.

With ``--trace 0`` the last stdout line holds the end-to-end metrics,
their times scaled to a nominal host speed (see ``speed.py``); raw times
are in the line before.  With ``--trace 1`` the last line holds per-layer
metrics from one traced pass, unscaled; the untraced reference pass runs
in a fresh child process, so both see cold caches.  The line before the
last is a JSON record of the environment and of workload-specific
figures under workload-specific names.  Scratch files go to ``.perfbench-work/``
in the checkout and are removed at exit, except the span file of a
traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
PINS = HERE / "pins.json"
SETUP_REPEATS = 9
PROBES_AROUND_SETUP = 5

sys.path.insert(0, str(HERE))
import inputs as I  # noqa: E402
from speed import NOMINAL_S, SpeedProbe  # noqa: E402
from workloads import BUILDERS, ONE_PASS  # noqa: E402

# The workload-specific names under which the detail line repeats the
# generic end-to-end metrics.
ALIASES = {
    "verify": {"wall_s": "verify_s"},
    "analyze": {"wall_s": "analyze_s", "op_p50_ms": "analyze_file_p50_ms"},
    "minor": {"wall_s": "minor_s", "op_p50_ms": "minor_query_p50_ms",
              "op_p90_ms": "minor_query_p90_ms"},
    "corpus": {"wall_s": "corpus_pass_s", "items_per_s": "corpus_matroids_per_s"},
}


class InputMismatch(Exception):
    """The generated inputs differ from the pinned ones."""


def import_lamina():
    """Import the library from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "lamina" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no lamina sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import lamina.cli
    if Path(lamina.__file__).resolve().parent != (SRC / "lamina").resolve():
        raise SystemExit(f"perfbench: imported lamina from {lamina.__file__}")
    return lamina.cli


def setup_seconds() -> tuple[float, float]:
    """Median time, raw and scaled, that ``import lamina.cli`` (and so every
    library module) takes in a fresh interpreter.  The child times its own
    import, without process start-up, which the library cannot change, and
    probes its own speed: it may run on another CPU than this process."""
    code = (f"import sys, time; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
            "from speed import probe; before = [probe() for _ in range(PROBES)]; "
            "t = time.perf_counter(); import lamina.cli; took = time.perf_counter() - t; "
            "after = [probe() for _ in range(PROBES)]; "
            "print(took, sum(before + after) / len(before + after))"
            ).replace("PROBES", str(PROBES_AROUND_SETUP))
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                              capture_output=True, text=True)
        took, probe_s = map(float, done.stdout.split())
        raw.append(took)
        scaled.append(took * NOMINAL_S / probe_s)
    return statistics.median(raw), statistics.median(scaled)


def environment(seed: int) -> dict:
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.rglob("*.py"))]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
    import numpy
    return {"seed": seed, "commit": commit, "src_digest": I.digest("".join(sources)),
            "src_lines": sum(len(text.splitlines()) for text in sources),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


def check_inputs(workload: str, variant: int, ops, pins: dict) -> None:
    got = I.digest("\n".join(op.key for op in ops))
    want = pins["inputs"].get(f"{workload}/{variant}")
    if got != want:
        raise InputMismatch(f"{workload} inputs for variant {variant}: "
                            f"digest {got}, pinned {want}")


class Runner:
    """Runs passes of one workload and checks every op's output."""

    def __init__(self, cli, workload: str, seed: int, pins: dict, small: bool):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.pins = pins
        self.small = small
        self.work = WORK / f"{workload}-{os.getpid()}"
        self.attempted = 0
        self.failures: list[str] = []
        self.pass_times: list[float] = []
        self.pass_raw: list[list[float]] = []    # raw op times of each pass
        self.pass_spans: list[list] = []         # (start, end) of each op
        self.pass_items: list[int] = []
        self.op_names: list[str] = []
        self.tracer = None
        self.speed: SpeedProbe | None = None     # no probing in traced passes

    def ops_for(self, variant: int):
        ops = BUILDERS[self.workload](variant)
        if self.small:
            ops = [op for op in ops if op.cheap]
        else:
            check_inputs(self.workload, variant, ops, self.pins)
        return ops

    def _invoke(self, argv: list[str]) -> tuple[int | str, str]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception:  # a crash is a failed op, not a failed benchmark
            rc = "exception: " + traceback.format_exc(limit=3)
        return rc, out.getvalue()

    def call(self, argv: list[str]) -> tuple[int | str, str, float, tuple]:
        """(exit code, stdout, raw seconds, (start, end))."""
        if self.speed is not None:
            (rc, out), raw, span = self.speed.timed(lambda: self._invoke(argv))
            return rc, out, raw, span
        t0 = time.perf_counter()
        rc, out = self._invoke(argv)
        t1 = time.perf_counter()
        return rc, out, t1 - t0, (t0, t1)

    def scaled_passes(self) -> list[list[float]]:
        """Op times of each pass, scaled to nominal host speed."""
        if self.speed is None:
            return self.pass_raw
        return [[raw * self.speed.factor(*span) for raw, span in zip(raws, spans)]
                for raws, spans in zip(self.pass_raw, self.pass_spans)]

    def judge(self, op, rc, out: str, out_dir: Path) -> None:
        self.attempted += 1
        if isinstance(rc, str):
            self.failures.append(f"{op.name}: {rc}")
            return
        try:
            errors, summary = op.check(rc, out, out_dir)
        except (KeyError, ValueError, IndexError) as exc:
            errors, summary = [f"unreadable output: {exc!r}"], None
        if summary is not None:
            want = self.pins["outputs"][self.workload].get(op.key)
            got = I.digest(json.dumps(summary, sort_keys=True))
            if want is None:
                errors.append("no pinned output for this op")
            elif got != want:
                errors.append("output differs from the pinned output")
        if errors:
            self.failures.append(f"{op.name}: {'; '.join(errors)}")

    def run_pass(self, p: int) -> None:
        """One timed pass over the op list of seed ``seed + p``; outputs
        are checked after the timed region."""
        ops = self.ops_for((self.seed + p) % I.VARIANTS)
        base = self.work / f"p{p}"
        results = []
        for i, op in enumerate(ops):
            root = base / f"{i:03d}"
            op.materialize(root)
            results.append((op, op.args(root), root / "out"))
        # warm-up ops fill the process's caches once, before any timing
        outputs = [self.call(argv) if op.warmup and p == 0 else None
                   for op, argv, _ in results]
        gc.collect()
        t_pass = time.perf_counter()
        for i, (op, argv, _) in enumerate(results):
            if op.warmup:
                continue
            if self.tracer is not None:
                self.tracer.op_id = len(self.op_names)
            self.op_names.append(op.name)
            outputs[i] = self.call(argv)
        self.pass_times.append(time.perf_counter() - t_pass)
        timed = [out for (op, _, _), out in zip(results, outputs) if not op.warmup]
        self.pass_raw.append([t[2] for t in timed])
        self.pass_spans.append([t[3] for t in timed])
        items = 0
        for (op, _, out_dir), output in zip(results, outputs):
            if output is None:
                continue
            rc, out = output[:2]
            self.judge(op, rc, out, out_dir)
            if not op.warmup:
                written = len(list(out_dir.glob("*.matroid"))) if out_dir.is_dir() else 0
                items += written or 1
        self.pass_items.append(items)
        shutil.rmtree(base, ignore_errors=True)

    def run(self, seconds: float) -> None:
        """Whole passes while the next one is expected to end within
        ``seconds``; at least one, and only one for ONE_PASS workloads."""
        start = None
        p = 0
        while p == 0 or (self.workload not in ONE_PASS
                         and time.perf_counter() - start
                         + statistics.median(self.pass_times) <= seconds):
            self.run_pass(p)
            if start is None:
                # the clock starts after the first pass's warm-up ops
                start = time.perf_counter() - self.pass_times[0]
            p += 1

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  With a few dozen unequal ops (verify has 29 checks)
    the plain sample quantile jumps between neighbouring ops from run to
    run; this estimate moves smoothly."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 20000
    mid = (np.arange(steps) + 0.5) / steps
    log_pdf = (a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.arange(steps + 1) / steps, cdf))
    return float(weights @ x)


def per_op_median_sum(passes: list[list[float]]) -> float:
    """A pass's time taken op by op: the sum over the op list of each op's
    median across passes, which damps one slow moment in one pass."""
    return sum(statistics.median(column) for column in zip(*passes))


def end_to_end(r: Runner, setup: tuple[float, float]) -> tuple[dict, dict]:
    """End-to-end metrics, times scaled to nominal host speed (see speed.py)."""
    passes = r.scaled_passes()
    op_times = [t for times in passes for t in times]
    wall_s = per_op_median_sum(passes)
    metrics = {
        "setup_s": (setup[1], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "wall_s": (wall_s, "s"),
        "op_p50_ms": (quantile(op_times, 0.5) * 1e3, "ms"),
        "op_p90_ms": (quantile(op_times, 0.9) * 1e3, "ms"),
        "items_per_s": (statistics.median(r.pass_items) / wall_s, "1/s"),
    }
    named = {alias: metrics[name][0] for name, alias in ALIASES[r.workload].items()}
    named.update(passes=len(r.pass_times), ops_timed=len(op_times),
                 ops_beyond_p90=sum(t * 1e3 > metrics["op_p90_ms"][0] for t in op_times),
                 raw_wall_s=per_op_median_sum(r.pass_raw), raw_setup_s=setup[0],
                 probe_mean_ms=statistics.fmean(d for _, d in r.speed.samples) * 1e3,
                 probes=len(r.speed.samples))
    return metrics, named


def traced(r: Runner) -> tuple[dict, dict, bool]:
    """Per-layer metrics: an untraced pass in a fresh child process for
    reference, then one traced pass here."""
    from spans import Tracer
    child = [sys.executable, str(Path(__file__).resolve()), "--workload", r.workload,
             "--seed", str(r.seed), "--seconds", "0", "--trace", "0"]
    if r.small:
        child.append("--small")
    done = subprocess.run(child, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: untraced reference run failed:\n{done.stderr}")
    detail, reference = map(json.loads, done.stdout.strip().splitlines()[-2:])
    untraced_s = detail["figures"]["raw_wall_s"]

    r.tracer = Tracer()
    r.tracer.install()
    try:
        r.run_pass(0)
    finally:
        r.tracer.uninstall()
    traced_s = sum(r.pass_raw[0])
    out = WORK / f"trace-{r.workload}-seed{r.seed}.npz"
    r.tracer.write(out)
    metrics = r.tracer.layer_metrics(traced_s, r.op_names, untraced_s, traced_s)
    named = {"spans": len(r.tracer.start), "span_file": str(out.relative_to(ROOT)),
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
             "traced_wall_s": traced_s, "untraced_wall_s": untraced_s}
    return metrics, named, reference["correct"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="self-test size: only the cheapest ops, inputs unpinned")
    args = parser.parse_args(argv)

    cli = import_lamina()
    env = environment(args.seed)
    env["loadavg_start"] = os.getloadavg()
    runner = Runner(cli, args.workload, args.seed, load_pins(), args.small)
    try:
        if args.trace:
            metrics, named, child_ok = traced(runner)
        else:
            runner.speed = SpeedProbe()
            setup = setup_seconds()
            with runner.speed:
                runner.run(args.seconds)
            metrics, named = end_to_end(runner, setup)
            child_ok = True
    except InputMismatch as exc:
        print(f"perfbench: {exc}; aborting", file=sys.stderr)
        return 3
    finally:
        runner.close()
    env["loadavg_end"] = os.getloadavg()

    for line in runner.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    detail = {"workload": args.workload, "trace": args.trace, "env": env,
              "figures": named, "failures": runner.failures}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not runner.failures and child_ok,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

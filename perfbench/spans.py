"""Outside-in span tracing of the library's public layers.

The tracer wraps the listed functions from the benchmark's side: each
wrapped name is rebound in every ``lamina.*`` module that holds it (so
``from .minors import delete`` call sites are covered too), and methods
are wrapped on the class, as is ``Path.write_text`` for the CLI's file
output.  ``rank``, ``closure`` and ``is_circuit`` are left alone: they
run millions of times and would swamp the trace.

Spans (name, start, end, parent span, op id) are kept in memory as
columns and written once, at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from workloads import CHECK_IDS

LAYERS = {
    "core": ("validate_rank_axioms", "Matroid.__init__", "Matroid.circuits",
             "Matroid.flats", "Matroid.cyclic_flats", "Matroid.hamiltonian_flats",
             "Matroid.dual"),
    "constructions": ("cycle_matroid", "laminar_matroid", "transversal_matroid",
                      "from_cyclic_flats", "matroid_from_circuits", "truncate",
                      "uniform", "validate_z_axioms"),
    "laminar": ("is_k_laminar", "is_k_closure_laminar",
                "is_k_closure_laminar_circuit_form", "is_nested", "min_laminar_k",
                "min_closure_laminar_k"),
    "minors": ("delete", "contract", "has_minor", "find_isomorphism",
               "is_excluded_minor"),
    "formats": ("parse_matroid", "serialize_matroid"),
    "corpus": ("generate_corpus", "catalog_with_minors"),
    "checks": ("run_check",),
    "cli": ("main",),
}
# Outside the library: the CLI's file output, most of what ``corpus`` does
# besides building and serializing matroids.
OTHER = {"pathlib.Path.write_text": (Path, "write_text")}
NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns) + tuple(OTHER)
# The entry point every op passes through; time spent in it alone (argument
# parsing, file reading, report building) is time no layer span explains.
ENTRY = ("cli.main",)

# Per-span work value recorded from the call's arguments and result.
MEASURES = {
    "formats.parse_matroid": lambda args, kw, res: len(args[0] if args else kw["text"]),
    "formats.serialize_matroid": lambda args, kw, res: len(res),
    "corpus.generate_corpus": lambda args, kw, res: len(res),
    "minors.has_minor": lambda args, kw, res: res is not None,
    "minors.find_isomorphism": lambda args, kw, res: res is not None,
}


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.value = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, idx: int, fn):
        measure = MEASURES.get(NAMES[idx])
        name, start, end = self.name, self.start, self.end
        parent, op, value, stack = self.parent, self.op, self.value, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(idx)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0)
            value.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if measure is not None:
                value[i] = int(measure(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function at each of its binding sites."""
        modules = [m for key, m in list(sys.modules.items())
                   if (key == "lamina" or key.startswith("lamina.")) and m]
        for idx, full in enumerate(NAMES):
            owner, attr = _site(full)
            if isinstance(owner, type):
                orig = vars(owner).get(attr)
                if orig is not None:
                    setattr(owner, attr, self._wrap(idx, orig))
                    self._restore.append((owner, attr, orig))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            traced = self._wrap(idx, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, traced)
                        self._restore.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- analysis --------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.int64),
                "end": np.frombuffer(self.end, dtype=np.int64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "value": np.frombuffer(self.value, dtype=np.int64)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(NAMES), **self.columns())

    def layer_metrics(self, op_wall_s: float, op_names: list[str],
                      untraced_wall_s: float, traced_wall_s: float) -> dict:
        """Per-layer metrics: calls and self time per function, ratios,
        work counts, and trace quality."""
        c = self.columns()
        k = len(NAMES)
        dur = (c["end"] - c["start"]) / 1e9
        has_parent = c["parent"] >= 0
        child = np.bincount(c["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = dur - child
        # spans of untimed warm-up ops are left out
        timed = c["op"] >= 0
        c = {key: col[timed] for key, col in c.items()}
        dur, self_s = dur[timed], self_s[timed]
        calls = np.bincount(c["name"], minlength=k)
        self_by = np.bincount(c["name"], weights=self_s, minlength=k)
        value_by = np.bincount(c["name"], weights=c["value"], minlength=k)
        ix = {n: i for i, n in enumerate(NAMES)}

        out: dict[str, tuple[float, str]] = {}
        for n in NAMES:
            out[f"{n}.calls"] = (int(calls[ix[n]]), "count")
            out[f"{n}.self_s"] = (float(self_by[ix[n]]), "s")

        def ratio(num, den):
            return float(num) / den if den else 0.0

        searches = calls[ix["minors.has_minor"]]
        under = _inside(c, ix["minors.has_minor"])
        cand = np.isin(c["name"], [ix["minors.delete"], ix["minors.contract"]])
        out["core.validated_share"] = (ratio(calls[ix["core.validate_rank_axioms"]],
                                             calls[ix["core.Matroid.__init__"]]), "ratio")
        out["minors.has_minor.found_ratio"] = (
            ratio(value_by[ix["minors.has_minor"]], searches), "ratio")
        out["minors.find_isomorphism.found_ratio"] = (
            ratio(value_by[ix["minors.find_isomorphism"]],
                  calls[ix["minors.find_isomorphism"]]), "ratio")
        out["minors.candidates_per_search"] = (
            ratio(np.count_nonzero(cand & under), searches), "count")
        out["minors.iso_per_search"] = (
            ratio(np.count_nonzero((c["name"] == ix["minors.find_isomorphism"]) & under),
                  searches), "count")
        out["formats.parse_matroid.bytes"] = (int(value_by[ix["formats.parse_matroid"]]), "bytes")
        out["formats.serialize_matroid.bytes"] = (
            int(value_by[ix["formats.serialize_matroid"]]), "bytes")
        out["corpus.generate_corpus.members"] = (
            int(value_by[ix["corpus.generate_corpus"]]), "count")

        run_check = c["name"] == ix["checks.run_check"]
        per_op = np.bincount(c["op"][run_check], weights=dur[run_check],
                             minlength=len(op_names))
        by_check = dict.fromkeys(CHECK_IDS, 0.0)
        for i, name in enumerate(op_names):
            if name.startswith("verify/"):
                by_check[name[len("verify/"):]] += float(per_op[i])
        for cid, s in by_check.items():
            out[f"checks.{cid}.s"] = (s, "s")

        covered = float(self_s[~np.isin(c["name"], [ix[n] for n in ENTRY])].sum())
        out["trace.coverage"] = (ratio(covered, op_wall_s), "ratio")
        out["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
        return out


def _site(full: str) -> tuple[object, str]:
    """Where a listed name is bound: (class, method) for methods and names
    outside the library, (module, function) otherwise; (None, ...) when the
    library no longer has it."""
    if full in OTHER:
        return OTHER[full]
    mod_name, _, qual = full.partition(".")
    mod = sys.modules.get(f"lamina.{mod_name}")
    if "." in qual:
        cls_name, attr = qual.split(".")
        return getattr(mod, cls_name, None), attr
    return mod, qual


def _inside(c: dict, outer: int) -> np.ndarray:
    """Mask of spans nested inside some span named ``outer`` (not nested
    in each other)."""
    sel = np.flatnonzero(c["name"] == outer)
    if not len(sel):
        return np.zeros(len(c["name"]), dtype=bool)
    starts, ends = c["start"][sel], c["end"][sel]
    j = np.searchsorted(starts, c["start"], side="right") - 1
    ok = j >= 0
    jj = np.maximum(j, 0)
    return ok & (c["end"] <= ends[jj]) & (c["start"] > starts[jj])


"""Benchmark-owned inputs, written as ``%matroid v1`` text.

Nothing here imports lamina: every input is a pure function of the seed
variant and of this file, so two commits of the library see byte-identical
inputs.  ``pins.json`` records their digests.

The matroids of a workload are fixed; a seed variant changes the order of
their ground sets (and with it search orders, early exits and witnesses).
Drawing new matroids per seed would make run-to-run cost depend on which
matroids were drawn, which is noise to a comparison of two commits.
"""

from __future__ import annotations

import hashlib
import random

# Seeds map onto this many input variants (seed mod VARIANTS).  Expected
# outputs are pinned for every variant, so any ``--seed`` gets fully
# checked inputs.
VARIANTS = 16


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# text writers


def _braced(names) -> str:
    return "{" + " ".join(names) + "}"


def _head(labels, kind: str) -> list[str]:
    out = ["%matroid v1", f"n {len(labels)}"]
    if labels:
        out.append("labels " + " ".join(labels))
    out.append(f"repr {kind}")
    return out


def cyclic_flats_text(labels, flats) -> str:
    """``flats``: (names, rank) pairs."""
    lines = _head(labels, "cyclic-flats")
    lines += [f"set {_braced(names)} rank {r}" for names, r in flats]
    return "\n".join(lines) + "\n"


def uniform_text(r: int, n: int, prefix: str = "e") -> str:
    labels = [f"{prefix}{i + 1}" for i in range(n)]
    return "\n".join(_head(labels, "uniform") + [f"r {r}"]) + "\n"


def graph_text(nv: int, edges, prefix: str = "g") -> str:
    labels = [f"{prefix}{i + 1}" for i in range(len(edges))]
    lines = _head(labels, "graph") + [f"vertices {nv}"]
    lines += [f"edge {lab} {u} {v}" for lab, (u, v) in zip(labels, edges)]
    return "\n".join(lines) + "\n"


def laminar_text(labels, caps) -> str:
    """``caps``: (names, capacity) pairs of a laminar family."""
    lines = _head(labels, "laminar")
    lines += [f"cap {_braced(names)} {c}" for names, c in caps]
    return "\n".join(lines) + "\n"


def transversal_text(labels, blocks) -> str:
    """``blocks``: chain B_1 ⊆ ... ⊆ B_m of name lists."""
    lines = _head(labels, "transversal")
    lines += [f"block {_braced(names)}" for names in blocks]
    return "\n".join(lines) + "\n"


def shuffle(text: str, rng: random.Random) -> str:
    """The same matroid with its ground set in another order.

    Every text this module writes declares ``labels`` on its third line,
    and the body names elements by label, so permuting that line permutes
    the element positions and nothing else."""
    lines = text.splitlines()
    assert lines[2].startswith("labels ")
    labels = lines[2].split()[1:]
    rng.shuffle(labels)
    lines[2] = "labels " + " ".join(labels)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# catalog matroids


def mn_text(n: int, k: int) -> str:
    """M_n(k): rank-n truncation of a theta graph with paths of k, n-k, n-k
    edges (for k = 0, of two disjoint n-circuits)."""
    P = [f"p{i + 1}" for i in range(k)]
    X = [f"x{i + 1}" for i in range(n - k)]
    Y = [f"y{i + 1}" for i in range(n - k)]
    labels = P + X + Y
    flats = [([], 0), (P + X, n - 1), (P + Y, n - 1)]
    if k and 2 * (n - k) - 1 < n:
        flats.append((X + Y, 2 * (n - k) - 1))
    flats.append((labels, n))
    return cyclic_flats_text(labels, flats)


def _sets(spec: str):
    """Parse 'a b c:2 | d e:1' shorthand into (names, rank) pairs."""
    out = []
    for part in spec.split("|"):
        names, r = part.rsplit(":", 1)
        out.append((names.split(), int(r)))
    return out


def _flats_text(labels: str, spec: str) -> str:
    return cyclic_flats_text(labels.split(), [([], 0)] + _sets(spec))


_C = "c1 c2 c3 c4"
_U = "u2 u3 u4 u5 u6"
_V = "v2 v3 v4 v5 v6"
_D = " ".join(f"d{i}" for i in range(1, 13))

CATALOG = {
    "u24": uniform_text(2, 4),
    "u25": uniform_text(2, 5),
    "u35": uniform_text(3, 5),
    "u416": uniform_text(4, 16),
    "f7": _flats_text(
        "f1 f2 f3 f4 f5 f6 f7",
        "f1 f2 f3:2 | f1 f4 f5:2 | f2 f4 f6:2 | f3 f5 f6:2 | f3 f4 f7:2"
        " | f2 f5 f7:2 | f1 f6 f7:2 | f1 f2 f3 f4 f5 f6 f7:3"),
    "mk23": graph_text(5, [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)], "e"),
    "mk23minus": _flats_text(
        "e1 e2 e3 e4 e5 e6",
        "e1 e2 e5 e6:3 | e3 e4 e5 e6:3 | e1 e2 e3 e4 e5 e6:4"),
    "mstark33": _flats_text(
        "e1 e2 e3 e4 e5 e6 e7 e8 e9",
        "e1 e2 e3:2 | e4 e5 e6:2 | e1 e4 e7:2 | e2 e5 e8:2 | e3 e6 e9:2"
        " | e7 e8 e9:2 | e1 e2 e3 e4 e7:3 | e1 e4 e5 e6 e7:3"
        " | e1 e2 e3 e5 e8:3 | e2 e4 e5 e6 e8:3 | e1 e2 e3 e6 e9:3"
        " | e3 e4 e5 e6 e9:3 | e1 e4 e7 e8 e9:3 | e2 e5 e7 e8 e9:3"
        " | e3 e6 e7 e8 e9:3 | e1 e2 e3 e4 e5 e6 e7 e8 e9:4"),
    "m42": mn_text(4, 2),
    "n52": _flats_text(
        "c1 c2 c3 c4 u2 u3 v2 v3",
        "c1 u2 u3:2 | c2 v2 v3:2 | c1 c2 c3 c4:3 | c1 c2 c3 c4 u2 u3:4"
        " | c1 c2 c3 c4 v2 v3:4 | c1 c2 u2 u3 v2 v3:4"
        " | c1 c2 c3 c4 u2 u3 v2 v3:5"),
    "p42": _flats_text(
        "c1 c2 c3 u2 u3 v2 v3",
        "c1 c2 c3:2 | c1 u2 u3:2 | c2 v2 v3:2 | c1 c2 c3 u2 u3:3"
        " | c1 c2 c3 v2 v3:3 | c1 c2 c3 u2 u3 v2 v3:4"),
    "m80": mn_text(8, 0),
    "m81": mn_text(8, 1),
    "m70": mn_text(7, 0),
    "m72": mn_text(7, 2),
    "n82": _flats_text(
        f"{_C} {_U} {_V}",
        f"{_C}:3 | c1 {_U}:5 | c2 {_V}:5 | {_C} {_U}:7 | {_C} {_V}:7"
        f" | {_C} {_U} {_V}:8"),
    "p72": _flats_text(
        f"c1 c2 c3 {_U} {_V}",
        f"c1 c2 c3:2 | c1 {_U}:5 | c2 {_V}:5 | c1 c2 c3 {_U}:6"
        f" | c1 c2 c3 {_V}:6 | c1 c2 c3 {_U} {_V}:7"),
    "sec1pc11": _flats_text(
        f"{_D} t2 t3 s2 s3",
        f"d1 t2 t3:2 | d2 s2 s3:2 | d1 d2 t2 t3 s2 s3:4 | {_D}:11"
        f" | {_D} t2 t3:12 | {_D} s2 s3:12 | {_D} t2 t3 s2 s3:13"),
}


# ---------------------------------------------------------------------------
# random generators, run from fixed seeds


def random_graph(rng: random.Random, m: int, cycle_rank: int):
    """Connected multigraph with ``m`` edges and ``cycle_rank`` independent
    cycles: a random spanning tree plus extra edges."""
    nv = m - cycle_rank + 1
    edges = [(rng.randrange(v), v) for v in range(1, nv)]
    while len(edges) < m:
        u, v = rng.sample(range(nv), 2)
        edges.append((min(u, v), max(u, v)))
    rng.shuffle(edges)
    return nv, edges


def random_laminar(rng: random.Random, n: int):
    labels = [f"e{i + 1}" for i in range(n)]
    order = labels[:]
    rng.shuffle(order)
    # disjoint blocks, some of them grouped under a common parent
    caps = []
    cut = 0
    blocks = []
    while cut < n:
        size = min(rng.randint(2, 5), n - cut)
        blocks.append(order[cut:cut + size])
        cut += size
    for b in blocks:
        caps.append((b, rng.randint(1, max(1, len(b) - 1))))
    for i in range(0, len(blocks) - 1, 2):
        group = blocks[i] + blocks[i + 1]
        caps.append((group, rng.randint(2, len(group) - 1)))
    caps.append((labels, rng.randint(n // 2, n - 1)))
    return labels, caps


def random_transversal(rng: random.Random, n: int):
    labels = [f"e{i + 1}" for i in range(n)]
    order = labels[:]
    rng.shuffle(order)
    blocks = []
    cut = 0
    while cut < n:
        cut = min(n, cut + rng.randint(1, 4))
        blocks.append(sorted(order[:cut], key=labels.index))
    return labels, blocks

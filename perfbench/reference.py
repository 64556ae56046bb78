"""Independent reference code for checking the program's outputs.

Rank tables are rebuilt from ``%matroid v1`` text with numpy over the
mask index, without importing lamina, so a check never trusts the code
it is checking.
"""

from __future__ import annotations

import numpy as np


def popcounts(n: int) -> np.ndarray:
    masks = np.arange(1 << n, dtype=np.int64)
    out = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        out += (masks >> i) & 1
    return out


def _mask(index: dict, names) -> int:
    out = 0
    for name in names:
        out |= 1 << index[name]
    return out


def _braced(text: str) -> list[str]:
    return text.strip().lstrip("{").rstrip("}").split()


def decode(text: str) -> tuple[tuple[str, ...], np.ndarray]:
    """(labels, rank table) of a ``%matroid v1`` text this benchmark or the
    program wrote.  Supports every kind the benchmark uses."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    n = int(lines[1].split()[1])
    pos = 2
    labels = tuple(f"e{i + 1}" for i in range(n))
    if lines[pos].startswith("labels"):
        labels = tuple(lines[pos].split()[1:])
        pos += 1
    kind = lines[pos].split()[1]
    body = lines[pos + 1:]
    index = {lab: i for i, lab in enumerate(labels)}
    sizes = popcounts(n)
    masks = np.arange(1 << n, dtype=np.int64)
    if kind == "uniform":
        r = int(body[0].split()[1])
        return labels, np.minimum(sizes, r)
    if kind == "cyclic-flats":
        table = np.full(1 << n, n + 1, dtype=np.int64)
        for line in body:
            set_text, r = line[len("set"):].rsplit("rank", 1)
            Z = _mask(index, _braced(set_text))
            table = np.minimum(table, int(r) + sizes[masks & ~Z])
        return labels, table
    if kind == "transversal":
        # chain presentation: r(X) = min_t |X ∩ B_t| + (m - t), B_0 = ∅
        blocks = [_mask(index, _braced(line[len("block"):])) for line in body]
        m = len(blocks)
        inside = masks & (blocks[-1] if blocks else 0)
        table = np.full(1 << n, m, dtype=np.int64)
        for t, B in enumerate(blocks, start=1):
            table = np.minimum(table, sizes[inside & B] + (m - t))
        return labels, np.minimum(table, sizes[inside])
    if kind == "laminar":
        family = []
        for line in body:
            set_text, _, cap = line[len("cap"):].rpartition("}")
            family.append((_mask(index, _braced(set_text + "}")), int(cap)))
        return labels, _laminar_table(n, family)
    if kind == "graph":
        nv = int(body[0].split()[1])
        edges = {}
        for line in body[1:]:
            _, lab, u, v = line.split()
            edges[lab] = (int(u), int(v))
        return labels, _graph_table(nv, [edges[lab] for lab in labels])
    raise ValueError(f"unsupported kind {kind!r}")


def _laminar_table(n: int, family) -> np.ndarray:
    """r(X) = max |I|, I ⊆ X within every capacity: greedy per subset."""
    table = np.zeros(1 << n, dtype=np.int64)
    for X in range(1 << n):
        counts = [0] * len(family)
        taken = 0
        for i in range(n):
            if X >> i & 1:
                hit = [j for j, (A, _) in enumerate(family) if A >> i & 1]
                if all(counts[j] < family[j][1] for j in hit):
                    for j in hit:
                        counts[j] += 1
                    taken += 1
        table[X] = taken
    return table


def _graph_table(nv: int, edges) -> np.ndarray:
    """Rank of every edge subset: the size of a spanning forest."""
    m = len(edges)
    table = np.zeros(1 << m, dtype=np.int64)
    for A in range(1, 1 << m):
        comp = list(range(nv))

        def find(x):
            while comp[x] != x:
                x = comp[x]
            return x

        for i in range(m):
            if A >> i & 1:
                a, b = find(edges[i][0]), find(edges[i][1])
                if a != b:
                    comp[a] = b
                    table[A] += 1
    return table


def image_masks(n: int, mapping, masks: np.ndarray | None = None) -> np.ndarray:
    """Image of each mask (default: every mask over n elements) under
    position i -> mapping[i]; ``mapping`` may cover a prefix only."""
    if masks is None:
        masks = np.arange(1 << n, dtype=np.int64)
    out = np.zeros(len(masks), dtype=np.int64)
    for i, j in enumerate(mapping):
        out |= ((masks >> i) & 1) << j
    return out


def carries(table1: np.ndarray, table2: np.ndarray, mapping) -> bool:
    """Whether position i -> mapping[i] carries table1 onto table2 exactly."""
    n = len(mapping)
    if sorted(mapping) != list(range(n)) or len(table2) != 1 << n:
        return False
    return bool(np.array_equal(table2[image_masks(n, mapping)], table1))


def minor_table(table: np.ndarray, n: int, delete: int, contract: int) -> np.ndarray:
    """Rank table of M \\ delete / contract over the kept elements, in order."""
    keep = [i for i in range(n) if not (delete | contract) >> i & 1]
    lifted = image_masks(len(keep), keep) | contract
    return table[lifted] - table[contract]


def isomorphic(table1: np.ndarray, table2: np.ndarray, n: int) -> bool:
    """Brute-force isomorphism test for small ground sets, pruned by
    per-element rank profiles."""
    if len(table1) != len(table2) or not np.array_equal(
            np.sort(table1), np.sort(table2)):
        return False
    sizes = popcounts(n)
    masks = np.arange(1 << n, dtype=np.int64)

    def profiles(table):
        key = sizes * (n + 1) + table
        return [tuple(np.bincount(key[(masks >> i) & 1 == 1],
                                  minlength=(n + 1) ** 2)) for i in range(n)]

    p1, p2 = profiles(table1), profiles(table2)
    options = [[j for j in range(n) if p2[j] == p1[i]] for i in range(n)]
    mapping: list[int] = []

    def extend(i: int) -> bool:
        if i == n:
            return True
        # every subset of the assigned prefix that contains element i
        A = np.arange(1 << i, dtype=np.int64) | (1 << i)
        for j in options[i]:
            if j in mapping:
                continue
            mapping.append(j)
            if np.array_equal(table2[image_masks(n, mapping, A)], table1[A]) \
                    and extend(i + 1):
                return True
            mapping.pop()
        return False

    return extend(0)

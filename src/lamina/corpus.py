"""Deterministic corpus generation for the verification harness.

A corpus mixes seeded random matroids from several generators with the
named-catalog matroids that fit the size budget (plus all of their
single-element minors).  Identical specs produce identical corpora.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

from .core import MAX_ELEMENTS, Matroid, MatroidError
from .constructions import (
    LaminarCapacitySystem,
    Multigraph,
    NestedPresentation,
    cycle_matroids,
    laminar_matroid,
    mn_family,
    named_matroid,
    nn_family,
    pn_family,
    sec1_pc_example,
    transversal_matroid,
    NAMED_FIXED,
    _sparse_paving,
)
from .minors import MinorSpec, minor, single_element_minors

DEFAULT_WEIGHTS = {
    "laminar": 3,
    "nested": 2,
    "graphic": 3,
    "sparse_paving": 2,
    "named_minor": 2,
}

# The smallest element cap every generator can meet: a sparse paving
# matroid here has rank 2 <= r <= n - 1, so n >= 3.
MIN_ELEMENTS = 3


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic corpus recipe: seed, size and element cap."""

    seed: int
    count: int
    max_elements: int = 8

    def __post_init__(self):
        if self.count < 0:
            raise MatroidError("count must be nonnegative")
        if self.max_elements > MAX_ELEMENTS:
            raise MatroidError(f"max_elements > {MAX_ELEMENTS}")
        if self.max_elements < MIN_ELEMENTS:
            raise MatroidError(f"max_elements must be at least {MIN_ELEMENTS}")


@lru_cache(maxsize=None)
def catalog_matroids(max_elements: int) -> tuple[tuple[str, Matroid], ...]:
    """All named catalog matroids with at most ``max_elements`` elements,
    in catalog order: a slice of the full catalog, which is built once."""
    if max_elements < MAX_ELEMENTS:
        return tuple((name, M) for name, M in catalog_matroids(MAX_ELEMENTS)
                     if M.n <= max_elements)
    out = [(name, named_matroid(name)) for name in NAMED_FIXED]
    out += [(f"mn(n={n},k={k})", mn_family(n, k))
            for k in range(4) for n in range(max(4, k + 2), 9)]
    for k in (2, 3):
        out += [(f"nn(n={n},k={k})", nn_family(n, k)) for n in range(k + 3, 9)]
        out += [(f"pn(n={n},k={k})", pn_family(n, k)) for n in range(k + 2, 9)]
        out.append((f"sec1pc(k={k})", sec1_pc_example(k)))
    return tuple(out)


def catalog_with_minors(max_elements: int) -> list[tuple[str, Matroid]]:
    """Catalog slice plus every single-element deletion and contraction."""
    base = catalog_matroids(max_elements)
    out = list(base)
    seen = {(M.labels, M.rank_table) for _, M in base}
    for name, M in base:
        for j, M2 in enumerate(single_element_minors(M)):
            key = (M2.labels, M2.rank_table)
            if key not in seen:
                seen.add(key)
                out.append((f"{name}/{('del', 'con')[j % 2]} {M.labels[j // 2]}", M2))
    return out


# ---------------------------------------------------------------------------
# random generators


def _random_laminar(rng: random.Random, max_elements: int) -> Matroid:
    n = rng.randint(2, max_elements)
    labels = tuple(f"e{i + 1}" for i in range(n))
    full = (1 << n) - 1
    family = [full]
    # random laminar refinement: repeatedly split an unused sub-block off
    # a member, so every new set nests inside its parent and avoids all
    # other members
    for _ in range(rng.randint(0, 3)):
        parent = rng.choice(family)
        taken = 0
        for other in family:
            if other != parent and other & ~parent == 0:
                taken |= other
        bits = [i for i in range(n) if parent >> i & 1 and not taken >> i & 1]
        if len(bits) < 2:
            continue
        child = 0
        for i in rng.sample(bits, rng.randint(1, len(bits) - 1)):
            child |= 1 << i
        family.append(child)
    caps = tuple(rng.randint(0, max(1, m.bit_count() - 1)) for m in family)
    return laminar_matroid(LaminarCapacitySystem(labels, tuple(family), caps))


def _random_nested(rng: random.Random, max_elements: int) -> Matroid:
    n = rng.randint(2, max_elements)
    labels = tuple(f"e{i + 1}" for i in range(n))
    order = list(range(n))
    rng.shuffle(order)
    blocks = []
    acc = 0
    cut = 0
    while cut < n:
        step = rng.randint(1, n - cut)
        for i in order[cut:cut + step]:
            acc |= 1 << i
        cut += step
        blocks.append(acc)
    m = rng.randint(1, len(blocks))
    chosen = sorted(rng.sample(range(len(blocks)), m))
    return transversal_matroid(
        NestedPresentation(labels, tuple(blocks[i] for i in chosen))
    )


def _random_graphic(rng: random.Random, max_elements: int) -> Multigraph:
    nv = rng.randint(2, 5)
    m = rng.randint(1, max_elements)
    edges = []
    for _ in range(m):
        u = rng.randrange(nv)
        if rng.random() < 0.05:
            v = u  # occasional loop
        else:
            v = rng.randrange(nv)
        edges.append((u, v))
    return Multigraph(nv, tuple(edges))


def _random_sparse_paving(rng: random.Random, max_elements: int) -> Matroid:
    n = rng.randint(3, max_elements)
    r = rng.randint(2, n - 1)
    labels = tuple(f"e{i + 1}" for i in range(n))
    all_rsets = [sum(1 << i for i in c) for c in itertools.combinations(range(n), r)]
    rng.shuffle(all_rsets)
    chosen: list[int] = []
    for S in all_rsets:
        if all((S & T).bit_count() <= r - 2 for T in chosen):
            chosen.append(S)
        if len(chosen) >= rng.randint(1, 1 + n):
            break
    return _sparse_paving(labels, r, chosen)


def _random_named_minor(rng: random.Random, max_elements: int) -> Matroid:
    base = catalog_matroids(MAX_ELEMENTS)
    name, M = base[rng.randrange(len(base))]
    # drawn as one delete or contract per step, then gathered at once
    rest = list(range(M.n))
    D = C = 0
    while len(rest) > max_elements or (len(rest) > 1 and rng.random() < 0.5):
        bit = 1 << rest.pop(rng.randrange(len(rest)))
        D, C = (D | bit, C) if rng.random() < 0.5 else (D, C | bit)
    return minor(M, MinorSpec(D, C))


_GENERATORS = {
    "laminar": _random_laminar,
    "nested": _random_nested,
    "graphic": _random_graphic,
    "sparse_paving": _random_sparse_paving,
    "named_minor": _random_named_minor,
}


def generate_corpus(spec: CorpusSpec) -> list[Matroid]:
    """Deterministic corpus for a spec; every member passes validation.

    The named catalog slice (and its single-element minors) comes first,
    then ``count`` seeded random matroids drawn per the generator mix.
    Graphic members are drawn as graphs and built together at the end.
    """
    out = [M for _, M in catalog_with_minors(spec.max_elements)]
    rng = random.Random(spec.seed)
    names = [name for name, w in sorted(DEFAULT_WEIGHTS.items()) for _ in range(w)]
    for _ in range(spec.count):
        gen = _GENERATORS[rng.choice(names)]
        out.append(gen(rng, spec.max_elements))
    at = [i for i, G in enumerate(out) if isinstance(G, Multigraph)]
    for i, M in zip(at, cycle_matroids([out[i] for i in at])):
        out[i] = M
    return out

"""Deterministic corpus generation for the verification harness.

A corpus mixes seeded random matroids from several generators with the
named-catalog matroids that fit the size budget (plus all of their
single-element minors).  Identical specs produce identical corpora.
Each generator is a draw, which makes all of its ``random`` calls and
returns a parameter record, and a stacked build, which turns the records
of every draw of its kind into matroids one numpy pass per element count.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

from .core import MAX_ELEMENTS, Matroid, MatroidError, default_labels
from .constructions import (
    LaminarCapacitySystem,
    Multigraph,
    NestedPresentation,
    cycle_matroids,
    laminar_matroids,
    mn_family,
    named_matroid,
    nn_family,
    pn_family,
    sec1_pc_example,
    transversal_matroids,
    NAMED_FIXED,
    _sparse_pavings,
)
from .minors import MinorSpec, minors_of, single_element_minors_of

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


@lru_cache(maxsize=None)
def catalog_with_minors(max_elements: int) -> tuple[tuple[str, Matroid], ...]:
    """Catalog slice plus its single-element deletions and contractions, built once."""
    base = catalog_matroids(max_elements)
    out = list(base)
    seen = {(M.labels, M.rank_table) for _, M in base}
    for (name, M), minors in zip(base, single_element_minors_of([M for _, M in base])):
        for j, M2 in enumerate(minors):
            key = (M2.labels, M2.rank_table)
            if key not in seen:
                seen.add(key)
                out.append((f"{name}/{('del', 'con')[j % 2]} {M.labels[j // 2]}", M2))
    return tuple(out)


# ---------------------------------------------------------------------------
# random generators: each draw returns the record its kind's build reads


def _random_laminar(rng: random.Random, max_elements: int) -> LaminarCapacitySystem:
    n = rng.randint(2, max_elements)
    labels = default_labels(n)
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
    return LaminarCapacitySystem(labels, tuple(family), caps)


def _random_nested(rng: random.Random, max_elements: int) -> NestedPresentation:
    n = rng.randint(2, max_elements)
    labels = default_labels(n)
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
    return NestedPresentation(labels, tuple(blocks[i] for i in chosen))


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


@lru_cache(maxsize=None)
def _rsets(n: int, r: int) -> tuple[int, ...]:
    """The masks of the r-subsets of n elements, in ``combinations`` order."""
    return tuple(sum(1 << i for i in c) for c in itertools.combinations(range(n), r))


def _random_sparse_paving(rng: random.Random, max_elements: int) -> tuple:
    """(labels, r, hyperplanes) of a sparse paving matroid."""
    n = rng.randint(3, max_elements)
    r = rng.randint(2, n - 1)
    labels = default_labels(n)
    all_rsets = list(_rsets(n, r))
    rng.shuffle(all_rsets)
    chosen: list[int] = []
    for S in all_rsets:
        if all((S & T).bit_count() <= r - 2 for T in chosen):
            chosen.append(S)
        if len(chosen) >= rng.randint(1, 1 + n):
            break
    return labels, r, tuple(chosen)


def _random_named_minor(rng: random.Random, max_elements: int) -> tuple[Matroid, MinorSpec]:
    """A catalog member and a minor of it on at most ``max_elements``."""
    base = catalog_matroids(MAX_ELEMENTS)
    name, M = base[rng.randrange(len(base))]
    # drawn as one delete or contract per step, then gathered at once
    rest = list(range(M.n))
    D = C = 0
    while len(rest) > max_elements or (len(rest) > 1 and rng.random() < 0.5):
        bit = 1 << rest.pop(rng.randrange(len(rest)))
        D, C = (D | bit, C) if rng.random() < 0.5 else (D, C | bit)
    return M, MinorSpec(D, C)


# name: (draw, build, weight); a draw picks a name with odds by weight
_GENERATORS = {
    "laminar": (_random_laminar, laminar_matroids, 3),
    "nested": (_random_nested, transversal_matroids, 2),
    "graphic": (_random_graphic, cycle_matroids, 3),
    "sparse_paving": (_random_sparse_paving, _sparse_pavings, 2),
    "named_minor": (_random_named_minor, minors_of, 2),
}


def generate_corpus(spec: CorpusSpec) -> list[Matroid]:
    """Deterministic corpus for a spec; every member passes validation.

    The named catalog slice (and its single-element minors) comes first,
    then ``count`` seeded random matroids drawn per the generator mix.
    All draws come first, as parameter records; then each generator kind
    builds its records together, one stacked pass per element count (and
    :func:`~lamina.core.runs`), and the members keep their draw order.
    """
    out = [M for _, M in catalog_with_minors(spec.max_elements)]
    rng = random.Random(spec.seed)
    names = [name for name, (*_, w) in sorted(_GENERATORS.items()) for _ in range(w)]
    drawn: dict[str, list] = {name: [] for name in _GENERATORS}
    for _ in range(spec.count):
        name = rng.choice(names)
        drawn[name].append((len(out), _GENERATORS[name][0](rng, spec.max_elements)))
        out.append(None)
    for name, members in drawn.items():
        built = _GENERATORS[name][1]([record for _, record in members])
        for (i, _), M in zip(members, built):
            out[i] = M
    return out

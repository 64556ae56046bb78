"""Closed forms and vectorised kernels versus the reference scans they replaced.

The graphic-rank DP in ``cycle_matroids``, the table halves behind
``delete``/``contract``/``minor`` and ``single_element_minors``, the
corpus minors, the one-expression tables of
``uniform``, ``truncate``, ``direct_sum`` and ``Matroid.dual``, the rank
formulas of ``laminar_matroid``, ``transversal_matroid``,
``from_cyclic_flats`` and ``parallel_connection``, the two subset passes
of ``matroid_from_circuits``, the sparse paving tables of the Fano plane
and the corpus, the pair generators behind the laminar predicates,
the batched candidate filter of ``has_minor`` and the stacked search
of ``find_minors`` over many hosts (against the per-host loop it
replaced as well), the prefix image
search of ``find_isomorphism`` and its pair rows, the stacked pass that
``prime(matroids, key)`` runs for each cached family (circuits, flats,
cyclic flats and Hamiltonian flats; the circuit pass also against the
candidate gather it replaced), the stacked gains and per-element R3 passes of
``validate_rank_axioms`` (on integer arrays as on lists), the member-inclusion products of
``validate_z_axioms`` and the byte-table report writer of
``lamina analyze`` must agree exactly with the plain loops, gathers and
encoders they replaced, which are kept here as oracles.  The
constructors that no longer re-check the rank axioms are checked here
instead: each must still return a table for which
``validate_rank_axioms`` is None.  So are the round trips that
``matroid_from_circuits`` and ``from_cyclic_flats`` no longer run on
their own result, and the least-k scan of ``lem-hamcir`` against the
every-k scan it replaced, with the bound ``min_laminar_k(M) <= r(M)``
that lets the scan always find its k, and the minor-closure claims,
which ask each minor at one k, against the all-k loop they replaced.
"""

import contextlib
import functools
import io
import itertools
import json
import math
import operator
import random
import re
import tracemalloc
from unittest import mock

import numpy as np

import pytest
from hypothesis import example, given, settings, strategies as st

from lamina import checks, cli, constructions, core, corpus, formats
from lamina.core import (
    MAX_ELEMENTS,
    AxiomViolation,
    Matroid,
    prime,
    subset_index,
    subset_sizes,
    validate_rank_axioms,
)
from lamina.constructions import (
    CyclicFlatFamily,
    LaminarCapacitySystem,
    Multigraph,
    NestedPresentation,
    ZAxiomError,
    ZViolation,
    _disjoint_labels,
    circuit_matroid,
    cycle_matroid,
    cycle_matroids,
    direct_sum,
    from_cyclic_flats,
    laminar_matroid,
    laminar_matroids,
    matroid_from_circuits,
    mn_family,
    named_matroid,
    notk_cyclic_flats,
    parallel_connection,
    pn_family,
    relax_circuit_hyperplane,
    sec1_pc_example,
    transversal_matroid,
    transversal_matroids,
    truncate,
    uniform,
    validate_z_axioms,
)
from lamina.corpus import CorpusSpec, catalog_matroids, generate_corpus
from lamina.formats import parse_matroid
from lamina.laminar import (
    is_k_closure_laminar,
    is_k_laminar,
    is_laminar,
    is_nested,
    is_paving,
    min_closure_laminar_k,
    min_laminar_k,
)
from lamina import minors
from lamina.minors import (
    MinorSpec,
    contract,
    delete,
    find_isomorphism,
    has_minor,
    is_binary,
    is_ternary,
    minor,
    single_element_minors,
)

PROPERTY = settings(max_examples=300, deadline=None, database=None, derandomize=True)


def reference_cycle_table(G: Multigraph) -> bytes:
    """Union-find over the edges of every subset, one subset at a time."""
    table = bytearray(1 << len(G.edges))
    for A in range(1, len(table)):
        parent = list(range(G.vertex_count))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        m = A
        while m:
            bit = m & -m
            m ^= bit
            u, v = G.edges[bit.bit_length() - 1]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                table[A] += 1
    return bytes(table)


def reference_minor(M: Matroid, drop: int, C: int) -> tuple[tuple[str, ...], bytes]:
    """Labels and table of M / C \\ (drop - C), one subset at a time."""
    keep = [i for i in range(M.n) if not drop >> i & 1]
    rt = M.rank_table
    table = bytearray(1 << len(keep))
    for A in range(len(table)):
        full = 0
        for j, i in enumerate(keep):
            if A >> j & 1:
                full |= 1 << i
        table[A] = rt[full | C] - rt[C]
    return tuple(M.labels[i] for i in keep), bytes(table)


def reference_subset_sizes(n: int) -> np.ndarray:
    masks = np.arange(1 << n, dtype=np.uint32)
    sizes = np.zeros(1 << n, dtype=np.int16)
    for i in range(n):
        sizes += ((masks >> i) & 1).astype(np.int16)
    return sizes


def reference_uniform_table(r: int, n: int) -> bytes:
    return bytes(min(A.bit_count(), r) for A in range(1 << n))


def reference_truncate_table(M: Matroid, t: int) -> bytes:
    return bytes(min(M.rank_table[A], t) for A in range(M.E + 1))


def reference_direct_sum_table(M1: Matroid, M2: Matroid) -> bytes:
    mask1 = M1.E
    return bytes(
        M1.rank_table[A & mask1] + M2.rank_table[A >> M1.n]
        for A in range(1 << (M1.n + M2.n))
    )


def reference_dual_table(M: Matroid) -> bytes:
    rt = M.rank_table
    E = M.E
    r = rt[E]
    return bytes(A.bit_count() + rt[E ^ A] - r for A in range(E + 1))


def _global_invariants(M: Matroid):
    circ_sizes = tuple(sorted(C.bit_count() for C in M.circuits()))
    flats_per_rank = [0] * (M.full_rank() + 1)
    rt = M.rank_table
    for F in M.flats():
        flats_per_rank[rt[F]] += 1
    return (M.n, M.full_rank(), circ_sizes, tuple(flats_per_rank))


def _element_fingerprints(M: Matroid):
    rt = M.rank_table
    prints = []
    for i in range(M.n):
        bit = 1 << i
        through = tuple(sorted(C.bit_count() for C in M.circuits() if C & bit))
        prints.append((rt[bit], through))
    return prints


def reference_find_isomorphism(M1: Matroid, M2: Matroid) -> tuple[int, ...] | None:
    """Backtracking over element images, pruned by circuit sizes and
    flats per rank, and by the circuit sizes through each element; every
    image mask is rebuilt bit by bit."""
    if _global_invariants(M1) != _global_invariants(M2):
        return None
    n = M1.n
    fp1 = _element_fingerprints(M1)
    fp2 = _element_fingerprints(M2)
    candidates = [
        [j for j in range(n) if fp2[j] == fp1[i]] for i in range(n)
    ]
    if any(not c for c in candidates):
        return None
    rt1, rt2 = M1.rank_table, M2.rank_table

    mapping = [-1] * n
    used = [False] * n

    def extend(i: int, assigned1: int) -> bool:
        if i == n:
            return True
        bit1 = 1 << i
        for j in candidates[i]:
            if used[j]:
                continue
            mapping[i] = j
            used[j] = True
            # verify ranks of every subset of assigned elements containing i
            ok = True
            sub = assigned1
            while True:
                A1 = sub | bit1
                A2 = 0
                m = A1
                while m:
                    b = m & -m
                    m ^= b
                    A2 |= 1 << mapping[b.bit_length() - 1]
                if rt1[A1] != rt2[A2]:
                    ok = False
                    break
                if sub == 0:
                    break
                sub = (sub - 1) & assigned1
            if ok and extend(i + 1, assigned1 | bit1):
                return True
            used[j] = False
            mapping[i] = -1
        return False

    if extend(0, 0):
        return tuple(mapping)
    return None


def reference_histogram_search(M1: Matroid, M2: Matroid) -> tuple[int, ...] | None:
    """find_isomorphism without pair rows: candidates by element
    histogram, each assignment checked by one gather of its prefix
    images, whatever the number of dead ends."""
    n = M1.n
    if M2.n != n:
        return None
    h1, h2 = minors._element_histograms(M1), minors._element_histograms(M2)
    if sorted(h1) != sorted(h2):
        return None
    candidates = [[j for j in range(n) if h2[j] == h] for h in h1]
    r1 = M1.rank_table
    r2 = np.frombuffer(M2.rank_table, dtype=np.uint8)

    def extend(img: np.ndarray) -> np.ndarray | None:
        i = len(img).bit_length() - 1
        if i == n:
            return img
        want = r1[1 << i:2 << i]
        used = int(img[-1])
        for j in candidates[i]:
            if not used >> j & 1 and r2[img | 1 << j].tobytes() == want:
                found = extend(np.concatenate((img, img | 1 << j)))
                if found is not None:
                    return found
        return None

    img = extend(np.zeros(1, dtype=np.intp))
    if img is None:
        return None
    return tuple(int(img[1 << i]).bit_length() - 1 for i in range(n))


def reference_has_minor(M: Matroid, N: Matroid) -> MinorSpec | None:
    """Every (C, D) candidate built as a Matroid, then compared by
    circuit sizes and flats per rank before the isomorphism test."""
    dr = M.full_rank() - N.full_rank()
    dn = M.n - N.n
    if dr < 0 or dn < dr:
        return None
    del_size = dn - dr
    rt = M.rank_table
    inv_N = _global_invariants(N)
    for C in range(M.E + 1):
        if C.bit_count() != dr or rt[C] != dr:
            continue
        MC = contract(M, C)
        rest = MC.E
        for D in range(rest + 1):
            if D.bit_count() != del_size:
                continue
            cand = delete(MC, D)
            if _global_invariants(cand) != inv_N:
                continue
            if reference_find_isomorphism(cand, N) is not None:
                # express D in the original ground set
                d_names = MC.names(D)
                return MinorSpec(M.mask(d_names), C)
    return None


def loop_has_minor(M: Matroid, N: Matroid) -> MinorSpec | None:
    """``has_minor`` for one host, as it was before the stacked search:
    the host's candidates gathered a batch at a time, and each that
    passes the histogram rebuilt by ``minor`` for the isomorphism test."""
    dr = M.full_rank() - N.full_rank()
    dn = M.n - N.n
    if dr < 0 or dn < dr:
        return None
    m = N.n
    width = (m + 1) ** 2
    target = np.bincount(minors._rank_keys(m, N.ranks), minlength=width)
    rt = M.ranks
    Cs = np.flatnonzero((subset_sizes(M.n) == dr) & (rt == dr))
    free = M.n - dr
    outside = 1 << minors._bit_positions(~Cs, M.n, free)
    D_local = np.flatnonzero(subset_sizes(free) == dn - dr)
    kept = minors._bit_positions(~D_local, free, m)
    total = len(Cs) * len(D_local)
    rows = max(1, minors._BATCH_CELLS >> m)
    for start in range(0, total, rows):
        c, d = np.divmod(np.arange(start, min(start + rows, total)), len(D_local))
        idx = subset_index(outside[c[:, None], kept[d]])
        C = Cs[c, None]
        band = width * np.arange(len(idx))[:, None]
        flat = (minors._rank_keys(m, rt[idx | C] - rt[C]) + band).ravel()
        hist = np.bincount(flat, minlength=len(idx) * width).reshape(-1, width)
        for i in np.flatnonzero((hist == target).all(axis=1)).tolist():
            spec = MinorSpec(M.E & ~int(idx[i, -1]) & ~int(C[i, 0]), int(C[i, 0]))
            if find_isomorphism(minor(M, spec), N) is not None:
                return spec
    return None


def reference_laminar_table(system: LaminarCapacitySystem) -> bytes:
    """Greedy maximum capacity-respecting subset of every X, element by element."""
    fam, caps = system.family, system.capacities
    table = bytearray(1 << len(system.labels))
    for X in range(1, len(table)):
        counts = [0] * len(fam)
        m = X
        while m:
            bit = m & -m
            m ^= bit
            hit = [i for i, A in enumerate(fam) if A & bit]
            if all(counts[i] < caps[i] for i in hit):
                for i in hit:
                    counts[i] += 1
                table[X] += 1
    return bytes(table)


def reference_transversal_table(presentation: NestedPresentation) -> bytes:
    """Augmenting-path maximum matching of every X into the blocks."""
    blocks = presentation.blocks
    table = bytearray(1 << len(presentation.labels))
    for X in range(1, len(table)):
        match = [0] * len(blocks)

        def augment(bit, seen):
            for b, B in enumerate(blocks):
                if B & bit and not seen[b]:
                    seen[b] = True
                    if not match[b] or augment(match[b], seen):
                        match[b] = bit
                        return True
            return False

        m = X
        while m:
            bit = m & -m
            m ^= bit
            table[X] += augment(bit, [False] * len(blocks))
    return bytes(table)


def reference_cyclic_flat_table(family: CyclicFlatFamily) -> bytes:
    """min over members (Z, r) of r + |X - Z|, one subset at a time."""
    return bytes(min(r + (X & ~Z).bit_count() for Z, r in family.entries)
                 for X in range(1 << len(family.labels)))


def reference_circuit_table(n: int, circuits) -> bytes:
    """r(A) = |A| when A contains no listed circuit, else the largest
    r(A - e), one subset at a time."""
    circ_set = set(circuits)
    dep = bytearray(1 << n)
    table = bytearray(1 << n)
    for A in range(1, 1 << n):
        d = A in circ_set
        r = 0
        m = A
        while m:
            bit = m & -m
            m ^= bit
            sub = A ^ bit
            d = d or dep[sub]
            if table[sub] > r:
                r = table[sub]
        dep[A] = 1 if d else 0
        table[A] = r if d else A.bit_count()
    return bytes(table)


def reference_parallel_connection(M1: Matroid, p1: str, M2: Matroid, p2: str) -> Matroid:
    """Circuits C(M1) ∪ C(M2) ∪ {(C1 - p) ∪ (C2 - p)} over pairs of
    basepoint circuits, the table rebuilt from them by the circuit DP."""
    i1, i2 = M1.labels.index(p1), M2.labels.index(p2)
    rest2 = [i for i in range(M2.n) if i != i2]
    labels = M1.labels + _disjoint_labels(M1.labels, tuple(M2.labels[i] for i in rest2))
    map2 = {i: M1.n + pos for pos, i in enumerate(rest2)}
    map2[i2] = i1
    c1 = list(M1.circuits())
    c2 = [sum(1 << map2[i] for i in range(M2.n) if C >> i & 1) for C in M2.circuits()]
    p = 1 << i1
    cross = [(a ^ p) | (b ^ p) for a in c1 if a & p for b in c2 if b & p]
    return Matroid(labels, reference_circuit_table(len(labels), c1 + c2 + cross))


def reference_glued_catalog(name: str) -> Matroid:
    """N_n(k), P_n(k) and the Section 1 example, glued by the reference."""
    pc = reference_parallel_connection
    m = re.fullmatch(r"sec1pc\(k=(\d+)\)", name)
    if m:
        k = int(m.group(1))
        out = pc(circuit_matroid(k + 1, "d"), "d1", circuit_matroid(3, "t"), "t1")
        return pc(out, "d2", circuit_matroid(3, "s"), "s1")
    family, n, k = re.fullmatch(r"(nn|pn)\(n=(\d+),k=(\d+)\)", name).groups()
    n, k = int(n), int(k)
    central, arm = (k + 2, n - k) if family == "nn" else (k + 1, n - k + 1)
    out = pc(circuit_matroid(central, "c"), "c1", circuit_matroid(arm, "u"), "u1")
    return truncate(pc(out, "c2", circuit_matroid(arm, "v"), "v1"), n)


def reference_fano_table() -> bytes:
    lines = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    line_masks = {sum(1 << i for i in line) for line in lines}
    table = bytearray(1 << 7)
    for A in range(1 << 7):
        pc = A.bit_count()
        if pc <= 2:
            table[A] = pc
        elif pc == 3:
            table[A] = 2 if A in line_masks else 3
        else:
            table[A] = 3
    return bytes(table)


def reference_random_sparse_paving(rng: random.Random, max_elements: int) -> Matroid:
    """The corpus generator's draws, its table filled one subset at a time."""
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
    chosen_set = set(chosen)
    table = bytearray(1 << n)
    for A in range(1 << n):
        table[A] = r - 1 if A in chosen_set else min(A.bit_count(), r)
    return Matroid(labels, bytes(table))


def reference_random_named_minor(rng: random.Random, max_elements: int) -> Matroid:
    """The corpus generator's draws, one delete or contract per step."""
    base = catalog_matroids(MAX_ELEMENTS)
    name, M = base[rng.randrange(len(base))]
    while M.n > max_elements or (M.n > 1 and rng.random() < 0.5):
        i = rng.randrange(M.n)
        bit = 1 << i
        M = delete(M, bit) if rng.random() < 0.5 else contract(M, bit)
    return M


def circuits_from_cyclic_flats(family: CyclicFlatFamily) -> tuple[int, ...]:
    """Circuits directly from the family: minimal S with S ⊆ Z, |S| = r(Z)+1."""
    v = validate_z_axioms(family)
    if v is not None:
        raise ZAxiomError(v)
    cand: set[int] = set()
    for Z, r in family.entries:
        bits = [i for i in range(Z.bit_length()) if Z >> i & 1]
        if r + 1 > len(bits):
            continue
        for combo in itertools.combinations(bits, r + 1):
            mask = 0
            for i in combo:
                mask |= 1 << i
            cand.add(mask)
    minimal = [
        S
        for S in cand
        if not any(T != S and T & ~S == 0 for T in cand)
    ]
    return tuple(sorted(minimal, key=lambda c: (c.bit_count(), c)))


def _all_unnested_pairs(M: Matroid):
    """Unnested circuit pairs over every circuit, spanning ones included."""
    circs = M.circuits()
    cls = [M.closure(C) for C in circs]
    for i in range(len(circs)):
        for j in range(i + 1, len(circs)):
            if circs[i] & ~cls[j] and circs[j] & ~cls[i]:
                yield circs[i], circs[j], cls[i], cls[j]


def reference_k_laminar(M: Matroid, k: int):
    """First unnested pair over all circuits meeting in >= k elements."""
    return next(((C1, C2) for C1, C2, _, _ in _all_unnested_pairs(M)
                 if (C1 & C2).bit_count() >= k), None)


def reference_circuit_form(M: Matroid, k: int):
    """First unnested pair over all circuits with r(cl C1 ∩ cl C2) >= k."""
    return next(((C1, C2) for C1, C2, F1, F2 in _all_unnested_pairs(M)
                 if M.rank_table[F1 & F2] >= k), None)


def _first_incomparable(flats):
    for i in range(len(flats)):
        for j in range(i + 1, len(flats)):
            if flats[i] & ~flats[j] and flats[j] & ~flats[i]:
                return flats[i], flats[j]
    return None


def reference_nested(M: Matroid):
    pair = _first_incomparable(M.hamiltonian_flats())
    return None if pair is None else (0, *pair)


def reference_chain_form(M: Matroid, k: int):
    """First independent k-set X, in mask order, whose Hamiltonian flats
    are not a chain, with the first incomparable pair containing it."""
    for X in range(M.E + 1):
        if X.bit_count() == k and M.rank_table[X] == k:
            pair = _first_incomparable([F for F in M.hamiltonian_flats() if F & X == X])
            if pair is not None:
                return (X, *pair)
    return None


def reference_closure_witness(M: Matroid, k: int):
    """First incomparable pair of Hamiltonian flats, in their order, that
    both contain an independent k-set, with X the least such set over
    every mask."""
    ham = M.hamiltonian_flats()
    for i in range(len(ham)):
        for j in range(i + 1, len(ham)):
            F1, F2 = ham[i], ham[j]
            if F1 & ~F2 and F2 & ~F1:
                for X in range(M.E + 1):
                    if X & ~(F1 & F2) == 0 and X.bit_count() == k == M.rank_table[X]:
                        return X, F1, F2
    return None


def reference_hamiltonian_extensions(M: Matroid):
    """``lem-hamcir``'s claim scanned at every k in 0..r(M) at which M
    is k-laminar."""
    ham = set(M.hamiltonian_flats())
    for k in range(M.full_rank() + 1):
        if not is_k_laminar(M, k):
            continue
        for C in M.circuits():
            if C.bit_count() < 2 * k - 1:
                continue
            clC = M.closure(C)
            for e in range(M.n):
                bit = 1 << e
                if clC & bit:
                    continue
                F = M.closure(C | bit)
                if M.rank(F & ~clC) < 2:
                    continue
                if F not in ham:
                    return (f"cl(C+{M.labels[e]}) not a spanning-circuit flat "
                            f"at k={k}", C, F)
    return None


def reference_min_k(witness, M: Matroid) -> int:
    """Count k up from 0 until the reference scan finds no violation."""
    k = 0
    while witness(M, k) is not None:
        k += 1
    return k


def reference_circuits(M: Matroid) -> tuple[int, ...]:
    """Every mask, one bit at a time: rank |A| - 1 and every A - x
    independent."""
    rt = M.rank_table
    found = []
    for A in range(1, M.E + 1):
        pc = A.bit_count()
        if rt[A] != pc - 1:
            continue
        m = A
        minimal = True
        while m:
            bit = m & -m
            m ^= bit
            if rt[A ^ bit] != pc - 1:
                minimal = False
                break
        if minimal:
            found.append(A)
    found.sort(key=lambda c: (c.bit_count(), c))
    return tuple(found)


def reference_flats(M: Matroid) -> tuple[int, ...]:
    """Every mask, one bit at a time: no element outside keeps the rank."""
    rt = M.rank_table
    found = []
    for A in range(M.E + 1):
        rA = rt[A]
        rest = M.E & ~A
        flat = True
        while rest:
            bit = rest & -rest
            rest ^= bit
            if rt[A | bit] == rA:
                flat = False
                break
        if flat:
            found.append(A)
    found.sort(key=lambda f: (f.bit_count(), f))
    return tuple(found)


def reference_cyclic_flats(M: Matroid) -> tuple[tuple[int, int], ...]:
    """The flats, one bit at a time: no element inside lowers the rank."""
    rt = M.rank_table
    found = []
    for F in reference_flats(M):
        rF = rt[F]
        m = F
        cyclic = True
        while m:
            bit = m & -m
            m ^= bit
            if rt[F ^ bit] != rF:
                cyclic = False
                break
        if cyclic:
            found.append((F, rF))
    return tuple(found)


def reference_circuit_pass(ms, n: int) -> None:
    """The circuit caches of a stack of tables over ``n`` elements, by
    gathers: every set of rank |A| - 1, read in (size, mask) order, is
    kept when every A - x has its rank.  Set A of row i sits at
    ``i << n | A`` of the flat stack; ``at`` counts the same positions
    with each row read in (size, mask) order, so it ascends and
    ``i << n`` splits off the rows before i."""
    R = np.frombuffer(b"".join(M.rank_table for M in ms), dtype=np.uint8)
    E = (1 << n) - 1
    bits = 1 << np.arange(n)
    order = np.argsort(subset_sizes(n), kind="stable")
    at = np.flatnonzero(R.reshape(-1, E + 1)[:, order] == subset_sizes(n)[order] - 1)
    F = at >> n << n | order[at & E]
    rF = R[F]
    keep = (R[F[:, None] & ~bits] == rF[:, None]).all(1)
    at, F, rF = at[keep], F[keep], rF[keep]
    ns = rF < R[F | E]
    Fn, rFn = F[ns], rF[ns]
    closures = ((R[Fn[:, None] | bits] == rFn[:, None]) @ bits).tolist()
    circs, nonspanning = (F & E).tolist(), (Fn & E).tolist()
    bounds = np.arange(len(ms) + 1) << n
    ends, ns_ends = (np.searchsorted(x, bounds).tolist() for x in (at, at[ns]))
    for M, a, b, c, d in zip(ms, ends, ends[1:], ns_ends, ns_ends[1:]):
        M._cache["circuits"] = tuple(circs[a:b])
        M._cache["nonspanning"] = tuple(nonspanning[c:d])
        M._cache["nonspanning_closures"] = tuple(closures[c:d])


def reference_validate_rank_axioms(table, n: int) -> AxiomViolation | None:
    """R1, then R2 per bit and R3 per pair of bits, each over a mask array
    of the bases filtered per call and four gathers from the table."""
    size = 1 << n
    if len(table) != size:
        raise ValueError(f"rank table must have {size} entries, got {len(table)}")
    r = np.asarray(bytearray(bytes(table)), dtype=np.int16) if isinstance(
        table, (bytes, bytearray)
    ) else np.asarray(table, dtype=np.int16)

    sizes = subset_sizes(n)
    bad = (r < 0) | (r > sizes)
    if bad.any():
        a = int(np.argmax(bad))
        return AxiomViolation("R1", (a,))

    masks = np.arange(size, dtype=np.int64)
    for i in range(n):
        bit = 1 << i
        base = masks[(masks & bit) == 0]
        viol = r[base] > r[base | bit]
        if viol.any():
            a = int(base[int(np.argmax(viol))])
            return AxiomViolation("R2", (a, a | bit))

    for i in range(n):
        bi = 1 << i
        for j in range(i + 1, n):
            bj = 1 << j
            base = masks[(masks & (bi | bj)) == 0]
            viol = r[base | bi] + r[base | bj] < r[base | bi | bj] + r[base]
            if viol.any():
                a = int(base[int(np.argmax(viol))])
                return AxiomViolation("R3", (a | bi, a | bj))
    return None


def _meet(members: list[int], X: int, Y: int) -> int | None:
    below = [Z for Z in members if Z & ~(X & Y) == 0]
    for m in below:
        if all(z & ~m == 0 for z in below):
            return m
    return None


def _join(members: list[int], X: int, Y: int) -> int | None:
    above = [Z for Z in members if (X | Y) & ~Z == 0]
    for j in above:
        if all(j & ~z == 0 for z in above):
            return j
    return None


def reference_validate_z_axioms(family: CyclicFlatFamily) -> ZViolation | None:
    """Z0-Z3 by scans over the member list: each pair's meet and join
    found by a quadratic search, once for Z0 and again for Z3."""
    entries = family.entries
    if not entries:
        return ZViolation("Z1", ())
    members = [m for m, _ in entries]
    rank = dict(entries)

    for X, Y in itertools.combinations(members, 2):
        if _meet(members, X, Y) is None or _join(members, X, Y) is None:
            return ZViolation("Z0", (X, Y))

    bottoms = [m for m in members if not any(z & ~m == 0 and z != m for z in members)]
    bottom = min(bottoms, key=lambda m: (m.bit_count(), m))
    if len(bottoms) > 1:
        return ZViolation("Z0", tuple(sorted(bottoms)[:2]))
    if rank[bottom] != 0:
        return ZViolation("Z1", (bottom,))

    for X, Y in itertools.permutations(members, 2):
        if X & ~Y == 0 and X != Y:  # X ⊊ Y
            diff = rank[Y] - rank[X]
            if not 0 < diff < (Y & ~X).bit_count():
                return ZViolation("Z2", (X, Y))

    for X, Y in itertools.combinations(members, 2):
        mt = _meet(members, X, Y)
        jn = _join(members, X, Y)
        lhs = rank[X] + rank[Y]
        rhs = rank[jn] + rank[mt] + ((X & Y) & ~mt).bit_count()
        if lhs < rhs:
            return ZViolation("Z3", (X, Y))
    return None


def reference_analyze_report(M: Matroid) -> dict:
    """The ``analyze`` report as a dict holding one label list per set."""
    return {
        "elements": list(M.labels),
        "rank": M.full_rank(),
        "circuits": [list(M.names(C)) for C in M.circuits()],
        "nonspanning_circuits": [list(M.names(C)) for C in M.nonspanning_circuits()],
        "cyclic_flats": [[list(M.names(F)), r] for F, r in M.cyclic_flats()],
        "hamiltonian_flats": [list(M.names(F)) for F in M.hamiltonian_flats()],
        "nested": bool(is_nested(M)),
        "laminar": bool(is_laminar(M)),
        "paving": is_paving(M),
        "min_laminar_k": min_laminar_k(M),
        "min_closure_laminar_k": min_closure_laminar_k(M),
    }


def reference_analyze_json(M: Matroid) -> str:
    """``analyze --json`` through the json module's indenting encoder."""
    return json.dumps(reference_analyze_report(M), indent=2) + "\n"


def reference_analyze_text(M: Matroid) -> str:
    """Plain ``analyze``, one ``print`` per line."""
    report = reference_analyze_report(M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        print(f"elements ({M.n}): {' '.join(M.labels)}")
        print(f"rank: {report['rank']}")
        print(f"circuits ({len(report['circuits'])}):")
        for C in M.circuits():
            print("  {" + " ".join(M.names(C)) + "}")
        print(f"cyclic flats ({len(report['cyclic_flats'])}):")
        for F, r in M.cyclic_flats():
            print("  {" + " ".join(M.names(F)) + "}" + f" rank {r}")
        print(f"hamiltonian flats ({len(report['hamiltonian_flats'])}):")
        for F in M.hamiltonian_flats():
            print("  {" + " ".join(M.names(F)) + "}")
        for key in ("nested", "laminar", "paving"):
            print(f"{key}: {'yes' if report[key] else 'no'}")
        print(f"min_laminar_k: {report['min_laminar_k']}")
        print(f"min_closure_laminar_k: {report['min_closure_laminar_k']}")
    return out.getvalue()


@st.composite
def multigraphs(draw):
    """Loops, parallel edges, isolated vertices and the empty edge set."""
    nv = draw(st.integers(1, 12))
    vertex = st.integers(0, nv - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=10))
    return Multigraph(nv, tuple(edges))


@st.composite
def laminar_systems(draw):
    """Members cut from E or from earlier members, kept when laminar with
    all earlier ones: duplicates, empty members, capacities 0 and above
    |A|, and elements in no member all occur."""
    n = draw(st.integers(0, 12))
    full = (1 << n) - 1
    family = []
    for p, cut in draw(st.lists(st.tuples(st.integers(0, 15), st.integers(0, full)),
                                max_size=7)):
        parents = [full, *family]
        A = parents[p % len(parents)] & cut
        if all(not A & B or not A & ~B or not B & ~A for B in family):
            family.append(A)
    caps = draw(st.lists(st.integers(0, 14), min_size=len(family),
                         max_size=len(family)))
    return LaminarCapacitySystem([f"e{i}" for i in range(n)], family, caps)


@st.composite
def nested_presentations(draw):
    """B_j = B_{j-1} | d_j, so empty and repeated blocks occur, and m = 0."""
    n = draw(st.integers(0, 12))
    adds = draw(st.lists(st.one_of(st.just(0), st.integers(0, (1 << n) - 1)),
                         max_size=6))
    blocks = list(itertools.accumulate(adds, lambda B, d: B | d))
    return NestedPresentation([f"e{i}" for i in range(n)], blocks)


_CORPUS = generate_corpus(CorpusSpec(seed=21, count=120, max_elements=8))


def small_matroids():
    """Matroids on 0..12 elements: laminar, graphic and seeded-corpus ones."""
    return st.one_of(laminar_systems().map(laminar_matroid),
                     multigraphs().map(cycle_matroid),
                     st.sampled_from(_CORPUS))


def _basepoints(M: Matroid) -> list[str]:
    """Labels of the elements that are neither loops nor coloops."""
    rt = M.rank_table
    return [M.labels[i] for i in range(M.n)
            if rt[1 << i] and rt[M.E ^ 1 << i] == M.full_rank()]


_GLUEABLE = [M for M in _CORPUS if _basepoints(M)]


@st.composite
def basepointed_pairs(draw):
    """Two corpus members and basepoints, at most 12 elements once
    glued; most members are labelled e1, e2, ..., so labels clash."""
    M1 = draw(st.sampled_from(_GLUEABLE))
    M2 = draw(st.sampled_from([M for M in _GLUEABLE if M1.n + M.n <= 13]))
    return M1, draw(st.sampled_from(_basepoints(M1))), M2, draw(st.sampled_from(_basepoints(M2)))


@st.composite
def circuit_families(draw):
    """Random masks over 1..8 elements: antichains or not, matroidal or not."""
    n = draw(st.integers(1, 8))
    return n, draw(st.lists(st.integers(1, (1 << n) - 1), max_size=6))


class TestCycleMatroidKernel:
    @PROPERTY
    @given(multigraphs())
    def test_matches_union_find(self, G):
        assert cycle_matroid(G).rank_table == reference_cycle_table(G)

    def test_sixteen_edges_on_many_vertices(self):
        # a 16-cycle on vertex ids spread over 0..39, so most vertices are
        # isolated; the largest table the DP builds
        ends = list(range(0, 40, 5)) + list(range(1, 40, 5))
        edges = tuple(zip(ends, ends[1:] + ends[:1]))
        G = Multigraph(40, edges)
        assert len(edges) == 16
        assert cycle_matroid(G).rank_table == reference_cycle_table(G)

    def test_sixteen_edges_stay_small_in_memory(self):
        """The DP keeps only the labels of endpoints that later edges read:
        the 16-cycle above peaked at 2.13 MiB with every endpoint's labels."""
        ends = list(range(0, 40, 5)) + list(range(1, 40, 5))
        G = Multigraph(40, tuple(zip(ends, ends[1:] + ends[:1])))
        cycle_matroid(G)
        tracemalloc.start()
        try:
            cycle_matroid(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 19, peak

    def test_sixteen_edges_in_awkward_orders(self):
        """Endpoints last read early, late or never again, one graph at a
        time and all in one batch.  A forest's rank is its size, which is
        what the union-find reference gives it at every subset."""
        forests = [Multigraph(32, tuple((2 * i, 2 * i + 1) for i in range(16))),  # matching
                   Multigraph(17, tuple((i, i + 1) for i in range(16))),  # path
                   Multigraph(17, tuple((16 - i, 15 - i) for i in range(16))),  # backwards
                   Multigraph(17, tuple((9, i + (i >= 9)) for i in range(16)))]  # star
        loops_last = Multigraph(21, tuple((i, (i + 1) % 12) for i in range(12))
                                + ((3, 3), (20, 20), (0, 0), (7, 7)))
        want = [bytes(core.subset_sizes(16).astype(np.uint8))] * 4
        want.append(reference_cycle_table(loops_last))
        graphs = [*forests, loops_last]
        assert [cycle_matroid(G).rank_table for G in graphs] == want
        assert [M.rank_table for M in cycle_matroids(graphs)] == want

    # the oracle runs once per graph of each list, hence fewer examples
    @settings(PROPERTY, max_examples=100)
    @given(st.lists(multigraphs(), max_size=12))
    def test_batches_match_union_find(self, graphs):
        got = [(M.labels, M.rank_table) for M in cycle_matroids(graphs)]
        assert got == [(G.labels, reference_cycle_table(G)) for G in graphs]

    @pytest.mark.parametrize("cells", [1, 1 << 6, core._TABLE_CELLS])
    def test_fixed_batch(self, monkeypatch, cells):
        """No edges, loops only, isolated vertices and 16 edges, with the
        DP split down to one graph at the smallest cell cap."""
        ends = list(range(0, 40, 5)) + list(range(1, 40, 5))
        graphs = [Multigraph(3, ()), Multigraph(1, ((0, 0), (0, 0))),
                  Multigraph(40, tuple(zip(ends, ends[1:] + ends[:1]))),
                  Multigraph(9, ((8, 8), (2, 7), (7, 2))), Multigraph(1, ()),
                  Multigraph(6, ((0, 5), (5, 5), (3, 1)))]
        want = [reference_cycle_table(G) for G in graphs]
        monkeypatch.setattr(core, "_TABLE_CELLS", cells)
        assert [M.rank_table for M in cycle_matroids(graphs)] == want
        assert cycle_matroids([]) == []


class TestMinorKernel:
    @PROPERTY
    @given(st.sampled_from(_CORPUS), st.integers(0, (1 << 16) - 1),
           st.integers(0, (1 << 16) - 1))
    def test_delete_and_contract_match_subset_scan(self, M, d, c):
        D, C = d & M.E, c & M.E
        for drop, con, got in ((D, 0, delete(M, D)), (C, C, contract(M, C)),
                               (D | C, C, minor(M, MinorSpec(D & ~C, C)))):
            assert (got.labels, got.rank_table) == reference_minor(M, drop, con)

    def test_empty_and_full_masks(self):
        M = named_matroid("f7")
        assert delete(M, 0) == M and contract(M, 0) == M
        for N in (delete(M, M.E), contract(M, M.E)):
            assert N.n == 0 and N.rank_table == b"\x00"

    @PROPERTY
    @given(st.sampled_from([Matroid((), b"\x00"), *_CORPUS]))
    def test_single_element_minors_match_subset_scan(self, M):
        got = [(N.labels, N.rank_table) for N in single_element_minors(M)]
        assert got == [reference_minor(M, 1 << p, c) for p in range(M.n)
                       for c in (0, 1 << p)]

    @PROPERTY
    @given(st.integers(0, 2**32 - 1), st.integers(3, 12))
    def test_random_named_minor_in_one_gather(self, seed, max_elements):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got, = minors.minors_of([corpus._random_named_minor(rng, max_elements)])
        want = reference_random_named_minor(ref_rng, max_elements)
        assert (got.labels, got.rank_table) == (want.labels, want.rank_table)
        assert rng.getstate() == ref_rng.getstate()


# built here, not read from the registry the predicates use
_U24 = uniform(2, 4)
_TERNARY_MINORS = (uniform(2, 5), uniform(3, 5), named_matroid("f7"), named_matroid("f7star"))


class TestNamedClasses:
    @PROPERTY
    @given(st.sampled_from(_CORPUS))
    def test_binary_and_ternary_match_minor_search(self, M):
        assert is_binary(M) == (has_minor(M, _U24) is None)
        assert is_ternary(M) == all(has_minor(M, N) is None for N in _TERNARY_MINORS)


def _unvalidated_outputs(M: Matroid):
    """What each constructor that skips the rank-axiom check builds from M."""
    yield M.dual()
    for i in range(M.n):
        yield delete(M, 1 << i)
        yield contract(M, 1 << i)
    if M.full_rank():
        yield truncate(M, M.full_rank() - 1)
    if M.n <= 13:
        yield direct_sum(M, uniform(1, 3))
    yield from_cyclic_flats(CyclicFlatFamily(M.labels, M.cyclic_flats()))
    r = M.full_rank()
    for X in M.circuits():
        if M.rank_table[X] == r - 1 and M.is_flat(X):
            yield relax_circuit_hyperplane(M, X)
            break


class TestTheoremBackedConstructors:
    """Constructors that trust a theorem instead of re-checking R1-R3."""

    def test_corpus_members_and_their_derivatives_are_matroids(self):
        # the corpus itself covers cycle, laminar, transversal, sparse
        # paving, catalog and minor constructions
        checked = 0
        for M in _CORPUS:
            for N in (M, *_unvalidated_outputs(M)):
                assert validate_rank_axioms(N.rank_table, N.n) is None, N
                checked += 1
        assert checked > 10 * len(_CORPUS)

    @pytest.mark.parametrize("name", ["f7", "f7star", "mk23minus"])
    def test_catalog_matroids(self, name):
        M = named_matroid(name)
        assert validate_rank_axioms(M.rank_table, M.n) is None

    def test_uniform(self):
        for n in range(7):
            for r in range(n + 1):
                M = uniform(r, n)
                assert validate_rank_axioms(M.rank_table, n) is None


class TestPresentationRankFormulas:
    @PROPERTY
    @given(laminar_systems())
    def test_laminar_matches_greedy(self, system):
        assert laminar_matroid(system).rank_table == reference_laminar_table(system)

    @PROPERTY
    @given(nested_presentations())
    def test_transversal_matches_matching(self, presentation):
        got = transversal_matroid(presentation).rank_table
        assert got == reference_transversal_table(presentation)

    @PROPERTY
    @given(st.sampled_from(_CORPUS))
    def test_cyclic_flats_match_subset_scan(self, M):
        family = CyclicFlatFamily(M.labels, M.cyclic_flats())
        assert from_cyclic_flats(family).rank_table == reference_cyclic_flat_table(family)

    def test_degenerate_presentations(self):
        # no members, no blocks, and the empty ground set
        for n in (0, 3):
            labels = [f"e{i + 1}" for i in range(n)]
            assert laminar_matroid(LaminarCapacitySystem(labels, (), ())) == uniform(n, n)
            assert transversal_matroid(NestedPresentation(labels, ())) == uniform(0, n)

    def test_values_beyond_the_table_dtype(self):
        # capacities and block counts come from files unbounded
        labels = ("e1", "e2", "e3")
        system = LaminarCapacitySystem(labels, (0b111, 0b011), (10**6, 40000))
        assert laminar_matroid(system) == uniform(3, 3)
        chain = NestedPresentation(labels, (0b111,) * 40000)
        assert transversal_matroid(chain) == uniform(3, 3)


class TestPairScans:
    """The predicates scan nonspanning circuits or Hamiltonian flats through
    one pair generator each; the oracles scan every circuit pair, walk the
    chain definition over every mask and count k up one at a time."""

    @staticmethod
    def _assert_matches_oracles(M):
        for k in range(M.full_rank() + 2):
            assert is_k_laminar(M, k).witness == reference_k_laminar(M, k)
            verdict = is_k_closure_laminar(M, k)
            assert verdict.holds == (reference_chain_form(M, k) is None)
            assert verdict.witness == reference_closure_witness(M, k)
        nested = is_nested(M)
        assert nested == is_k_closure_laminar(M, 0)
        assert nested.witness == reference_nested(M)
        assert min_laminar_k(M) == reference_min_k(reference_k_laminar, M)
        assert min_closure_laminar_k(M) == reference_min_k(reference_chain_form, M)

    @PROPERTY
    @given(st.sampled_from(_CORPUS))
    def test_verdicts_witnesses_and_min_k(self, M):
        self._assert_matches_oracles(M)

    @pytest.mark.parametrize("name", ["mk23", "mk23minus", "f7", "f7star", "mk4"])
    def test_catalog(self, name):
        self._assert_matches_oracles(named_matroid(name))


@st.composite
def hidden_hamiltonian_flats(draw):
    """A corpus member and its Hamiltonian flats with up to two of them
    hidden, so that the claim also fails and returns its witness."""
    M = draw(st.sampled_from(_CORPUS))
    ham = M.hamiltonian_flats()
    hidden = draw(st.lists(st.sampled_from(ham), max_size=2)) if ham else []
    return M, tuple(F for F in ham if F not in hidden)


class TestHamiltonianExtensions:
    """``lem-hamcir`` scans the circuits once, at the least k for which M
    is k-laminar; the oracle scans them at every such k."""

    @PROPERTY
    @given(hidden_hamiltonian_flats())
    def test_least_k_matches_every_k(self, case):
        M, shown = case
        with mock.patch.object(Matroid, "hamiltonian_flats", lambda self: shown):
            assert checks._hamiltonian_extensions(M) == reference_hamiltonian_extensions(M)

    def test_every_matroid_is_rank_laminar(self):
        # two nonspanning circuits share at most r(M) - 1 elements, so the
        # least k searched in 0..r(M) always exists
        for M in _CORPUS + [M for _, M in catalog_matroids(MAX_ELEMENTS)]:
            assert min_laminar_k(M) <= M.full_rank()


def reference_minor_closed(holds, ks, kind: str):
    """The claim of ``_minor_closed`` as it was: every single-element minor
    asked at every k of ``ks(M)`` where M holds."""
    def claim(M, minors):
        kept = [k for k in ks(M) if holds(M, k)]
        for j, M2 in enumerate(minors):
            for k in kept:
                if not holds(M2, k):
                    op = ("delete", "contract")[j % 2]
                    return f"{op} {M.labels[j // 2]} leaves {k}-{kind}", 1 << j // 2
        return None
    return claim


class TestMinorClosedLeastK:
    """The minor-closure claims ask M for its least k and each minor once,
    at the least k of ``ks(M)`` where M holds; the oracle asks every such
    k of every minor.  Foreign minors that fail put the failure at each
    end of the list."""

    CASES = {
        "lem-klam-minor-closed": (is_k_laminar, lambda M: range(M.full_rank() + 1), "laminar"),
        "thm-cl23-minor-closed": (is_k_closure_laminar, lambda M: (2, 3), "closure-laminar"),
    }

    @pytest.mark.parametrize("cid", CASES)
    def test_least_k_matches_every_k(self, cid):
        claim, oracle = checks.CHECKS[cid].claim, reference_minor_closed(*self.CASES[cid])
        members = [*_CORPUS, *checks._sweep_corpus(0)]
        foreign = [named_matroid("mk23"), mn_family(4, 2), mn_family(5, 2), uniform(3, 6)]
        failed = 0
        for M, minors_ in zip(members, minors.single_element_minors_of(members)):
            assert claim(M, minors_) == oracle(M, minors_)
            for j in {0, len(minors_) - 1} if minors_ else ():
                for bad in foreign:
                    forced = [*minors_[:j], bad, *minors_[j + 1:]]
                    got = claim(M, forced)
                    assert got == oracle(M, forced)
                    failed += got is not None
        assert failed > 100


class TestOneExpressionTables:
    def test_subset_sizes(self):
        for n in range(17):
            got = subset_sizes(n)
            assert got.dtype == np.int16 and got.tobytes() == reference_subset_sizes(n).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 1

    def test_subset_sizes_refuses_17_elements(self):
        with pytest.raises(core.MatroidError, match=r"^ground set too large: 17 > 16$"):
            subset_sizes(17)

    def test_uniform(self):
        for n in range(13):
            for r in range(n + 1):
                assert uniform(r, n).rank_table == reference_uniform_table(r, n)

    @PROPERTY
    @given(small_matroids())
    def test_truncate_and_dual(self, M):
        for t in range(M.full_rank() + 1):
            assert truncate(M, t).rank_table == reference_truncate_table(M, t)
        assert M.dual().rank_table == reference_dual_table(M)

    @PROPERTY
    @given(small_matroids(), small_matroids())
    def test_direct_sum(self, M1, M2):
        # at most 12 elements in all, so the oracle stays quick
        M2 = delete(M2, M2.E & ~((1 << max(0, 12 - M1.n)) - 1))
        assert direct_sum(M1, M2).rank_table == reference_direct_sum_table(M1, M2)


_GLUED_CATALOG = [(name, M) for name, M in catalog_matroids(16)
                  if name.startswith(("nn", "pn", "sec1pc"))]


class TestCircuitFreeConstructors:
    """Parallel connection by its rank formula and the circuit table by
    two subset passes, against the circuit lists and per-subset DP they
    replaced; the sparse paving tables against their subset loops."""

    @PROPERTY
    @given(basepointed_pairs())
    def test_parallel_connection_matches_circuit_gluing(self, pair):
        got = parallel_connection(*pair)
        want = reference_parallel_connection(*pair)
        assert (got.labels, got.rank_table) == (want.labels, want.rank_table)

    def test_sixteen_element_gluing(self):
        pair = (uniform(7, 8), "e8", uniform(8, 9), "e1")
        got = parallel_connection(*pair)
        want = reference_parallel_connection(*pair)
        assert got.n == 16
        assert (got.labels, got.rank_table) == (want.labels, want.rank_table)

    @pytest.mark.parametrize("name,M", _GLUED_CATALOG,
                             ids=[name for name, _ in _GLUED_CATALOG])
    def test_glued_catalog(self, name, M):
        want = reference_glued_catalog(name)
        assert (M.labels, M.rank_table) == (want.labels, want.rank_table)

    @PROPERTY
    @given(st.sampled_from(_CORPUS))
    def test_circuit_table_of_corpus_members(self, M):
        got = matroid_from_circuits(M.labels, M.circuits())
        assert got.rank_table == reference_circuit_table(M.n, M.circuits()) == M.rank_table

    @pytest.mark.parametrize("M", [uniform(4, 16), mn_family(8, 0)], ids=["u4_16", "m8_0"])
    def test_circuit_table_on_sixteen_elements(self, M):
        got = matroid_from_circuits(M.labels, M.circuits())
        assert got.rank_table == reference_circuit_table(M.n, M.circuits()) == M.rank_table

    @PROPERTY
    @given(circuit_families())
    def test_circuit_families_accepted_exactly_when_matroidal(self, family):
        n, masks = family
        labels = [f"e{i}" for i in range(n)]
        circs = sorted(set(masks), key=lambda c: (c.bit_count(), c))
        antichain = all(a & ~b and b & ~a for a, b in itertools.combinations(circs, 2))
        table = reference_circuit_table(n, circs)
        matroidal = (antichain and validate_rank_axioms(table, n) is None
                     and list(Matroid(labels, table).circuits()) == circs)
        try:
            got = matroid_from_circuits(labels, masks)
        except core.MatroidError as exc:
            assert not matroidal
            assert ("antichain" in str(exc)) == (not antichain)
        else:
            assert matroidal and got.rank_table == table

    def test_fano(self):
        assert named_matroid("f7").rank_table == reference_fano_table()

    @PROPERTY
    @given(st.integers(0, 2**32 - 1), st.integers(3, 12))
    def test_random_sparse_paving(self, seed, max_elements):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got, = constructions._sparse_pavings([corpus._random_sparse_paving(rng, max_elements)])
        want = reference_random_sparse_paving(ref_rng, max_elements)
        assert (got.labels, got.rank_table) == (want.labels, want.rank_table)
        assert rng.getstate() == ref_rng.getstate()


class TestTrustBoundary:
    """The rank axioms are checked where a table comes from outside the
    library, and nowhere a theorem already guarantees them."""

    @pytest.fixture
    def validations(self, monkeypatch):
        calls = []
        real = core.validate_rank_axioms

        def counting(table, n):
            calls.append(n)
            return real(table, n)

        monkeypatch.setattr(core, "validate_rank_axioms", counting)
        monkeypatch.setattr(formats, "validate_rank_axioms", counting)
        return calls

    def test_glued_catalog_is_not_revalidated(self, validations):
        named_matroid("nn", 8, 2)
        named_matroid("pn", 8, 2)
        named_matroid("sec1pc", k=11)
        assert validations == []
        catalog_matroids.__wrapped__(16)
        assert validations == []

    def test_parsed_circuit_files_are_validated(self, validations):
        parse_matroid("%matroid v1\nn 4\nrepr circuits\n{e1 e2} {e3 e4}\n")
        assert 4 in validations

    def test_constructors_derive_no_family_of_their_result(self, monkeypatch):
        """Neither constructor derives a cached family (circuits, cyclic
        flats, ...) of the table it has just built."""
        families = {M.cyclic_flats(): CyclicFlatFamily(M.labels, M.cyclic_flats())
                    for M in _CORPUS}
        circuits = {(M.labels, M.circuits()) for M in _CORPUS}
        calls = []
        real_prime = core.prime
        monkeypatch.setattr(core, "prime",
                            lambda ms, key: calls.append(key) or real_prime(ms, key))
        for family in families.values():
            from_cyclic_flats(family)
        for labels, circs in circuits:
            matroid_from_circuits(labels, circs)
        assert calls == []


@st.composite
def reordered_families(draw):
    """A corpus member and its cyclic flats in a drawn order."""
    M = draw(st.sampled_from(_CORPUS))
    return M, CyclicFlatFamily(M.labels, draw(st.permutations(M.cyclic_flats())))


class TestConstructorRoundTrips:
    """What ``matroid_from_circuits`` and ``from_cyclic_flats`` no longer
    re-derive from their own result: the circuits of the circuit table
    are the listed antichain, and a Z0-Z3 family is the cyclic-flat
    lattice of the synthesized matroid (Bonin and de Mier)."""

    @PROPERTY
    @given(circuit_families())
    # {e0 e1} and {e1 e2}: an antichain whose table fails R3
    @example((3, [0b011, 0b110]))
    def test_circuit_table_has_exactly_the_listed_circuits(self, family):
        n, masks = family
        circs = sorted(set(masks), key=lambda c: (c.bit_count(), c))
        if any(a & b == a for a, b in itertools.combinations(circs, 2)):
            return  # not an antichain: rejected before any table is built
        table = reference_circuit_table(n, circs)
        M = Matroid([f"e{i}" for i in range(n)], table, validate=False)
        assert M.circuits() == reference_circuits(M) == tuple(circs)

    @PROPERTY
    @given(reordered_families())
    def test_cyclic_flats_synthesize_the_member(self, case):
        M, family = case
        assert validate_z_axioms(family) is None
        got = from_cyclic_flats(family)
        assert set(got.cyclic_flats()) == set(family.entries)
        assert (got.labels, got.rank_table) == (M.labels, M.rank_table)


def _rank_histogram(M: Matroid) -> np.ndarray:
    """Counts of (|A|, r(A)) over all subsets A."""
    keys = subset_sizes(M.n).astype(np.intp) * (M.n + 1)
    return np.bincount(keys + np.frombuffer(M.rank_table, dtype=np.uint8),
                       minlength=(M.n + 1) ** 2)


def _loops_and_coloops(M: Matroid) -> Matroid:
    return direct_sum(M, direct_sum(uniform(0, 2), uniform(1, 1)))


def _seed0_tutte_twins() -> tuple[Matroid, Matroid]:
    """Members 7 and 990 of the seed-0, 1000-member, 8-element corpus:
    rank 4, 7 elements, 17 circuits each, equal (|A|, r(A)) counts, not
    isomorphic (two 4-element circuit-hyperplanes meeting in one element
    versus in two)."""
    a = CyclicFlatFamily(("p1", "x1", "x2", "x3", "y1", "y2", "y3"),
                         ((0, 0), (0b0001111, 3), (0b1110001, 3), (0b1111111, 4)))
    b = CyclicFlatFamily(tuple(f"e{i + 1}" for i in range(7)),
                         ((0, 0), (0b0111001, 3), (0b1100101, 3), (0b1111111, 4)))
    return from_cyclic_flats(a), from_cyclic_flats(b)


class TestMinorSearch:
    """has_minor rejects candidates by one batched (|A|, r(A)) histogram;
    the oracle builds every candidate and compares circuits and flats."""

    @PROPERTY
    @given(st.sampled_from(_CORPUS), st.sampled_from(_CORPUS))
    def test_corpus_pairs_match_candidate_scan(self, M, N):
        assert has_minor(M, N) == reference_has_minor(M, N)

    @PROPERTY
    @given(st.sampled_from(_CORPUS), st.integers(0, (1 << 16) - 1),
           st.integers(0, (1 << 16) - 1))
    def test_minors_of_the_host_are_found(self, M, d, c):
        D = d & M.E
        N = minor(M, MinorSpec(D, c & M.E & ~D))
        spec = has_minor(M, N)
        assert spec == reference_has_minor(M, N)
        assert find_isomorphism(minor(M, spec), N) is not None

    @pytest.mark.parametrize("M,N,found", [
        (named_matroid("f7"), uniform(0, 0), True),
        (_loops_and_coloops(uniform(2, 3)), uniform(0, 0), True),
        (uniform(0, 0), uniform(0, 0), True),
        (uniform(2, 5), uniform(2, 4), True),
        (named_matroid("f7"), uniform(3, 6), False),
        (uniform(3, 5), uniform(1, 3), True),
        (named_matroid("f7"), uniform(1, 5), False),
        (_loops_and_coloops(named_matroid("mk23")), uniform(2, 4), False),
        (_loops_and_coloops(uniform(2, 4)), uniform(2, 4), True),
        (_loops_and_coloops(uniform(2, 4)), direct_sum(uniform(0, 1), uniform(1, 1)), True),
        (uniform(2, 4), uniform(2, 5), False),
        (uniform(1, 3), uniform(2, 4), False),
        (uniform(0, 0), uniform(0, 1), False),
    ], ids=["empty-target", "empty-target-loops", "both-empty", "equal-rank",
            "equal-rank-absent", "no-deletions", "no-deletions-absent",
            "loops-coloops-absent", "loops-coloops", "loop-coloop-target",
            "larger-target", "larger-target-rank", "larger-than-empty"])
    def test_edge_cases(self, M, N, found):
        spec = has_minor(M, N)
        assert spec == reference_has_minor(M, N)
        assert (spec is not None) == found

    @pytest.mark.parametrize("cells", [1, 40, 1 << 10])
    def test_batch_boundaries(self, monkeypatch, cells):
        # many small batches must give the same first witness as one
        monkeypatch.setattr(minors, "_BATCH_CELLS", cells)
        for M in _CORPUS[::12]:
            for N in (uniform(1, 2), uniform(2, 3), _CORPUS[5], minor(M, MinorSpec(0b101, 0b10))):
                assert has_minor(M, N) == reference_has_minor(M, N)

    def test_tutte_equivalent_candidate_is_rejected(self, monkeypatch):
        M, N = _seed0_tutte_twins()
        assert (_rank_histogram(M) == _rank_histogram(N)).all()
        assert len(M.circuits()) == len(N.circuits()) == 17
        calls = []

        def counting(M1, M2):
            calls.append(M1)
            return find_isomorphism(M1, M2)

        monkeypatch.setattr(minors, "find_isomorphism", counting)
        # the one candidate (M itself) passes the histogram
        assert has_minor(M, N) is None and len(calls) == 1
        assert has_minor(N, M) is None and len(calls) == 2
        assert reference_has_minor(M, N) is None

    def test_m72_has_no_m42_minor(self, monkeypatch):
        N = mn_family(4, 2)
        tested = []

        def recording(M1, M2):
            tested.append(M1)
            return find_isomorphism(M1, M2)

        monkeypatch.setattr(minors, "find_isomorphism", recording)
        assert has_minor(mn_family(7, 2), N) is None
        # only candidates with N's (|A|, r(A)) counts reach the exact test
        assert all((_rank_histogram(M) == _rank_histogram(N)).all() for M in tested)


@st.composite
def minor_searches(draw):
    """Hosts of several element counts and ranks, some of them repeated,
    a target (a named excluded minor or a minor of a corpus member) and a
    batch budget, None for the default."""
    hosts = draw(st.lists(st.sampled_from(_CORPUS), min_size=1, max_size=5))
    hosts = draw(st.permutations(hosts + draw(st.lists(st.sampled_from(hosts), max_size=2))))
    M = draw(st.sampled_from(_CORPUS))
    D = draw(st.integers(0, M.E))
    C = draw(st.integers(0, M.E)) & ~D
    N = draw(st.sampled_from([*minors.NAMED_MINORS.values(), minor(M, MinorSpec(D, C))]))
    return hosts, N, draw(st.sampled_from([None, 1, 40, 1 << 10]))


class TestStackedMinorSearch:
    """``find_minors`` searches many hosts at once, grouped by element
    count and rank; each host's witness must be the one the per-host loop
    and the build-every-candidate oracle give."""

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(minor_searches())
    def test_mixed_hosts_match_loop_and_reference(self, case):
        hosts, N, cells = case
        with mock.patch.object(minors, "_BATCH_CELLS", cells or minors._BATCH_CELLS):
            got = minors.find_minors(hosts, N)
        assert got == [loop_has_minor(M, N) for M in hosts]
        assert got == [reference_has_minor(M, N) for M in hosts]

    @pytest.mark.parametrize("cells", [None, 1, 1 << 9])
    def test_corpus_against_every_named_minor(self, monkeypatch, cells):
        hosts = _CORPUS[::3]
        if cells:
            monkeypatch.setattr(minors, "_BATCH_CELLS", cells)
        for N in minors.NAMED_MINORS.values():
            assert minors.find_minors(hosts, N) == [loop_has_minor(M, N) for M in hosts]

    def test_one_host_call(self):
        for M in _CORPUS[::10]:
            for N in (uniform(1, 2), uniform(2, 4), minors.NAMED_MINORS["mk23minus"]):
                assert has_minor(M, N) == minors.find_minors([M], N)[0] == loop_has_minor(M, N)
        assert minors.find_minors([], uniform(1, 2)) == []

    def test_a_host_stops_at_its_first_witness(self, monkeypatch):
        """Each host is tested only up to its witness, as the loop is, and
        a chunk or a batch of found hosts only is never built."""
        M, N = uniform(3, 6), uniform(2, 4)
        tested, gathers, chunks = [], [], []
        real_iso, real_index, real_counts = (minors.find_isomorphism, minors.subset_index,
                                             minors._base_counts)
        monkeypatch.setattr(minors, "find_isomorphism",
                            lambda M1, M2: tested.append(M1) or real_iso(M1, M2))
        monkeypatch.setattr(minors, "subset_index",
                            lambda bits: gathers.append(len(bits)) or real_index(bits))
        monkeypatch.setattr(minors, "_base_counts",
                            lambda tables, r, kept: chunks.append(tables.shape[1])
                            or real_counts(tables, r, kept))
        # one pair per chunk, one candidate per batch
        monkeypatch.setattr(minors, "_BATCH_CELLS", 1)
        assert minors.find_minors([M, M, N], N) == [MinorSpec(0b10, 0b1)] * 2 + [MinorSpec(0, 0)]
        # 6 pairs of 5 candidates each in M, the first a witness, and N
        # itself: one chunk of one pair and one candidate gather per host
        assert chunks == [1] * 3
        assert len(tested) == len(gathers) == 3

    def test_the_target_histograms_are_computed_once(self, monkeypatch):
        """The target's element histograms stay in its cache: one search
        that tests several candidates computes them once, and each
        candidate's mapping is still the oracle's."""
        N = Matroid(("w", "x", "y", "z"), minors.NAMED_MINORS["u24"].rank_table)
        computed, mappings = [], []
        real_histograms, real_iso = minors._element_histograms, minors.find_isomorphism

        def counting(M):
            if "histograms" not in M._cache:
                computed.append(M)
            return real_histograms(M)

        monkeypatch.setattr(minors, "_element_histograms", counting)
        monkeypatch.setattr(minors, "find_isomorphism",
                            lambda M1, M2: mappings.append((M1, M2, real_iso(M1, M2)))
                            or mappings[-1][2])
        hosts = [uniform(2, 5), named_matroid("f7"), uniform(3, 6), uniform(2, 6), uniform(3, 7)]
        assert [spec is not None for spec in minors.find_minors(hosts, N)] == \
            [True, False, True, True, True]
        monkeypatch.undo()
        assert len(mappings) == 4 and all(M2 is N for _, M2, _ in mappings)
        assert sum(M is N for M in computed) == 1
        assert [got for _, _, got in mappings] == \
            [reference_find_isomorphism(M1, M2) for M1, M2, _ in mappings]

    def test_witness_is_built_from_its_row(self, monkeypatch):
        """No candidate goes through ``minor``; the last one a host tests
        is the minor its spec names, labels and all."""
        N = minors.NAMED_MINORS["u24"]
        tested = []
        real_iso = minors.find_isomorphism
        monkeypatch.setattr(minors, "find_isomorphism",
                            lambda M1, M2: tested.append(M1) or real_iso(M1, M2))
        monkeypatch.setattr(minors, "minors_of", None)
        found = []
        for M in _CORPUS[:40]:
            tested.clear()
            spec = minors.find_minors([M], N)[0]
            if spec is not None:
                found.append((M, spec, tested[-1]))
        monkeypatch.undo()
        assert found
        for M, spec, witness in found:
            assert witness == minor(M, spec)


def reference_base_count(M: Matroid, r: int) -> int:
    """The sets A of M with |A| = r(A) = r, counted one by one: M's bases
    when r = r(M), none when r > r(M)."""
    rt = M.rank_table
    return sum(A.bit_count() == r == rt[A] for A in range(1 << M.n))


@contextlib.contextmanager
def _recorded_base_counts():
    """Every ``_base_counts`` call inside the block, as its kept masks and
    its result."""
    calls = []
    real = minors._base_counts

    def recording(tables, r, kept):
        calls.append((kept, real(tables, r, kept)))
        return calls[-1][1]

    with mock.patch.object(minors, "_base_counts", recording):
        yield calls


def _assert_counts_are_the_candidates_bases(M: Matroid, N: Matroid, calls) -> None:
    """The recorded chunks' columns are M's independent sets C of size
    r(M) - r(N), ascending (a prefix of them if M was found); entry [k,
    q] is the number of bases of the k-th candidate M / C \\ D of column
    q, counted over the table ``minor`` builds, with D ascending in k."""
    dr = M.full_rank() - N.full_rank()
    Cs = [C for C in range(1 << M.n) if C.bit_count() == dr == M.rank_table[C]]
    columns = [(kept, out[:, q]) for kept, out in calls for q in range(out.shape[1])]
    assert 0 < len(columns) <= len(Cs)
    for C, (kept, counts) in zip(Cs, columns):
        free = [p for p in range(M.n) if not C >> p & 1]
        Ds = []
        for K_local, got in zip(kept.tolist(), counts.tolist()):
            K = sum(1 << p for b, p in enumerate(free) if K_local >> b & 1)
            Ds.append(M.E & ~K & ~C)
            assert got == reference_base_count(minor(M, MinorSpec(Ds[-1], C)), N.full_rank())
        assert Ds == sorted(Ds) and len(Ds) == math.comb(len(free), M.n - N.n - dr)


class TestBaseCounts:
    """Before a candidate M / C \\ D is gathered, ``_find_minors`` counts
    its bases, for every candidate of a chunk of contraction sets C at
    once, and drops it unless the count is N's.  The oracle counts each
    candidate's bases one set at a time over the table ``minor`` builds."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(st.sampled_from(_CORPUS), st.data(), st.sampled_from([None, 1, 40, 1 << 10]))
    def test_counts_match_each_candidates_table(self, M, data, cells):
        # a minor of M itself, a named excluded minor or another member
        D = data.draw(st.integers(0, M.E))
        C = data.draw(st.integers(0, M.E)) & ~D
        N = data.draw(st.one_of(st.just(minor(M, MinorSpec(D, C))),
                                st.sampled_from(list(minors.NAMED_MINORS.values())),
                                st.sampled_from(_CORPUS[:20])))
        dr = M.full_rank() - N.full_rank()
        with mock.patch.object(minors, "_BATCH_CELLS", cells or minors._BATCH_CELLS), \
                _recorded_base_counts() as calls:
            spec = has_minor(M, N)
        assert spec == reference_has_minor(M, N)
        if 0 <= dr <= M.n - N.n:
            _assert_counts_are_the_candidates_bases(M, N, calls)
        else:
            assert calls == []

    @pytest.mark.parametrize("cells", [1, 40, 1 << 10])
    @pytest.mark.parametrize("M,N", [
        (named_matroid("f7"), uniform(0, 2)),
        (direct_sum(uniform(0, 1), uniform(2, 4)), uniform(0, 3)),
        (direct_sum(uniform(0, 1), uniform(3, 5)), minors.NAMED_MINORS["pavex"]),
        (named_matroid("f7"), minors.NAMED_MINORS["pavex"]),
        (_CORPUS[3], uniform(0, 0)),
        (named_matroid("f7"), uniform(0, 0)),
        (uniform(3, 3), uniform(0, 0)),
        (uniform(0, 0), uniform(0, 0)),
        (uniform(5, 11), uniform(5, 10)),
        (uniform(8, 16), uniform(8, 16)),
    ], ids=["rank-0-target", "rank-0-target-loop-host", "pavex", "pavex-absent",
            "empty-target", "empty-target-f7", "no-free-positions", "no-free-positions-n0",
            "252-bases", "12870-bases"])
    def test_edge_cases(self, monkeypatch, M, N, cells):
        monkeypatch.setattr(minors, "_BATCH_CELLS", cells)
        with _recorded_base_counts() as calls:
            spec = has_minor(M, N)
        assert spec == reference_has_minor(M, N)
        _assert_counts_are_the_candidates_bases(M, N, calls)

    def test_m72_sends_no_candidate_past_the_bases_count(self, monkeypatch):
        M, N = mn_family(7, 2), mn_family(4, 2)
        monkeypatch.setattr(minors, "find_isomorphism", None)
        monkeypatch.setattr(minors, "subset_index", None)  # no candidate is gathered
        with _recorded_base_counts() as calls:
            assert has_minor(M, N) is None
        bases = reference_base_count(N, N.full_rank())
        assert calls and all((out != bases).all() for _, out in calls)


def _relabel(M: Matroid, perm) -> Matroid:
    """M with position p of the result carrying position perm[p] of M."""
    idx = subset_index(np.array([1 << q for q in perm], dtype=np.intp))
    rt = np.frombuffer(M.rank_table, dtype=np.uint8)
    return Matroid(tuple(M.labels[q] for q in perm), rt[idx].tobytes(), validate=False)


_TINY = [uniform(0, 0), uniform(0, 1), uniform(1, 1), uniform(1, 2), uniform(2, 2)]


@st.composite
def relabelled_members(draw):
    """A corpus member (or a matroid on at most 2 elements) with up to
    two loops and two coloops added, 0..9 elements in all, and a random
    relabelling of it."""
    M = draw(st.sampled_from(_TINY + _CORPUS))
    loops = draw(st.integers(0, min(2, 9 - M.n)))
    coloops = draw(st.integers(0, min(2, 9 - M.n - loops)))
    M = direct_sum(M, direct_sum(uniform(0, loops), uniform(coloops, coloops)))
    return M, _relabel(M, draw(st.permutations(range(M.n))))


class TestIsomorphismSearch:
    """find_isomorphism extends a prefix image array and prunes by
    element histograms; the oracle backtracks over circuit fingerprints.
    Both return the lexicographically first isomorphism."""

    @PROPERTY
    @given(relabelled_members())
    def test_relabelled_members_match_oracle(self, pair):
        M, R = pair
        got = find_isomorphism(R, M)
        assert got is not None and got == reference_find_isomorphism(R, M)
        assert _relabel(M, got).rank_table == R.rank_table

    @PROPERTY
    @given(st.sampled_from(_TINY + _CORPUS), st.sampled_from(_TINY + _CORPUS))
    def test_corpus_pairs_match_oracle(self, M1, M2):
        assert find_isomorphism(M1, M2) == reference_find_isomorphism(M1, M2)

    @pytest.mark.parametrize("M1,M2", [
        (uniform(2, 4), uniform(2, 5)),
        (uniform(0, 0), uniform(0, 1)),
        (named_matroid("f7"), uniform(3, 8)),
        (direct_sum(uniform(1, 1), uniform(0, 1)), uniform(1, 1)),
    ])
    def test_different_sizes(self, M1, M2):
        assert find_isomorphism(M1, M2) is None and find_isomorphism(M2, M1) is None
        assert reference_find_isomorphism(M1, M2) is None

    def test_tutte_twins(self):
        a, b = _seed0_tutte_twins()
        assert find_isomorphism(a, b) is None and reference_find_isomorphism(a, b) is None
        rng = random.Random(7)
        for M in (a, b):
            for _ in range(5):
                perm = rng.sample(range(M.n), M.n)
                R = _relabel(M, perm)
                assert find_isomorphism(M, R) == reference_find_isomorphism(M, R)
                assert find_isomorphism(R, b if M is a else a) is None

    @PROPERTY
    @given(st.sampled_from(_TINY + _CORPUS))
    def test_element_histograms_count_the_sets_through_each_element(self, M):
        rt = M.rank_table
        width = (M.n + 1) ** 2
        for i, row in enumerate(minors._element_histograms(M)):
            want = np.zeros(width, dtype=np.intp)
            for A in range(1 << M.n):
                if A >> i & 1:
                    want[A.bit_count() * (M.n + 1) + rt[A]] += 1
            assert row == want.tobytes()

    def test_candidates_are_the_equal_histograms(self, monkeypatch):
        # U_{2,4} maps onto itself in every order, so the histograms alone
        # decide which bijection comes first
        M1, M2 = uniform(2, 4), uniform(2, 4, ("w", "x", "y", "z"))
        assert find_isomorphism(M1, M2) == (0, 1, 2, 3)
        rows = {"e1": [b"a", b"b", b"c", b"d"], "w": [b"d", b"c", b"b", b"a"]}
        monkeypatch.setattr(minors, "_element_histograms", lambda M: rows[M.labels[0]])
        assert find_isomorphism(M1, M2) == (3, 2, 1, 0)
        rows["w"] = [b"a", b"b", b"c", b"c"]
        assert find_isomorphism(M1, M2) is None

    def test_searches_read_only_the_table(self, monkeypatch):
        pairs = [(named_matroid("f7"), uniform(2, 4)), (mn_family(5, 1), uniform(2, 4)),
                 (mn_family(5, 2), mn_family(4, 2)), _seed0_tutte_twins()]
        pairs += [(M, _relabel(M, range(M.n)[::-1])) for M in _CORPUS[:20]]
        want = [(reference_has_minor(M, N), reference_find_isomorphism(M, N))
                for M, N in pairs]

        def forbidden(self, *args):
            raise AssertionError("derived family computed during a search")

        for name in ("circuits", "flats", "cyclic_flats"):
            monkeypatch.setattr(Matroid, name, forbidden)
        assert [(has_minor(M, N), find_isomorphism(M, N)) for M, N in pairs] == want


@contextlib.contextmanager
def _counted_pair_rows():
    """The rows that find_isomorphism builds inside the block, as (n, a)."""
    builds = []
    real = minors._pair_row

    def counting(M, a):
        builds.append((M.n, a))
        return real(M, a)

    with mock.patch.object(minors, "_pair_row", counting):
        yield builds


def _family_relabellings():
    rng = random.Random(19)
    family = [mn_family(n, k) for n, k in ((4, 0), (5, 1), (5, 2), (6, 2), (6, 3))]
    family += [pn_family(n, k) for n, k in ((4, 2), (5, 2), (5, 3), (6, 3), (6, 4), (7, 4))]
    pairs = [(_relabel(M, rng.sample(range(M.n), M.n)), M) for M in family for _ in range(3)]
    # the oracle takes seconds on most relabellings of M_7(0), ~0.2 s on this one
    M70 = mn_family(7, 0)
    return pairs + [(_relabel(M70, random.Random(8).sample(range(M70.n), M70.n)), M70)]


class TestPairRefinement:
    """After ``_REFINE_AFTER * n`` dead ends find_isomorphism also needs
    i's pair row to agree with j's on the assigned elements; the oracle
    is the same search by histograms and prefix gathers alone.  Both
    return the lexicographically first isomorphism."""

    @PROPERTY
    @given(relabelled_members(), st.sampled_from([0, minors._REFINE_AFTER]))
    def test_relabelled_members_match_histogram_search(self, pair, after):
        M, R = pair
        with mock.patch.object(minors, "_REFINE_AFTER", after):
            got = find_isomorphism(R, M)
        assert got is not None and got == reference_histogram_search(R, M)
        assert _relabel(M, got).rank_table == R.rank_table

    @PROPERTY
    @given(st.sampled_from(_TINY + _CORPUS), st.sampled_from(_TINY + _CORPUS))
    def test_corpus_pairs_match_histogram_search(self, M1, M2):
        # rows compared from the first dead end on, isomorphic or not
        with mock.patch.object(minors, "_REFINE_AFTER", 0):
            assert find_isomorphism(M1, M2) == reference_histogram_search(M1, M2)

    def test_relabelled_families_match_histogram_search(self):
        pairs = _family_relabellings()
        with _counted_pair_rows() as builds:
            got = [find_isomorphism(R, M) for R, M in pairs]
        assert got == [reference_histogram_search(R, M) for R, M in pairs]
        # the searches on these pairs meet enough dead ends to use the rows
        assert len(builds) > 100

    def test_relabelled_m80_is_found(self):
        # the histogram search alone takes seconds on most of these
        M = mn_family(8, 0)
        rng = random.Random(8)
        with _counted_pair_rows() as builds:
            for _ in range(3):
                R = _relabel(M, rng.sample(range(M.n), M.n))
                got = find_isomorphism(R, M)
                assert got is not None and _relabel(M, got).rank_table == R.rank_table
        assert builds

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(st.sampled_from(_TINY + _CORPUS))
    def test_pair_rows_count_the_sets_through_each_pair(self, M):
        rt = M.rank_table
        n = M.n
        want = np.zeros((n, n, (n + 1) ** 2), dtype=np.intp)
        for A in range(1 << n):
            members = [p for p in range(n) if A >> p & 1]
            for a, b in itertools.product(members, members):
                want[a, b, A.bit_count() * (n + 1) + rt[A]] += 1
        for a in range(n):
            row = minors._pair_row(M, a)
            assert (row == want[a]).all()
            assert row[a].tobytes() == minors._element_histograms(M)[a]


def reference_pair_row(M: Matroid, a: int) -> np.ndarray:
    """Row ``a`` of the pair table as one bincount per b over the keys of
    the sets through a and b, as find_isomorphism once built it."""
    n = M.n
    width = (n + 1) ** 2
    keys = minors._rank_keys(n, M.ranks)
    through = core.halves(keys, a)[1].ravel()
    row = np.empty((n, width), dtype=np.intp)
    for b in range(n):
        sets = through if b == a else core.halves(through, b - (b > a))[1].ravel()
        row[b] = np.bincount(sets, minlength=width)
    return row


class TestPairTable:
    """``_pair_table(M)`` adds X^T X over the sets of each (|A|, r(A))
    key; its rows must be the per-row bincounts it replaced."""

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(st.sampled_from(_TINY + _CORPUS))
    def test_rows_match_the_bincount_rows(self, M):
        table = minors._pair_table(M)
        assert table.dtype == np.int32 and table.shape == (M.n, M.n, (M.n + 1) ** 2)
        for a in range(M.n):
            assert (table[a] == reference_pair_row(M, a)).all()
            assert (minors._pair_row(M, a) == table[a]).all()

    @pytest.mark.parametrize("M", [mn_family(7, 0), pn_family(7, 4), uniform(8, 16),
                                   _loops_and_coloops(named_matroid("f7"))],
                             ids=["m70", "p74", "u8_16", "f7-loops-coloops"])
    def test_large_and_degenerate_members(self, M):
        for a in range(M.n):
            assert (minors._pair_table(M)[a] == reference_pair_row(M, a)).all()

    def test_the_table_is_built_once_per_matroid(self):
        M = mn_family(6, 2)
        assert "pairs" not in M._cache
        table = minors._pair_table(M)
        assert minors._pair_table(M) is table and M._cache["pairs"] is table


def _assert_families_match_loops(M: Matroid) -> None:
    got = (M.circuits(), M.flats(), M.cyclic_flats())
    assert got == (reference_circuits(M), reference_flats(M), reference_cyclic_flats(M))
    # numpy integers would pass the comparison but not json.dumps
    values = [*got[0], *got[1], *itertools.chain.from_iterable(got[2])]
    assert all(type(v) is int for v in values)


_FIXED_TABLES = {
    "n0": Matroid((), b"\x00"),
    "u0_1": uniform(0, 1),
    "u1_1": uniform(1, 1),
    "loops_coloops": _loops_and_coloops(named_matroid("f7")),
    "u0_16": uniform(0, 16),
    "u8_16": uniform(8, 16),
    "u16_16": uniform(16, 16),
    "m8_0": mn_family(8, 0),
}


@st.composite
def wide_matroids(draw):
    """13..16 elements: a small matroid summed with a uniform one."""
    M = draw(small_matroids())
    m = draw(st.integers(max(13, M.n), 16)) - M.n
    return direct_sum(M, uniform(draw(st.integers(0, m)), m))


class TestFamilyScans:
    """Circuits, flats and cyclic flats come from one sweep over the
    rank table's halves; the oracles visit every mask one bit at a
    time."""

    @PROPERTY
    @given(small_matroids())
    def test_match_loops(self, M):
        _assert_families_match_loops(M)

    # the oracles visit up to 2^16 masks in Python, hence fewer examples
    @settings(PROPERTY, max_examples=60)
    @given(wide_matroids())
    def test_match_loops_on_wide_matroids(self, M):
        assert 13 <= M.n <= 16
        _assert_families_match_loops(M)

    @pytest.mark.parametrize("M", list(_FIXED_TABLES.values()), ids=list(_FIXED_TABLES))
    def test_fixed_tables(self, M):
        _assert_families_match_loops(M)

    @PROPERTY
    @given(st.sampled_from(_CORPUS))
    def test_nonspanning_closures_are_cached(self, M):
        circs = M.nonspanning_circuits()
        assert circs == tuple(C for C in M.circuits() if M.rank(C) < M.full_rank())
        assert M.nonspanning_closures() == tuple(M.closure(C) for C in circs)
        assert M.nonspanning_circuits() is circs
        assert M.nonspanning_closures() is M.nonspanning_closures()

    def test_serializing_needs_no_flats(self, monkeypatch, tmp_path):
        def forbidden(self):
            raise AssertionError("flats() computed while serializing")

        monkeypatch.setattr(Matroid, "flats", forbidden)
        assert parse_matroid(formats.serialize_matroid(mn_family(5, 1))) == mn_family(5, 1)
        out = tmp_path / "corpus"
        assert cli.main(["corpus", "--seed", "3", "--count", "20", "-o", str(out)]) == 0
        assert len(list(out.iterdir())) > 20


_CIRCUIT_CACHES = ("circuits", "nonspanning", "nonspanning_closures")

# The public accessor of each cached family
_ACCESSORS = {
    "circuits": Matroid.circuits,
    "nonspanning": Matroid.nonspanning_circuits,
    "nonspanning_closures": Matroid.nonspanning_closures,
    "flats": Matroid.flats,
    "cyclic_flats": Matroid.cyclic_flats,
    "ham_flats": Matroid.hamiltonian_flats,
}


def _leaves(x):
    """The non-tuple values inside nested tuples and lists."""
    for y in x:
        if isinstance(y, (tuple, list)):
            yield from _leaves(y)
        else:
            yield y


def _circuit_loops(M: Matroid) -> tuple:
    """Circuits, the nonspanning ones and their closures, per table."""
    circs = reference_circuits(M)
    nonspanning = tuple(C for C in circs if M.rank(C) < M.full_rank())
    return circs, nonspanning, tuple(M.closure(C) for C in nonspanning)


def _circuit_closures(M: Matroid) -> tuple[int, ...]:
    """The closures of all circuits, in (size, mask) order."""
    return tuple(sorted({M.closure(C) for C in reference_circuits(M)},
                        key=lambda f: (f.bit_count(), f)))


class _StackedFamily:
    """One pass over a stack of same-size tables fills the caches
    ``keys`` of each matroid, on ``prime(ms, keys[0])``; ``loops(M)``
    derives the same caches one table at a time."""

    keys: tuple[str, ...]

    def primed(self, ms) -> list[tuple]:
        """The caches ``keys`` that one ``prime(ms, keys[0])`` call fills
        on fresh copies."""
        fresh = [Matroid(M.labels, M.rank_table, validate=False) for M in ms]
        prime(fresh, self.keys[0])
        out = [tuple(M._cache[k] for k in self.keys) for M in fresh]
        # numpy integers would pass the comparison but not json.dumps
        assert all(type(v) is int for v in _leaves(out))
        return out

    def test_mixed_stacks_match_loops(self):
        # a property per subclass: hypothesis runs each test on one class
        @PROPERTY
        @given(st.lists(small_matroids(), max_size=8))
        def match(ms):
            assert self.primed(ms) == [self.loops(M) for M in ms]
        match()

    @pytest.mark.parametrize("M", [_FIXED_TABLES[k] for k in ("n0", "u8_16", "m8_0")],
                             ids=["n0", "u8_16", "m8_0"])
    def test_one_row_stacks(self, M):
        assert self.primed([M]) == [self.loops(M)]
        assert tuple(_ACCESSORS[k](M) for k in self.keys) == self.loops(M)

    @pytest.mark.parametrize("cells", [1 << 9, 1 << 13])
    def test_stacks_split_across_passes(self, monkeypatch, cells):
        # 119 six-element and 88 seven-element members: 8 and 4 rows per
        # pass at the smaller cap, 128 and 64 at the larger
        monkeypatch.setattr(core, "_TABLE_CELLS", cells)
        assert self.primed(_CORPUS) == [self.loops(M) for M in _CORPUS]

    def test_primed_matroids_are_skipped(self):
        M = Matroid(("a", "b"), bytes([0, 1, 1, 1]))
        found = [_ACCESSORS[k](M) for k in self.keys]
        with mock.patch.dict(core._PASSES, {self.keys[0]: None}):
            prime([M, M], self.keys[0])
        assert all(_ACCESSORS[k](M) is f for k, f in zip(self.keys, found))


class TestStackedCircuits(_StackedFamily):
    """The circuit pass; the oracles scan one table at a time, or gather
    each candidate's A - x as the pass once did."""

    keys = _CIRCUIT_CACHES
    loops = staticmethod(_circuit_loops)

    @PROPERTY
    @given(st.lists(small_matroids(), max_size=8))
    def test_mixed_stacks_match_gather_pass(self, ms):
        with mock.patch.dict(core._PASSES, dict.fromkeys(self.keys, reference_circuit_pass)):
            want = self.primed(ms)
        assert self.primed(ms) == want

    @PROPERTY
    @given(st.sampled_from(_CORPUS))
    def test_cyclic_flat_matroids_match_family(self, M):
        family = CyclicFlatFamily(M.labels, M.cyclic_flats())
        assert from_cyclic_flats(family).circuits() == circuits_from_cyclic_flats(family)


class TestStackedFlats(_StackedFamily):
    """The closed half of the halves sweep."""

    keys = ("flats",)

    @staticmethod
    def loops(M):
        return (reference_flats(M),)


class TestStackedCyclicFlats(_StackedFamily):
    """Both halves of the halves sweep."""

    keys = ("cyclic_flats",)

    @staticmethod
    def loops(M):
        return (reference_cyclic_flats(M),)


class TestStackedHamiltonianFlats(_StackedFamily):
    """The Hamiltonian flats, derived from a stacked circuit pass, are the
    closures of all circuits."""

    keys = ("ham_flats",)

    @staticmethod
    def loops(M):
        return (_circuit_closures(M),)


def _every_element_count() -> list[Matroid]:
    """Two matroids of each element count 0..16, each the direct sum of two
    seeded corpus members (or the empty matroid), in a shuffled order."""
    by_n = {0: [uniform(0, 0)]}
    for M in _CORPUS:
        by_n.setdefault(M.n, []).append(M)
    out = []
    for n in range(MAX_ELEMENTS + 1):
        for j in range(2):
            a = (n + j) // 2
            pick = [by_n[m][(n + j) % len(by_n[m])] for m in (a, n - a)]
            out.append(direct_sum(*pick))
    random.Random(5).shuffle(out)
    return out


class TestEveryElementCount:
    """One ``prime`` call over members of every element count 0..16 runs
    one stacked pass per count, each sweeping its low n // 2 elements on a
    rotated copy of the stack; the oracles gather or loop per table."""

    def test_circuits_match_gather_pass(self):
        ms = _every_element_count()
        with mock.patch.dict(core._PASSES, dict.fromkeys(_CIRCUIT_CACHES, reference_circuit_pass)):
            want = TestStackedCircuits().primed(ms)
        assert TestStackedCircuits().primed(ms) == want

    def test_flats_match_loops(self):
        ms = _every_element_count()
        assert TestStackedFlats().primed(ms) == [(reference_flats(M),) for M in ms]

    def test_cyclic_flats_match_loops(self):
        ms = _every_element_count()
        assert TestStackedCyclicFlats().primed(ms) == [(reference_cyclic_flats(M),) for M in ms]


def _halves_runs(monkeypatch) -> list[tuple[int, int]]:
    """(index bits of a row, bit split at) of every ``core.halves`` call
    made after this, on one-row stacks or on stacks of 2-D rows."""
    calls = []
    real = core.halves

    def recording(x, i):
        calls.append((x.shape[-1].bit_length() - 1, i))
        return real(x, i)

    monkeypatch.setattr(core, "halves", recording)
    return calls


def test_whole_table_sweeps_read_long_runs(monkeypatch):
    """At 16 elements every halves step of the circuit pass, the
    cyclic-flat pass and validation reads runs of at least 2^8 table
    entries; validation's R3 passes read its gain rows, of 15 index bits,
    in runs of at least 2^7."""
    M = mn_family(8, 0)
    calls = _halves_runs(monkeypatch)
    fresh = Matroid(M.labels, M.rank_table, validate=False)
    prime([fresh], "circuits")
    prime([fresh], "cyclic_flats")
    assert validate_rank_axioms(M.rank_table, 16) is None
    monkeypatch.undo()
    # two views a step in each pass, and a gain row per element; one R3
    # pass per later element
    assert [sum(m == bits for m, _ in calls) for bits in (16, 15)] == [2 * 2 * 16 + 16, 15]
    assert all(i >= 8 for m, i in calls if m == 16)
    assert all(i >= 7 for m, i in calls if m == 15)


@pytest.mark.parametrize("key", list(_ACCESSORS))
def test_every_cached_family_has_an_accessor(key):
    """Each key of the pass table has a public accessor, and it returns
    the value that ``prime`` cached, not a copy."""
    assert set(_ACCESSORS) == set(core._PASSES)
    M = _CORPUS[3]
    M = Matroid(M.labels, M.rank_table, validate=False)
    prime([M], key)
    assert _ACCESSORS[key](M) is M._cache[key]


@st.composite
def edited_tables(draw, matroids):
    """A member's table untouched, with a few entries nudged by +-1 or +-2,
    with two entries of one size swapped, or raised by 1 on every
    superset of one mask, which keeps R2 and, when that mask is
    dependent, R1; bytes when every entry fits, else a list that may
    hold negatives."""
    M = draw(matroids)
    t = list(M.rank_table)
    index = st.integers(0, len(t) - 1)
    edit = draw(st.sampled_from(["none", "nudge", "swap", "lift"]))
    if edit == "nudge":
        for a, d in draw(st.lists(st.tuples(index, st.sampled_from([-2, -1, 1, 2])),
                                  min_size=1, max_size=3)):
            t[a] += d
    elif edit == "swap":
        a = draw(index)
        b = draw(st.sampled_from(np.flatnonzero(subset_sizes(M.n) == a.bit_count()).tolist()))
        t[a], t[b] = t[b], t[a]
    elif edit == "lift":
        a = draw(index)
        t = [v + (X & a == a) for X, v in enumerate(t)]
    return (bytes(t) if min(t) >= 0 else t), M.n


def _top_pair_table() -> bytes:
    """16 elements, r(A) = |A - {14, 15}| + [{14, 15} within A]: the
    only R3 break is at bits 14 and 15."""
    sizes = subset_sizes(16)
    masks = np.arange(1 << 16)
    return (sizes[masks & 0x3FFF] + (masks >> 14 == 3)).astype(np.uint8).tobytes()


def _top_bit_drop_table() -> bytes:
    """16 elements, r(A) = |A - {15}| except r(E) = 14: the only R2 break
    is adding bit 15 to the other 15 elements."""
    t = subset_sizes(16)[np.arange(1 << 16) & 0x7FFF].astype(np.uint8)
    t[-1] = 14
    return t.tobytes()


def _pairs_table(n: int, pairs) -> bytes:
    """r(A) = |A - P| + the number of the disjoint ``pairs`` within A, P
    their union: R1 and R2 hold and R3 breaks at exactly those pairs."""
    masks = np.arange(1 << n)
    table = subset_sizes(n)[masks & ~sum((1 << i) | (1 << j) for i, j in pairs)]
    for i, j in pairs:
        both = (1 << i) | (1 << j)
        table = table + (masks & both == both)
    return table.astype(np.uint8).tobytes()


def _gain_two_table(n: int) -> bytes:
    """r(A) = |A| except r({1}) = 0: R1 and R2 hold, but adding element 0
    to {1} gains 2, which breaks R3 at the pair (0, 1)."""
    table = subset_sizes(n).astype(np.uint8)
    table[0b10] = 0
    return table.tobytes()


def _lowered_loops_table(n: int, loops: int, lowered) -> bytes:
    """r(A) = |A - L| for the mask ``loops`` L, less 1 at each of the
    masks ``lowered``, each a nonempty set B outside L plus one loop l,
    no two a single element apart: R1 holds and R2 breaks exactly at
    adding l to each B."""
    table = subset_sizes(n)[np.arange(1 << n) & ~loops].astype(np.uint8)
    table[list(lowered)] -= 1
    return table.tobytes()


# name: (table, n, first violation)
_FIXED_AXIOM_TABLES = {
    "n0": (b"\x00", 0, None),
    "n0_r1": (b"\x01", 0, AxiomViolation("R1", (0,))),
    "n1": (b"\x00\x01", 1, None),
    "n1_r1": (b"\x00\x02", 1, AxiomViolation("R1", (1,))),
    "n2_r2": (b"\x00\x01\x01\x00", 2, AxiomViolation("R2", (2, 3))),
    "n2_r3": (b"\x00\x00\x00\x01", 2, AxiomViolation("R3", (1, 2))),
    "u8_16": (uniform(8, 16).rank_table, 16, None),
    "r3_bits_14_15": (_top_pair_table(), 16, AxiomViolation("R3", (1 << 14, 1 << 15))),
    "r2_top_bit": (_top_bit_drop_table(), 16, AxiomViolation("R2", (0x7FFF, 0xFFFF))),
    # R3 passes with j < n // 2 read the gain rows taken from the rotated
    # table: j <= 1 at n = 4, j <= 6 at n = 15, j <= 7 at n = 16
    "n4_r3_first_pair": (_pairs_table(4, [(0, 1)]), 4, AxiomViolation("R3", (1, 2))),
    "n4_r3_last_pair": (_pairs_table(4, [(2, 3)]), 4, AxiomViolation("R3", (4, 8))),
    "n4_r3_straddle": (_pairs_table(4, [(0, 2)]), 4, AxiomViolation("R3", (1, 4))),
    # pass j = 2 fails first, at (1, 2), but (0, 3) is the least pair
    "n4_r3_least_pair_in_later_pass": (
        _pairs_table(4, [(1, 2), (0, 3)]), 4, AxiomViolation("R3", (1, 8))),
    "n4_gain_two": (_gain_two_table(4), 4, AxiomViolation("R3", (1, 2))),
    "n16_r3_first_pair": (_pairs_table(16, [(0, 1)]), 16, AxiomViolation("R3", (1, 2))),
    "n16_r3_last_rotated_pass": (
        _pairs_table(16, [(3, 7)]), 16, AxiomViolation("R3", (1 << 3, 1 << 7))),
    "n16_r3_straddle": (_pairs_table(16, [(6, 8)]), 16, AxiomViolation("R3", (1 << 6, 1 << 8))),
    "n16_r3_least_pair_in_later_pass": (
        _pairs_table(16, [(1, 2), (0, 12)]), 16, AxiomViolation("R3", (1, 1 << 12))),
    "n16_gain_two": (_gain_two_table(16), 16, AxiomViolation("R3", (1, 2))),
    # rows i < n // 2 come from the rotated table; the first R2 break is
    # the least i, then the least base mask in the unrotated order
    "n16_r2_low_row": (_lowered_loops_table(16, 0x208, [0x108, 0x19, 0x201]), 16,
                       AxiomViolation("R2", (0x11, 0x19))),
    "n15_r2_low_row": (_lowered_loops_table(15, 0x208, [0x108, 0x19, 0x201]), 15,
                       AxiomViolation("R2", (0x11, 0x19))),
    "n16_r2_bit_0": (_lowered_loops_table(16, 0x1, [0x8001, 0x201]), 16,
                     AxiomViolation("R2", (0x200, 0x201))),
    # pairs i < n // 2 <= j
    "n16_r3_pass_at_half": (
        _pairs_table(16, [(7, 8)]), 16, AxiomViolation("R3", (1 << 7, 1 << 8))),
    "n16_r3_first_and_last": (_pairs_table(16, [(0, 15)]), 16, AxiomViolation("R3", (1, 1 << 15))),
    "n16_r3_straddle_before_low_pair": (
        _pairs_table(16, [(2, 5), (1, 8)]), 16, AxiomViolation("R3", (1 << 1, 1 << 8))),
    "n15_r3_last_rotated_pass": (
        _pairs_table(15, [(3, 6)]), 15, AxiomViolation("R3", (1 << 3, 1 << 6))),
    "n15_r3_pass_at_half": (
        _pairs_table(15, [(6, 7)]), 15, AxiomViolation("R3", (1 << 6, 1 << 7))),
    "n15_r3_first_and_last": (_pairs_table(15, [(0, 14)]), 15, AxiomViolation("R3", (1, 1 << 14))),
    "n15_r3_straddle_before_low_pair": (
        _pairs_table(15, [(2, 5), (1, 7)]), 15, AxiomViolation("R3", (1 << 1, 1 << 7))),
}


class TestAxiomGains:
    """R2 is one comparison of the stacked gains, R3 one pass per later
    element over them; the oracle gathers every base mask per bit and
    per pair of bits."""

    @PROPERTY
    @given(edited_tables(small_matroids()))
    def test_match_gathers(self, case):
        assert validate_rank_axioms(*case) == reference_validate_rank_axioms(*case)

    # the oracle takes ~35 ms per 16-element table, hence fewer examples
    @settings(PROPERTY, max_examples=100)
    @given(edited_tables(wide_matroids()))
    def test_match_gathers_on_wide_matroids(self, case):
        assert validate_rank_axioms(*case) == reference_validate_rank_axioms(*case)

    @settings(PROPERTY, max_examples=100)
    @given(edited_tables(small_matroids()), st.sampled_from([np.int8, np.int16, np.int64]))
    def test_integer_arrays_match_the_list_rule(self, case, dtype):
        """An integer array is checked as it is, not entry by entry, with
        the verdict of the same entries as a list of ints."""
        table, n = case
        entries = list(table)
        assert validate_rank_axioms(np.array(entries, dtype=dtype), n) == \
            validate_rank_axioms(entries, n) == reference_validate_rank_axioms(table, n)

    @pytest.mark.parametrize("table, n, want", list(_FIXED_AXIOM_TABLES.values()),
                             ids=list(_FIXED_AXIOM_TABLES))
    def test_fixed_tables(self, table, n, want):
        assert validate_rank_axioms(table, n) == reference_validate_rank_axioms(table, n) == want


@st.composite
def edited_families(draw):
    """A corpus member's cyclic flats in a drawn order, with members
    dropped, ranks shifted by +-1 (never below 0) and random masks
    inserted with random ranks."""
    M = draw(st.sampled_from(_CORPUS))
    entries = draw(st.permutations(M.cyclic_flats()))
    for edit in draw(st.lists(st.sampled_from(["drop", "shift", "insert"]), max_size=3)):
        if edit == "insert":
            Z = draw(st.integers(0, M.E))
            if Z not in dict(entries):
                entries.insert(draw(st.integers(0, len(entries))), (Z, draw(st.integers(0, M.n))))
        elif entries:
            i = draw(st.integers(0, len(entries) - 1))
            if edit == "drop":
                del entries[i]
            else:
                Z, r = entries[i]
                entries[i] = (Z, max(0, r + draw(st.sampled_from([-1, 1]))))
    return CyclicFlatFamily(M.labels, entries)


def _family(n: int, *entries) -> CyclicFlatFamily:
    return CyclicFlatFamily(tuple(f"e{i}" for i in range(n)), entries)


# name: (family, first violation)
_FIXED_Z_FAMILIES = {
    "empty": (_family(1), ZViolation("Z1", ())),
    "n0": (_family(0, (0, 0)), None),
    "z0_no_meet": (_family(4, (0b0011, 1), (0b0110, 1), (0b1111, 2)),
                   ZViolation("Z0", (0b0011, 0b0110))),
    "z0_no_join": (_family(4, (0, 0), (0b0011, 1), (0b1100, 1)),
                   ZViolation("Z0", (0b0011, 0b1100))),
    "z1": (_family(2, (0, 1), (0b11, 2)), ZViolation("Z1", (0,))),
    "z2": (_family(3, (0, 0), (0b111, 3)), ZViolation("Z2", (0, 0b111))),
    # exact ranks past int64: (1, 7) gains 1 < 2 and is no violation
    "z2_huge_ranks": (_family(3, (1, 2 ** 70), (7, 2 ** 70 + 1), (0, 0)),
                      ZViolation("Z2", (0, 1))),
    "z3_notk4": (notk_cyclic_flats(4), ZViolation("Z3", (0x24E, 0x271))),
    "mstark33": (CyclicFlatFamily(named_matroid("mstark33").labels,
                                  named_matroid("mstark33").cyclic_flats()), None),
}


class TestZAxioms:
    """Meets and joins come from products over the member-inclusion
    matrix and Z1-Z3 from elementwise pair matrices; the oracle scans
    the member list for each pair."""

    @PROPERTY
    @given(edited_families())
    def test_matches_scans(self, family):
        assert validate_z_axioms(family) == reference_validate_z_axioms(family)

    @pytest.mark.parametrize("family, want", list(_FIXED_Z_FAMILIES.values()),
                             ids=list(_FIXED_Z_FAMILIES))
    def test_fixed_families(self, family, want):
        assert validate_z_axioms(family) == reference_validate_z_axioms(family) == want

    @pytest.mark.parametrize("cells", [1, 1 << 9])
    def test_chunks(self, monkeypatch, cells):
        """One y per chunk, and a few, on every fixed family and the
        distinct corpus members' families."""
        monkeypatch.setattr(constructions, "_BOUND_CELLS", cells)
        families = [f for f, _ in _FIXED_Z_FAMILIES.values()]
        families += {M.cyclic_flats(): CyclicFlatFamily(M.labels, M.cyclic_flats())
                     for M in _CORPUS}.values()
        for family in families:
            assert validate_z_axioms(family) == reference_validate_z_axioms(family)


# quotes, backslashes, control characters, non-ASCII and a non-BMP
# character (a surrogate pair once escaped), and the JSON punctuation
_LABEL_CHARS = st.sampled_from('a"\\\x00\x1f\n\té\u2028\U0001f600 {},[]:')


@st.composite
def labelled_matroids(draw):
    """A small matroid, summed with a uniform one to a drawn size of at
    most 12 elements, under distinct drawn labels, the empty one included."""
    M = draw(small_matroids())
    m = draw(st.integers(M.n, max(M.n, 12))) - M.n
    M = direct_sum(M, uniform(draw(st.integers(0, m)), m))
    labels = draw(st.lists(st.text(_LABEL_CHARS, max_size=3), min_size=M.n,
                           max_size=M.n, unique=True))
    return Matroid(labels, M.rank_table, validate=False)


_ODD_LABELS = ("", '"', "\\", "\x00", "é", "\U0001f600", "a b", "{x}", "\n",
               "\u2028", "]", ",", ":", "\x7f", "\ud800", "e16")

_FIXED_REPORTS = {
    "n0": uniform(0, 0),
    "empty_cyclic_flat": uniform(2, 4),
    "u4_16": uniform(4, 16),
    "sec1pc11": sec1_pc_example(11),
    "sec1pc11_odd_labels": Matroid(_ODD_LABELS, sec1_pc_example(11).rank_table, validate=False),
}


class TestAnalyzeWriter:
    """``analyze`` writes each set from two tables of label joins, one per
    mask byte; the oracle builds the report dict and hands it to
    ``json.dumps(indent=2)`` or prints it line by line."""

    # drawing a small matroid costs ~3 ms, hence fewer examples
    @settings(PROPERTY, max_examples=50)
    @given(labelled_matroids())
    def test_matches_encoder(self, M):
        assert cli._json_report(M) == reference_analyze_json(M)
        assert cli._text_report(M) == reference_analyze_text(M)

    @pytest.mark.parametrize("M", list(_FIXED_REPORTS.values()), ids=list(_FIXED_REPORTS))
    def test_fixed_matroids(self, M):
        assert cli._json_report(M) == reference_analyze_json(M)
        assert cli._text_report(M) == reference_analyze_text(M)

    def test_fixed_cases_reach_their_edges(self):
        assert (0, 0) in _FIXED_REPORTS["empty_cyclic_flat"].cyclic_flats()
        assert '[\n      [],\n      0\n    ]' in cli._json_report(_FIXED_REPORTS["empty_cyclic_flat"])
        report = json.loads(cli._json_report(_FIXED_REPORTS["sec1pc11_odd_labels"]))
        assert report["elements"] == list(_ODD_LABELS)
        assert any(C[0] < "e" and C[-1] == "e16" for C in report["circuits"])


class TestHalves:
    """``core.halves`` is the one view of "A without and with x" that
    the axiom gains, the family scans, the minors and the circuit and
    parallel-connection passes read."""

    @PROPERTY
    @given(st.sampled_from(_CORPUS), st.data())
    def test_views_are_the_spread_masks(self, M, data):
        i = data.draw(st.integers(0, M.n - 1))
        table = np.frombuffer(M.rank_table, dtype=np.uint8).copy()
        without, with_i = core.halves(table, i)
        masks = [core._spread(k, i) for k in range(1 << M.n - 1)]
        assert without.ravel().tolist() == [M.rank_table[A] for A in masks]
        assert with_i.ravel().tolist() == [M.rank_table[A | 1 << i] for A in masks]
        # writes go through to the table
        without += 1
        with_i += 2
        assert table.tolist() == [r + 1 + (A >> i & 1) for A, r in enumerate(M.rank_table)]

    def test_every_minor_of_small_members(self):
        """All 3^n (keep, delete, contract) specs of every member on at
        most 5 elements, the empty matroid and every-position-dropped
        specs included."""
        members = {(M.labels, M.rank_table): M for M in _CORPUS if M.n <= 5}
        checked = 0
        for M in [Matroid((), b"\x00"), *members.values()]:
            for spec in itertools.product(range(3), repeat=M.n):
                D = sum(1 << p for p, s in enumerate(spec) if s == 1)
                C = sum(1 << p for p, s in enumerate(spec) if s == 2)
                got = minor(M, MinorSpec(D, C))
                assert (got.labels, got.rank_table) == reference_minor(M, D | C, C)
                checked += 1
        assert checked > 3 ** 5 * 10

    @pytest.mark.parametrize("derive, limit", [
        (Matroid.cyclic_flats, 1 << 20),
        (single_element_minors, 2 << 20),
        (Matroid.circuits, 3 << 19),
        (Matroid.flats, 13 * (1 << 20) // 10),
    ])
    def test_peak_memory_on_sixteen_elements(self, derive, limit):
        """No scan gathers through an index array of the whole table, or
        of every candidate, per element: on a fresh 16-element M_8(0) the
        cyclic flats peak under 1 MiB, the 32 single-element minors under
        2 MiB, the circuits with their nonspanning closures under 1.5 MiB,
        and the 26,320 flats under 1.3 MiB, since their position array is
        gone before the tuples are built."""
        M = mn_family(8, 0)
        M = Matroid(M.labels, M.rank_table, validate=False)
        assert M.n == 16
        tracemalloc.start()
        try:
            derive(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, peak


# ---------------------------------------------------------------------------
# stacked builds against the one-table builds they replaced


def oracle_laminar_matroid(system: LaminarCapacitySystem) -> Matroid:
    """One system at a time: each member, by ascending size, replaces the
    roots of the forest so far that lie inside it."""
    system.check_laminar()
    n = len(system.labels)
    sizes, X = subset_sizes(n), np.arange(1 << n)
    roots: dict[int, np.ndarray] = {}
    for A, c in sorted(zip(system.family, system.capacities), key=lambda m: m[0].bit_count()):
        inner = [R for R in roots if R & ~A == 0]
        free = A & ~functools.reduce(operator.or_, inner, 0)
        value = sizes[X & free] + sum(roots.pop(R) for R in inner)
        roots[A] = np.minimum(value, min(c, A.bit_count()))
    covered = functools.reduce(operator.or_, roots, 0)
    return Matroid(system.labels, sizes[X & ~covered] + sum(roots.values()), validate=False)


def oracle_transversal_matroid(presentation: NestedPresentation) -> Matroid:
    """One chain at a time: a running minimum over its blocks."""
    presentation.check_chain()
    n, m = len(presentation.labels), len(presentation.blocks)
    sizes, X = subset_sizes(n), np.arange(1 << n)
    table = np.full(1 << n, min(m, n), dtype=np.int16)
    for j, B in enumerate(presentation.blocks, 1):
        np.minimum(table, sizes[X & B] + min(m - j, n), out=table)
    return Matroid(presentation.labels, table, validate=False)


def oracle_sparse_paving(labels, r: int, hyperplanes) -> Matroid:
    """One record at a time: U_{r,n} with the hyperplanes set to r - 1."""
    table = np.minimum(subset_sizes(len(labels)), r)
    table[list(hyperplanes)] = r - 1
    return Matroid(labels, table, validate=False)


def oracle_minor(M: Matroid, spec: MinorSpec) -> Matroid:
    """The halves walk: each dropped position, highest first, keeps the
    half of the table without it (deleted) or with it (contracted)."""
    drop, C = spec.delete | spec.contract, spec.contract
    table = rt = M.ranks
    for p in reversed(range(M.n)):
        if drop >> p & 1:
            table = core.halves(table, p)[C >> p & 1]
    labels = tuple(M.labels[p] for p in range(M.n) if not drop >> p & 1)
    return Matroid(labels, table - rt[C], validate=False)


def oracle_single_element_minors(M: Matroid) -> list[Matroid]:
    """One matroid at a time, two halves per position."""
    rt = M.ranks
    return [Matroid(M.labels[:p] + M.labels[p + 1:], t, validate=False) for p in range(M.n)
            for t in (core.halves(rt, p)[0], core.halves(rt, p)[1] - rt[1 << p])]


@st.composite
def sparse_paving_records(draw):
    """The corpus generator's records, on 3..12 elements."""
    return corpus._random_sparse_paving(random.Random(draw(st.integers(0, 2**32 - 1))),
                                        draw(st.integers(3, 12)))


@st.composite
def minor_pairs(draw, both=False):
    """A member of the corpus and a spec on it; with ``both``, a member of
    at least 2 elements and a spec that deletes and contracts."""
    M = draw(st.sampled_from([M for M in _CORPUS if M.n >= 2] if both else _CORPUS))
    d, c = draw(st.integers(0, M.E)), draw(st.integers(0, M.E))
    if both:
        p = draw(st.integers(0, M.n - 1))
        c = c & ~(1 << (p + 1) % M.n) | 1 << p
        d |= 1 << (p + 1) % M.n
    return M, MinorSpec(d & ~c, c)


def _sixteen_element_inputs():
    """One input of each stacked build at the 16-element limit."""
    labels = tuple(f"x{i}" for i in range(16))
    system = LaminarCapacitySystem(labels, (0xFFFF, 0x00FF, 0x000F, 0x0F00, 0x3000),
                                   (9, 5, 2, 3, 1))
    chain = NestedPresentation(labels, (0x0003, 0x00FF, 0x0FFF, 0x0FFF, 0xFFFF))
    paving = (labels, 3, (0x7, 0x38, 0x1C0, 0xE00))
    host = mn_family(8, 0)
    return system, chain, paving, host


class TestStackedBuilds:
    """Each stacked build makes the tables and labels that its one-table
    build made, row for row, whatever the mix of element counts, depths
    and block counts in one call, and wherever the runs are cut."""

    @settings(PROPERTY, max_examples=100)
    @given(st.lists(laminar_systems(), max_size=8))
    def test_laminar_stacks(self, systems):
        assert laminar_matroids(systems) == [oracle_laminar_matroid(s) for s in systems]

    @settings(PROPERTY, max_examples=100)
    @given(st.lists(nested_presentations(), max_size=8))
    def test_transversal_stacks(self, presentations):
        want = [oracle_transversal_matroid(p) for p in presentations]
        assert transversal_matroids(presentations) == want

    @settings(PROPERTY, max_examples=100)
    @given(st.lists(sparse_paving_records(), max_size=8))
    def test_sparse_paving_stacks(self, records):
        want = [oracle_sparse_paving(*rec) for rec in records]
        assert constructions._sparse_pavings(records) == want

    @settings(PROPERTY, max_examples=100)
    @given(st.lists(minor_pairs(), max_size=8))
    def test_minor_stacks(self, pairs):
        got = [(N.labels, N.rank_table) for N in minors.minors_of(pairs)]
        assert got == [reference_minor(M, s.delete | s.contract, s.contract) for M, s in pairs]

    @settings(PROPERTY, max_examples=100)
    @given(st.lists(minor_pairs(both=True), min_size=1, max_size=8))
    def test_minor_gather_matches_the_halves_walk(self, pairs):
        assert all(s.delete and s.contract for _, s in pairs)
        assert minors.minors_of(pairs) == [oracle_minor(M, s) for M, s in pairs]

    @settings(PROPERTY, max_examples=100)
    @given(st.lists(small_matroids(), max_size=8))
    def test_single_element_minor_stacks(self, ms):
        want = [oracle_single_element_minors(M) for M in ms]
        assert minors.single_element_minors_of(ms) == want

    def test_sixteen_elements_in_one_row(self):
        system, chain, paving, host = _sixteen_element_inputs()
        assert laminar_matroid(system) == oracle_laminar_matroid(system)
        assert transversal_matroid(chain) == oracle_transversal_matroid(chain)
        assert constructions._sparse_paving(*paving) == oracle_sparse_paving(*paving)
        for spec in (MinorSpec(0, 0), MinorSpec(0x0101, 0x0010), MinorSpec(0x7FFF, 0x8000)):
            assert minor(host, spec) == oracle_minor(host, spec)
        assert single_element_minors(host) == oracle_single_element_minors(host)

    @pytest.mark.parametrize("cells", [1, 1 << 6, 1 << 9])
    def test_stacks_split_across_runs(self, monkeypatch, cells):
        """The draws of a 300-member corpus, and the 16-element inputs,
        with each run cut down to a few rows or to one."""
        rng = random.Random(13)
        names = [name for name, (*_, w) in sorted(corpus._GENERATORS.items()) for _ in range(w)]
        drawn = {name: [] for name in corpus._GENERATORS}
        for _ in range(300):
            name = rng.choice(names)
            drawn[name].append(corpus._GENERATORS[name][0](rng, 8))
        system, chain, paving, host = _sixteen_element_inputs()
        drawn["laminar"].insert(5, system)
        drawn["nested"].insert(5, chain)
        drawn["sparse_paving"].insert(5, paving)
        drawn["named_minor"].insert(5, (host, MinorSpec(0x0101, 0x0010)))
        oracles = {"laminar": oracle_laminar_matroid, "nested": oracle_transversal_matroid,
                   "sparse_paving": lambda rec: oracle_sparse_paving(*rec),
                   "named_minor": lambda pair: oracle_minor(*pair),
                   "graphic": lambda G: Matroid(G.labels, reference_cycle_table(G))}
        want = {name: [oracles[name](x) for x in xs] for name, xs in drawn.items()}
        ms = [M for M, _ in drawn["named_minor"]]
        want_minors = [oracle_single_element_minors(M) for M in ms]
        monkeypatch.setattr(core, "_TABLE_CELLS", cells)
        for name, xs in drawn.items():
            assert corpus._GENERATORS[name][1](xs) == want[name], name
        assert minors.single_element_minors_of(ms) == want_minors

    def test_labels_are_checked_once_per_stack(self, monkeypatch):
        """Members that share a labels tuple share one check, and a bad
        tuple is still refused."""
        calls = []
        real = core._checked_labels

        def counted(labels):
            calls.append(labels)
            return real(labels)

        monkeypatch.setattr(core, "_checked_labels", counted)
        labels = core.default_labels(5)
        systems = [LaminarCapacitySystem(labels, (0b11,), (c,)) for c in (0, 1, 2)]
        assert [M.labels for M in laminar_matroids(systems)] == [labels] * 3
        assert calls == [labels]
        with pytest.raises(core.MatroidError, match="distinct"):
            laminar_matroids([LaminarCapacitySystem(("a", "a"), (), ())])

    def test_sixteen_element_laminar_build_stays_small_in_memory(self):
        """|X ∩ free_t| is gathered one member at a time: an index array
        over every member of a 9-deep family at 16 elements would peak
        near 5 MiB; the one-table build peaked at 1.8 MiB."""
        labels = tuple(f"x{i}" for i in range(16))
        system = LaminarCapacitySystem(
            labels, (0xFFFF, 0x00FF, 0x000F, 0x0F00, 0x3000, 0x0003, 0x00F0, 0xF000),
            (9, 5, 2, 3, 1, 1, 2, 3))
        laminar_matroid(system)
        tracemalloc.start()
        try:
            laminar_matroid(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak

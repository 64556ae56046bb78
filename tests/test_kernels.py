"""Closed forms and vectorised kernels versus the reference scans they replaced.

The graphic-rank DP in ``cycle_matroids``, the table halves behind
``delete``/``contract``/``minor`` and ``single_element_minors``, the
corpus minors, the one-expression tables of
``uniform``, ``truncate``, ``direct_sum`` and ``Matroid.dual``, the rank
formulas of ``laminar_matroid``, ``transversal_matroid``,
``from_cyclic_flats`` and ``parallel_connection``, the two subset passes
of ``matroid_from_circuits``, the sparse paving tables of the Fano plane
and the corpus, the pair generators behind the laminar predicates,
the batched candidate filter of ``has_minor``, the prefix image
search of ``find_isomorphism`` and its pair rows, the one boolean loop behind
``flats`` and ``cyclic_flats``, the stacked circuits pass of
``prime_circuits`` and the halves-view gains of
``validate_rank_axioms`` and the byte-table report writer of
``lamina analyze`` must agree exactly with the plain loops, gathers and
encoders they replaced, which are kept here as oracles.  The
constructors that no longer re-check the rank axioms are checked here
instead: each must still return a table for which
``validate_rank_axioms`` is None.
"""

import contextlib
import io
import itertools
import json
import random
import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

from lamina import cli, constructions, core, corpus, formats
from lamina.core import (
    MAX_ELEMENTS,
    AxiomViolation,
    Matroid,
    prime_circuits,
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
    _disjoint_labels,
    circuit_matroid,
    cycle_matroid,
    cycle_matroids,
    direct_sum,
    from_cyclic_flats,
    laminar_matroid,
    matroid_from_circuits,
    mn_family,
    named_matroid,
    parallel_connection,
    pn_family,
    relax_circuit_hyperplane,
    sec1_pc_example,
    transversal_matroid,
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

    # the oracle runs once per graph of each list, hence fewer examples
    @settings(PROPERTY, max_examples=100)
    @given(st.lists(multigraphs(), max_size=12))
    def test_batches_match_union_find(self, graphs):
        got = [(M.labels, M.rank_table) for M in cycle_matroids(graphs)]
        assert got == [(G.labels, reference_cycle_table(G)) for G in graphs]

    @pytest.mark.parametrize("cells", [1, 1 << 6, constructions._DP_CELLS])
    def test_fixed_batch(self, monkeypatch, cells):
        """No edges, loops only, isolated vertices and 16 edges, with the
        DP split down to one graph at the smallest cell cap."""
        ends = list(range(0, 40, 5)) + list(range(1, 40, 5))
        graphs = [Multigraph(3, ()), Multigraph(1, ((0, 0), (0, 0))),
                  Multigraph(40, tuple(zip(ends, ends[1:] + ends[:1]))),
                  Multigraph(9, ((8, 8), (2, 7), (7, 2))), Multigraph(1, ()),
                  Multigraph(6, ((0, 5), (5, 5), (3, 1)))]
        want = [reference_cycle_table(G) for G in graphs]
        monkeypatch.setattr(constructions, "_DP_CELLS", cells)
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
        got = corpus._random_named_minor(rng, max_elements)
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
        assert nested == replace(is_k_closure_laminar(M, 0), name="nested")
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
        got = corpus._random_sparse_paving(rng, max_elements)
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
    """Circuits come from one stacked pass, flats and cyclic flats from
    one boolean loop over the rank table's halves; the oracles visit
    every mask one bit at a time."""

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


def _primed(ms) -> list[tuple]:
    """The caches that one ``prime_circuits`` call fills on fresh copies."""
    fresh = [Matroid(M.labels, M.rank_table, validate=False) for M in ms]
    prime_circuits(fresh)
    out = [tuple(M._cache[key] for key in ("circuits", "nonspanning", "nonspanning_closures"))
           for M in fresh]
    # numpy integers would pass the comparison but not json.dumps
    assert all(type(v) is int for caches in out for family in caches for v in family)
    return out


def _circuit_loops(M: Matroid) -> tuple:
    """Circuits, the nonspanning ones and their closures, per table."""
    circs = reference_circuits(M)
    nonspanning = tuple(C for C in circs if M.rank(C) < M.full_rank())
    return circs, nonspanning, tuple(M.closure(C) for C in nonspanning)


class TestStackedCircuits:
    """One pass over a stack of same-size tables fills each matroid's
    circuit caches; the oracles scan one table at a time."""

    @PROPERTY
    @given(st.lists(small_matroids(), max_size=8))
    def test_mixed_stacks_match_loops(self, ms):
        assert _primed(ms) == [_circuit_loops(M) for M in ms]

    @pytest.mark.parametrize("M", [_FIXED_TABLES[k] for k in ("n0", "u8_16", "m8_0")],
                             ids=["n0", "u8_16", "m8_0"])
    def test_one_row_stacks(self, M):
        assert _primed([M]) == [_circuit_loops(M)]
        assert M.circuits() == reference_circuits(M)

    @pytest.mark.parametrize("cells", [1 << 9, core._STACK_CELLS])
    def test_stacks_split_across_passes(self, monkeypatch, cells):
        # 119 six-element and 88 seven-element members: 8 and 4 rows per
        # pass at the smaller cap
        monkeypatch.setattr(core, "_STACK_CELLS", cells)
        assert _primed(_CORPUS) == [_circuit_loops(M) for M in _CORPUS]

    def test_primed_matroids_are_skipped(self):
        M = Matroid(("a", "b"), bytes([0, 1, 1, 1]))
        circs = M.circuits()
        prime_circuits([M, M])
        assert M.circuits() is circs

    @PROPERTY
    @given(st.sampled_from(_CORPUS))
    def test_cyclic_flat_matroids_match_family(self, M):
        family = CyclicFlatFamily(M.labels, M.cyclic_flats())
        assert from_cyclic_flats(family).circuits() == circuits_from_cyclic_flats(family)


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
}


class TestAxiomGains:
    """R2 and R3 are read as gains on the halves of the table; the
    oracle gathers every base mask per bit and per pair of bits."""

    @PROPERTY
    @given(edited_tables(small_matroids()))
    def test_match_gathers(self, case):
        assert validate_rank_axioms(*case) == reference_validate_rank_axioms(*case)

    # the oracle takes ~35 ms per 16-element table, hence fewer examples
    @settings(PROPERTY, max_examples=100)
    @given(edited_tables(wide_matroids()))
    def test_match_gathers_on_wide_matroids(self, case):
        assert validate_rank_axioms(*case) == reference_validate_rank_axioms(*case)

    @pytest.mark.parametrize("table, n, want", list(_FIXED_AXIOM_TABLES.values()),
                             ids=list(_FIXED_AXIOM_TABLES))
    def test_fixed_tables(self, table, n, want):
        assert validate_rank_axioms(table, n) == reference_validate_rank_axioms(table, n) == want


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
    ])
    def test_peak_memory_on_sixteen_elements(self, derive, limit):
        """Neither scan gathers through an index array of the whole
        table per element: on a fresh 16-element M_8(0) the cyclic flats
        peak under 1 MiB, the 32 single-element minors under 2 MiB."""
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

"""Matroid constructors: parametric families and generic operations.

Rank tables are validated only where the input is not known to define
a matroid: :func:`matroid_from_circuits` checks the rank axioms on
every table it builds.  Every other constructor first checks its own
input (laminarity, chain order, Z0-Z3, circuit-hyperplane, basepoint)
and then builds its table as a numpy formula that is a matroid by
theorem, named at each call, without re-checking the axioms.  No
constructor re-derives a family of its own result: the circuit and
cyclic-flat round trips are test properties, and the latter is also
the ``thm-bdm-roundtrip`` claim.

The module covers uniform and cycle matroids, laminar capacity systems,
nested transversal presentations, truncation, direct sum, parallel
connection, circuit-hyperplane relaxation, synthesis from a cyclic-flat
lattice, and the named catalog: one table of fixed matroids, whose keys
are :data:`NAMED_FIXED`, and one of parametric families (M_n(k), N_n(k),
P_n(k), the Section 1 example, and notk, which always fails synthesis
and so is never a catalog member), both read by :func:`named_matroid`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (MAX_ELEMENTS, Matroid, MatroidError, build_stacks, check_mask, default_labels,
                   halves, label_mask, subset_sizes)

# ---------------------------------------------------------------------------
# uniform


def uniform(r: int, n: int, labels: Sequence[str] | None = None) -> Matroid:
    """Uniform matroid U_{r,n}: rank(A) = min(|A|, r)."""
    if not 0 <= r <= n:
        raise MatroidError(f"uniform matroid needs 0 <= r <= n, got r={r}, n={n}")
    sizes = subset_sizes(n)
    if labels is None:
        labels = default_labels(n)
    if len(labels) != n:
        raise MatroidError(f"need one label per element: {len(labels)} labels for n={n}")
    # min(|A|, r) with 0 <= r <= n is the rank function of U_{r,n}
    return Matroid(labels, np.minimum(sizes, r), validate=False)


def circuit_matroid(m: int, prefix: str = "e") -> Matroid:
    """An m-element circuit, i.e. U_{m-1,m}."""
    if m < 1:
        raise MatroidError("a circuit needs at least one element")
    return uniform(m - 1, m, tuple(f"{prefix}{i + 1}" for i in range(m)))


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class Multigraph:
    """Vertex count plus labeled edge list; loops and parallel edges allowed."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        edges = tuple((int(u), int(v)) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        if self.vertex_count < 0:
            raise MatroidError("vertex count must be nonnegative")
        for u, v in edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise MatroidError(f"edge ({u},{v}) has an invalid endpoint")
        labels = self.labels
        if not labels:
            labels = default_labels(len(edges))
        if len(labels) != len(edges):
            raise MatroidError("need one label per edge")
        object.__setattr__(self, "labels", tuple(labels))


def cycle_matroid(G: Multigraph) -> Matroid:
    """Cycle matroid of a multigraph: see :func:`cycle_matroids`."""
    return cycle_matroids([G])[0]


def cycle_matroids(graphs: Sequence[Multigraph]) -> list[Matroid]:
    """Cycle matroids of many multigraphs, one DP per edge count.

    rank(A) = (#vertices) - (#components of the spanning subgraph with
    edge set A).  The tables of the graphs with m edges are built
    together, one edge at a time, highest bit last: ``lab[g, :, A]``
    holds the component labels of graph g's endpoints in its subgraph A,
    so adding edge (u, v) to each subset A of the earlier edges relabels
    u's component as v's and raises the rank exactly when the two labels
    differed.  Endpoints are ordered by their last edge, latest first,
    so the ones that edges j.. still read are a prefix: each step keeps
    only that prefix's columns before doubling, and the last keeps none.
    Graphs with fewer endpoints are padded with isolated ones, and
    graphs with fewer edges (see :func:`~lamina.core.build_stacks`) with
    later loops.  The DP takes one :func:`~lamina.core.runs` of label
    cells at a time.
    """
    for G in graphs:
        if len(G.edges) > MAX_ELEMENTS:
            raise MatroidError(f"too many edges: {len(G.edges)} > {MAX_ELEMENTS}")
    # a graph has at most 2m endpoints that an edge reads
    return build_stacks(graphs, lambda G: len(G.edges),
                        lambda group, m: min(2 * m, max(G.vertex_count for G in group)) << m,
                        _cycle_tables)


def _cycle_tables(graphs: list[Multigraph], m: int):
    """Labels and rank tables of multigraphs with at most ``m`` edges."""
    ends = []
    for G in graphs:
        last = {x: j for j, e in enumerate(G.edges) for x in e}
        pos = {x: p for p, x in enumerate(sorted(last, key=last.get, reverse=True))}
        ends += [pos[x] for e in G.edges for x in e]
        # up to m edges with loops at endpoint 0: the table's first
        # 2^m_i entries never hold them
        ends += [0] * (2 * (m - len(G.edges)))
    # only the at most 2m endpoints matter, so labels fit in uint8
    ends = np.array(ends, dtype=np.intp).reshape(len(graphs), m, 2)
    # edges j.. read the first keep[j] endpoints, and edge m reads none
    keep = np.append(np.maximum.accumulate(ends.max(axis=(0, 2))[::-1])[::-1] + 1, 0)
    g = np.arange(len(graphs))
    lab = np.tile(np.arange(keep[0], dtype=np.uint8)[:, None], (len(graphs), 1, 1))
    rank = np.zeros((len(graphs), 1), dtype=np.uint8)
    for j in range(m):
        lu, lv = lab[g, ends[:, j, 0]], lab[g, ends[:, j, 1]]
        rank = np.concatenate((rank, rank + (lu != lv)), axis=1)
        lab = lab[:, :keep[j + 1]]
        lab = np.concatenate((lab, np.where(lab == lu[:, None], lv[:, None], lab)), axis=2)
    # the forests of a graph are the independent sets of a matroid
    return [G.labels for G in graphs], rank


class FamilyError(MatroidError):
    """A family of sets failed its constructor's own check; ``members``
    are the positions of the offending members in the family's order."""

    def __init__(self, message: str, members: tuple[int, ...]):
        super().__init__(message)
        self.members = members


# ---------------------------------------------------------------------------
# laminar capacity systems


@dataclass(frozen=True)
class LaminarCapacitySystem:
    """(E, family, capacities): independence is |I ∩ A| <= c(A) for all A."""

    labels: tuple[str, ...]
    family: tuple[int, ...]
    capacities: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "family", tuple(self.family))
        object.__setattr__(self, "capacities", tuple(self.capacities))
        if len(self.family) != len(self.capacities):
            raise MatroidError("need one capacity per family member")
        for j, c in enumerate(self.capacities):
            if c < 0:
                raise FamilyError("capacities must be nonnegative", (j,))
        for A in self.family:
            check_mask(A, len(self.labels), "family member")

    def check_laminar(self) -> None:
        """Raise unless any two intersecting members are nested."""
        fam = self.family
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                a, b = fam[i], fam[j]
                if a & b and (a & ~b) and (b & ~a):
                    raise FamilyError(
                        f"family is not laminar: members {a:#x} and {b:#x} "
                        "intersect without nesting", (i, j))


def laminar_matroid(system: LaminarCapacitySystem) -> Matroid:
    """Matroid M(E, family, c) of a laminar capacity system: see
    :func:`laminar_matroids`."""
    return laminar_matroids([system])[0]


def laminar_matroids(systems: Sequence[LaminarCapacitySystem]) -> list[Matroid]:
    """Matroids of many laminar capacity systems, built together by
    element count.

    rank(X) is the size of a maximum I ⊆ X respecting every capacity.
    Members are taken by ascending size, each replacing the roots of the
    forest built so far that lie inside it: a member A with roots R_i
    inside it has r_A(X) = min(c(A), |X ∩ (A - ∪ R_i)| + Σ r_{R_i}(X)),
    and rank(X) = Σ r_R(X) over the final roots + |X - ∪ roots|, which is
    r_E of a last member E of capacity n over those roots.  So member t
    adds r_t to the first later member that contains it, its parent, and
    a stack pads every family with empty members to one depth (they sort
    first and add 0): ``acc[:, t]`` gathers the children of member t of
    every system before t is capped.  Only the families' laminarity is
    checked; the tables are not re-validated against the rank axioms.
    """
    for system in systems:
        system.check_laminar()
    # capacities on a laminar family define a matroid (laminar matroid)
    return build_stacks(systems, lambda s: len(s.labels),
                        lambda group, n: (1 + max(len(s.family) for s in group)) << n,
                        _laminar_tables)


def _laminar_tables(systems: list[LaminarCapacitySystem], n: int):
    """Labels and rank tables of laminar systems on at most ``n`` elements."""
    rows, width = len(systems), max(len(s.family) for s in systems)
    masks, caps = [], []
    for s in systems:
        pad = (0,) * (width - len(s.family))
        masks += s.family + pad
        # r_A(X) <= |A| <= n, so a larger capacity never binds
        caps += [c if c < n else n for c in s.capacities] + list(pad)
    sizes = subset_sizes(n).astype(np.uint8)
    # every family by size, then E on top: equal sizes are disjoint or
    # equal members, whose order the minima do not see
    fam = np.array(masks, dtype=np.intp).reshape(rows, width)
    order = np.argsort(sizes[fam], axis=1, kind="stable")
    fam = np.take_along_axis(fam, order, axis=1)
    cap = np.take_along_axis(np.array(caps, dtype=np.uint8).reshape(rows, width), order, axis=1)
    fam = np.concatenate((fam, np.full((rows, 1), (1 << n) - 1)), axis=1)
    cap = np.concatenate((np.minimum(cap, sizes[fam[:, :-1]]), np.full((rows, 1), n, np.uint8)),
                         axis=1)[:, :, None]
    # the parent of member t: the first later member u that contains it
    depth = width + 1
    inside = (fam[:, :, None] & ~fam[:, None, :]) == 0
    parent = np.argmax(inside & np.triu(np.ones((depth, depth), dtype=bool), 1), axis=2)
    children = parent[:, :-1, None] == np.arange(depth)
    free = fam & ~np.bitwise_or.reduce(np.where(children, fam[:, :-1, None], 0), axis=1)
    X, at = np.arange(1 << n), np.arange(rows)
    acc = np.zeros((rows, depth, 1 << n), dtype=np.uint8)
    for t in range(depth):
        # |X ∩ free_t| one member at a time, so no index array spans the depth
        value = acc[:, t]
        value += sizes[X & free[:, t, None]]
        np.minimum(value, cap[:, t], out=value)
        if t < width:
            acc[at, parent[:, t]] += value
    return [s.labels for s in systems], acc[:, -1]


# ---------------------------------------------------------------------------
# nested transversal presentations


@dataclass(frozen=True)
class NestedPresentation:
    """Chain of blocks B_1 ⊆ B_2 ⊆ ... ⊆ B_m over the ground set."""

    labels: tuple[str, ...]
    blocks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "blocks", tuple(self.blocks))
        for B in self.blocks:
            check_mask(B, len(self.labels), "block")

    def check_chain(self) -> None:
        for j, (a, b) in enumerate(zip(self.blocks, self.blocks[1:])):
            if a & ~b:
                raise FamilyError("blocks do not form a chain B_1 ⊆ ... ⊆ B_m", (j, j + 1))


def transversal_matroid(presentation: NestedPresentation) -> Matroid:
    """Nested transversal matroid of a chain presentation: see
    :func:`transversal_matroids`."""
    return transversal_matroids([presentation])[0]


def transversal_matroids(presentations: Sequence[NestedPresentation]) -> list[Matroid]:
    """Nested transversal matroids of many chain presentations, built
    together by element count.

    rank(X) is the maximum matching between X and the blocks.  For a
    chain B_1 ⊆ ... ⊆ B_m a minimum vertex cover takes the blocks above
    some B_j and the elements of X in B_j (König), so
    rank(X) = min over j = 0..m of |X ∩ B_j| + m - j, with B_0 = ∅.  A
    stack pads every chain at the end with the block E at offset n, a
    term of at least |X|, which never binds.  Only the chain order is checked; the tables
    are not re-validated against the rank axioms.
    """
    for presentation in presentations:
        presentation.check_chain()
    # partial transversals of a set system form a matroid (Edmonds-Fulkerson)
    return build_stacks(presentations, lambda p: len(p.labels), lambda group, n: 1 << n,
                        _transversal_tables)


def _transversal_tables(presentations: list[NestedPresentation], n: int):
    """Labels and rank tables of chain presentations on at most ``n`` elements."""
    width = max(len(p.blocks) for p in presentations)
    E = (1 << n) - 1
    blocks = []
    for p in presentations:
        blocks += p.blocks + (E,) * (width - len(p.blocks))
    blocks = np.array(blocks, dtype=np.intp).reshape(len(presentations), width, 1)
    # block j (from 0) has the term m - 1 - j, and a padding block n; a
    # term above n never binds, as rank(X) <= |X ∩ B_m| <= n
    m = np.array([len(p.blocks) for p in presentations])[:, None]
    j = np.arange(width)
    offsets = np.where(j < m, np.minimum(m - 1 - j, n), n).astype(np.int16)[:, :, None]
    sizes, X = subset_sizes(n), np.arange(1 << n)
    table = np.repeat(np.minimum(m, n).astype(np.int16), 1 << n, axis=1)
    for j in range(width):
        np.minimum(table, sizes[X & blocks[:, j]] + offsets[:, j], out=table)
    return [p.labels for p in presentations], table


# ---------------------------------------------------------------------------
# generic operations


def truncate(M: Matroid, t: int) -> Matroid:
    """Cap the rank function at ``t``."""
    if not 0 <= t <= M.full_rank():
        raise MatroidError(f"truncation rank {t} out of range [0, {M.full_rank()}]")
    # a truncation of a matroid is a matroid
    return Matroid(M.labels, np.minimum(M.ranks, t), validate=False)


def _disjoint_labels(first: Sequence[str], second: Sequence[str]) -> tuple[str, ...]:
    """Rename clashes in ``second`` deterministically by appending primes."""
    used = set(first)
    out = []
    for lab in second:
        new = lab
        while new in used:
            new += "'"
        used.add(new)
        out.append(new)
    return tuple(out)


def direct_sum(M1: Matroid, M2: Matroid) -> Matroid:
    """Direct sum: rank(A) = r1(A ∩ E1) + r2(A ∩ E2)."""
    n = M1.n + M2.n
    if n > MAX_ELEMENTS:
        raise MatroidError(f"direct sum too large: {n} > {MAX_ELEMENTS}")
    labels = M1.labels + _disjoint_labels(M1.labels, M2.labels)
    # mask A = (A >> n1) * 2**n1 + (A & E1), so row A >> n1, column A & E1;
    # a direct sum of matroids is a matroid
    return Matroid(labels, M2.ranks[:, None] + M1.ranks, validate=False)


def matroid_from_circuits(labels: Sequence[str], circuits: Iterable[int]) -> Matroid:
    """Build a matroid whose circuits are exactly the given masks.

    Independence is "contains no listed circuit": an OR pass over
    subsets, one element at a time, marks the sets that contain one, and
    a max pass then gives r(A) = the largest independent subset of A.
    Raises if the family is not an antichain or if the table fails the
    rank axioms.  The minimal dependent sets of this table are exactly
    the listed antichain, so its circuits are not re-derived; the tests
    keep that as a property.
    """
    labels = tuple(labels)
    n = len(labels)
    sizes = subset_sizes(n)
    circs = [int(C) for C in circuits]
    for C in circs:
        if C == 0 or C >> n:
            raise MatroidError(f"invalid circuit mask {C:#x}")

    def up(table, op):
        # the masks with bit i set follow, in blocks, those without it
        for i in range(n):
            without, with_i = halves(table, i)
            op(with_i, without, out=with_i)
        return table

    dep = np.zeros(1 << n, dtype=bool)
    dep[circs] = True
    up(dep, np.logical_or)
    # a listed circuit contains another exactly when some C - e is dependent
    C = np.array(circs, dtype=np.intp)
    if any(dep[C[C >> i & 1 == 1] ^ 1 << i].any() for i in range(n)):
        raise MatroidError("circuit family is not an antichain")
    # an antichain need not be a circuit family: check the axioms
    return Matroid(labels, up(np.where(dep, 0, sizes).astype(np.uint8), np.maximum))


def parallel_connection(M1: Matroid, p1: str, M2: Matroid, p2: str) -> Matroid:
    """Parallel connection of (M1, p1) and (M2, p2) at a shared basepoint.

    The basepoint keeps M1's label; M2's other elements follow M1's, in
    order, renamed on clash.  With X1 and X2 the parts of X in E1 and E2,
    the basepoint p in both when p ∈ X,
    r(X) = r1(X1) + r2(X2) - [p ∈ cl1(X1) and p ∈ cl2(X2)].
    """
    i1 = M1.labels.index(p1) if p1 in M1.labels else -1
    i2 = M2.labels.index(p2) if p2 in M2.labels else -1
    if i1 < 0:
        raise MatroidError(f"unknown basepoint {p1!r} in first matroid")
    if i2 < 0:
        raise MatroidError(f"unknown basepoint {p2!r} in second matroid")
    for M, i, name in ((M1, i1, p1), (M2, i2, p2)):
        bit = 1 << i
        if M.rank_table[bit] == 0:
            raise MatroidError(f"basepoint {name!r} is a loop")
        if M.rank_table[M.E ^ bit] < M.full_rank():
            raise MatroidError(f"basepoint {name!r} is a coloop")
    n = M1.n + M2.n - 1
    if n > MAX_ELEMENTS:
        raise MatroidError(f"parallel connection too large: {n} > {MAX_ELEMENTS}")

    labels = M1.labels + _disjoint_labels(M1.labels, M2.labels[:i2] + M2.labels[i2 + 1:])
    rt1, rt2 = M1.ranks, M2.ranks
    # r2(X2) - [p ∈ cl2(X2)] is the same with p taken out of X2, so row
    # X >> n1 reads M2 at X2 - p and column X & E1 reads M1 at X1
    without2, with2 = halves(rt2, i2)
    in_cl2 = (with2 == without2).ravel()
    # r1(X1 + p) at every X1 is the upper half at p, twice over
    with1 = halves(rt1, i1)[1]
    in_cl1 = np.stack((with1, with1), axis=1).ravel() == rt1
    # p is no loop, so r1(X1) >= 1 wherever p ∈ cl1(X1)
    table = without2.reshape(-1, 1) + rt1 - (in_cl2[:, None] & in_cl1)
    # the rank function of a parallel connection (Oxley, Matroid Theory, §7.1)
    return Matroid(labels, table, validate=False)


def relax_circuit_hyperplane(M: Matroid, X: int) -> Matroid:
    """Turn a circuit-hyperplane ``X`` into a basis (rank(X) := |X|)."""
    if not M.is_circuit(X):
        raise MatroidError(f"mask {X:#x} is not a circuit")
    if not (M.is_flat(X) and M.rank_table[X] == M.full_rank() - 1):
        raise MatroidError(f"mask {X:#x} is not a hyperplane")
    table = M.ranks.copy()
    table[X] = X.bit_count()
    # relaxing a circuit-hyperplane yields a matroid
    return Matroid(M.labels, table, validate=False)


# ---------------------------------------------------------------------------
# cyclic-flat synthesis (Z0-Z3)


@dataclass(frozen=True)
class ZViolation:
    """Which cyclic-flat axiom failed, with the offending member masks."""

    axiom: str
    witness: tuple[int, ...]


class ZAxiomError(FamilyError):
    """A candidate cyclic-flat family failed one of Z0-Z3."""

    def __init__(self, violation: ZViolation, members: tuple[int, ...] = ()):
        super().__init__(
            f"cyclic-flat axiom {violation.axiom} violated at masks "
            f"{tuple(hex(w) for w in violation.witness)}", members)
        self.violation = violation


@dataclass(frozen=True)
class CyclicFlatFamily:
    """Candidate lattice of (subset mask, rank) pairs over labeled ground set."""

    labels: tuple[str, ...]
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(
            self, "entries", tuple((int(m), int(r)) for m, r in self.entries)
        )
        first: dict[int, int] = {}
        for j, (m, _) in enumerate(self.entries):
            if first.setdefault(m, j) != j:
                raise FamilyError("cyclic-flat members must be distinct", (first[m], j))
        for j, (m, r) in enumerate(self.entries):
            check_mask(m, len(self.labels), "member")
            if r < 0:
                raise FamilyError("ranks must be nonnegative", (j,))

    def mask(self, names: Iterable[str]) -> int:
        return label_mask({lab: i for i, lab in enumerate(self.labels)}, names)


# Cells of one chunk of the pair-by-member ORs in _bounds
_BOUND_CELLS = 1 << 16


def _bounds(sides: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """From the member masks and their complements, ``sides[0]`` and
    ``sides[1]``: the members' inclusion matrix (``incl[a, b]``: member
    a within member b) and, for every pair (x, y) of members, ``out[0]``,
    the union of the members within X ∩ Y, and ``out[1]``, the
    intersection of the members containing X ∪ Y.

    Side 1 is side 0 on the complements, where inclusion is reversed.
    Each is an OR over the members z, in chunks of x of at most
    ``_BOUND_CELLS`` (pair, z) cells, or one x per chunk.
    """
    m = sides.shape[1]
    # within[s, z, x]: side s of z within side s of x
    within = (sides[:, :, None] & ~sides[:, None, :]) == 0
    below = within * sides[:, :, None]
    out = np.empty((2, m, m), dtype=sides.dtype)
    step = max(1, _BOUND_CELLS // (2 * m * m))
    for s in range(0, m, step):
        np.bitwise_or.reduce(below[:, :, s:s + step, None] & below[:, :, None, :], axis=1,
                             out=out[:, s:s + step])
    out[1] ^= (1 << n) - 1
    return within[0], out


def _first_pair(bad: np.ndarray, Z: np.ndarray) -> tuple[int, int]:
    """The member masks at the first true entry of ``bad`` in row-major
    order: for a symmetric ``bad`` with a false diagonal, the first pair
    in ``combinations`` order."""
    a, b = divmod(int(np.argmax(bad)), len(Z))
    return int(Z[a]), int(Z[b])


def validate_z_axioms(family: CyclicFlatFamily) -> ZViolation | None:
    """Check axioms Z0-Z3 on a candidate cyclic-flat family.

    Meet/join are resolved inside the family by inclusion: the unique
    maximal member below X ∩ Y and the unique minimal member above
    X ∪ Y.  Returns the first violation in (Z0, Z1, Z2, Z3) order, or
    ``None`` when the family defines a matroid.  Within an axiom the
    witness is the first failing pair of members in entry order, over
    ``combinations`` for Z0 and Z3 and ``permutations`` for Z2.

    Each pair's meet and join are worked out once, for Z0 and Z3: the
    union of the members within X ∩ Y and the intersection of those
    containing X ∪ Y are members exactly when the meet and join exist,
    and are then the meet and join.  Both are ORs over the members below
    (on the complements, above) each pair, read from the m × m
    member-inclusion matrix: O(m³) cells, in chunks of at most
    ``_BOUND_CELLS``.  Z1-Z3 are elementwise over the m × m pairs.
    """
    entries = family.entries
    if not entries:
        return ZViolation("Z1", ())
    n = len(family.labels)
    sizes = subset_sizes(n)  # refuses more than MAX_ELEMENTS labels
    masks, ranks = zip(*entries)
    full = (1 << n) - 1
    sides = np.array((masks, [full ^ z for z in masks]))
    Z = sides[0]
    # ranks past int64 stay exact as Python ints
    R = np.array(ranks, dtype=np.int64 if max(ranks) < 1 << 62 else object)
    # 1 + each rank, which Z3 reads only once Z2 has put it in 0..n
    R1 = np.minimum(R, n) + 1
    incl, bounds = _bounds(sides, n)
    # R1 at each member's mask, 0 at the other masks
    rank_of = np.zeros(1 << n, dtype=np.int16)
    rank_of[Z] = R1
    r_bounds = rank_of[bounds]
    if np.count_nonzero(r_bounds) < r_bounds.size:
        return ZViolation("Z0", _first_pair((r_bounds == 0).any(0), Z))
    # two minimal members would both be their meet, so the bottom is
    # the least member, and within every member
    size = sizes[Z]
    bottom = size.argmin()
    if R[bottom] != 0:
        return ZViolation("Z1", (int(Z[bottom]),))

    # X ⊊ Y with r(X) < r(Y) and |X| - r(X) < |Y| - r(Y); the diagonal,
    # X ⊆ X, is always bad
    nullity = size - R
    bad = incl > (R[:, None] < R) & (nullity[:, None] < nullity)
    if np.count_nonzero(bad) > len(Z):
        np.fill_diagonal(bad, False)
        return ZViolation("Z2", _first_pair(bad, Z))

    # r(X) + r(Y) >= r(join) + r(meet) + |X ∩ Y - meet|, every rank here
    # one too high
    bad = R1[:, None] + R1 < r_bounds[0] + r_bounds[1] + sizes[Z & Z[:, None] ^ bounds[0]]
    if np.count_nonzero(bad):
        return ZViolation("Z3", _first_pair(bad, Z))
    return None


def from_cyclic_flats(family: CyclicFlatFamily) -> Matroid:
    """Synthesize the matroid whose cyclic flats are exactly ``family``.

    Validates Z0-Z3, then builds rank(X) = min over members (Z, r) of
    r + |X - Z|.  Neither the rank axioms nor the cyclic flats of the
    result are re-derived: the round trip is the ``thm-bdm-roundtrip``
    claim of ``lamina verify`` and a test property.
    """
    v = validate_z_axioms(family)
    if v is not None:
        masks = [Z for Z, _ in family.entries]  # distinct, so a mask is a position
        raise ZAxiomError(v, tuple(masks.index(w) for w in v.witness))
    n = len(family.labels)
    sizes = subset_sizes(n)
    X = np.arange(1 << n)
    # a running minimum, so no m tables are held at once
    table = functools.reduce(np.minimum, (sizes[X & ~Z] + r for Z, r in family.entries))
    # a family satisfying Z0-Z3 is the cyclic-flat lattice of this matroid
    # (Bonin and de Mier)
    return Matroid(family.labels, table, validate=False)


# ---------------------------------------------------------------------------
# named catalog


def _sparse_paving(labels: Sequence[str], r: int, hyperplanes: Iterable[int]) -> Matroid:
    """U_{r,n} with the given r-sets lowered to rank r - 1: see
    :func:`_sparse_pavings`."""
    return _sparse_pavings([(tuple(labels), r, tuple(hyperplanes))])[0]


def _sparse_pavings(records: Sequence[tuple[tuple[str, ...], int, tuple[int, ...]]]
                    ) -> list[Matroid]:
    """Sparse paving matroids of many ``(labels, r, hyperplanes)`` records,
    built together by element count: U_{r,n} with the given r-sets
    lowered to rank r - 1, one scatter per stack.  Callers pass r-sets
    that meet pairwise in at most r - 2 elements."""
    # such r-sets are the circuit-hyperplanes of a sparse paving matroid
    return build_stacks(records, lambda rec: len(rec[0]), lambda group, n: 1 << n,
                        _sparse_paving_tables)


def _sparse_paving_tables(records: list, n: int):
    """Labels and rank tables of sparse paving records on at most ``n`` elements."""
    r = np.array([rec[1] for rec in records], dtype=np.int16)
    table = np.minimum(subset_sizes(n), r[:, None])
    at = [row << n | H for row, (_, _, hyperplanes) in enumerate(records) for H in hyperplanes]
    table.ravel()[at] = np.repeat(r - 1, [len(rec[2]) for rec in records])
    return [rec[0] for rec in records], table


def _fano() -> Matroid:
    lines = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    # the lines of PG(2, 2) meet pairwise in one point
    return _sparse_paving(tuple(f"f{i + 1}" for i in range(7)), 3,
                          (sum(1 << i for i in line) for line in lines))


def _theta_graph(n: int, k: int) -> Multigraph:
    """Two vertices joined by internally disjoint paths of lengths k, n-k, n-k."""
    edges: list[tuple[int, int]] = []
    labels: list[str] = []
    nv = 2
    for length, prefix in ((k, "p"), (n - k, "x"), (n - k, "y")):
        # from vertex 0 through length - 1 new vertices to vertex 1
        path = [0, *range(nv, nv + length - 1), 1]
        nv += length - 1
        edges += zip(path, path[1:])
        labels += (f"{prefix}{i + 1}" for i in range(length))
    return Multigraph(nv, tuple(edges), tuple(labels))


def mn_family(n: int, k: int) -> Matroid:
    """M_n(k): rank-n truncation of the theta-graph cycle matroid.

    For k = 0 the theta description degenerates, so the matroid is built
    as the rank-n truncation of the direct sum of two n-circuits.
    """
    if k < 0 or n < k + 2:
        raise MatroidError(f"M_n(k) needs n >= k+2 >= 2, got n={n}, k={k}")
    if 2 * n - k > MAX_ELEMENTS:
        raise MatroidError(f"M_{n}({k}) needs {2 * n - k} elements > {MAX_ELEMENTS}")
    if k == 0:
        base = direct_sum(circuit_matroid(n, "x"), circuit_matroid(n, "y"))
    else:
        base = cycle_matroid(_theta_graph(n, k))
    return truncate(base, n)


def _glued_circuit(size: int, prefix: str, arm_size: int, arm_prefixes: str) -> Matroid:
    """A ``size``-circuit labelled prefix1, prefix2, ... with an
    ``arm_size``-circuit glued on by parallel connection at each of
    prefix1 and prefix2, the two arms labelled from ``arm_prefixes``."""
    out = circuit_matroid(size, prefix)
    for i, p in enumerate(arm_prefixes, 1):
        out = parallel_connection(out, f"{prefix}{i}", circuit_matroid(arm_size, p), f"{p}1")
    return out


def nn_family(n: int, k: int) -> Matroid:
    """N_n(k): rank-n truncation of a (k+2)-circuit with two (n-k)-circuits
    glued on by parallel connection at the distinct elements c1 and c2.

    The central circuit carries labels c1..c{k+2}; contracting any
    non-basepoint central element (c3, say) yields P_{n-1}(k).
    """
    if not (n >= k + 3 >= 5):
        raise MatroidError(f"N_n(k) needs n >= k+3 >= 5, got n={n}, k={k}")
    if 2 * n - k > MAX_ELEMENTS:
        raise MatroidError(f"N_{n}({k}) needs {2 * n - k} elements > {MAX_ELEMENTS}")
    return truncate(_glued_circuit(k + 2, "c", n - k, "uv"), n)


def pn_family(n: int, k: int) -> Matroid:
    """P_n(k): rank-n truncation of a (k+1)-circuit with two (n-k+1)-circuits
    glued on by parallel connection at the distinct elements c1 and c2."""
    if not (n >= k + 2 >= 4):
        raise MatroidError(f"P_n(k) needs n >= k+2 >= 4, got n={n}, k={k}")
    if 2 * n - k + 1 > MAX_ELEMENTS:
        raise MatroidError(f"P_{n}({k}) needs {2 * n - k + 1} elements > {MAX_ELEMENTS}")
    return truncate(_glued_circuit(k + 1, "c", n - k + 1, "uv"), n)


def notk_cyclic_flats(k: int) -> CyclicFlatFamily:
    """Cyclic-flat table of the rank-(2k-1) counterexample matroid.

    Ground set A ∪ B ∪ C ∪ {e} with A = {a1..a_{k-1}}, B, C alike and
    D = {e, a1, b1, c1}; members are ∅, the three symmetric differences
    with D at rank k, C_a = A ∪ C and C_b = B ∪ C at rank 2k-3, their
    unions with D at rank 2k-2, and everything at rank 2k-1.

    The family always violates axiom Z3: the two rank-k members A△D and
    B△D meet in the two elements {e, c1}, their lattice meet is ∅ and
    their join is the full set, so Z3 demands 2k >= (2k-1) + 2.  No rank
    reassignment on these nine sets repairs it either (Z2 pins the top
    three ranks to consecutive values, and the remaining pairs then
    force contradictory bounds), so :func:`from_cyclic_flats` raises for
    every k.  The family is kept because the verification harness
    documents this failure with its exact witness pair.
    """
    if k < 3:
        raise MatroidError("notk_cyclic_flats needs k >= 3")
    m = k - 1
    labels = tuple(f"{p}{i + 1}" for p in "abc" for i in range(m)) + ("e",)
    if len(labels) > MAX_ELEMENTS:
        raise MatroidError(f"notk_cyclic_flats({k}) needs {len(labels)} elements > {MAX_ELEMENTS}")
    # A, B and C are consecutive blocks of m positions, and e comes last
    A, B, C = (((1 << m) - 1) << j * m for j in range(3))
    D = 1 << 3 * m | 1 << 2 * m | 1 << m | 1
    Ca = A | C
    Cb = B | C
    entries = (
        (0, 0),
        (C ^ D, k),
        (A ^ D, k),
        (B ^ D, k),
        (Ca, 2 * k - 3),
        (Cb, 2 * k - 3),
        (Ca | D, 2 * k - 2),
        (Cb | D, 2 * k - 2),
        (A | B | C | D, 2 * k - 1),
    )
    return CyclicFlatFamily(labels, entries)


def notk_example(k: int) -> Matroid:
    """Attempt the matroid synthesis for :func:`notk_cyclic_flats`.

    Intended as a k-closure-laminar matroid (k >= 4) whose contraction
    at ``e`` is not k-closure-laminar; the defining family fails the
    cyclic-flat lattice axioms (see :func:`notk_cyclic_flats`), so this
    always raises :class:`ZAxiomError` carrying the witness pair."""
    if k < 4:
        raise MatroidError("notk_example needs k >= 4")
    return from_cyclic_flats(notk_cyclic_flats(k))


def sec1_pc_example(k: int) -> Matroid:
    """(k+1)-circuit with triangles glued by parallel connection at d1, d2:
    k-laminar but not k-closure-laminar (k >= 2)."""
    if k < 2:
        raise MatroidError("sec1_pc_example needs k >= 2")
    if k + 5 > MAX_ELEMENTS:
        raise MatroidError(f"sec1_pc_example({k}) needs {k + 5} elements > {MAX_ELEMENTS}")
    return _glued_circuit(k + 1, "d", 3, "ts")


def _mk23() -> Matroid:
    # K_{2,3}: vertices {0,1} vs {2,3,4}
    return cycle_matroid(Multigraph(5, ((0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4))))


def _mk23_minus() -> Matroid:
    M = _mk23()
    X = next(C for C in M.circuits() if M.rank_table[C] == M.full_rank() - 1)
    return relax_circuit_hyperplane(M, X)


# identifier -> builder of each fixed catalog matroid, in catalog order
_FIXED = {
    "mk23": _mk23,
    "mk23minus": _mk23_minus,
    "mk4": lambda: cycle_matroid(Multigraph(4, tuple(itertools.combinations(range(4), 2)))),
    "f7": _fano,
    "f7star": lambda: _fano().dual(),
    "mstark33": lambda: cycle_matroid(
        Multigraph(6, tuple(itertools.product((0, 1, 2), (3, 4, 5))))).dual(),
    # the wheel W_4 (hub 0, rim 1-4) with rim edge (1, 2) deleted
    "wheel4rimdel": lambda: cycle_matroid(
        Multigraph(5, ((0, 1), (0, 2), (0, 3), (0, 4), (2, 3), (3, 4), (4, 1)))),
}

NAMED_FIXED = tuple(_FIXED)

# identifier -> (builder of each parametric family, the parameters it
# takes in (n, k) order)
_FAMILIES = {
    "mn": (mn_family, "nk"),
    "nn": (nn_family, "nk"),
    "pn": (pn_family, "nk"),
    "notk": (notk_example, "k"),
    "notkexample": (notk_example, "k"),
    "sec1pc": (sec1_pc_example, "k"),
    "sec1pcexample": (sec1_pc_example, "k"),
    "uniform": (lambda n, k: uniform(k, n), "nk"),
}


def named_matroid(name: str, n: int | None = None, k: int | None = None) -> Matroid:
    """Build a catalog matroid by identifier.

    The catalog is two tables.  Fixed matroids, listed in table order by
    :data:`NAMED_FIXED`, take no parameter.  Of the parametric families,
    ``mn``, ``nn``, ``pn`` need n and k, ``notk`` (``notk-example``) and
    ``sec1pc`` (``sec1-pc-example``) need k, and ``uniform`` reads its
    size from n and its rank from k.  The first missing parameter in
    (n, k) order is reported, and then the first given parameter that
    the name does not take.  Case, dashes and underscores in ``name``
    are ignored.  ``notk`` always raises :class:`ZAxiomError`, so it is
    never a catalog member.
    """
    key = name.strip().lower().replace("-", "").replace("_", "")
    if key in _FIXED:
        build, params = _FIXED[key], ""
    elif key in _FAMILIES:
        build, params = _FAMILIES[key]
    else:
        raise MatroidError(f"unknown catalog matroid {name!r}")
    given = {"n": n, "k": k}
    for p in params:
        if given[p] is None:
            raise MatroidError(f"family {name!r} requires parameter {p}")
    for p in given:
        if p not in params and given[p] is not None:
            raise MatroidError(f"family {name!r} takes no parameter {p}")
    return build(*(given[p] for p in params))

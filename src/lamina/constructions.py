"""Matroid constructors: parametric families and generic operations.

Rank tables are validated only where the input is not known to define
a matroid: :func:`matroid_from_circuits` checks the rank axioms on
every table it builds.  Every other constructor first checks its own
input (laminarity, chain order, Z0-Z3, circuit-hyperplane, basepoint)
and then builds its table as a numpy formula that is a matroid by
theorem, named at each call, without re-checking the axioms.

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
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import MAX_ELEMENTS, Matroid, MatroidError, halves, subset_sizes

# ---------------------------------------------------------------------------
# uniform


def uniform(r: int, n: int, labels: Sequence[str] | None = None) -> Matroid:
    """Uniform matroid U_{r,n}: rank(A) = min(|A|, r)."""
    if not 0 <= r <= n:
        raise MatroidError(f"uniform matroid needs 0 <= r <= n, got r={r}, n={n}")
    if n > MAX_ELEMENTS:
        raise MatroidError(f"ground set too large: {n} > {MAX_ELEMENTS}")
    if labels is None:
        labels = tuple(f"e{i + 1}" for i in range(n))
    if len(labels) != n:
        raise MatroidError(f"need one label per element: {len(labels)} labels for n={n}")
    table = np.minimum(subset_sizes(n), r).astype(np.uint8)
    # min(|A|, r) with 0 <= r <= n is the rank function of U_{r,n}
    return Matroid(labels, table.tobytes(), validate=False)


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
            labels = tuple(f"e{i + 1}" for i in range(len(edges)))
        if len(labels) != len(edges):
            raise MatroidError("need one label per edge")
        object.__setattr__(self, "labels", tuple(labels))


# Cells of one graphic DP (graphs x endpoints x subsets): under 1 MiB of labels
_DP_CELLS = 1 << 17


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
    differed.  Graphs with fewer endpoints are padded with isolated ones.
    """
    by_m: dict[int, list[int]] = {}
    for i, G in enumerate(graphs):
        if len(G.edges) > MAX_ELEMENTS:
            raise MatroidError(f"too many edges: {len(G.edges)} > {MAX_ELEMENTS}")
        by_m.setdefault(len(G.edges), []).append(i)
    out: list[Matroid] = [None] * len(graphs)
    for m, members in by_m.items():
        # only the at most 2m endpoints matter, so labels fit in uint8
        ends = []
        for i in members:
            pos = {x: j for j, x in enumerate(sorted({x for e in graphs[i].edges for x in e}))}
            ends.append([pos[x] for e in graphs[i].edges for x in e])
        ends = np.array(ends, dtype=np.intp).reshape(len(members), m, 2)
        width = int(ends.max(initial=0)) + 1
        rows = max(1, _DP_CELLS // (width << m))
        for start in range(0, len(members), rows):
            e = ends[start:start + rows]
            g = np.arange(len(e))
            lab = np.tile(np.arange(width, dtype=np.uint8)[:, None], (len(e), 1, 1))
            rank = np.zeros((len(e), 1), dtype=np.uint8)
            for j in range(m):
                lu, lv = lab[g, e[:, j, 0]], lab[g, e[:, j, 1]]
                rank = np.concatenate((rank, rank + (lu != lv)), axis=1)
                lab = np.concatenate((lab, np.where(lab == lu[:, None], lv[:, None], lab)), axis=2)
            for i, table in zip(members[start:start + rows], rank):
                # the forests of a graph are the independent sets of a matroid
                out[i] = Matroid(graphs[i].labels, table.tobytes(), validate=False)
    return out


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
        if any(c < 0 for c in self.capacities):
            raise MatroidError("capacities must be nonnegative")
        full = (1 << len(self.labels)) - 1
        for A in self.family:
            if A & ~full:
                raise MatroidError("family member not within ground set")

    def check_laminar(self) -> None:
        """Raise unless any two intersecting members are nested."""
        fam = self.family
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                a, b = fam[i], fam[j]
                if a & b and (a & ~b) and (b & ~a):
                    raise MatroidError(
                        f"family is not laminar: members {a:#x} and {b:#x} "
                        "intersect without nesting"
                    )


def laminar_matroid(system: LaminarCapacitySystem) -> Matroid:
    """Matroid M(E, family, c) of a laminar capacity system.

    rank(X) is the size of a maximum I ⊆ X respecting every capacity.
    Members are taken by ascending size, each replacing the roots of the
    forest built so far that lie inside it: a member A with roots R_i
    inside it has r_A(X) = min(c(A), |X ∩ (A - ∪ R_i)| + Σ r_{R_i}(X)),
    and rank(X) = Σ r_R(X) over the final roots + |X - ∪ roots|.  Only
    the family's laminarity is checked; the table is not re-validated
    against the rank axioms.
    """
    system.check_laminar()
    n = len(system.labels)
    sizes = subset_sizes(n)
    X = np.arange(1 << n)
    roots: dict[int, np.ndarray] = {}
    members = zip(system.family, system.capacities)
    for A, c in sorted(members, key=lambda m: m[0].bit_count()):
        inner = [R for R in roots if R & ~A == 0]
        free = A & ~functools.reduce(operator.or_, inner, 0)
        value = sizes[X & free] + sum(roots.pop(R) for R in inner)
        # r_A(X) <= |A|, so a larger capacity never binds
        roots[A] = np.minimum(value, min(c, A.bit_count()))
    covered = functools.reduce(operator.or_, roots, 0)
    table = sizes[X & ~covered] + sum(roots.values())
    # capacities on a laminar family define a matroid (laminar matroid)
    return Matroid(system.labels, table.astype(np.uint8).tobytes(), validate=False)


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
        full = (1 << len(self.labels)) - 1
        for B in self.blocks:
            if B & ~full:
                raise MatroidError("block not within ground set")

    def check_chain(self) -> None:
        for a, b in zip(self.blocks, self.blocks[1:]):
            if a & ~b:
                raise MatroidError("blocks do not form a chain B_1 ⊆ ... ⊆ B_m")


def transversal_matroid(presentation: NestedPresentation) -> Matroid:
    """Nested transversal matroid of a chain presentation.

    rank(X) is the maximum matching between X and the blocks.  For a
    chain B_1 ⊆ ... ⊆ B_m a minimum vertex cover takes the blocks above
    some B_j and the elements of X in B_j (König), so
    rank(X) = min over j = 0..m of |X ∩ B_j| + m - j, with B_0 = ∅.
    Only the chain order is checked; the table is not re-validated
    against the rank axioms.
    """
    presentation.check_chain()
    n = len(presentation.labels)
    blocks = presentation.blocks
    m = len(blocks)
    sizes = subset_sizes(n)
    X = np.arange(1 << n)
    # rank(X) <= |X ∩ B_m| <= n, so a term m - j above n never binds
    table = np.full(1 << n, min(m, n), dtype=np.int16)
    for j, B in enumerate(blocks, 1):
        np.minimum(table, sizes[X & B] + min(m - j, n), out=table)
    # partial transversals of a set system form a matroid (Edmonds-Fulkerson)
    return Matroid(presentation.labels, table.astype(np.uint8).tobytes(), validate=False)


# ---------------------------------------------------------------------------
# generic operations


def truncate(M: Matroid, t: int) -> Matroid:
    """Cap the rank function at ``t``."""
    if not 0 <= t <= M.full_rank():
        raise MatroidError(f"truncation rank {t} out of range [0, {M.full_rank()}]")
    table = np.minimum(np.frombuffer(M.rank_table, dtype=np.uint8), t)
    # a truncation of a matroid is a matroid
    return Matroid(M.labels, table.tobytes(), validate=False)


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
    r1 = np.frombuffer(M1.rank_table, dtype=np.uint8)
    r2 = np.frombuffer(M2.rank_table, dtype=np.uint8)
    # mask A = (A >> n1) * 2**n1 + (A & E1), so row A >> n1, column A & E1
    table = r2[:, None] + r1[None, :]
    # a direct sum of matroids is a matroid
    return Matroid(labels, table.tobytes(), validate=False)


def matroid_from_circuits(labels: Sequence[str], circuits: Iterable[int]) -> Matroid:
    """Build a matroid whose circuits are exactly the given masks.

    Independence is "contains no listed circuit": an OR pass over
    subsets, one element at a time, marks the sets that contain one, and
    a max pass then gives r(A) = the largest independent subset of A.
    Raises if the family is not an antichain, if the table fails the
    rank axioms, or if the result's circuits differ from the input.
    """
    labels = tuple(labels)
    n = len(labels)
    if n > MAX_ELEMENTS:
        raise MatroidError(f"ground set too large: {n} > {MAX_ELEMENTS}")
    circs = sorted(set(int(C) for C in circuits), key=lambda c: (c.bit_count(), c))
    full = (1 << n) - 1
    for C in circs:
        if C == 0 or C & ~full:
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
    table = up(np.where(dep, 0, subset_sizes(n)).astype(np.uint8), np.maximum)
    M = Matroid(labels, table.tobytes())
    if list(M.circuits()) != circs:
        raise MatroidError("given family is not the circuit set of a matroid")
    return M


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
    rt1 = np.frombuffer(M1.rank_table, dtype=np.uint8)
    rt2 = np.frombuffer(M2.rank_table, dtype=np.uint8)
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
    return Matroid(labels, table.tobytes(), validate=False)


def relax_circuit_hyperplane(M: Matroid, X: int) -> Matroid:
    """Turn a circuit-hyperplane ``X`` into a basis (rank(X) := |X|)."""
    if not M.is_circuit(X):
        raise MatroidError(f"mask {X:#x} is not a circuit")
    if not (M.is_flat(X) and M.rank_table[X] == M.full_rank() - 1):
        raise MatroidError(f"mask {X:#x} is not a hyperplane")
    table = bytearray(M.rank_table)
    table[X] = X.bit_count()
    # relaxing a circuit-hyperplane yields a matroid
    return Matroid(M.labels, bytes(table), validate=False)


# ---------------------------------------------------------------------------
# cyclic-flat synthesis (Z0-Z3)


@dataclass(frozen=True)
class ZViolation:
    """Which cyclic-flat axiom failed, with the offending member masks."""

    axiom: str
    witness: tuple[int, ...]


class ZAxiomError(MatroidError):
    """A candidate cyclic-flat family failed one of Z0-Z3."""

    def __init__(self, violation: ZViolation):
        super().__init__(
            f"cyclic-flat axiom {violation.axiom} violated at masks "
            f"{tuple(hex(w) for w in violation.witness)}"
        )
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
        full = (1 << len(self.labels)) - 1
        masks = [m for m, _ in self.entries]
        if len(set(masks)) != len(masks):
            raise MatroidError("cyclic-flat members must be distinct")
        for m, r in self.entries:
            if m & ~full:
                raise MatroidError(f"member {m:#x} not within ground set")
            if r < 0:
                raise MatroidError("ranks must be nonnegative")

    def mask(self, names: Iterable[str]) -> int:
        idx = {lab: i for i, lab in enumerate(self.labels)}
        out = 0
        for name in names:
            try:
                out |= 1 << idx[name]
            except KeyError:
                raise MatroidError(f"unknown element label {name!r}") from None
        return out


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


def validate_z_axioms(family: CyclicFlatFamily) -> ZViolation | None:
    """Check axioms Z0-Z3 on a candidate cyclic-flat family.

    Meet/join are resolved inside the family by inclusion: the unique
    maximal member below X ∩ Y and the unique minimal member above
    X ∪ Y.  Returns the first violation in (Z0, Z1, Z2, Z3) order, or
    ``None`` when the family defines a matroid.
    """
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


def from_cyclic_flats(family: CyclicFlatFamily) -> Matroid:
    """Synthesize the matroid whose cyclic flats are exactly ``family``.

    Validates Z0-Z3 first, then builds rank(X) = min over members (Z, r)
    of r + |X - Z| and confirms the exact round trip of cyclic flats
    (sets and ranks).  The rank axioms are not re-checked.
    """
    v = validate_z_axioms(family)
    if v is not None:
        raise ZAxiomError(v)
    n = len(family.labels)
    entries = family.entries
    sizes = subset_sizes(n)
    X = np.arange(1 << n)
    table = np.min([sizes[X & ~Z] + r for Z, r in entries], axis=0)
    # a family satisfying Z0-Z3 is the cyclic-flat lattice of this matroid
    # (Bonin and de Mier)
    M = Matroid(family.labels, table.astype(np.uint8).tobytes(), validate=False)
    if set(M.cyclic_flats()) != set(entries):
        raise MatroidError("synthesized matroid does not reproduce the family")
    return M


# ---------------------------------------------------------------------------
# named catalog


def _sparse_paving(labels: Sequence[str], r: int, hyperplanes: Iterable[int]) -> Matroid:
    """U_{r,n} with the given r-sets lowered to rank r - 1.  Callers pass
    r-sets that meet pairwise in at most r - 2 elements."""
    table = np.minimum(subset_sizes(len(labels)), r).astype(np.uint8)
    table[list(hyperplanes)] = r - 1
    # such r-sets are the circuit-hyperplanes of a sparse paving matroid
    return Matroid(labels, table.tobytes(), validate=False)


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

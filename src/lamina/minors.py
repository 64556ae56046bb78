"""Minor operations, isomorphism, minor containment, excluded minors.

Both searches read only rank tables, and prune by one invariant: counts
of (|A|, r(A)) over all subsets A (the rank-generating function) or over
those through one element.  Minor search contracts an independent set of
size r(M) - r(N) and deletes down to |E(N)| elements, which loses no
minor; many such candidate tables are gathered at once, and only those
with the target's counts are built and tested for isomorphism, in order.
Isomorphism assigns M1's elements in order to elements of M2 with equal
counts, keeping the images of all subsets of the assigned prefix in one
array, so each assignment is one gather from M2's table.  A search that
has met 4n dead ends also compares pair rows, the counts over the sets
through two elements: i -> j needs i's counts with each assigned a to
equal j's with a's image.  Each row is built from the rank table when
first compared, within one call; nothing is kept across calls.  The
filters never reject an isomorphic candidate, so witnesses are an
exhaustive scan's: the first in ascending mask (or image) order.
The named excluded minors are one registry, ``NAMED_MINORS``, built at
import; binary and ternary are tuples of its names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Matroid, MatroidError, halves, prime_circuits, subset_index, subset_sizes
from .constructions import direct_sum, mn_family, named_matroid, nn_family, pn_family, uniform
from .laminar import (
    is_k_closure_laminar,
    is_k_laminar,
    is_laminar,
    is_nested,
    is_paving,
)


@dataclass(frozen=True)
class MinorSpec:
    """Disjoint delete/contract masks describing M \\ delete / contract."""

    delete: int
    contract: int

    def __post_init__(self):
        if self.delete & self.contract:
            raise MatroidError("delete and contract sets must be disjoint")


# Cells of one candidate batch in has_minor: its int64 masks and keys
# take under 2 MiB; larger batches raise peak memory and are no faster.
_BATCH_CELLS = 1 << 15


def _bit_positions(masks: np.ndarray, n: int, k: int) -> np.ndarray:
    """Positions of the ``k`` set bits among the low ``n`` bits of each
    mask, ascending, as a ``(len(masks), k)`` array."""
    return np.nonzero(masks[:, None] >> np.arange(n) & 1)[1].reshape(len(masks), k)


def _rank_keys(n: int, ranks: np.ndarray) -> np.ndarray:
    """(|A|, r(A)) as one key in [0, (n + 1) ** 2), for the subsets A of
    ``n`` positions in mask order along the last axis of ``ranks``."""
    return subset_sizes(n) * (n + 1) + ranks


def delete(M: Matroid, D: int) -> Matroid:
    """Delete the elements of mask ``D``."""
    return minor(M, MinorSpec(D, 0))


def contract(M: Matroid, C: int) -> Matroid:
    """Contract the elements of mask ``C``: r'(A) = r(A ∪ C) - r(C)."""
    return minor(M, MinorSpec(0, C))


def single_element_minors(M: Matroid) -> list[Matroid]:
    """M \\ p then M / p for each position p in order: the two halves of
    M's table at p, the upper one less r({p})."""
    rt = np.frombuffer(M.rank_table, dtype=np.uint8)
    # deletions and contractions of a matroid are matroids
    return [Matroid(M.labels[:p] + M.labels[p + 1:], t.tobytes(), validate=False)
            for p in range(M.n) for t in (halves(rt, p)[0], halves(rt, p)[1] - rt[1 << p])]


def minor(M: Matroid, spec: MinorSpec) -> Matroid:
    """M \\ delete / contract, read from M's table: on the positions
    outside both masks, r'(A) = r(A ∪ C) - r(C) for C the contract mask.
    Each dropped position, highest first, keeps one half of the table,
    so the positions below it keep their bits."""
    drop, C = spec.delete | spec.contract, spec.contract
    if drop & ~M.E:
        raise MatroidError(
            f"minor spec {spec.delete:#x}/{spec.contract:#x} not within ground set")
    table = rt = np.frombuffer(M.rank_table, dtype=np.uint8)
    for p in reversed(range(M.n)):
        if drop >> p & 1:
            table = halves(table, p)[C >> p & 1]
    labels = tuple(M.labels[p] for p in range(M.n) if not drop >> p & 1)
    # deletions and contractions of a matroid are matroids
    return Matroid(labels, (table - rt[C]).tobytes(), validate=False)


# ---------------------------------------------------------------------------
# isomorphism


def _element_histograms(M: Matroid) -> list[bytes]:
    """Per position i, the counts of (|A|, r(A)) over the sets A that
    contain i: an invariant of i under every isomorphism."""
    n = M.n
    keys = _rank_keys(n, np.frombuffer(M.rank_table, dtype=np.uint8))
    return [np.bincount(halves(keys, i)[1].ravel(), minlength=(n + 1) ** 2).tobytes()
            for i in range(n)]


# Dead ends per element that the search meets before it also compares
# pair rows: most searches never get there, and for them the rows would
# cost more than they save.
_REFINE_AFTER = 4


def _pair_row(M: Matroid, a: int) -> np.ndarray:
    """Row ``a`` of M's pair table: entry b counts (|A|, r(A)) over the
    sets A that hold both a and b, so entry a is a's element histogram."""
    n = M.n
    width = (n + 1) ** 2
    keys = _rank_keys(n, np.frombuffer(M.rank_table, dtype=np.uint8))
    # the sets through a, by their mask with bit a taken out
    through = halves(keys, a)[1].ravel()
    row = np.empty((n, width), dtype=np.intp)
    for b in range(n):
        q = b - (b > a)
        sets = through if b == a else halves(through, q)[1].ravel()
        row[b] = np.bincount(sets, minlength=width)
    return row


def find_isomorphism(M1: Matroid, M2: Matroid) -> tuple[int, ...] | None:
    """Ground-set bijection carrying M1's rank table onto M2's, or None.

    Positions of M1 are assigned in order 0..n-1, each to an unused
    position of M2 with the same element histogram, in ascending order.
    ``img`` holds the image of every subset of the assigned prefix, so
    i -> j is accepted exactly when r2 at ``img | 1 << j`` equals r1 on
    the sets A + i, A within the prefix, and the prefix then grows by
    ``img | 1 << j``.  Once the search has met ``_REFINE_AFTER * n``
    dead ends it also needs the pair rows to agree: entry a of i's row
    must equal entry ``mapping[a]`` of j's for every assigned a.  The
    rows are built one element at a time, when first compared.  Both
    tests are necessary, so the returned mapping, which sends position
    i of M1 to position ``mapping[i]`` of M2, is the lexicographically
    first.
    """
    n = M1.n
    if M2.n != n:
        return None
    h1, h2 = _element_histograms(M1), _element_histograms(M2)
    # these rows also fix the (|A|, r(A)) counts of the whole table
    if sorted(h1) != sorted(h2):
        return None
    candidates = [[j for j in range(n) if h2[j] == h] for h in h1]
    r1 = M1.rank_table
    r2 = np.frombuffer(M2.rank_table, dtype=np.uint8)
    mapping: list[int] = []
    dead_ends = 0
    rows1: dict[int, np.ndarray] = {}
    rows2: dict[int, np.ndarray] = {}

    def rows_agree(i: int, j: int) -> bool:
        if i not in rows1:
            rows1[i] = _pair_row(M1, i)
        if j not in rows2:
            rows2[j] = _pair_row(M2, j)
        return np.array_equal(rows1[i][:i], rows2[j][mapping])

    def extend(img: np.ndarray) -> bool:
        nonlocal dead_ends
        i = len(mapping)
        if i == n:
            return True
        want = r1[1 << i:2 << i]
        # img[-1] is the image of the whole prefix: the positions in use
        used = int(img[-1])
        for j in candidates[i]:
            if used >> j & 1 or r2[img | 1 << j].tobytes() != want:
                continue
            if i and dead_ends >= _REFINE_AFTER * n and not rows_agree(i, j):
                continue
            mapping.append(j)
            if extend(np.concatenate((img, img | 1 << j))):
                return True
            mapping.pop()
        dead_ends += 1
        return False

    return tuple(mapping) if extend(np.zeros(1, dtype=np.intp)) else None


def is_isomorphic(M1: Matroid, M2: Matroid) -> bool:
    return find_isomorphism(M1, M2) is not None


# ---------------------------------------------------------------------------
# minor containment


def has_minor(M: Matroid, N: Matroid) -> MinorSpec | None:
    """First MinorSpec (ascending contract mask, then delete mask) whose
    minor of M is isomorphic to N, or None.

    Contract sets C range over independent sets of size r(M) - r(N) only,
    which loses no minors.  The tables of the candidates M / C \\ D are
    gathered many rows at a time, ``rt[idx | C] - rt[C]``, and a
    candidate goes on to the exact isomorphism test only if its multiset
    of (|A|, r(A)) equals N's.  Isomorphic matroids have equal
    multisets, so no minor is lost and the witness is the one an
    exhaustive scan in (C, D) order would return.
    """
    dr = M.full_rank() - N.full_rank()
    dn = M.n - N.n
    if dr < 0 or dn < dr:
        return None
    m = N.n
    width = (m + 1) ** 2
    target = np.bincount(_rank_keys(m, np.frombuffer(N.rank_table, dtype=np.uint8)),
                         minlength=width)
    rt = np.frombuffer(M.rank_table, dtype=np.uint8)
    Cs = np.flatnonzero((subset_sizes(M.n) == dr) & (rt == dr))
    # bits of the n - dr positions outside each C, ascending
    free = M.n - dr
    outside = 1 << _bit_positions(~Cs, M.n, free)
    # deletion sets as ascending masks over those positions, and the
    # positions each one keeps
    D_local = np.flatnonzero(subset_sizes(free) == dn - dr)
    kept = _bit_positions(~D_local, free, m)
    # candidate row c * len(D_local) + d is (Cs[c], D_local[d]): (C, D) order
    total = len(Cs) * len(D_local)
    rows = max(1, _BATCH_CELLS >> m)
    for start in range(0, total, rows):
        c, d = np.divmod(np.arange(start, min(start + rows, total)), len(D_local))
        idx = subset_index(outside[c[:, None], kept[d]])
        C = Cs[c, None]
        # r(A ∪ C) >= r(C), so the uint8 difference does not wrap; each
        # row gets its own band of keys
        band = width * np.arange(len(idx))[:, None]
        flat = (_rank_keys(m, rt[idx | C] - rt[C]) + band).ravel()
        hist = np.bincount(flat, minlength=len(idx) * width).reshape(-1, width)
        for i in np.flatnonzero((hist == target).all(axis=1)).tolist():
            # idx[i, -1] is the mask of every kept element
            spec = MinorSpec(M.E & ~int(idx[i, -1]) & ~int(C[i, 0]), int(C[i, 0]))
            if find_isomorphism(minor(M, spec), N) is not None:
                return spec
    return None


# ---------------------------------------------------------------------------
# named excluded minors, class predicates and excluded-minor certification

# The named excluded minors that the library and the harness ask for,
# each built once; a class given by excluded minors is a tuple of names.
NAMED_MINORS: dict[str, Matroid] = {
    "mk23minus": named_matroid("mk23minus"),
    "mk23": named_matroid("mk23"),
    "m42": mn_family(4, 2),
    "m52": mn_family(5, 2),
    "n52": nn_family(5, 2),
    "p42": pn_family(4, 2),
    "u24": uniform(2, 4),
    "u25": uniform(2, 5),
    "u35": uniform(3, 5),
    "f7": named_matroid("f7"),
    "f7star": named_matroid("f7star"),
    "mstark33": named_matroid("mstark33"),
    "pavex": direct_sum(uniform(0, 1), uniform(2, 2)),
}
BINARY = ("u24",)
TERNARY = ("u25", "u35", "f7", "f7star")


def is_binary(M: Matroid) -> bool:
    """Binary = no U_{2,4} minor."""
    return all(has_minor(M, NAMED_MINORS[name]) is None for name in BINARY)


def is_ternary(M: Matroid) -> bool:
    """Ternary = no minor among U_{2,5}, U_{3,5}, F_7, F_7*."""
    return all(has_minor(M, NAMED_MINORS[name]) is None for name in TERNARY)


_CLASSES: dict[str, Callable[[Matroid], bool]] = {
    "nested": lambda M: bool(is_nested(M)),
    "laminar": lambda M: bool(is_laminar(M)),
    "paving": is_paving,
    "binary": is_binary,
    "ternary": is_ternary,
}
_K_CLASS_RE = re.compile(r"^(\d+)-(closure-)?laminar$")


def class_predicate(name: str) -> Callable[[Matroid], bool]:
    """Resolve a registered class-predicate name to a boolean test.

    Registered: ``nested``, ``laminar``, ``paving``, ``binary``,
    ``ternary``, ``<k>-laminar``, ``<k>-closure-laminar``.
    """
    key = name.strip().lower()
    if key in _CLASSES:
        return _CLASSES[key]
    m = _K_CLASS_RE.match(key)
    if m is None:
        raise MatroidError(f"unregistered class predicate {name!r}")
    k, test = int(m[1]), is_k_closure_laminar if m[2] else is_k_laminar
    return lambda M: bool(test(M, k))


@dataclass(frozen=True)
class ExcludedMinorResult:
    """Certification outcome; ``witness`` is the single-element MinorSpec
    whose minor already fails the class (when certification fails that
    way), or None."""

    holds: bool
    reason: str
    witness: MinorSpec | None = None

    def __bool__(self) -> bool:
        return self.holds


def is_excluded_minor(M: Matroid, predicate: str) -> ExcludedMinorResult:
    """Whether M is an excluded minor for the named class: M fails the
    predicate while every single-element deletion and contraction
    satisfies it."""
    P = class_predicate(predicate)
    if P(M):
        return ExcludedMinorResult(False, f"matroid already satisfies {predicate}")
    minors = single_element_minors(M)
    prime_circuits(minors)
    for j, N in enumerate(minors):
        if not P(N):
            i, contracted = divmod(j, 2)
            return ExcludedMinorResult(
                False,
                f"{('deletion', 'contraction')[contracted]} of {M.labels[i]} "
                f"still violates {predicate}",
                MinorSpec(0, 1 << i) if contracted else MinorSpec(1 << i, 0),
            )
    return ExcludedMinorResult(True, f"excluded minor for {predicate}")

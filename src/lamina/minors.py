"""Minor operations, isomorphism, minor containment, excluded minors.

Both searches read only rank tables, and prune by one invariant: counts
of (|A|, r(A)) over all subsets A (the rank-generating function) or over
those through one element.  Minor search contracts an independent set of
size r(M) - r(N) and deletes down to |E(N)| elements, which loses no
minor; many such candidate tables, of many hosts, are gathered at once,
and only those with the target's counts are built and tested for
isomorphism, in order.
Isomorphism assigns M1's elements in order to elements of M2 with equal
counts, keeping the images of all subsets of the assigned prefix in one
array, so each assignment is one gather from M2's table.  A search that
has met 4n dead ends also compares pair rows, the counts over the sets
through two elements: i -> j needs i's counts with each assigned a to
equal j's with a's image.  Each row is built from the rank table when
first compared, within one call, while the element histograms are
kept in each matroid's cache, so a search computes its target's once.  The
filters never reject an isomorphic candidate, so witnesses are an
exhaustive scan's: the first in ascending mask (or image) order.
The named excluded minors are one registry, ``NAMED_MINORS``, built at
import; binary and ternary are tuples of its names.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (Matroid, MatroidError, _stack, build_stacks, halves, prime, rotated,
                   stacked_matroids, subset_index, subset_sizes)
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


# Cells of one candidate batch in find_minors: its int64 masks, reused
# for the keys, take 256 KiB; larger batches raise peak memory and are
# no faster.
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
    """M \\ p then M / p for each position p in order: see
    :func:`single_element_minors_of`."""
    return single_element_minors_of([M])[0]


def single_element_minors_of(ms: Sequence[Matroid]) -> list[list[Matroid]]:
    """For each M of ``ms``, M \\ p then M / p for each position p in
    order: the two halves of M's table at p, the upper one less r({p}).
    The tables with n elements take one halves pass per position."""
    out: list = [[] for _ in ms]
    by_n: dict[int, list[int]] = {}
    for i, M in enumerate(ms):
        if M.n:
            by_n.setdefault(M.n, []).append(i)
    for n, at in by_n.items():
        R = _stack([ms[i] for i in at]).reshape(len(at), 1 << n)
        drops: dict = {}  # per labels tuple, its labels without each position
        for i in at:
            if ms[i].labels not in drops:
                names = ms[i].labels
                drops[names] = [names[:p] + names[p + 1:] for p in range(n)]
        for p in range(n):
            labels = [drops[ms[i].labels][p] for i in at for _ in (0, 1)]
            # deletions and contractions of a matroid are matroids
            built = stacked_matroids(labels, _single_element_tables(R, n, p), check_labels=False)
            for j, i in enumerate(at):
                out[i] += built[2 * j:2 * j + 2]
    return out


def _single_element_tables(R: np.ndarray, n: int, p: int) -> np.ndarray:
    """The tables of M \\ p and M / p of each row M of a ``(rows, 2^n)``
    stack, as ``2 * rows`` rows in that order."""
    rows = len(R)
    out = np.empty((rows, 2, 1 << n - 1), dtype=np.uint8)
    # a row's masks without p are runs of 2^p, 2^(n-1-p) of them
    shape = (rows, 1 << n - 1 - p, 1 << p)
    without, with_p = (h.reshape(shape) for h in halves(R, p))
    np.copyto(out[:, 0].reshape(shape), without)
    np.subtract(with_p, R[:, 1 << p, None, None], out=out[:, 1].reshape(shape))
    return out.reshape(2 * rows, 1 << n - 1)


def minor(M: Matroid, spec: MinorSpec) -> Matroid:
    """M \\ delete / contract: see :func:`minors_of`."""
    return minors_of([(M, spec)])[0]


def minors_of(pairs: Sequence[tuple[Matroid, MinorSpec]]) -> list[Matroid]:
    """M \\ delete / contract of each ``(M, spec)``, read from M's table:
    on the positions outside both masks, r'(A) = r(A ∪ C) - r(C) for C
    the contract mask.  The minors that keep m elements are one gather
    ``rt[subset_index(kept) | C] - rt[C]`` per :func:`~lamina.core.runs`,
    from the tables of their sources end to end."""
    for M, spec in pairs:
        if (spec.delete | spec.contract) & ~M.E:
            raise MatroidError(
                f"minor spec {spec.delete:#x}/{spec.contract:#x} not within ground set")
    # deletions and contractions of a matroid are matroids
    return build_stacks(pairs, lambda p: p[0].n - (p[1].delete | p[1].contract).bit_count(),
                        lambda group, m: 1 << m, _minor_tables, check_labels=False)


def _minor_tables(pairs: list[tuple[Matroid, MinorSpec]], m: int):
    """Labels and rank tables of minors that keep at most ``m`` elements."""
    # each distinct source once, row i reading its own from its start
    sources = {id(M): M for M, _ in pairs}
    start = dict(zip(sources, itertools.accumulate((1 << M.n for M in sources.values()),
                                                   initial=0)))
    rt = _stack(list(sources.values()))
    kept = [[p for p in range(M.n) if not (spec.delete | spec.contract) >> p & 1]
            for M, spec in pairs]
    # a row keeping fewer than m pads its bits with 0, which leaves its
    # first 2^m_i entries
    bits = np.array([[1 << p for p in row] + [0] * (m - len(row)) for row in kept],
                    dtype=np.intp).reshape(len(pairs), m)
    C = np.array([start[id(M)] + spec.contract for M, spec in pairs], dtype=np.intp)
    idx = subset_index(bits)
    idx += C[:, None]  # in place: the index is the largest array of the gather
    return ([tuple(map(M.labels.__getitem__, row)) for (M, _), row in zip(pairs, kept)],
            rt[idx] - rt[C, None])


# ---------------------------------------------------------------------------
# isomorphism


def _element_histograms(M: Matroid) -> list[bytes]:
    """Per position i, the counts of (|A|, r(A)) over the sets A that
    contain i: an invariant of i under every isomorphism.  Kept in M's
    cache, so a minor search computes its target's once; the low n // 2
    positions are read from a :func:`~lamina.core.rotated` copy of the
    keys."""
    if "histograms" not in M._cache:
        n, low = M.n, M.n // 2
        keys = _rank_keys(n, M.ranks)
        rot = rotated(keys, n, low)
        M._cache["histograms"] = [
            np.bincount((halves(rot, i + n - low) if i < low else halves(keys, i))[1].ravel(),
                        minlength=(n + 1) ** 2).tobytes() for i in range(n)]
    return M._cache["histograms"]


# Dead ends per element that the search meets before it also compares
# pair rows: most searches never get there, and for them the rows would
# cost more than they save.
_REFINE_AFTER = 4


def _pair_row(M: Matroid, a: int) -> np.ndarray:
    """Row ``a`` of M's pair table: entry b counts (|A|, r(A)) over the
    sets A that hold both a and b, so entry a is a's element histogram."""
    n = M.n
    width = (n + 1) ** 2
    keys = _rank_keys(n, M.ranks)
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
    r2 = M2.ranks
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
    minor of M is isomorphic to N, or None: the one-host call of
    :func:`find_minors`."""
    return find_minors([M], N)[0]


def find_minors(hosts: Sequence[Matroid], N: Matroid) -> list[MinorSpec | None]:
    """For each host M, the first MinorSpec (ascending contract mask, then
    delete mask) whose minor of M is isomorphic to N, or None.

    Contract sets C range over independent sets of size r(M) - r(N) only,
    which loses no minors.  Hosts of one element count and rank share
    the candidate layout, and their candidates M / C \\ D are gathered
    many rows at a time from their tables end to end,
    ``rt[idx | C] - rt[C]``.  A candidate goes on to the exact
    isomorphism test, built from its gathered row, only if its multiset
    of (|A|, r(A)) equals N's.  Isomorphic matroids have equal
    multisets, so no minor is lost and each witness is the one an
    exhaustive scan in (C, D) order would return.  A host stops at its
    first witness.
    """
    out: list = [None] * len(hosts)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, M in enumerate(hosts):
        dr = M.full_rank() - N.full_rank()
        if 0 <= dr <= M.n - N.n:
            groups.setdefault((M.n, dr), []).append(i)
    for (n, dr), at in groups.items():
        for i, spec in zip(at, _find_minors([hosts[i] for i in at], N, n, dr)):
            out[i] = spec
    return out


def _find_minors(hosts: list[Matroid], N: Matroid, n: int, dr: int) -> list[MinorSpec | None]:
    """:func:`find_minors` for hosts on ``n`` elements of rank r(N) + ``dr``."""
    m = N.n
    width = (m + 1) ** 2
    target = np.bincount(_rank_keys(m, N.ranks), minlength=width)
    R = _stack(hosts)
    Cs = np.flatnonzero(subset_sizes(n) == dr)
    # (host, C) pairs with C independent in the host, in (host, C) order,
    # and the position of each pair's C in R
    h, c = np.nonzero(R.reshape(len(hosts), 1 << n)[:, Cs] == dr)
    base = h << n | Cs[c]
    # bits of the n - dr positions outside each C, ascending
    free = n - dr
    outside = 1 << _bit_positions(~Cs[c], n, free)
    # deletion sets as ascending masks over those positions, and the
    # positions each one keeps
    D_local = np.flatnonzero(subset_sizes(free) == n - m - dr)
    kept = _bit_positions(~D_local, free, m)
    # candidate row j is pair j // len(D_local) with deletion set
    # j % len(D_local): (host, C, D) order, each host's rows up to ends
    ends = (np.searchsorted(h, np.arange(len(hosts)), side="right") * len(D_local)).tolist()
    h = h.tolist()
    found: list = [None] * len(hosts)
    rows = max(1, _BATCH_CELLS >> m)
    start, total = 0, ends[-1]
    while start < total:
        p, d = np.divmod(np.arange(start, min(start + rows, total)), len(D_local))
        bits = outside[p[:, None], kept[d]]
        idx = subset_index(bits)
        C = base[p, None]
        idx += C  # in place: the index is the largest array here
        # r(A ∪ C) >= r(C), so the uint8 difference does not wrap; each
        # row's keys get their own band, written over the index
        tables = R[idx] - R[C]
        np.add(_rank_keys(m, tables), width * np.arange(len(idx))[:, None], out=idx)
        hist = np.bincount(idx.ravel(), minlength=len(idx) * width).reshape(-1, width)
        for i in np.flatnonzero((hist == target).all(axis=1)).tolist():
            j = h[p[i]]
            if found[j] is None:
                M, K = hosts[j], int(bits[i].sum())  # the kept elements
                Ci = int(C[i, 0]) & M.E
                cand = stacked_matroids([M.names(K)], tables[i:i + 1], check_labels=False)[0]
                if find_isomorphism(cand, N) is not None:
                    found[j] = MinorSpec(M.E & ~K & ~Ci, Ci)
        start += len(idx)
        # a host found in this batch reads no further rows
        if start < total and found[h[start // len(D_local)]] is not None:
            start = ends[h[start // len(D_local)]]
    return found


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
    prime(minors, "circuits")
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

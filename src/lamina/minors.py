"""Minor operations, isomorphism, minor containment, excluded minors.

Both searches read only rank tables, and prune by one invariant: counts
of (|A|, r(A)) over all subsets A (the rank-generating function) or over
those through one element.  Minor search contracts an independent set of
size r(M) - r(N) and deletes down to |E(N)| elements, which loses no
minor.  It first counts the bases of every candidate of a chunk of
contraction sets at once, by one subset-sum pass per position; only the
candidates with as many bases as the target are gathered, many rows of
many hosts at once, and only those with the target's counts are built
and tested for isomorphism, in order.
Isomorphism assigns M1's elements in order to elements of M2 with equal
counts, keeping the images of all subsets of the assigned prefix in one
array, so each assignment is one gather from M2's table.  A search that
has met 4n dead ends also compares pair rows, the counts over the sets
through two elements: i -> j needs i's counts with each assigned a to
equal j's with a's image.  The rows are read from each matroid's pair
table, built in one pass when first needed; it and the element
histograms are kept in each matroid's cache, so a search computes its
target's once.  The filters never reject an isomorphic candidate, so
witnesses are an exhaustive scan's: the first in ascending mask (or
image) order.
The named excluded minors are one registry, ``NAMED_MINORS``, built at
import; binary and ternary are tuples of its names.
"""

from __future__ import annotations

import bisect
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


# Cells of one chunk of M / C tables, or of one candidate batch, in
# find_minors: its int64 masks (reused for a batch's keys) take 256 KiB;
# larger batches raise peak memory and are no faster.
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


def _pair_table(M: Matroid) -> np.ndarray:
    """M's pair table, kept in M's cache: entry [a, b, k] counts the sets
    A that hold both a and b with key k = (|A|, r(A)).  The sets of one
    key add X^T X of their membership rows X (an exact float32 product,
    as every count is below 2^24), so the whole table is one product
    per key."""
    if "pairs" not in M._cache:
        n = M.n
        keys = _rank_keys(n, M.ranks)
        bounds = [0, *itertools.accumulate(np.bincount(keys, minlength=(n + 1) ** 2).tolist())]
        # the masks in key order, as two little-endian bytes each
        masks = np.argsort(keys, kind="stable").astype("<u2").view(np.uint8).reshape(-1, 2)
        table = np.zeros((n, n, (n + 1) ** 2), dtype=np.int32)
        for k in np.flatnonzero(np.diff(bounds)).tolist():
            X = np.unpackbits(masks[bounds[k]:bounds[k + 1]], axis=1, count=n,
                              bitorder="little").astype(np.float32)
            table[:, :, k] = X.T @ X
        M._cache["pairs"] = table
    return M._cache["pairs"]


def _pair_row(M: Matroid, a: int) -> np.ndarray:
    """Row ``a`` of M's :func:`_pair_table`: entry b counts (|A|, r(A))
    over the sets A that hold both a and b, so entry a is a's element
    histogram."""
    return _pair_table(M)[a].astype(np.intp)


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
    rows are read with :func:`_pair_row` from each side's
    :func:`_pair_table`, which is built in one pass when the first row
    is compared and kept in the matroid's cache.  Both tests are
    necessary, so the returned mapping, which sends position i of M1 to
    position ``mapping[i]`` of M2, is the lexicographically first.
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
    the candidate layout: the tables of their M / C, ``rt[A | C] -
    rt[C]``, are gathered a chunk of (host, C) pairs at a time from
    their tables end to end, and :func:`_base_counts` counts the bases
    of every candidate M / C \\ D of the chunk at once.  A candidate is
    gathered only if it has as many bases as N, and goes on to the
    exact isomorphism test, built from its gathered row, only if its
    multiset of (|A|, r(A)) equals N's.  Isomorphic matroids have equal
    counts, so no minor is lost and each witness is the one an
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
    """:func:`find_minors` for hosts on ``n`` elements of rank r(N) + ``dr``.

    The (host, C) pairs are read a chunk of ``_BATCH_CELLS`` table
    entries at a time, as the search reaches them, so a host found in
    its first chunk pays for that chunk alone.  The candidates of a
    chunk with as many bases as N are gathered from its tables
    ``_BATCH_CELLS`` entries at a time for the histogram test.
    """
    m, r = N.n, N.full_rank()
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
    # the kept sets as masks over those positions, in ascending order of
    # their deletion sets, and the positions each one keeps
    kept = np.flatnonzero(subset_sizes(free) == m)[::-1]
    kept_at = _bit_positions(kept, free, m)
    ends = np.searchsorted(h, np.arange(len(hosts)), side="right").tolist()
    h = h.tolist()
    found: list = [None] * len(hosts)
    chunk, rows = max(1, _BATCH_CELLS >> free), max(1, _BATCH_CELLS >> m)
    start, total = 0, ends[-1]
    while start < total:
        stop = min(start + chunk, total)
        # entry [A, q] is the position in R of A ∪ C for pair q's C, A over
        # the free positions, built by doubling from C: one column per
        # pair, so each pass of _base_counts reads runs of a row or more
        idx = np.empty((1 << free, stop - start), dtype=np.intp)
        idx[0] = base[start:stop]
        for i in range(free):
            np.bitwise_or(idx[:1 << i], outside[start:stop, i], out=idx[1 << i:2 << i])
        # r(A ∪ C) >= r(C) = dr, so the uint8 difference does not wrap
        tables = R[idx] - dr
        # the chunk's candidates with as many bases as N (its count of the
        # key (|A|, r(A)) = (r, r)), in (C, D) order
        p, d = np.nonzero((_base_counts(tables, r, kept) == target[r * (m + 2)]).T)
        s = 0
        while s < len(p):
            j = h[start + p[s]]
            if found[j] is not None:  # a found host reads no further candidates
                s = int(np.searchsorted(p, ends[j] - start))
                continue
            at = slice(s, s + rows)
            # each row's table, read from its pair's column of the chunk
            idx = subset_index(1 << kept_at[d[at]])
            idx *= tables.shape[1]
            idx += p[at, None]
            cand = tables.ravel()[idx]
            # each row's keys get their own band, written over the index
            np.add(_rank_keys(m, cand), width * np.arange(len(idx))[:, None], out=idx)
            hist = np.bincount(idx.ravel(), minlength=len(idx) * width).reshape(-1, width)
            hits = np.flatnonzero((hist == target).all(axis=1))
            pairs = (start + p[s + hits]).tolist()
            k = 0
            while k < len(hits):
                q, i = pairs[k], int(hits[k])
                j = h[q]
                M, K = hosts[j], int(outside[q, kept_at[d[s + i]]].sum())  # the kept elements
                Ci = int(Cs[c[q]])
                built = stacked_matroids([M.names(K)], cand[i:i + 1], check_labels=False)[0]
                if find_isomorphism(built, N) is not None:
                    found[j] = MinorSpec(M.E & ~K & ~Ci, Ci)
                    k = bisect.bisect_left(pairs, ends[j], k)  # its first pair past j
                else:
                    k += 1
            s += rows
        start = stop
        # a host found in this chunk reads no further pairs
        if start < total and found[h[start]] is not None:
            start = ends[h[start]]
    return found


def _base_counts(tables: np.ndarray, r: int, kept: np.ndarray) -> np.ndarray:
    """For each column of a ``(2^f, columns)`` array of rank tables, one
    table per column, and each mask K of ``kept``, the number of bases
    of rank ``r`` within K: the sets A within K with |A| = r(A) = r, as
    a ``(len(kept), columns)`` array.  Each such A is marked and the
    marks are summed over subsets, one pass per position (``upper +=
    lower``, a zeta transform), so every K of every table is counted at
    once."""
    f = len(tables).bit_length() - 1
    # at most C(16, 8) = 12870 r-sets lie within any set
    counts = ((tables == r) & (subset_sizes(f) == r)[:, None]).astype(np.int16)
    for i in range(f):
        pair = counts.reshape(-1, 2, counts.shape[1] << i)
        pair[:, 1] += pair[:, 0]
    return counts[kept]


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

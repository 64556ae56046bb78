"""Minor operations, isomorphism, minor containment, excluded minors.

Minor search follows the standard reduction: any minor can be obtained
by contracting an independent set of size r(M) - r(N) and then deleting
down to |E(N)| elements, so only those candidates are enumerated.  The
rank tables of many (contraction, deletion) candidates are gathered at
once, and every candidate whose multiset of (|A|, r(A)) (the
rank-generating function, an isomorphism invariant) differs from the
target's is rejected in that batch; only the survivors are built as
matroids and tested for isomorphism, in order.  Since the filter never
rejects an isomorphic candidate, witnesses are the same as an exhaustive
scan's: the first found under ascending mask order, which keeps reports
deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Matroid, MatroidError, subset_index, subset_sizes
from .constructions import uniform, named_matroid
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


def _gather(M: Matroid, drop: int, C: int) -> Matroid:
    """Minor on the positions outside ``drop``: r'(A) = r(A ∪ C) - r(C),
    with ``C ⊆ drop`` contracted and the rest of ``drop`` deleted."""
    keep = [p for p in range(M.n) if not drop >> p & 1]
    idx = subset_index(np.array([1 << p for p in keep], dtype=np.intp))
    rt = np.frombuffer(M.rank_table, dtype=np.uint8)
    labels = tuple(M.labels[p] for p in keep)
    # deletions and contractions of a matroid are matroids
    return Matroid(labels, (rt[idx | C] - rt[C]).tobytes(), validate=False)


def delete(M: Matroid, D: int) -> Matroid:
    """Delete the elements of mask ``D``."""
    if D & ~M.E:
        raise MatroidError(f"mask {D:#x} not within ground set")
    return _gather(M, D, 0)


def contract(M: Matroid, C: int) -> Matroid:
    """Contract the elements of mask ``C``: r'(A) = r(A ∪ C) - r(C)."""
    if C & ~M.E:
        raise MatroidError(f"mask {C:#x} not within ground set")
    return _gather(M, C, C)


def minor(M: Matroid, spec: MinorSpec) -> Matroid:
    """M \\ delete / contract, gathered in one step from M's table."""
    if (spec.delete | spec.contract) & ~M.E:
        raise MatroidError(
            f"minor spec {spec.delete:#x}/{spec.contract:#x} not within ground set")
    return _gather(M, spec.delete | spec.contract, spec.contract)


# ---------------------------------------------------------------------------
# isomorphism


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


def find_isomorphism(M1: Matroid, M2: Matroid) -> tuple[int, ...] | None:
    """Ground-set bijection carrying M1's rank table onto M2's, or None.

    Backtracking over element images, pruned by global invariants and
    per-element fingerprints (multiset of circuit sizes through the
    element).  The returned mapping sends position i of M1 to position
    ``mapping[i]`` of M2 and is the lexicographically first found.
    """
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
    # (|A|, r(A)) as one key in [0, width), both at most m
    width = (m + 1) ** 2
    keys = subset_sizes(m).astype(np.intp) * (m + 1)
    target = np.bincount(keys + np.frombuffer(N.rank_table, dtype=np.uint8),
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
        flat = (keys + (rt[idx | C] - rt[C]) + band).ravel()
        hist = np.bincount(flat, minlength=len(idx) * width).reshape(-1, width)
        for i in np.flatnonzero((hist == target).all(axis=1)).tolist():
            # idx[i, -1] is the mask of every kept element
            spec = MinorSpec(M.E & ~int(idx[i, -1]) & ~int(C[i, 0]), int(C[i, 0]))
            if find_isomorphism(minor(M, spec), N) is not None:
                return spec
    return None


# ---------------------------------------------------------------------------
# class predicate registry and excluded-minor certification

_K_LAMINAR_RE = re.compile(r"^(\d+)-laminar$")
_K_CLOSURE_RE = re.compile(r"^(\d+)-closure-laminar$")

_U24 = uniform(2, 4)
_TERNARY_TARGETS = (
    uniform(2, 5), uniform(3, 5), named_matroid("f7"), named_matroid("f7star"),
)


def is_binary(M: Matroid) -> bool:
    """Binary = no U_{2,4} minor."""
    return has_minor(M, _U24) is None


def is_ternary(M: Matroid) -> bool:
    """Ternary = no minor among U_{2,5}, U_{3,5}, F_7, F_7*."""
    return all(has_minor(M, N) is None for N in _TERNARY_TARGETS)


def class_predicate(name: str) -> Callable[[Matroid], bool]:
    """Resolve a registered class-predicate name to a boolean test.

    Registered: ``nested``, ``laminar``, ``paving``, ``binary``,
    ``ternary``, ``<k>-laminar``, ``<k>-closure-laminar``.
    """
    key = name.strip().lower()
    if key == "nested":
        return lambda M: bool(is_nested(M))
    if key == "laminar":
        return lambda M: bool(is_laminar(M))
    if key == "paving":
        return is_paving
    if key == "binary":
        return is_binary
    if key == "ternary":
        return is_ternary
    m = _K_LAMINAR_RE.match(key)
    if m:
        k = int(m.group(1))
        return lambda M: bool(is_k_laminar(M, k))
    m = _K_CLOSURE_RE.match(key)
    if m:
        k = int(m.group(1))
        return lambda M: bool(is_k_closure_laminar(M, k))
    raise MatroidError(f"unregistered class predicate {name!r}")


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
    for i in range(M.n):
        bit = 1 << i
        if not P(delete(M, bit)):
            return ExcludedMinorResult(
                False,
                f"deletion of {M.labels[i]} still violates {predicate}",
                MinorSpec(bit, 0),
            )
        if not P(contract(M, bit)):
            return ExcludedMinorResult(
                False,
                f"contraction of {M.labels[i]} still violates {predicate}",
                MinorSpec(0, bit),
            )
    return ExcludedMinorResult(True, f"excluded minor for {predicate}")

"""Class predicates: nested, laminar, k-laminar, k-closure-laminar, paving.

Each family of the hierarchy is read off one pair scan.  A spanning
circuit has closure E, so only nonspanning circuits are scanned.

- M is k-laminar iff every *unnested* circuit pair, with neither
  circuit in the other's closure, has |C1 ∩ C2| < k, so the least such
  k is 1 + max |C1 ∩ C2| over unnested pairs (0 if none).  Laminar is
  the case k = 1.
- M is k-closure-laminar iff every incomparable pair of Hamiltonian
  flats has r(F1 ∩ F2) < k: an independent k-set lies in both flats
  exactly when r(F1 ∩ F2) >= k.  So the least such k is
  1 + max r(F1 ∩ F2) (0 if none), and nested is the case k = 0.

Every predicate returns a :class:`ClassVerdict`; a false verdict carries
the first violating pair in scan order, so reports are reproducible and
replayable through the public operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import Matroid


@dataclass(frozen=True)
class ClassVerdict:
    """Outcome of a class membership test.

    ``witness`` is ``None`` on success; on failure it is a tuple of
    masks: ``(C1, C2)``, the first violating unnested circuit pair, for
    the k-laminar family; ``(X, F1, F2)`` for the k-closure-laminar
    family, F1 and F2 the first violating incomparable Hamiltonian
    flats in :meth:`~lamina.core.Matroid.hamiltonian_flats` order and X
    the least-mask independent k-subset of F1 ∩ F2 (0 when nested).
    """

    holds: bool
    witness: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.holds


def _unnested_pairs(M: Matroid) -> Iterator[tuple[int, int]]:
    """Every pair of nonspanning circuits, in (i, j) order, with neither
    circuit inside the other's closure."""
    circs, closures = M.nonspanning_circuits(), M.nonspanning_closures()
    for i, (C1, F1) in enumerate(zip(circs, closures)):
        for C2, F2 in zip(circs[i + 1:], closures[i + 1:]):
            if C1 & ~F2 and C2 & ~F1:
                yield C1, C2


def _incomparable(flats: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Every pair of ``flats``, in (i, j) order, with neither inside the other."""
    for i, F1 in enumerate(flats):
        for F2 in flats[i + 1:]:
            if F1 & ~F2 and F2 & ~F1:
                yield F1, F2


def _least_independent(M: Matroid, S: int, k: int) -> int:
    """The least mask of an independent k-subset of S, r(S) >= k: the
    matroid greedy from the low bits (weights 2^i)."""
    X = 0
    while X.bit_count() < k:
        bit, S = S & -S, S & S - 1
        if M.rank_table[X | bit] > X.bit_count():
            X |= bit
    return X


def _check_k(k: int) -> None:
    if k < 0:
        raise ValueError("k must be nonnegative")


def is_k_laminar(M: Matroid, k: int) -> ClassVerdict:
    """Whether every circuit pair meeting in >= k elements has one circuit
    inside the closure of the other."""
    _check_k(k)
    for C1, C2 in _unnested_pairs(M):
        if (C1 & C2).bit_count() >= k:
            return ClassVerdict(False, (C1, C2))
    return ClassVerdict(True)


def is_k_closure_laminar(M: Matroid, k: int) -> ClassVerdict:
    """Whether, for every independent k-set X, the Hamiltonian flats
    containing X form a chain under inclusion.

    Vacuously true when k exceeds the rank (no independent k-set
    exists).
    """
    _check_k(k)
    rt = M.rank_table
    for F1, F2 in _incomparable(M.hamiltonian_flats()):
        if rt[F1 & F2] >= k:
            return ClassVerdict(False, (_least_independent(M, F1 & F2, k), F1, F2))
    return ClassVerdict(True)


def is_nested(M: Matroid) -> ClassVerdict:
    """Nested = 0-closure-laminar: the Hamiltonian flats form a chain."""
    return is_k_closure_laminar(M, 0)


def is_laminar(M: Matroid) -> ClassVerdict:
    """Laminar = 1-laminar: intersecting circuit pairs are closure-nested."""
    return is_k_laminar(M, 1)


def min_laminar_k(M: Matroid) -> int:
    """Smallest k for which M is k-laminar: 1 + the largest |C1 ∩ C2|
    over unnested circuit pairs, or 0 when there is none."""
    return max(((C1 & C2).bit_count() + 1 for C1, C2 in _unnested_pairs(M)), default=0)


def min_closure_laminar_k(M: Matroid) -> int:
    """Smallest k for which M is k-closure-laminar: 1 + the largest
    r(F1 ∩ F2) over incomparable Hamiltonian flats, or 0 when there is
    none."""
    rt = M.rank_table
    return max((rt[F1 & F2] + 1 for F1, F2 in _incomparable(M.hamiltonian_flats())),
               default=0)


def is_paving(M: Matroid) -> bool:
    """Whether every circuit has size at least the rank of M: read from
    the first circuit alone, as :meth:`~lamina.core.Matroid.circuits`
    is in (size, mask) order."""
    circuits = M.circuits()
    return not circuits or circuits[0].bit_count() >= M.full_rank()

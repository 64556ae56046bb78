"""Class predicates: nested, laminar, k-laminar, k-closure-laminar, paving.

Every class of the hierarchy is read off one object: the *unnested*
circuit pairs, where neither circuit lies in the other's closure, or
equivalently the incomparable pairs of Hamiltonian flats (C ⊆ cl(D)
exactly when cl(C) ⊆ cl(D)).  A spanning circuit has closure E, so it
is never unnested and only nonspanning circuits are scanned.

- M is k-laminar iff every unnested pair has |C1 ∩ C2| < k, so the
  least such k is 1 + max |C1 ∩ C2| over unnested pairs (0 if none).
- M is k-closure-laminar iff every incomparable pair of Hamiltonian
  flats has r(F1 ∩ F2) < k, so the least such k is 1 + max r(F1 ∩ F2)
  (0 if none).
- M is nested iff no pair of Hamiltonian flats is incomparable.

Every predicate returns a :class:`ClassVerdict`; a false verdict carries
the lexicographically first violating witness so reports are
reproducible and replayable through the public operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import Matroid


@dataclass(frozen=True)
class ClassVerdict:
    """Outcome of a class membership test.

    ``witness`` is ``None`` on success; on failure it is a tuple of
    masks: ``(C1, C2)`` for circuit-pair conditions, ``(X, F1, F2)``
    for chain conditions over Hamiltonian flats (X the independent set,
    F1 and F2 the incomparable flats).
    """

    name: str
    holds: bool
    witness: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.holds


def _unnested_pairs(M: Matroid) -> Iterator[tuple[int, int, int, int]]:
    """``(C1, C2, cl C1, cl C2)`` for every circuit pair, in (i, j) order
    over the nonspanning circuits, with neither circuit inside the
    other's closure."""
    circs, closures = M.nonspanning_circuits(), M.nonspanning_closures()
    for i, (C1, F1) in enumerate(zip(circs, closures)):
        for C2, F2 in zip(circs[i + 1:], closures[i + 1:]):
            if C1 & ~F2 and C2 & ~F1:
                yield C1, C2, F1, F2


def _incomparable(flats: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Every pair of ``flats``, in (i, j) order, with neither inside the other."""
    for i, F1 in enumerate(flats):
        for F2 in flats[i + 1:]:
            if F1 & ~F2 and F2 & ~F1:
                yield F1, F2


def _check_k(k: int) -> None:
    if k < 0:
        raise ValueError("k must be nonnegative")


def is_k_laminar(M: Matroid, k: int) -> ClassVerdict:
    """Whether every circuit pair meeting in >= k elements has one circuit
    inside the closure of the other."""
    _check_k(k)
    for C1, C2, _, _ in _unnested_pairs(M):
        if (C1 & C2).bit_count() >= k:
            return ClassVerdict(f"{k}-laminar", False, (C1, C2))
    return ClassVerdict(f"{k}-laminar", True)


def is_k_closure_laminar(M: Matroid, k: int) -> ClassVerdict:
    """Whether, for every independent k-set X, the Hamiltonian flats
    containing X form a chain under inclusion.

    Vacuously true when k exceeds the rank (no independent k-set
    exists).
    """
    _check_k(k)
    name = f"{k}-closure-laminar"
    if k > M.full_rank():
        return ClassVerdict(name, True)
    ham = M.hamiltonian_flats()
    rt = M.rank_table
    for X in range(M.E + 1):
        if X.bit_count() != k or rt[X] != k:
            continue
        pair = next(_incomparable([F for F in ham if F & X == X]), None)
        if pair is not None:
            return ClassVerdict(name, False, (X, *pair))
    return ClassVerdict(name, True)


def is_k_closure_laminar_circuit_form(M: Matroid, k: int) -> ClassVerdict:
    """Circuit-pair formulation: whenever r(cl(C1) ∩ cl(C2)) >= k, one
    circuit lies inside the closure of the other.  Agrees with
    :func:`is_k_closure_laminar` on every matroid."""
    _check_k(k)
    rt = M.rank_table
    name = f"{k}-closure-laminar(circuits)"
    for C1, C2, F1, F2 in _unnested_pairs(M):
        if rt[F1 & F2] >= k:
            return ClassVerdict(name, False, (C1, C2))
    return ClassVerdict(name, True)


def is_nested(M: Matroid) -> ClassVerdict:
    """Whether the Hamiltonian flats form a chain under inclusion."""
    pair = next(_incomparable(M.hamiltonian_flats()), None)
    if pair is not None:
        return ClassVerdict("nested", False, (0, *pair))
    return ClassVerdict("nested", True)


def is_laminar(M: Matroid) -> ClassVerdict:
    """Laminar = 1-laminar: intersecting circuit pairs are closure-nested."""
    inner = is_k_laminar(M, 1)
    return ClassVerdict("laminar", inner.holds, inner.witness)


def min_laminar_k(M: Matroid) -> int:
    """Smallest k for which M is k-laminar: 1 + the largest |C1 ∩ C2|
    over unnested circuit pairs, or 0 when there is none."""
    return max(((C1 & C2).bit_count() + 1 for C1, C2, _, _ in _unnested_pairs(M)),
               default=0)


def min_closure_laminar_k(M: Matroid) -> int:
    """Smallest k for which M is k-closure-laminar: 1 + the largest
    r(F1 ∩ F2) over incomparable Hamiltonian flats, or 0 when there is
    none (an independent k-set lies in F1 ∩ F2 iff r(F1 ∩ F2) >= k)."""
    rt = M.rank_table
    return max((rt[F1 & F2] + 1 for F1, F2 in _incomparable(M.hamiltonian_flats())),
               default=0)


def is_paving(M: Matroid) -> bool:
    """Whether every circuit has size at least the rank of M."""
    r = M.full_rank()
    return all(C.bit_count() >= r for C in M.circuits())

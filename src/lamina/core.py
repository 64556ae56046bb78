"""Bitmask matroids with explicit rank tables.

A matroid on ``n <= 16`` labeled elements is stored as the full table of
2**n subset ranks.  Subsets are plain Python ints interpreted as
bitmasks over element positions ``0..n-1``.  All derived structure is
computed by subset scan, never by representation-specific shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

MAX_ELEMENTS = 16


class MatroidError(ValueError):
    """An input failed matroid-level validation."""


@dataclass(frozen=True)
class AxiomViolation:
    """First rank-axiom failure found in a candidate table.

    ``axiom`` is one of ``"R1"`` (bounds), ``"R2"`` (monotonicity),
    ``"R3"`` (submodularity); ``witness`` holds the offending subset
    mask(s).
    """

    axiom: str
    witness: tuple[int, ...]

    def __str__(self) -> str:
        return f"rank axiom {self.axiom} violated at masks {self.witness}"


# popcount of every mask over MAX_ELEMENTS elements: the masks with bit
# i set are those without it, plus one element
_POPCOUNTS = np.zeros(1, dtype=np.int16)
for _ in range(MAX_ELEMENTS):
    _POPCOUNTS = np.concatenate((_POPCOUNTS, _POPCOUNTS + 1))
_POPCOUNTS.flags.writeable = False

# Table entries of one stacked circuits pass: its gathers stay under 1 MiB
_STACK_CELLS = 1 << 13


def subset_sizes(n: int) -> np.ndarray:
    """Popcount of every mask over ``n <= MAX_ELEMENTS`` elements, as a
    read-only numpy array: a prefix of one table built at import."""
    if n > MAX_ELEMENTS:
        raise MatroidError(f"ground set too large: {n} > {MAX_ELEMENTS}")
    return _POPCOUNTS[:1 << n]


def subset_index(bits: np.ndarray) -> np.ndarray:
    """``out[..., A]`` is the union of ``bits[..., j]`` over the bits j of
    ``A``: the mask, over a larger ground set, of the subset whose mask
    over the chosen positions is ``A``.  Built by doubling, one position
    (last axis of ``bits``) at a time, so a table over the chosen
    positions is one gather from the larger table.
    """
    idx = np.zeros(bits.shape[:-1] + (1,), dtype=np.intp)
    for j in range(bits.shape[-1]):
        idx = np.concatenate((idx, idx | bits[..., j:j + 1]), axis=-1)
    return idx


def _spread(k: int, i: int) -> int:
    """``k`` with a zero bit inserted at position ``i``."""
    low = k & ((1 << i) - 1)
    return (k ^ low) << 1 | low


def halves(x: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of a table ``x`` over masks, without and with bit ``i``:
    entry k of each (in C order) is ``x`` at ``_spread(k, i)`` and at that
    mask plus i.  Writes go through to ``x``."""
    pair = x.reshape(-1, 2, 1 << i)
    return pair[:, 0], pair[:, 1]


def validate_rank_axioms(table: Sequence[int], n: int) -> AxiomViolation | None:
    """Check the rank axioms R1-R3 on a candidate rank table.

    Monotonicity and submodularity are verified in their single-element
    local forms (``r(A) <= r(A+x)`` and
    ``r(A+x) + r(A+y) >= r(A+x+y) + r(A)``), which together with the R1
    bounds are equivalent to the full axioms.  Returns ``None`` for a
    valid table, otherwise the first violation in (R1, R2, R3) order:
    i then j ascending, and the least base mask within each.
    """
    if not 0 <= n <= MAX_ELEMENTS:
        raise ValueError(f"element count must be in 0..{MAX_ELEMENTS}, got {n}")
    size = 1 << n
    if len(table) != size:
        raise ValueError(f"rank table must have {size} entries, got {len(table)}")
    if isinstance(table, (bytes, bytearray)):
        r = np.frombuffer(table, dtype=np.uint8)
    else:
        # no fixed dtype, so an entry too large for any table is an R1
        # violation rather than an OverflowError; a non-integer entry
        # reads as -1, an R1 violation at its mask
        r = np.array([x if isinstance(x, (int, np.integer)) else -1 for x in table])

    bad = (r < 0) | (r > subset_sizes(n))
    if bad.any():
        return AxiomViolation("R1", (int(np.argmax(bad)),))

    # gain_i, entry k: r(A+i) - r(A) for the k-th mask A without bit i
    r = r.astype(np.int8)
    gains = []
    for i in range(n):
        without, with_i = halves(r, i)
        gain = with_i - without
        viol = gain < 0
        if viol.any():
            a = _spread(int(np.argmax(viol)), i)
            return AxiomViolation("R2", (a, a | 1 << i))
        gains.append(gain)

    # submodularity: gain_i does not grow along bit j > i, which is bit
    # j - 1 of gain_i's index
    for i, gain in enumerate(gains):
        for j in range(i + 1, n):
            without, with_j = halves(gain, j - 1)
            viol = with_j > without
            if viol.any():
                a = _spread(_spread(int(np.argmax(viol)), j - 1), i)
                return AxiomViolation("R3", (a | 1 << i, a | 1 << j))
    return None


class Matroid:
    """Immutable matroid: labels plus a full subset-rank table.

    Equality is labeled equality (same labels in order, identical rank
    table); isomorphism is a separate operation in :mod:`lamina.minors`.
    Derived structure (circuits, flats, ...) is computed lazily and
    cached; instances are safe to share since nothing mutates after
    construction.

    The rank axioms are checked only where a table comes from outside
    the library: by default here, when a caller supplies the table, and
    in :func:`lamina.formats.parse_matroid`.  Library constructors whose
    output is a matroid by theorem pass ``validate=False``.
    """

    __slots__ = ("labels", "n", "rank_table", "E", "_cache")

    def __init__(
        self,
        labels: Iterable[str],
        rank_table: Sequence[int],
        validate: bool = True,
    ):
        labels = tuple(str(x) for x in labels)
        n = len(labels)
        if n > MAX_ELEMENTS:
            raise MatroidError(f"ground set too large: {n} > {MAX_ELEMENTS}")
        if len(set(labels)) != n:
            raise MatroidError("element labels must be distinct")
        # read by value unless bytes: no array is taken as a raw buffer
        if not isinstance(rank_table, (bytes, bytearray)):
            rank_table = list(rank_table)
        if len(rank_table) != 1 << n:
            raise MatroidError(
                f"rank table must have {1 << n} entries, got {len(rank_table)}"
            )
        if validate:
            v = validate_rank_axioms(rank_table, n)
            if v is not None:
                raise MatroidError(str(v))
        table = bytes(rank_table)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rank_table", table)
        object.__setattr__(self, "E", (1 << n) - 1)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("Matroid instances are immutable")

    # -- basic queries -------------------------------------------------

    def rank(self, A: int | None = None) -> int:
        """Rank of subset mask ``A`` (whole ground set when omitted)."""
        if A is None:
            A = self.E
        if A & ~self.E:
            raise MatroidError(f"mask {A:#x} not within ground set")
        return self.rank_table[A]

    def full_rank(self) -> int:
        return self.rank_table[self.E]

    def is_independent(self, A: int) -> bool:
        if A & ~self.E:
            raise MatroidError(f"mask {A:#x} not within ground set")
        return self.rank_table[A] == A.bit_count()

    def closure(self, A: int) -> int:
        """All elements whose addition to ``A`` does not raise the rank."""
        if A & ~self.E:
            raise MatroidError(f"mask {A:#x} not within ground set")
        rt = self.rank_table
        rA = rt[A]
        out = A
        rest = self.E & ~A
        while rest:
            bit = rest & -rest
            rest ^= bit
            if rt[A | bit] == rA:
                out |= bit
        return out

    def loops(self) -> int:
        """Mask of loop elements (= closure of the empty set)."""
        return self.closure(0)

    def is_flat(self, A: int) -> bool:
        return self.closure(A) == A

    def is_circuit(self, A: int) -> bool:
        if A & ~self.E:
            raise MatroidError(f"mask {A:#x} not within ground set")
        rt = self.rank_table
        pc = A.bit_count()
        if A == 0 or rt[A] != pc - 1:
            return False
        m = A
        while m:
            bit = m & -m
            m ^= bit
            if rt[A ^ bit] != pc - 1:
                return False
        return True

    def mask(self, names: Iterable[str]) -> int:
        """Mask for a collection of element labels."""
        idx = self._label_index()
        out = 0
        for name in names:
            try:
                out |= 1 << idx[name]
            except KeyError:
                raise MatroidError(f"unknown element label {name!r}") from None
        return out

    def names(self, A: int) -> tuple[str, ...]:
        """Labels of the elements in mask ``A``, in ground-set order."""
        return tuple(self.labels[i] for i in range(self.n) if A >> i & 1)

    def _label_index(self) -> dict:
        idx = self._cache.get("label_index")
        if idx is None:
            idx = {lab: i for i, lab in enumerate(self.labels)}
            self._cache["label_index"] = idx
        return idx

    # -- derived families ----------------------------------------------

    def _closed_and_cyclic(self) -> tuple[np.ndarray, np.ndarray]:
        """Whether each A is *closed* (adding any x outside A raises its
        rank: a flat) and *cyclic* (removing any x in A keeps it)."""
        r = np.frombuffer(self.rank_table, dtype=np.uint8)
        closed = np.ones(len(r), dtype=bool)
        cyclic = np.ones(len(r), dtype=bool)
        for i in range(self.n):
            same = np.equal(*halves(r, i))
            (outside, _), (_, inside) = halves(closed, i), halves(cyclic, i)
            outside &= ~same
            inside &= same
        return closed, cyclic

    def _by_size(self, found: np.ndarray) -> np.ndarray:
        """The masks where ``found`` holds, in (size, mask) order."""
        masks = np.flatnonzero(found)
        return masks[np.argsort(subset_sizes(self.n)[masks], kind="stable")]

    def circuits(self) -> tuple[int, ...]:
        """All minimal dependent subsets, ordered by (size, mask)."""
        if "circuits" not in self._cache:
            prime_circuits((self,))
        return self._cache["circuits"]

    def nonspanning_circuits(self) -> tuple[int, ...]:
        """Circuits of rank below r(E), in :meth:`circuits` order."""
        if "circuits" not in self._cache:
            prime_circuits((self,))
        return self._cache["nonspanning"]

    def nonspanning_closures(self) -> tuple[int, ...]:
        """``cl C`` for each of :meth:`nonspanning_circuits`, in its order."""
        if "circuits" not in self._cache:
            prime_circuits((self,))
        return self._cache["nonspanning_closures"]

    def flats(self) -> tuple[int, ...]:
        """All closure-closed subsets, ordered by (size, mask)."""
        out = self._cache.get("flats")
        if out is None:
            out = tuple(self._by_size(self._closed_and_cyclic()[0]).tolist())
            self._cache["flats"] = out
        return out

    def cyclic_flats(self) -> tuple[tuple[int, int], ...]:
        """All coloop-free flats as (mask, rank) pairs, (size, mask) order."""
        out = self._cache.get("cyclic_flats")
        if out is None:
            found = self._by_size(np.logical_and(*self._closed_and_cyclic()))
            r = np.frombuffer(self.rank_table, dtype=np.uint8)
            out = tuple(zip(found.tolist(), r[found].tolist()))
            self._cache["cyclic_flats"] = out
        return out

    def hamiltonian_flats(self) -> tuple[int, ...]:
        """Flats that contain a spanning circuit, i.e. circuit closures."""
        out = self._cache.get("ham_flats")
        if out is None:
            # a spanning circuit closes to E and no nonspanning one does,
            # so the cached nonspanning closures are all the other flats
            seen = set(self.nonspanning_closures())
            if len(self.nonspanning_circuits()) < len(self.circuits()):
                seen.add(self.E)
            out = tuple(sorted(seen, key=lambda f: (f.bit_count(), f)))
            self._cache["ham_flats"] = out
        return out

    def is_hamiltonian_flat(self, F: int) -> bool:
        """Whether flat ``F`` has a spanning circuit.  Rejects non-flats."""
        if not self.is_flat(F):
            raise MatroidError(f"mask {F:#x} is not a flat")
        return F in set(self.hamiltonian_flats())

    # -- duality -------------------------------------------------------

    def dual(self) -> "Matroid":
        """Dual matroid: r*(A) = |A| + r(E-A) - r(E)."""
        rt = np.frombuffer(self.rank_table, dtype=np.uint8)
        # E - A is the mask E ^ A, so r(E - A) is the table reversed
        table = (subset_sizes(self.n) + rt[::-1] - rt[-1]).astype(np.uint8)
        # the dual of a matroid is a matroid
        return Matroid(self.labels, table.tobytes(), validate=False)

    # -- identity ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matroid):
            return NotImplemented
        return self.labels == other.labels and self.rank_table == other.rank_table

    def __hash__(self) -> int:
        return hash((self.labels, self.rank_table))

    def __repr__(self) -> str:
        return f"Matroid(n={self.n}, rank={self.full_rank()}, labels={self.labels!r})"


def prime_circuits(matroids: Iterable[Matroid]) -> None:
    """Fill the ``circuits``, ``nonspanning`` and ``nonspanning_closures``
    caches of every matroid not yet primed: one numpy pass per stack of
    same-size tables, of at most ``_STACK_CELLS`` entries."""
    by_n: dict[int, list[Matroid]] = {}
    for M in matroids:
        if "circuits" not in M._cache:
            by_n.setdefault(M.n, []).append(M)
    for n, ms in by_n.items():
        rows = max(1, _STACK_CELLS >> n)
        for start in range(0, len(ms), rows):
            _circuit_pass(ms[start:start + rows], n)


def _circuit_pass(ms: Sequence[Matroid], n: int) -> None:
    """The circuit caches of a stack of tables over ``n`` elements.  Set
    A of row i sits at ``i << n | A`` of the flat stack; ``at`` counts
    the same positions with each row read in (size, mask) order, so it
    ascends and ``i << n`` splits off the rows before i."""
    R = np.frombuffer(b"".join(M.rank_table for M in ms), dtype=np.uint8)
    E = (1 << n) - 1
    bits = 1 << np.arange(n)
    # sets of rank |A| - 1
    order = np.argsort(subset_sizes(n), kind="stable")
    at = np.flatnonzero(R.reshape(-1, E + 1)[:, order] == subset_sizes(n)[order] - 1)
    F = at >> n << n | order[at & E]
    rF = R[F]
    # a circuit keeps its rank when any one element goes
    keep = (R[F[:, None] & ~bits] == rF[:, None]).all(1)
    at, F, rF = at[keep], F[keep], rF[keep]
    # a spanning circuit closes to E, so only the others are gathered
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

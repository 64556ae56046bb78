"""Bitmask matroids with explicit rank tables.

A matroid on ``n <= 16`` labeled elements is stored as the full table of
2**n subset ranks.  Subsets are plain Python ints interpreted as
bitmasks over element positions ``0..n-1``.  All derived structure is
computed by subset scan, never by representation-specific shortcuts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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

# Table entries that go through numpy together: one stacked pass, one
# sweep chunk, one batch of graphic DPs.  A larger item is a run of its own
_TABLE_CELLS = 1 << 17


def runs(items: Iterable, cells: Callable[..., int]) -> Iterator[list]:
    """Consecutive runs of ``items`` of at most ``_TABLE_CELLS`` entries,
    ``cells(item)`` each, or of one larger item; read one item past each run."""
    run, total = [], 0
    for x in items:
        size = cells(x)
        if run and total + size > _TABLE_CELLS:
            yield run
            run, total = [], 0
        run.append(x)
        total += size
    if run:
        yield run


# Tables of under this many elements stack with those of this many, each
# computed over the stack's largest count: a pass over such small tables
# costs its numpy calls, not its entries
_STACK_FLOOR = 6


def build_stacks(items: Sequence, size: Callable, cells: Callable[[list, int], int],
                 build: Callable[[list, int], tuple[Sequence, np.ndarray]],
                 check_labels: bool = True) -> list:
    """Matroids of ``items``, in order.  Items of ``size(item) = n`` elements
    are built together (those of at most ``_STACK_FLOOR`` elements in one
    group): ``build(run, n) -> (labels, tables)`` computes one
    :func:`runs` of them at a time over the run's largest n, each counted
    as ``cells(group, n)`` entries.  Row i of the tables must hold, in its
    first 2^n_i entries, the table of a matroid by theorem on its n_i
    labels (see :func:`stacked_matroids`)."""
    groups: dict = {}
    for i, x in enumerate(items):
        n = size(x)
        groups.setdefault(max(n, _STACK_FLOOR), []).append((i, n))
    out = [None] * len(items)
    for members in groups.values():
        group = [items[i] for i, _ in members]
        # a run of items of one size is :func:`runs` without a call per item
        step = max(1, _TABLE_CELLS // max(1, cells(group, max(n for _, n in members))))
        for start in range(0, len(group), step):
            part = members[start:start + step]
            labels, tables = build(group[start:start + step], max(n for _, n in part))
            for (i, _), M in zip(part, stacked_matroids(labels, tables, check_labels)):
                out[i] = M
    return out


def subset_sizes(n: int) -> np.ndarray:
    """Popcount of every mask over ``n <= MAX_ELEMENTS`` elements, as a
    read-only numpy array: a prefix of one table built at import."""
    if n > MAX_ELEMENTS:
        raise MatroidError(f"ground set too large: {n} > {MAX_ELEMENTS}")
    return _POPCOUNTS[:1 << n]


def default_labels(n: int) -> tuple[str, ...]:
    """The labels ``e1 .. en`` of a ground set given no labels: one shared
    tuple per n up to ``MAX_ELEMENTS``, so a stack of such members checks
    its labels once."""
    if n < len(_DEFAULT_LABELS):
        return _DEFAULT_LABELS[n]
    return tuple(f"e{i + 1}" for i in range(n))


# built at import, unlike a cache, which the import would start to fill
_DEFAULT_LABELS = tuple(tuple(f"e{i + 1}" for i in range(n)) for n in range(MAX_ELEMENTS + 1))


def label_mask(index: dict[str, int], names: Iterable[str]) -> int:
    """Mask of the labels ``names`` under ``index`` (label to position)."""
    out = 0
    for name in names:
        try:
            out |= 1 << index[name]
        except KeyError:
            raise MatroidError(f"unknown element label {name!r}") from None
    return out


def check_mask(A: int, n: int, what: str = "mask") -> None:
    """Raise unless ``A`` is a mask over ``n`` elements."""
    if A >> n:
        raise MatroidError(f"{what} {A:#x} not within ground set")


def subset_index(bits: np.ndarray) -> np.ndarray:
    """``out[..., A]`` is the union of ``bits[..., j]`` over the bits j of
    ``A``: the mask, over a larger ground set, of the subset whose mask
    over the chosen positions is ``A``.  Built by doubling, one position
    (last axis of ``bits``) at a time, each step writing the upper half
    of a prefix of ``out``, so a table over the chosen positions is one
    gather from the larger table.
    """
    m = bits.shape[-1]
    out = np.zeros(bits.shape[:-1] + (1 << m,), dtype=np.intp)
    for j in range(m):
        np.bitwise_or(out[..., :1 << j], bits[..., j:j + 1], out=out[..., 1 << j:2 << j])
    return out


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


def rotated(x: np.ndarray, n: int, k: int) -> np.ndarray:
    """A copy of a stack of tables over ``n``-bit masks (2^n entries each,
    in C order) with the low ``k`` index bits of each table moved to the
    top: bit i < k is bit i + n - k of the copy's index, bit i >= k is
    bit i - k, so ``rotated(rotated(x, n, k), n, n - k)`` is ``x``.  A
    sweep takes its low n // 2 bits from ``rotated(x, n, n // 2)`` and
    the rest from ``x``: every :func:`halves` step, which splits a table
    into runs of 2^i entries at bit i, then reads runs of 2^(n // 2) or more."""
    rows = x.size >> n
    return x.reshape(rows, 1 << n - k, 1 << k).transpose(0, 2, 1).copy().reshape(x.shape)


def validate_rank_axioms(table: Sequence[int] | np.ndarray, n: int) -> AxiomViolation | None:
    """Check the rank axioms R1-R3 on bytes, a flat integer array or a sequence.

    Monotonicity and submodularity are verified in their single-element
    local forms (``r(A) <= r(A+x)`` and
    ``r(A+x) + r(A+y) >= r(A+x+y) + r(A)``), which together with the R1
    bounds are equivalent to the full axioms.  Returns ``None`` for a
    valid table, otherwise the first violation in (R1, R2, R3) order:
    the least mask for R1, the least i and then the least base mask for
    R2, the least pair i < j and then the least base mask for R3.

    The gains r(A+i) - r(A) are stacked into one ``(n, 2^(n-1))`` array:
    R2 is one comparison of it, R3 one comparison per j over the rows
    i < j, n - 1 passes in all.  The gains of the low n // 2 elements are
    taken from one :func:`rotated` copy of the table, and the R3 passes
    for j < n // 2 read those rows as they come out of it, with their low
    index bits on top.  So every step reads runs of at least 2^(n // 2)
    table entries, or 2^(n // 2 - 1) gain entries.
    """
    if not 0 <= n <= MAX_ELEMENTS:
        raise ValueError(f"element count must be in 0..{MAX_ELEMENTS}, got {n}")
    size = 1 << n
    if isinstance(table, np.ndarray):
        table = table.ravel()  # any shape, read in C order
    if len(table) != size:
        raise ValueError(f"rank table must have {size} entries, got {len(table)}")
    r = np.frombuffer(table, dtype=np.uint8) if isinstance(table, (bytes, bytearray)) else table
    if not (isinstance(r, np.ndarray) and r.dtype.kind in "iu"):
        # read by value with no fixed dtype, so an entry too large for any
        # table is an R1 violation rather than an OverflowError; a
        # non-integer entry reads as -1, an R1 violation at its mask
        r = np.array([x if isinstance(x, (int, np.integer)) else -1 for x in table])

    bad = (r < 0) | (r > subset_sizes(n))
    if np.count_nonzero(bad):
        return AxiomViolation("R1", (int(np.argmax(bad)),))

    # gains[i, k]: r(A+i) - r(A) for the k-th mask A without bit i.  Row
    # i < low is taken at bit i + n - low of the rotated table: there it
    # comes out with its low - 1 low index bits on top (`lows`), and is
    # rotated back into `gains`
    r = r.astype(np.int8)
    half, low = size >> 1, n // 2
    gains = np.empty((n, half), dtype=np.int8)
    lows = np.empty((low, half), dtype=np.int8)
    rot = rotated(r, n, low)
    for i in range(n):
        x, p, gain = (rot, i + n - low, lows[i]) if i < low else (r, i, gains[i])
        without, with_i = halves(x, p)
        np.subtract(with_i, without, out=gain.reshape(with_i.shape))
    if low:
        gains[:low] = rotated(lows, n - 1, n - low)
    if n and gains.min() < 0:
        i, k = divmod(int(np.argmax(gains < 0)), half)
        a = _spread(k, i)
        return AxiomViolation("R2", (a, a | 1 << i))

    # submodularity: gain_i does not grow along bit j > i, which is bit
    # j - 1 of its index.  For j < low that bit is one of the low bits of
    # `lows`, and sits at j - 1 + n - low there
    # every pass compares into one buffer: at 16 elements a fresh array
    # per pass is a fresh mapping of up to 240 KiB, paged in each time
    buffer = np.empty(gains.size >> 1, dtype=bool)
    failed = []
    for j in range(1, n):
        rows, p = (lows[:j], j - 1 + n - low) if j < low else (gains[:j], j - 1)
        without, with_p = halves(rows, p)
        grew = np.greater(with_p, without, out=buffer[:with_p.size].reshape(with_p.shape))
        if np.count_nonzero(grew):
            failed.append(j)
    if failed:
        # the least pair, from the unrotated rows
        i, j, k = min(_first_growth(gains[:j], j) for j in failed)
        a = _spread(_spread(k, j - 1), i)
        return AxiomViolation("R3", (a | 1 << i, a | 1 << j))
    return None


def _first_growth(rows: np.ndarray, j: int) -> tuple[int, int, int]:
    """(i, j, k): the first row i of ``gains[:j]`` that grows along bit
    j - 1, and the least index k of its lower half where it does."""
    without, with_j = halves(rows, j - 1)
    viol = (with_j > without).reshape(j, -1)
    i = int(np.argmax(viol.any(1)))
    return i, j, int(np.argmax(viol[i]))


class Matroid:
    """Immutable matroid: labels plus a full subset-rank table.

    Equality is labeled equality (same labels in order, identical rank
    table); isomorphism is a separate operation in :mod:`lamina.minors`.
    Derived families (circuits, flats, ...) are computed lazily and
    cached; :func:`prime` fills them for many matroids at once.
    Instances are safe to share since nothing mutates after construction.

    The rank axioms are checked only where a table comes from outside
    the library: by default here, when a caller supplies the table, and
    in :func:`lamina.formats.parse_matroid`.  Library constructors whose
    output is a matroid by theorem pass ``validate=False``.
    """

    __slots__ = ("labels", "n", "rank_table", "E", "_cache")

    def __init__(
        self,
        labels: Iterable[str],
        rank_table: Sequence[int] | np.ndarray,
        validate: bool = True,
    ):
        labels = _checked_labels(labels)
        n = len(labels)
        # an array of any shape is read in C order, any other table but bytes by value
        if not isinstance(rank_table, (np.ndarray, bytes, bytearray)):
            rank_table = list(rank_table)
        size = rank_table.size if isinstance(rank_table, np.ndarray) else len(rank_table)
        if size != 1 << n:
            raise MatroidError(f"rank table must have {1 << n} entries, got {size}")
        if validate:
            v = validate_rank_axioms(rank_table, n)
            if v is not None:
                raise MatroidError(str(v))
        if isinstance(rank_table, np.ndarray):
            # cast once checked, so that no entry wraps; one copy, in C order
            rank_table = rank_table.astype(np.uint8, copy=False).tobytes()
        _set_slots(self, labels, n, bytes(rank_table))

    def __setattr__(self, name, value):
        raise AttributeError("Matroid instances are immutable")

    @property
    def ranks(self) -> np.ndarray:
        """``rank_table`` as a read-only uint8 array, made without a copy."""
        return np.frombuffer(self.rank_table, dtype=np.uint8)

    # -- basic queries -------------------------------------------------

    def rank(self, A: int | None = None) -> int:
        """Rank of subset mask ``A`` (whole ground set when omitted)."""
        if A is None:
            A = self.E
        check_mask(A, self.n)
        return self.rank_table[A]

    def full_rank(self) -> int:
        return self.rank_table[self.E]

    def is_independent(self, A: int) -> bool:
        check_mask(A, self.n)
        return self.rank_table[A] == A.bit_count()

    def closure(self, A: int) -> int:
        """All elements whose addition to ``A`` does not raise the rank."""
        check_mask(A, self.n)
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
        check_mask(A, self.n)
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
        return label_mask({lab: i for i, lab in enumerate(self.labels)}, names)

    def names(self, A: int) -> tuple[str, ...]:
        """Labels of the elements in mask ``A``, in ground-set order."""
        check_mask(A, self.n)
        return tuple(self.labels[i] for i in range(self.n) if A >> i & 1)

    # -- derived families ----------------------------------------------

    def circuits(self) -> tuple[int, ...]:
        """All minimal dependent subsets, ordered by (size, mask)."""
        return self._family("circuits")

    def nonspanning_circuits(self) -> tuple[int, ...]:
        """Circuits of rank below r(E), in :meth:`circuits` order."""
        return self._family("nonspanning")

    def nonspanning_closures(self) -> tuple[int, ...]:
        """``cl C`` for each of :meth:`nonspanning_circuits`, in its order."""
        return self._family("nonspanning_closures")

    def flats(self) -> tuple[int, ...]:
        """All closure-closed subsets, ordered by (size, mask)."""
        return self._family("flats")

    def cyclic_flats(self) -> tuple[tuple[int, int], ...]:
        """All coloop-free flats as (mask, rank) pairs, (size, mask) order."""
        return self._family("cyclic_flats")

    def hamiltonian_flats(self) -> tuple[int, ...]:
        """Flats that contain a spanning circuit, i.e. circuit closures."""
        return self._family("ham_flats")

    def _family(self, key: str):
        """The cached family ``key``; a miss runs its pass on a one-row stack."""
        if key not in self._cache:
            prime((self,), key)
        return self._cache[key]

    def is_hamiltonian_flat(self, F: int) -> bool:
        """Whether flat ``F`` has a spanning circuit.  Rejects non-flats."""
        if not self.is_flat(F):
            raise MatroidError(f"mask {F:#x} is not a flat")
        return F in set(self.hamiltonian_flats())

    # -- duality -------------------------------------------------------

    def dual(self) -> "Matroid":
        """Dual matroid: r*(A) = |A| + r(E-A) - r(E)."""
        rt = self.ranks
        # E - A is the mask E ^ A, so r(E - A) is the table reversed; the
        # dual of a matroid is a matroid
        return Matroid(self.labels, subset_sizes(self.n) + rt[::-1] - rt[-1], validate=False)

    # -- identity ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matroid):
            return NotImplemented
        return self.labels == other.labels and self.rank_table == other.rank_table

    def __hash__(self) -> int:
        return hash((self.labels, self.rank_table))

    def __repr__(self) -> str:
        return f"Matroid(n={self.n}, rank={self.full_rank()}, labels={self.labels!r})"


def _checked_labels(labels: Iterable[str]) -> tuple[str, ...]:
    """``labels`` as a tuple of strings, refused unless they are distinct
    and at most ``MAX_ELEMENTS``."""
    labels = tuple(str(x) for x in labels)
    if len(labels) > MAX_ELEMENTS:
        raise MatroidError(f"ground set too large: {len(labels)} > {MAX_ELEMENTS}")
    if len(set(labels)) != len(labels):
        raise MatroidError("element labels must be distinct")
    return labels


# the slots' own setters, which skip Matroid.__setattr__
_SETTERS = tuple(getattr(Matroid, name).__set__ for name in Matroid.__slots__)


def _set_slots(M: Matroid, labels: tuple[str, ...], n: int, table: bytes) -> None:
    """Fill the slots of a new matroid, as ``Matroid.__init__`` ends."""
    set_labels, set_n, set_table, set_E, set_cache = _SETTERS
    set_labels(M, labels)
    set_n(M, n)
    set_table(M, table)
    set_E(M, (1 << n) - 1)
    set_cache(M, {})


def stacked_matroids(labels: Sequence[Sequence[str]], tables: np.ndarray,
                     check_labels: bool = True) -> list[Matroid]:
    """Matroids of the rows of a stack of tables that are matroids by
    theorem: row i, labelled ``labels[i]``, holds its table over those
    n_i labels in its first 2^n_i entries.  No table is validated, and
    each labels object is checked once (members that share one, as
    :func:`default_labels` shares its tuples, share the check), unless
    ``check_labels`` is false: then each is a tuple of distinct strings
    already, as a minor's labels are."""
    width = tables.shape[1]
    checked: dict = {}
    out = []
    for names, row in zip(labels, tables.astype(np.uint8, copy=False)):
        got = checked.get(id(names)) if check_labels else names
        if got is None:
            got = checked[id(names)] = _checked_labels(names)
            if 1 << len(got) > width:
                raise MatroidError(f"rank table must have {1 << len(got)} entries, got {width}")
        M = object.__new__(Matroid)
        _set_slots(M, got, len(got), row[:1 << len(got)].tobytes())
        out.append(M)
    return out


def prime(matroids: Iterable[Matroid], key: str) -> None:
    """Fill the cache ``key`` (a key of ``_PASSES``) of every matroid that
    lacks it, with whatever else its pass fills: one pass per :func:`runs`
    of same-size tables."""
    by_n: dict[int, list[Matroid]] = {}
    for M in matroids:
        if key not in M._cache:
            by_n.setdefault(M.n, []).append(M)
    for n, ms in by_n.items():
        for stack in runs(ms, lambda M: 1 << n):
            _PASSES[key](stack, n)


def _sweep(R: np.ndarray, n: int, cyclic: bool) -> np.ndarray:
    """Whether each A of a stack of tables over ``n`` elements is closed
    (adding any x outside A changes its rank: a flat) and, with
    ``cyclic``, also cyclic (removing any x in A keeps it).  The low
    n // 2 elements are swept on a :func:`rotated` copy of the stack,
    whose marks are then rotated back, and the rest on the stack."""
    low = n // 2
    found = np.ones(len(R), dtype=bool)
    for table, positions in ((rotated(R, n, low), range(n - low, n)), (R, range(low, n))):
        if table is R:
            found = rotated(found, n, n - low)
        for i in positions:
            grows = np.not_equal(*halves(table, i))
            lower, upper = halves(found, i)
            lower &= grows
            if cyclic:
                upper &= ~grows
    return found


def _in_order(found: np.ndarray, n: int, rows: int) -> tuple[np.ndarray, list[int]]:
    """The positions ``row << n | A`` where a stack of ``rows`` tables
    over ``n`` elements has ``found`` set, in (row, size, mask) order,
    and the ``rows + 1`` bounds that split them by row."""
    at = np.flatnonzero(found)
    ends = np.searchsorted(at, np.arange(rows + 1) << n).tolist()
    # positions ascend, so a stable sort on (row, size) keeps masks
    # ascending; in the least dtype that holds the key, it is a radix sort
    key = (at >> n) * (n + 1) + _POPCOUNTS[at & ((1 << n) - 1)]
    key = key.astype(np.min_scalar_type(rows * (n + 1)))
    return at[np.argsort(key, kind="stable")], ends


def _stack(ms: Sequence[Matroid]) -> np.ndarray:
    """The rank tables of ``ms``, end to end: set A of row i at ``i << n | A``."""
    return np.frombuffer(b"".join(M.rank_table for M in ms), dtype=np.uint8)


def _fill(ms: Sequence[Matroid], key: str, values: Iterable, ends: list[int]) -> None:
    """Cache items ``ends[i]:ends[i + 1]`` of ``values`` as ``key`` of ``ms[i]``."""
    it = iter(values)
    for M, a, b in zip(ms, ends, ends[1:]):
        M._cache[key] = tuple(itertools.islice(it, b - a))


def _circuit_pass(ms: Sequence[Matroid], n: int) -> None:
    """The circuit caches of a stack of tables over ``n`` elements: A is a
    circuit when it is dependent and every A - x is independent, the low
    n // 2 elements x read on a :func:`rotated` copy, as :func:`_sweep`
    reads them.  The Hamiltonian flats are the circuits' closures: each
    row's distinct nonspanning closures, plus E where some circuit spans."""
    R = _stack(ms)
    low = n // 2
    ind = R.reshape(-1, 1 << n) == subset_sizes(n)
    ind_low = rotated(ind, n, low)
    circ = ~ind_low
    for table, positions in ((ind_low, range(n - low, n)), (ind, range(low, n))):
        if table is ind:
            circ = rotated(circ, n, n - low)
        for i in positions:
            with_i = halves(circ, i)[1]
            with_i &= halves(table, i)[0]
    at, ends = _in_order(circ, n, len(ms))
    E = (1 << n) - 1
    A, rA = at & E, R[at]
    # a spanning circuit closes to E, so only the others are gathered
    ns = rA < R[at | E]
    An, rAn, bits = at[ns], rA[ns], 1 << np.arange(n)
    closures = (R[An[:, None] | bits] == rAn[:, None]) @ bits
    # the nonspanning circuits before each row bound
    ns_ends = np.concatenate(([0], np.cumsum(ns)))[ends].tolist()
    # each row's closures marked on its masks, so a repeat is marked once
    ham = np.zeros(len(R), dtype=bool)
    ham[An & ~E | closures] = True
    ham[at[~ns] | E] = True
    ham, ham_ends = _in_order(ham, n, len(ms))
    _fill(ms, "circuits", A.tolist(), ends)
    _fill(ms, "nonspanning", (An & E).tolist(), ns_ends)
    _fill(ms, "nonspanning_closures", closures.tolist(), ns_ends)
    _fill(ms, "ham_flats", (ham & E).tolist(), ham_ends)


def _flat_pass(ms: Sequence[Matroid], n: int) -> None:
    """The flat caches of a stack of tables over ``n`` elements."""
    at, ends = _in_order(_sweep(_stack(ms), n, cyclic=False), n, len(ms))
    at &= (1 << n) - 1
    at = at.tolist()  # drops the array before _fill builds the tuples
    _fill(ms, "flats", at, ends)


def _cyclic_flat_pass(ms: Sequence[Matroid], n: int) -> None:
    """The cyclic-flat caches of a stack of tables over ``n`` elements."""
    R = _stack(ms)
    at, ends = _in_order(_sweep(R, n, cyclic=True), n, len(ms))
    _fill(ms, "cyclic_flats", zip((at & ((1 << n) - 1)).tolist(), R[at].tolist()), ends)


# The pass that fills each cached family
_PASSES = dict.fromkeys(("circuits", "nonspanning", "nonspanning_closures", "ham_flats"),
                        _circuit_pass)
_PASSES.update(flats=_flat_pass, cyclic_flats=_cyclic_flat_pass)

"""Registry of scripted verification checks.

Each check re-verifies one documented claim about the implemented
matroid classes by brute force over small ground sets, on fixed named
matroids or over a deterministic seeded corpus.  Every :data:`CHECKS`
value is a callable ``sub_seed -> (ok, witness)``; a failure's witness
can be replayed through the public operations.

Every corpus check is data: a :class:`Sweep` asks ``claim(M)`` of every
distinct member of ``corpus(sub_seed)``, an iterable it reads a chunk at
a time, priming one family of each chunk: circuits, whose pass fills
the Hamiltonian flats too, or cyclic flats.  Its :class:`Excluded` sides
fill their minor answers a chunk at a time too, one stacked search per
target, through the one producer :func:`_contains`.  Seed-free corpus
parts are built once per process and shared, primed families and all.
A claim returns ``None`` when it holds and ``(note, *sets)`` when it
fails; the first failing member is the witness, its note prefixed with
``label[index]``.  Every equivalence, excluded-minor and
graph-shape characterization is an :class:`Agree` of named predicates;
the other claims are functions below and :func:`_minor_closed`.  Every
graph-pool member is a restriction of M(K_6), its edges labelled by
their endpoints, ``"u-v"``, so a witness spells the graph out; a
graph-shape side looks the member's K_6 edge mask up in one table of
the allowed shapes, and no side parses a label.
:func:`_battery` certifies fixed excluded minors; the other fixed-input
checks are plain functions.  A side that stands for a definition states
the definition itself, as ``lem-kcl-equiv`` does the 2^n chain form and
the all-circuit pair scan.  Library names are looked up when a check
runs, so a test can stand in a wrong predicate.

Checks derive a private sub-seed from their identifier, so running them
in any order or concurrently never changes results.
"""

from __future__ import annotations

import itertools
import random
import time
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import Matroid, MatroidError, default_labels, prime, runs
from .constructions import (
    CyclicFlatFamily,
    LaminarCapacitySystem,
    Multigraph,
    ZAxiomError,
    cycle_matroid,
    cycle_matroids,
    from_cyclic_flats,
    laminar_matroids,
    mn_family,
    named_matroid,
    notk_cyclic_flats,
    notk_example,
    sec1_pc_example,
    uniform,
    validate_z_axioms,
)
from .laminar import (
    is_k_closure_laminar,
    is_k_laminar,
    is_laminar,
    is_nested,
    is_paving,
    min_closure_laminar_k,
    min_laminar_k,
)
from .minors import (
    BINARY, NAMED_MINORS, TERNARY, MinorSpec, contract, find_minors, has_minor, is_binary,
    is_ternary, is_excluded_minor, minors_of, single_element_minors_of)
from .formats import serialize_matroid
from .corpus import CorpusSpec, generate_corpus


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one registered check."""

    check_id: str
    status: str  # "pass" | "fail"
    elapsed_ms: int
    witness: dict | None = None
    coverage: dict | None = None  # a sweep's ``swept`` and ``distinct`` counts

    def __bool__(self) -> bool:
        return self.status == "pass"


def _sub_seed(check_id: str, seed: int) -> int:
    return zlib.crc32(check_id.encode("utf-8")) ^ (seed & 0xFFFFFFFF)


def _witness(M: Matroid, note: str, *sets: int) -> dict:
    return {
        "matroid": serialize_matroid(M),
        "sets": [list(M.names(S)) for S in sets],
        "note": note,
    }


# ---------------------------------------------------------------------------
# the sweep runner, its corpora and the two-sided claim


@dataclass(frozen=True)
class Sweep:
    """Ask ``claim`` of every distinct member of ``corpus(seed)``, read one
    :func:`~lamina.core.runs` of members at a time and primed with ``family``;
    the first member it fails on is the witness.  A member equal to an
    earlier one (labels and table) gets that one's answer, a pass, so it
    is not asked again.  With ``minors`` it asks
    ``claim(M, single_element_minors(M))``, building and priming the minors
    of a whole chunk with it.  Each :class:`Excluded` side of the claim
    fills its answers for the whole chunk first (:meth:`Excluded.fill`).
    Returns ``(ok, witness, coverage)``: coverage counts the members
    ``swept`` up to the witness (all of them on a pass) and the
    ``distinct`` ones asked."""

    corpus: Callable[[int], Iterable[Matroid]]
    claim: Callable[..., tuple | None]
    label: str = "corpus"
    family: str = "circuits"
    minors: bool = False

    def __call__(self, seed: int) -> tuple[bool, dict | None, dict]:
        excluded = [side for _, side in getattr(self.claim, "sides", ())
                    if isinstance(side, Excluded)]
        asked: set = set()
        swept = 0
        for chunk in runs(enumerate(self.corpus(seed)), lambda member: 1 << member[1].n):
            swept += len(chunk)
            fresh = []
            for i, M in chunk:
                if (M.labels, M.rank_table) not in asked:
                    asked.add((M.labels, M.rank_table))
                    fresh.append((i, M))
            members = [M for _, M in fresh]
            reads = single_element_minors_of(members) if self.minors else [[] for _ in fresh]
            prime(itertools.chain(members, *reads), self.family)
            for side in excluded:
                side.fill(members)
            for t, ((i, M), minors) in enumerate(zip(fresh, reads)):
                failure = self.claim(M, minors) if self.minors else self.claim(M)
                if failure is not None:
                    note, *sets = failure
                    coverage = {"swept": i + 1, "distinct": len(asked) - len(fresh) + t + 1}
                    return False, _witness(M, f"{self.label}[{i}]: {note}", *sets), coverage
            # before the next is read: a lazy corpus holds one chunk
            del chunk, fresh, members, reads
        return True, None, {"swept": swept, "distinct": len(asked)}


# The one answer cache of the harness; the library never reads it.  One
# verify --seed 0 stores 5,626 answers, each keeping a rank table alive
# (sweeps fill it a chunk at a time with what their sides ask, no more);
# past this many the oldest is dropped, so a process that runs many
# seeds stays bounded while one run never evicts.
_MINOR_CACHE_SIZE = 1 << 14
_MINOR_CACHE: dict[tuple, bool] = {}


def _contains(ms: list[Matroid], name: str) -> list[bool]:
    """Whether each of ``ms`` has the target ``name`` of ``NAMED_MINORS`` as
    a minor, keyed by both tables, since M_4(2) and M(K_{2,3}) have one
    table: the cached answers, then one :func:`~lamina.minors.find_minors`
    over the distinct tables without one, whose answers are cached too."""
    target = NAMED_MINORS[name]
    # this call's answers, which the cache may drop before it returns
    got = {M.rank_table: _MINOR_CACHE.get((M.rank_table, target.rank_table)) for M in ms}
    ask = {M.rank_table: M for M in ms if got[M.rank_table] is None}
    for table, spec in zip(ask, find_minors(list(ask.values()), target)):
        got[table] = spec is not None
        if len(_MINOR_CACHE) >= _MINOR_CACHE_SIZE:
            del _MINOR_CACHE[next(iter(_MINOR_CACHE))]
        _MINOR_CACHE[table, target.rank_table] = got[table]
    return [got[M.rank_table] for M in ms]


def _has_named_minor(M: Matroid, name: str) -> bool:
    """:func:`_contains` of one member: a cache hit is one lookup."""
    found = _MINOR_CACHE.get((M.rank_table, NAMED_MINORS[name].rank_table))
    return _contains([M], name)[0] if found is None else found


@dataclass(frozen=True)
class Excluded:
    """Side: M has none of the targets ``names`` of ``NAMED_MINORS`` as a
    minor, asked in order until one is found, and, with ``also``,
    ``also(M)`` holds too."""

    names: tuple[str, ...]
    also: Callable[[Matroid], object] | None = None

    def __call__(self, M: Matroid) -> bool:
        return (not any(_has_named_minor(M, t) for t in self.names)
                and (self.also is None or bool(self.also(M))))

    def fill(self, ms: list[Matroid]) -> None:
        """Cache every answer this side asks of the members ``ms``: each
        target, in order, of the members where no earlier one is found."""
        for name in self.names:
            ms = [M for M, found in zip(ms, _contains(ms, name)) if not found]


@dataclass(frozen=True)
class Agree:
    """Claim: the named predicates of ``sides`` give M one verdict; with
    ``ks``, one verdict of ``side(M, k)`` at each k of ``ks(M)`` in turn."""

    sides: tuple[tuple[str, Callable], ...]
    ks: Callable[[Matroid], Iterable[int]] | None = None

    def verdicts(self, M: Matroid):
        """Yield ``(k, verdict of each side)``, k None without ``ks``."""
        for k in (None,) if self.ks is None else self.ks(M):
            yield k, tuple(bool(side(M) if k is None else side(M, k)) for _, side in self.sides)

    def __call__(self, M: Matroid):
        for k, got in self.verdicts(M):
            if len(set(got)) > 1:
                note = " vs ".join(f"{name} {v}" for (name, _), v in zip(self.sides, got))
                return (note if k is None else f"{note} at k={k}",)
        return None


def _sweep_corpus(seed: int) -> tuple[Matroid, ...]:
    """Small corpus for pointwise predicate sweeps."""
    return tuple(generate_corpus(CorpusSpec(seed=seed, count=80, max_elements=7)))


def _big_corpus(seed: int) -> tuple[Matroid, ...]:
    """Corpus of >= 1000 matroids on <= 8 elements for minor-based sweeps."""
    return tuple(generate_corpus(CorpusSpec(seed=seed, count=1000, max_elements=8)))


@lru_cache(maxsize=None)
def _graphic_fixed() -> tuple[Matroid, ...]:
    """M(K_{2,3}), M(K_4) and the rim-deleted wheel W_4, each followed by
    its single-element deletions and contractions, built once."""
    named = [named_matroid(name) for name in ("mk23", "mk4", "wheel4rimdel")]
    return tuple(x for M, minors in zip(named, single_element_minors_of(named))
                 for x in (M, *minors))


def _graphic_corpus(seed: int) -> list[Matroid]:
    """:func:`_graphic_fixed`, then 150 cycle matroids of seeded random
    multigraphs.  The fixed part puts members outside both 2-classes in
    every corpus."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(150):
        nv = rng.randint(2, 5)
        m = rng.randint(1, 8)
        edges = tuple(
            (u, v) for u, v in
            ((rng.randrange(nv), rng.randrange(nv)) for _ in range(m)))
        graphs.append(Multigraph(nv, edges))
    return [*_graphic_fixed(), *cycle_matroids(graphs)]


def _laminar_system_corpus(seed: int) -> list[Matroid]:
    """Laminar matroids of 200 seeded random capacity systems on 2..8
    elements, drawn first and then built together."""
    rng = random.Random(seed)
    systems = []
    for _ in range(200):
        n = rng.randint(2, 8)
        labels = default_labels(n)
        full = (1 << n) - 1
        family = [full]
        for _ in range(rng.randint(0, 4)):
            parent = rng.choice(family)
            bits = [i for i in range(n) if parent >> i & 1]
            if len(bits) < 2:
                continue
            child = 0
            for i in rng.sample(bits, rng.randint(1, len(bits) - 1)):
                child |= 1 << i
            if all(not (child & f) or child & f in (child, f) for f in family):
                family.append(child)
        caps = tuple(rng.randint(0, m.bit_count()) for m in family)
        systems.append(LaminarCapacitySystem(labels, tuple(family), caps))
    return laminar_matroids(systems)


# ---------------------------------------------------------------------------
# graph helpers for the graphic characterizations


@lru_cache(maxsize=None)
def _complete_graph(nv: int) -> Matroid:
    """M(K_nv), its edges in ``combinations`` order and labelled ``"u-v"``
    for witnesses (nothing parses a label): a simple graph's cycle matroid
    is its restriction to the graph's edges."""
    edges = tuple(itertools.combinations(range(nv), 2))
    return cycle_matroid(Multigraph(nv, edges, tuple(f"{u}-{v}" for u, v in edges)))


@lru_cache(maxsize=None)
def _two_connected(nv: int) -> bytes:
    """Per edge mask S of K_nv, 1 if the graph S is 2-connected: nv >= 3
    and, for every vertex v, the edges avoiding v have rank nv - 2."""
    K, edges = _complete_graph(nv), list(itertools.combinations(range(nv), 2))
    S = np.arange(1 << K.n)
    ok = np.full(len(S), nv >= 3)
    for v in range(nv):
        ok &= K.ranks[S & ~sum(1 << i for i, e in enumerate(edges) if v in e)] == nv - 2
    return ok.tobytes()


@lru_cache(maxsize=None)
def _graph_shapes() -> dict[int, int]:
    """K_6 edge masks of K_4 and of every cycle through vertices 0..nv-1,
    3 <= nv <= 6, plus at most two chords, where two chords must share
    one endpoint and have adjacent other endpoints; each with its least
    number of chords (K_4 counts as none)."""
    bit = {e: 1 << i for i, e in enumerate(itertools.combinations(range(6), 2))}
    shapes = {sum(bit[e] for e in itertools.combinations(range(4), 2)): 0}
    for nv in range(3, 7):
        for order in itertools.permutations(range(1, nv)):
            if order[0] > order[-1]:
                continue  # the ring of the reversed order
            ring = {tuple(sorted(e)) for e in zip((0, *order), (*order, 0))}
            chords = [e for e in itertools.combinations(range(nv), 2) if e not in ring]
            for j in range(3):
                for extra in itertools.combinations(chords, j):
                    # chords a-b and a-c need the ring edge b-c
                    if j < 2 or tuple(sorted(set(extra[0]) ^ set(extra[1]))) in ring:
                        S = sum(bit[e] for e in ring.union(extra))
                        shapes[S] = min(j, shapes.get(S, j))
    return shapes


def _is_graph_shape(labels: Iterable[str], max_chords: int) -> bool:
    """Whether the graph whose K_6 edges are ``labels`` is one of
    :func:`_graph_shapes` with at most ``max_chords`` chords."""
    return _graph_shapes().get(_complete_graph(6).mask(labels), 3) <= max_chords


def _six_vertex_samples(seed: int) -> list[int]:
    """Edge masks over K_6 of >= 500 distinct seeded 2-connected graphs."""
    rng, two_connected = random.Random(seed), _two_connected(6)
    samples: dict[int, None] = {}  # in first-drawn order
    attempts = 0
    while len(samples) < 500 and attempts < 100000:
        attempts += 1
        # a draw of 6..12 of K_6's 15 edges, sorted into a mask
        S = sum(1 << i for i in rng.sample(range(15), rng.randint(6, 12)))
        if two_connected[S]:
            samples[S] = None
    return list(samples)


def _restrictions(graphs: Iterable[tuple[int, int]]) -> list[Matroid]:
    """The cycle matroids of the graphs ``(nv, S)`` with K_nv's edges of
    mask ``S``: restrictions of M(K_nv), gathered by edge count."""
    pairs = []
    for nv, S in graphs:
        K = _complete_graph(nv)
        pairs.append((K, MinorSpec(K.E & ~S, 0)))
    return minors_of(pairs)


@lru_cache(maxsize=None)
def _two_connected_matroids() -> tuple[Matroid, ...]:
    """Cycle matroids of every simple 2-connected graph on 3..5 vertices,
    built once."""
    return tuple(_restrictions((nv, S) for nv in (3, 4, 5)
                               for S, ok in enumerate(_two_connected(nv)) if ok))


def _graph_pool(seed: int) -> Iterator[Matroid]:
    """:func:`_two_connected_matroids`, then the cycle matroids of
    :func:`_six_vertex_samples`; each member is M(K_nv) restricted to its
    edges, so the pool builds no graph table of its own.  The samples are
    restricted one :func:`~lamina.core.runs` at a time, a gather per edge
    count, so the pool holds one run of them at once."""
    yield from _two_connected_matroids()
    for run in runs(_six_vertex_samples(seed), lambda S: 1 << S.bit_count()):
        yield from _restrictions((6, S) for S in run)


# ---------------------------------------------------------------------------
# claims about one corpus member


@lru_cache(maxsize=1)
def _unnested_meets(M: Matroid) -> list[tuple[int, int]]:
    """(C1 ∩ C2, cl C1 ∩ cl C2) over all circuit pairs, spanning circuits
    included, with neither circuit inside the other's closure; kept for
    the last member, which a claim over k asks at every k."""
    circs = M.circuits()
    pairs = itertools.combinations([(C, M.closure(C)) for C in circs], 2)
    return [(C1 & C2, F1 & F2) for (C1, F1), (C2, F2) in pairs
            if C1 & ~F2 and C2 & ~F1]


def _chain_form(M: Matroid, k: int) -> bool:
    """Definition: for every independent k-set X, in all 2^n masks, the
    Hamiltonian flats containing X form a chain."""
    ham, rt = M.hamiltonian_flats(), M.rank_table
    return not any(F1 & ~F2 and F2 & ~F1
                   for X in range(M.E + 1) if X.bit_count() == k == rt[X]
                   for F1, F2 in itertools.combinations([F for F in ham if F & X == X], 2))


def _circuit_form(M: Matroid, k: int) -> bool:
    """Every pair of :func:`_unnested_meets` has r(cl C1 ∩ cl C2) < k."""
    return all(M.rank_table[F] < k for _, F in _unnested_meets(M))


def _baby_properties(M):
    r = M.full_rank()
    lam = [bool(is_k_laminar(M, k)) for k in range(r + 2)]
    cl = [bool(is_k_closure_laminar(M, k)) for k in range(r + 2)]
    # the predicates scan nonspanning circuits or Hamiltonian flats; (iv)
    # and (v) say that scans over every circuit pair agree with them
    meets = _unnested_meets(M)
    rt = M.rank_table
    for k in range(r + 2):
        if cl[k] and not lam[k]:
            return (f"(i) fails at k={k}",)
        if k and (cl[k - 1] and not cl[k] or lam[k - 1] and not lam[k]):
            return (f"monotonicity fails at k={k}",)
        if all(C.bit_count() < k for C, _ in meets) != lam[k]:
            return (f"(v) fails at k={k}",)
        if all(rt[F] < k for _, F in meets) != cl[k]:
            return (f"(iv) fails at k={k}",)
    if len(M.nonspanning_circuits()) <= 1 and not (all(lam) and all(cl)):
        return ("(vi) fails",)
    return None


def _passes_circuit_pair_test(M):
    verdict = is_laminar(M)
    return None if verdict else (
        "laminar-system matroid failed the circuit-pair test", *verdict.witness)


def _minor_closed(least, holds, ks, kind: str) -> Sweep:
    """Sweep of the claim: for each k in ``ks(M)`` with ``holds(M, k)``,
    every single-element deletion and contraction of M also holds; the
    circuits of M and its minors are primed a chunk at a time.  ``holds``
    is true exactly from ``least(M)`` up, so a minor that holds at the
    least such k holds at every one, and one that fails, fails there
    first: M is asked for its least k, and each minor once, at it."""
    def claim(M, minors):
        low = least(M)
        k = next((k for k in ks(M) if k >= low), None)
        for j, M2 in enumerate(minors if k is not None else ()):
            if not holds(M2, k):
                op = ("delete", "contract")[j % 2]
                return f"{op} {M.labels[j // 2]} leaves {k}-{kind}", 1 << j // 2
        return None
    return Sweep(_sweep_corpus, claim, minors=True)


def _hamiltonian_extensions(M):
    # the least k scans the most circuits, and the test does not read k
    k = min_laminar_k(M)
    ham = set(M.hamiltonian_flats())
    for C in M.circuits():
        if C.bit_count() < 2 * k - 1:
            continue
        clC = M.closure(C)
        for e in range(M.n):
            bit = 1 << e
            if clC & bit:
                continue
            F = M.closure(C | bit)
            if M.rank(F & ~clC) < 2:
                continue
            if F not in ham:
                return (f"cl(C+{M.labels[e]}) not a spanning-circuit flat "
                        f"at k={k}", C, F)
    return None


def _cyclic_flats_round_trip(M):
    try:
        if from_cyclic_flats(CyclicFlatFamily(M.labels, M.cyclic_flats())) != M:
            return ("round trip changed the matroid",)
    except ZAxiomError:
        return ("own cyclic flats rejected",)
    except MatroidError as e:
        return (f"round trip raised: {e}",)
    return None


def _circuit_exchange_facts(M):
    circs = M.circuits()
    for C in circs:
        clC = M.closure(C)
        for D in circs:
            if D == C:
                continue
            if D & ~clC and (D & ~clC).bit_count() < 2:
                return "(i) fails", C, D
            if (D & ~C).bit_count() == 1:
                union = C | D
                for D2 in circs:
                    if D2 in (C, D) or D2 & ~union:
                        continue
                    if (C & ~D) & ~D2:
                        return "(ii) fails", C, D, D2
    return None


def _low_rank_is_in_both(M):
    r = M.full_rank()
    for k in range(max(0, r - 1), r + 2):
        if not (is_k_laminar(M, k) and is_k_closure_laminar(M, k)):
            return (f"rank {r} <= k+1={k + 1} but predicate fails",)
    return None


# ---------------------------------------------------------------------------
# fixed-input checks


def _check_sec1_pc_example(seed):
    for k in (2, 3, 4):
        M = sec1_pc_example(k)
        if not is_k_laminar(M, k):
            return False, _witness(M, f"k={k}: expected k-laminar")
        verdict = is_k_closure_laminar(M, k)
        if verdict:
            return False, _witness(M, f"k={k}: expected not k-closure-laminar")
    return True, None


def _notk_expected(k):
    """Assert the documented behavior of the rank-(2k-1) family."""
    def check(seed):
        try:
            M = notk_example(k)
        except ZAxiomError as exc:
            fam = notk_cyclic_flats(k)
            v = exc.violation
            sets = [sorted(fam.labels[i] for i in range(len(fam.labels)) if m >> i & 1)
                    for m in v.witness]
            return False, {
                "note": f"k={k}: the defining cyclic-flat family is not a matroid; "
                        f"axiom {v.axiom} fails for the rank-{k} members "
                        f"{sets[0]} and {sets[1]} (their lattice join is the full "
                        f"set and they share two elements, so Z3 needs "
                        f"{2 * k} >= {2 * k + 1})",
                "family": [(sorted(fam.labels[i] for i in range(len(fam.labels))
                                   if m >> i & 1), r) for m, r in fam.entries],
            }
        # were the family valid, these are the claimed properties
        if not is_k_closure_laminar(M, k):
            return False, _witness(M, f"k={k}: expected k-closure-laminar")
        Me = contract(M, M.mask(["e"]))
        if is_k_closure_laminar(Me, k):
            return False, _witness(M, f"k={k}: contraction at e stayed k-closure-laminar")
        return True, None
    return check


def _check_thm_bdm_roundtrip(seed):
    if validate_z_axioms(notk_cyclic_flats(3)) is None:
        return False, {"note": "k=3 family should be rejected"}
    return Sweep(_sweep_corpus, _cyclic_flats_round_trip, family="cyclic_flats")(seed)


def _battery(cases):
    """Each ``(name, M, classes)`` of ``cases()`` is an excluded minor
    for each named class."""
    def check(seed):
        for name, M, predicates in cases():
            for predicate in predicates:
                res = is_excluded_minor(M, predicate)
                if not res:
                    return False, _witness(M, f"{name} vs {predicate}: {res.reason}")
        return True, None
    return check


def _check_lem_nb(seed):
    M = NAMED_MINORS["mk23minus"]
    if is_binary(M) or not is_ternary(M):
        return False, _witness(M, "expected non-binary and ternary")
    for name, key, r, n in (("M_5(2)", "m52", 5, 7), ("P_4(2)", "p42", 4, 5),
                            ("N_5(2)", "n52", 5, 6)):
        if has_minor(NAMED_MINORS[key], uniform(r, n)) is None:
            return False, {"note": f"{name} should have a U_{{{r},{n}}} minor"}
    return True, None


_TERNARY_EXCLUDED = ("u25", "u35", "f7", "mk23minus", "mk23")

CHECKS = {
    "prop-nested-circuits": Sweep(_sweep_corpus, Agree((
        ("nested", lambda M: is_nested(M)),
        ("circuit-pair test", lambda M: not _unnested_meets(M))))),
    "thm-laminar-circuits": Sweep(_laminar_system_corpus, _passes_circuit_pair_test, "laminar"),
    "cor-ham-laminar": Sweep(_sweep_corpus, Agree((
        ("laminar", lambda M: is_laminar(M)),
        ("1-closure-laminar", lambda M: is_k_closure_laminar(M, 1))))),
    "lem-kcl-equiv": Sweep(_sweep_corpus, Agree((
        ("chain form", _chain_form),
        ("circuit form", _circuit_form),
        ("predicate", lambda M, k: is_k_closure_laminar(M, k))),
        lambda M: range(M.full_rank() + 2))),
    "sec1-pc-example": _check_sec1_pc_example,
    "prop-baby": Sweep(_sweep_corpus, _baby_properties),
    "lem-klam-minor-closed": _minor_closed(
        lambda M: min_laminar_k(M), lambda M, k: is_k_laminar(M, k),
        lambda M: range(M.full_rank() + 1), "laminar"),
    "thm-cl23-minor-closed": _minor_closed(
        lambda M: min_closure_laminar_k(M), lambda M, k: is_k_closure_laminar(M, k),
        lambda M: (2, 3), "closure-laminar"),
    "lem-hamcir": Sweep(_sweep_corpus, _hamiltonian_extensions),
    "thm-notk-k4": _notk_expected(4),
    "thm-notk-k5": _notk_expected(5),
    "thm-bdm-roundtrip": _check_thm_bdm_roundtrip,
    "lem-mnk": _battery(lambda: (
        (f"M_{n}({k})", mn_family(n, k), (f"{k}-laminar", f"{k}-closure-laminar"))
        for n, k in ((4, 0), (4, 1), (4, 2), (5, 2)))),
    "lem-therest": _battery(lambda: (
        (name, NAMED_MINORS[name], predicates) for name, predicates in (
            ("mk23minus", ("2-laminar", "2-closure-laminar")),
            ("n52", ("2-laminar",)), ("p42", ("2-closure-laminar",))))),
    "lem-obvious": Sweep(_sweep_corpus, _circuit_exchange_facts),
    "thm-em2lm": Sweep(_big_corpus, Agree((
        ("membership", lambda M: is_k_laminar(M, 2)),
        ("excluded-minor test", Excluded(("mk23minus", "m42", "m52", "n52")))))),
    "thm-em2lcm": Sweep(_big_corpus, Agree((
        ("membership", lambda M: is_k_closure_laminar(M, 2)),
        ("excluded-minor test", Excluded(("mk23minus", "m42", "m52", "p42")))))),
    "prop-rank-k1": Sweep(_sweep_corpus, _low_rank_is_in_both),
    "lem-nb": _check_lem_nb,
    "cor-binary-2lam": Sweep(_sweep_corpus, Agree((
        ("membership", Excluded(BINARY, lambda M: is_k_laminar(M, 2))),
        ("excluded-minor test", Excluded(("u24", "mk23", "n52")))))),
    "cor-binary-2clam": Sweep(_sweep_corpus, Agree((
        ("membership", Excluded(BINARY, lambda M: is_k_closure_laminar(M, 2))),
        ("excluded-minor test", Excluded(("u24", "mk23", "p42")))))),
    "cor-ternary-2lam": Sweep(_sweep_corpus, Agree((
        ("membership", Excluded(TERNARY, lambda M: is_k_laminar(M, 2))),
        ("excluded-minor test", Excluded(_TERNARY_EXCLUDED + ("n52",)))))),
    "cor-ternary-2clam": Sweep(_sweep_corpus, Agree((
        ("membership", Excluded(TERNARY, lambda M: is_k_closure_laminar(M, 2))),
        ("excluded-minor test", Excluded(_TERNARY_EXCLUDED + ("p42",)))))),
    "cor-graphic-2lam": Sweep(_graphic_corpus, Agree((
        ("membership", lambda M: is_k_laminar(M, 2)),
        ("excluded-minor test", Excluded(("u24", "mk23", "f7", "mstark33", "n52"))),
    )), "graphic"),
    "cor-graphic-2clam": Sweep(_graphic_corpus, Agree((
        ("membership", lambda M: is_k_closure_laminar(M, 2)),
        ("excluded-minor test", Excluded(("u24", "mk23", "f7", "p42"))),
    )), "graphic"),
    "lem-outerplanar": Sweep(_graph_pool, Agree((
        ("predicate", lambda M: is_k_laminar(M, 2)),
        ("graph shape", lambda M: _is_graph_shape(M.labels, 2)),
    )), "graph"),
    "prop-one-chord": Sweep(_graph_pool, Agree((
        ("predicate", lambda M: is_k_closure_laminar(M, 2)),
        ("graph shape", lambda M: _is_graph_shape(M.labels, 1)),
    )), "graph"),
    "thm-pav1": Sweep(_sweep_corpus, Agree((
        ("k-laminar", lambda M, k: is_k_laminar(M, k)),
        ("k-closure-laminar", lambda M, k: is_k_closure_laminar(M, k))),
        lambda M: range(M.full_rank() + 2) if is_paving(M) else ())),
    "cor-t2lp": Sweep(_sweep_corpus, Agree((
        ("paving 2-laminar", lambda M: is_paving(M) and is_k_laminar(M, 2)),
        ("paving 2-closure-laminar", lambda M: is_paving(M) and is_k_closure_laminar(M, 2)),
        ("excluded-minor test", Excluded(("pavex", "mk23minus", "m42", "m52")))))),
}


def available_checks() -> tuple[str, ...]:
    return tuple(CHECKS)


def run_check(check_id: str, seed: int = 0) -> CheckResult:
    """Run one registered check under a seed-derived private sub-seed."""
    if check_id not in CHECKS:
        raise MatroidError(f"unknown check {check_id!r}")
    start = time.monotonic()
    # a sweep's outcome also carries its coverage
    ok, witness, *coverage = CHECKS[check_id](_sub_seed(check_id, seed))
    elapsed = int((time.monotonic() - start) * 1000)
    return CheckResult(check_id, "pass" if ok else "fail", elapsed, witness, *coverage)

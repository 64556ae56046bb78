"""Registry of scripted verification checks.

Each check re-verifies one documented claim about the implemented
matroid classes by brute force over small ground sets, on fixed named
matroids or over a deterministic seeded corpus.  Every :data:`CHECKS`
value is a callable ``sub_seed -> (ok, witness)``; a failure's witness
can be replayed through the public operations.

Every corpus check is data: a :class:`Sweep` asks ``claim(M)`` of every
member of ``corpus(sub_seed)``, an iterable it reads and primes a chunk
at a time.  A claim returns ``None`` when it holds and ``(note, *sets)``
when it fails; the first failing member is the witness, its note
prefixed with ``label[index]``.  Every equivalence, excluded-minor and
graph-shape characterization is an :class:`Agree` of named predicates;
the other claims are functions below and :func:`_minor_closed`.  The
graph pool labels each edge by its endpoints, ``"u-v"``, so a side
reads the graph from the labels and a witness spells it out.
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

from .core import Matroid, MatroidError, prime_circuits
from .constructions import (
    CyclicFlatFamily,
    LaminarCapacitySystem,
    Multigraph,
    ZAxiomError,
    cycle_matroids,
    from_cyclic_flats,
    laminar_matroid,
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
)
from .minors import (
    BINARY, NAMED_MINORS, TERNARY, contract, has_minor, is_binary, is_ternary,
    is_excluded_minor, single_element_minors)
from .formats import serialize_matroid
from .corpus import CorpusSpec, generate_corpus


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one registered check."""

    check_id: str
    status: str  # "pass" | "fail"
    elapsed_ms: int
    witness: dict | None = None

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


# Members primed together; their caches live until the chunk is checked,
# so a corpus read lazily keeps peak memory flat
_CHUNK = 64


@dataclass(frozen=True)
class Sweep:
    """Ask ``claim`` of every member of ``corpus(seed)``, read ``_CHUNK``
    members at a time; the first member it fails on is the witness."""

    corpus: Callable[[int], Iterable[Matroid]]
    claim: Callable[[Matroid], tuple | None]
    label: str = "corpus"

    def __call__(self, seed: int) -> tuple[bool, dict | None]:
        members = enumerate(self.corpus(seed))
        while chunk := list(itertools.islice(members, _CHUNK)):
            prime_circuits(M for _, M in chunk)
            for i, M in chunk:
                failure = self.claim(M)
                if failure is not None:
                    note, *sets = failure
                    return False, _witness(M, f"{self.label}[{i}]: {note}", *sets)
            del chunk  # before the next is read: a lazy corpus holds one chunk
        return True, None


# The one answer cache of the harness; the library never reads it.  One
# verify --seed 0 stores 5,626 answers, each keeping a rank table alive;
# past this many the oldest is dropped, so a process that runs many
# seeds stays bounded while one run never evicts.
_MINOR_CACHE_SIZE = 1 << 14
_MINOR_CACHE: dict[tuple, bool] = {}


def _has_named_minor(M: Matroid, name: str) -> bool:
    """Cached minor containment against a target of ``NAMED_MINORS``,
    keyed by both tables, since M_4(2) and M(K_{2,3}) have one table."""
    N = NAMED_MINORS[name]
    key = (M.rank_table, N.rank_table)
    if key not in _MINOR_CACHE:
        if len(_MINOR_CACHE) >= _MINOR_CACHE_SIZE:
            del _MINOR_CACHE[next(iter(_MINOR_CACHE))]
        _MINOR_CACHE[key] = has_minor(M, N) is not None
    return _MINOR_CACHE[key]


def _excluded(M: Matroid, targets: Iterable[str]) -> bool:
    return not any(_has_named_minor(M, t) for t in targets)


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


def _graphic_corpus(seed: int) -> list[Matroid]:
    """M(K_{2,3}), M(K_4) and the rim-deleted wheel W_4, each followed by
    its single-element deletions and contractions, then 150 cycle
    matroids of seeded random multigraphs.  The fixed part puts members
    outside both 2-classes in every corpus."""
    out = []
    for name in ("mk23", "mk4", "wheel4rimdel"):
        M = named_matroid(name)
        out.append(M)
        out.extend(single_element_minors(M))
    rng = random.Random(seed)
    graphs = []
    for _ in range(150):
        nv = rng.randint(2, 5)
        m = rng.randint(1, 8)
        edges = tuple(
            (u, v) for u, v in
            ((rng.randrange(nv), rng.randrange(nv)) for _ in range(m)))
        graphs.append(Multigraph(nv, edges))
    return out + cycle_matroids(graphs)


def _laminar_system_corpus(seed: int) -> Iterator[Matroid]:
    """Laminar matroids of 200 seeded random capacity systems on 2..8
    elements."""
    rng = random.Random(seed)
    for _ in range(200):
        n = rng.randint(2, 8)
        labels = tuple(f"e{i + 1}" for i in range(n))
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
        yield laminar_matroid(LaminarCapacitySystem(labels, tuple(family), caps))


# ---------------------------------------------------------------------------
# graph helpers for the graphic characterizations


def _two_connected(nv: int, edges: tuple[tuple[int, int], ...]) -> bool:
    """Simple graph 2-connectivity by brute-force vertex removal over
    adjacency bitmasks.  With at least 3 vertices, every G - v connected
    already makes G connected with no isolated vertex."""
    if nv < 3 or len(edges) < nv:
        return False
    adj = [0] * nv
    for u, w in edges:
        adj[u] |= 1 << w
        adj[w] |= 1 << u
    for skip in range(nv):
        rest = (1 << nv) - 1 & ~(1 << skip)
        seen = todo = rest & -rest
        while todo:
            v = todo.bit_length() - 1
            new = adj[v] & rest & ~seen
            seen |= new
            todo = todo & ~(1 << v) | new
        if seen != rest:
            return False
    return True


def _cycle_with_chords(nv: int, edges: tuple[tuple[int, int], ...],
                       max_chords: int, paired: bool) -> bool:
    """Whether the simple graph on ``nv`` vertices with ``edges`` (pairs
    u < v) is a Hamiltonian cycle plus at most ``max_chords`` chords.
    With ``paired`` (used at max_chords = 2), two chords must share one
    endpoint and have adjacent other endpoints."""
    edge_set = frozenset(edges)
    if len(edge_set) - nv > max_chords:
        return False
    for perm in itertools.permutations(range(1, nv)):
        if perm[0] > perm[-1]:
            continue  # each cycle once per direction
        cycle = (0, *perm, 0)
        ring = {(min(e), max(e)) for e in zip(cycle, cycle[1:])}
        if not ring <= edge_set:
            continue
        chords = edge_set - ring  # |E| - nv of them, whatever the cycle
        if len(chords) <= 1:
            return True
        ends = set.symmetric_difference(*map(set, chords))
        if paired and len(ends) == 2 and tuple(sorted(ends)) in edge_set:
            return True
    return False


@lru_cache(maxsize=None)
def _two_connected_graphs() -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """(vertex count, edges) of every simple 2-connected graph on 3..5
    vertices, built once."""
    pool = []
    for nv in (3, 4, 5):
        all_edges = list(itertools.combinations(range(nv), 2))
        for bits in range(1 << len(all_edges)):
            edges = tuple(e for i, e in enumerate(all_edges) if bits >> i & 1)
            if _two_connected(nv, edges):
                pool.append((nv, edges))
    return tuple(pool)


def _six_vertex_samples(seed: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """(6, edges) of >= 500 distinct seeded 2-connected 6-vertex graphs."""
    rng = random.Random(seed)
    all6 = list(itertools.combinations(range(6), 2))
    samples, seen = [], set()
    attempts = 0
    while len(seen) < 500 and attempts < 100000:
        attempts += 1
        m = rng.randint(6, 12)
        edges = tuple(sorted(rng.sample(all6, m)))
        if edges in seen or not _two_connected(6, edges):
            continue
        seen.add(edges)
        samples.append((6, edges))
    return samples


def _graph_pool(seed: int) -> Iterator[Matroid]:
    """Cycle matroids of :func:`_two_connected_graphs` and
    :func:`_six_vertex_samples`, built a chunk at a time, each edge
    labelled by its endpoints ``"u-v"``."""
    graphs = [*_two_connected_graphs(), *_six_vertex_samples(seed)]
    for start in range(0, len(graphs), _CHUNK):
        yield from cycle_matroids([
            Multigraph(nv, edges, tuple(f"{u}-{v}" for u, v in edges))
            for nv, edges in graphs[start:start + _CHUNK]])


def _graph_shape(max_chords: int, paired: bool):
    """Side: the graph that M's ``"u-v"`` labels spell is K_4 or a cycle
    with the stated chords."""
    def side(M):
        edges = tuple(tuple(map(int, label.split("-"))) for label in M.labels)
        nv = 1 + max(map(max, edges))
        return nv == 4 and len(edges) == 6 or _cycle_with_chords(nv, edges, max_chords, paired)
    return side


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


def _minor_closed(holds, ks, kind: str):
    """Claim: for each k in ``ks(M)`` with ``holds(M, k)``, every
    single-element deletion and contraction of M also holds."""
    def claim(M):
        kept = [k for k in ks(M) if holds(M, k)]
        minors = single_element_minors(M)
        prime_circuits(minors)
        for j, M2 in enumerate(minors):
            for k in kept:
                if not holds(M2, k):
                    op = ("delete", "contract")[j % 2]
                    return f"{op} {M.labels[j // 2]} leaves {k}-{kind}", 1 << j // 2
        return None
    return claim


def _hamiltonian_extensions(M):
    ham = set(M.hamiltonian_flats())
    for k in range(M.full_rank() + 1):
        if not is_k_laminar(M, k):
            continue
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
    return Sweep(_sweep_corpus, _cyclic_flats_round_trip)(seed)


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
    "lem-klam-minor-closed": Sweep(_sweep_corpus, _minor_closed(
        lambda M, k: is_k_laminar(M, k), lambda M: range(M.full_rank() + 1), "laminar")),
    "thm-cl23-minor-closed": Sweep(_sweep_corpus, _minor_closed(
        lambda M, k: is_k_closure_laminar(M, k), lambda M: (2, 3), "closure-laminar")),
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
        ("excluded-minor test", lambda M: _excluded(M, ("mk23minus", "m42", "m52", "n52")))))),
    "thm-em2lcm": Sweep(_big_corpus, Agree((
        ("membership", lambda M: is_k_closure_laminar(M, 2)),
        ("excluded-minor test", lambda M: _excluded(M, ("mk23minus", "m42", "m52", "p42")))))),
    "prop-rank-k1": Sweep(_sweep_corpus, _low_rank_is_in_both),
    "lem-nb": _check_lem_nb,
    "cor-binary-2lam": Sweep(_sweep_corpus, Agree((
        ("membership", lambda M: _excluded(M, BINARY) and is_k_laminar(M, 2)),
        ("excluded-minor test", lambda M: _excluded(M, ("u24", "mk23", "n52")))))),
    "cor-binary-2clam": Sweep(_sweep_corpus, Agree((
        ("membership", lambda M: _excluded(M, BINARY) and is_k_closure_laminar(M, 2)),
        ("excluded-minor test", lambda M: _excluded(M, ("u24", "mk23", "p42")))))),
    "cor-ternary-2lam": Sweep(_sweep_corpus, Agree((
        ("membership", lambda M: _excluded(M, TERNARY) and is_k_laminar(M, 2)),
        ("excluded-minor test", lambda M: _excluded(M, _TERNARY_EXCLUDED + ("n52",)))))),
    "cor-ternary-2clam": Sweep(_sweep_corpus, Agree((
        ("membership", lambda M: _excluded(M, TERNARY) and is_k_closure_laminar(M, 2)),
        ("excluded-minor test", lambda M: _excluded(M, _TERNARY_EXCLUDED + ("p42",)))))),
    "cor-graphic-2lam": Sweep(_graphic_corpus, Agree((
        ("membership", lambda M: is_k_laminar(M, 2)),
        ("excluded-minor test", lambda M: _excluded(M, ("u24", "mk23", "f7", "mstark33", "n52"))),
    )), "graphic"),
    "cor-graphic-2clam": Sweep(_graphic_corpus, Agree((
        ("membership", lambda M: is_k_closure_laminar(M, 2)),
        ("excluded-minor test", lambda M: _excluded(M, ("u24", "mk23", "f7", "p42"))),
    )), "graphic"),
    "lem-outerplanar": Sweep(_graph_pool, Agree((
        ("predicate", lambda M: is_k_laminar(M, 2)),
        ("graph shape", _graph_shape(max_chords=2, paired=True)))), "graph"),
    "prop-one-chord": Sweep(_graph_pool, Agree((
        ("predicate", lambda M: is_k_closure_laminar(M, 2)),
        ("graph shape", _graph_shape(max_chords=1, paired=False)))), "graph"),
    "thm-pav1": Sweep(_sweep_corpus, Agree((
        ("k-laminar", lambda M, k: is_k_laminar(M, k)),
        ("k-closure-laminar", lambda M, k: is_k_closure_laminar(M, k))),
        lambda M: range(M.full_rank() + 2) if is_paving(M) else ())),
    "cor-t2lp": Sweep(_sweep_corpus, Agree((
        ("paving 2-laminar", lambda M: is_paving(M) and is_k_laminar(M, 2)),
        ("paving 2-closure-laminar", lambda M: is_paving(M) and is_k_closure_laminar(M, 2)),
        ("excluded-minor test", lambda M: _excluded(M, ("pavex", "mk23minus", "m42", "m52")))))),
}


def available_checks() -> tuple[str, ...]:
    return tuple(CHECKS)


def run_check(check_id: str, seed: int = 0) -> CheckResult:
    """Run one registered check under a seed-derived private sub-seed."""
    if check_id not in CHECKS:
        raise MatroidError(f"unknown check {check_id!r}")
    start = time.monotonic()
    ok, witness = CHECKS[check_id](_sub_seed(check_id, seed))
    elapsed = int((time.monotonic() - start) * 1000)
    return CheckResult(check_id, "pass" if ok else "fail", elapsed, witness)

"""Registry of scripted verification checks.

Each check re-verifies one documented claim about the implemented
matroid classes by brute force over small ground sets: either on fixed
named matroids or quantified over a deterministic seeded corpus.  A
check returns a :class:`CheckResult`; failures carry a witness that can
be replayed through the public operations.

Checks derive a private sub-seed from their identifier, so running them
in any order or concurrently never changes results.
"""

from __future__ import annotations

import itertools
import random
import time
import zlib
from dataclasses import dataclass

from .core import Matroid, MatroidError
from .constructions import (
    CyclicFlatFamily,
    LaminarCapacitySystem,
    Multigraph,
    ZAxiomError,
    circuit_matroid,
    cycle_matroid,
    direct_sum,
    from_cyclic_flats,
    laminar_matroid,
    mn_family,
    named_matroid,
    nn_family,
    notk_cyclic_flats,
    notk_example,
    pn_family,
    sec1_pc_example,
    uniform,
    validate_z_axioms,
)
from .laminar import (
    is_k_closure_laminar,
    is_k_closure_laminar_circuit_form,
    is_k_laminar,
    is_laminar,
    is_nested,
    is_paving,
)
from .minors import contract, delete, has_minor, is_binary, is_ternary, is_excluded_minor
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


# ---------------------------------------------------------------------------
# corpora and cached minor searches


def _sweep_corpus(seed: int) -> tuple[Matroid, ...]:
    """Small corpus for pointwise predicate sweeps."""
    return tuple(generate_corpus(CorpusSpec(seed=seed, count=80, max_elements=7)))


def _big_corpus(seed: int) -> tuple[Matroid, ...]:
    """Corpus of >= 1000 matroids on <= 8 elements for minor-based sweeps."""
    return tuple(generate_corpus(CorpusSpec(seed=seed, count=1000, max_elements=8)))


_TARGETS: dict[str, Matroid] = {}


def _target(name: str) -> Matroid:
    if name not in _TARGETS:
        builders = {
            "mk23minus": lambda: named_matroid("mk23minus"),
            "mk23": lambda: named_matroid("mk23"),
            "m42": lambda: mn_family(4, 2),
            "m52": lambda: mn_family(5, 2),
            "n52": lambda: nn_family(5, 2),
            "p42": lambda: pn_family(4, 2),
            "u24": lambda: uniform(2, 4),
            "u25": lambda: uniform(2, 5),
            "u35": lambda: uniform(3, 5),
            "f7": lambda: named_matroid("f7"),
            "mstark33": lambda: named_matroid("mstark33"),
            "pavex": lambda: direct_sum(uniform(0, 1), uniform(2, 2)),
        }
        _TARGETS[name] = builders[name]()
    return _TARGETS[name]


_MINOR_CACHE: dict[tuple, bool] = {}


def _has_named_minor(M: Matroid, name: str) -> bool:
    """Cached minor containment against a fixed named target."""
    N = _target(name)
    # quick necessary conditions: a minor never gains elements, rank, or corank
    if N.n > M.n or N.full_rank() > M.full_rank():
        return False
    if N.n - N.full_rank() > M.n - M.full_rank():
        return False
    key = (M.n, M.rank_table, name)
    if key not in _MINOR_CACHE:
        _MINOR_CACHE[key] = has_minor(M, N) is not None
    return _MINOR_CACHE[key]


def _witness(M: Matroid, note: str, *sets: int) -> dict:
    return {
        "matroid": serialize_matroid(M),
        "sets": [list(M.names(S)) for S in sets],
        "note": note,
    }


# ---------------------------------------------------------------------------
# graph helpers for the graphic characterizations


def _connected(nv: int, edges: tuple[tuple[int, int], ...], skip: int = -1) -> bool:
    verts = [v for v in range(nv) if v != skip]
    if not verts:
        return True
    adj = {v: [] for v in verts}
    for (u, w) in edges:
        if u != skip and w != skip:
            adj[u].append(w)
            adj[w].append(u)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(verts)


def _two_connected(nv: int, edges: tuple[tuple[int, int], ...]) -> bool:
    """Simple graph 2-connectivity by brute-force vertex removal."""
    if nv < 3 or len(edges) < nv:
        return False
    touched = set()
    for (u, w) in edges:
        touched.add(u)
        touched.add(w)
    if len(touched) != nv or not _connected(nv, edges):
        return False
    return all(_connected(nv, edges, skip=v) for v in range(nv))


def _hamiltonian_cycles(nv: int, edge_set: frozenset) -> list[frozenset]:
    """All Hamiltonian cycles as frozensets of (sorted) edges."""
    out = []
    for perm in itertools.permutations(range(1, nv)):
        if perm[0] > perm[-1]:
            continue  # each cycle once per direction
        cycle = (0,) + perm
        edges = []
        ok = True
        for i in range(nv):
            u, w = cycle[i], cycle[(i + 1) % nv]
            e = (min(u, w), max(u, w))
            if e not in edge_set:
                ok = False
                break
            edges.append(e)
        if ok:
            out.append(frozenset(edges))
    return out


def _is_k4(nv: int, edges: tuple[tuple[int, int], ...]) -> bool:
    return nv == 4 and len(edges) == 6


def _cycle_with_chords(nv: int, edges: tuple[tuple[int, int], ...],
                       max_chords: int, paired_chords: bool) -> bool:
    """Whether the graph is a cycle plus at most ``max_chords`` chords.

    With ``paired_chords`` (used at max_chords = 2), two chords are only
    allowed when they share an endpoint u and their other endpoints are
    adjacent in the graph.
    """
    edge_set = frozenset((min(u, w), max(u, w)) for (u, w) in edges)
    if len(edge_set) - nv > max_chords:
        return False
    for cycle in _hamiltonian_cycles(nv, edge_set):
        chords = sorted(edge_set - cycle)
        if len(chords) > max_chords:
            continue
        if len(chords) <= 1:
            return True
        if len(chords) == 2 and paired_chords:
            (a1, a2), (b1, b2) = chords
            shared = {a1, a2} & {b1, b2}
            if len(shared) == 1:
                (v1,) = {a1, a2} - shared
                (v2,) = {b1, b2} - shared
                if (min(v1, v2), max(v1, v2)) in edge_set:
                    return True
    return False


def _graph_pool(seed: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """All simple 2-connected graphs on 3..5 vertices plus >= 500 seeded
    6-vertex samples."""
    pool = []
    for nv in (3, 4, 5):
        all_edges = list(itertools.combinations(range(nv), 2))
        for bits in range(1 << len(all_edges)):
            edges = tuple(e for i, e in enumerate(all_edges) if bits >> i & 1)
            if _two_connected(nv, edges):
                pool.append((nv, edges))
    rng = random.Random(seed)
    all6 = list(itertools.combinations(range(6), 2))
    seen = set()
    attempts = 0
    while len(seen) < 500 and attempts < 100000:
        attempts += 1
        m = rng.randint(6, 12)
        edges = tuple(sorted(rng.sample(all6, m)))
        if edges in seen or not _two_connected(6, edges):
            continue
        seen.add(edges)
        pool.append((6, edges))
    return tuple(pool)


def _graphic_class_check(seed: int, k_pred, max_chords: int, paired: bool):
    """Shared body of the graphic characterizations: the class predicate
    on the cycle matroid must coincide with the stated graph shape."""
    for nv, edges in _graph_pool(seed):
        M = cycle_matroid(Multigraph(nv, edges))
        claimed = _is_k4(nv, edges) or _cycle_with_chords(nv, edges, max_chords, paired)
        actual = bool(k_pred(M))
        if claimed != actual:
            return False, _witness(
                M, f"graph on {nv} vertices, edges {edges}: "
                   f"predicate {actual} but graph shape says {claimed}")
    return True, None


# ---------------------------------------------------------------------------
# individual checks


def _check_prop_nested_circuits(seed):
    for i, M in enumerate(_sweep_corpus(seed)):
        circs = M.circuits()
        cls = [M.closure(C) for C in circs]
        pairwise = all(
            not (circs[a] & ~cls[b]) or not (circs[b] & ~cls[a])
            for a in range(len(circs)) for b in range(a + 1, len(circs))
        )
        if pairwise != bool(is_nested(M)):
            return False, _witness(M, f"corpus[{i}]: chain test vs circuit test disagree")
    return True, None


def _check_thm_laminar_circuits(seed):
    rng = random.Random(seed)
    for trial in range(200):
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
        M = laminar_matroid(LaminarCapacitySystem(labels, tuple(family), caps))
        verdict = is_laminar(M)
        if not verdict:
            return False, _witness(M, f"trial {trial}: laminar-system matroid "
                                      "failed the circuit-pair test", *verdict.witness)
    return True, None


def _check_cor_ham_laminar(seed):
    for i, M in enumerate(_sweep_corpus(seed)):
        if bool(is_laminar(M)) != bool(is_k_closure_laminar(M, 1)):
            return False, _witness(M, f"corpus[{i}]: 1-laminar vs chain-over-singletons")
    return True, None


def _check_lem_kcl_equiv(seed):
    for i, M in enumerate(_sweep_corpus(seed)):
        for k in range(M.full_rank() + 2):
            a = is_k_closure_laminar(M, k)
            b = is_k_closure_laminar_circuit_form(M, k)
            if bool(a) != bool(b):
                return False, _witness(M, f"corpus[{i}], k={k}: definitions disagree")
    return True, None


def _check_sec1_pc_example(seed):
    for k in (2, 3, 4):
        M = sec1_pc_example(k)
        if not is_k_laminar(M, k):
            return False, _witness(M, f"k={k}: expected k-laminar")
        verdict = is_k_closure_laminar(M, k)
        if verdict:
            return False, _witness(M, f"k={k}: expected not k-closure-laminar")
    return True, None


def _unnested_meets(M: Matroid) -> list[tuple[int, int]]:
    """(C1 ∩ C2, cl C1 ∩ cl C2) over all circuit pairs, spanning circuits
    included, with neither circuit inside the other's closure."""
    circs = M.circuits()
    pairs = itertools.combinations([(C, M.closure(C)) for C in circs], 2)
    return [(C1 & C2, F1 & F2) for (C1, F1), (C2, F2) in pairs
            if C1 & ~F2 and C2 & ~F1]


def _check_prop_baby(seed):
    for i, M in enumerate(_sweep_corpus(seed)):
        r = M.full_rank()
        lam = [bool(is_k_laminar(M, k)) for k in range(r + 2)]
        cl = [bool(is_k_closure_laminar(M, k)) for k in range(r + 2)]
        # the predicates scan nonspanning circuits only; (iv) and (v) say
        # that the scan over every circuit gives the same verdicts
        meets = _unnested_meets(M)
        rt = M.rank_table
        for k in range(r + 2):
            if cl[k] and not lam[k]:
                return False, _witness(M, f"corpus[{i}]: (i) fails at k={k}")
            if k and (cl[k - 1] and not cl[k] or lam[k - 1] and not lam[k]):
                return False, _witness(M, f"corpus[{i}]: monotonicity fails at k={k}")
            if all(C.bit_count() < k for C, _ in meets) != lam[k]:
                return False, _witness(M, f"corpus[{i}]: (v) fails at k={k}")
            scan = all(rt[F] < k for _, F in meets)
            if not (scan == bool(is_k_closure_laminar_circuit_form(M, k)) == cl[k]):
                return False, _witness(M, f"corpus[{i}]: (iv) fails at k={k}")
        if len(M.nonspanning_circuits()) <= 1 and not (all(lam) and all(cl)):
            return False, _witness(M, f"corpus[{i}]: (vi) fails")
    return True, None


def _check_lem_klam_minor_closed(seed):
    for i, M in enumerate(_sweep_corpus(seed)):
        ks = [k for k in range(M.full_rank() + 1) if is_k_laminar(M, k)]
        for e in range(M.n):
            bit = 1 << e
            for op, M2 in (("delete", delete(M, bit)), ("contract", contract(M, bit))):
                for k in ks:
                    if not is_k_laminar(M2, k):
                        return False, _witness(
                            M, f"corpus[{i}]: {op} {M.labels[e]} leaves {k}-laminar",
                            bit)
    return True, None


def _check_thm_cl23_minor_closed(seed):
    for i, M in enumerate(_sweep_corpus(seed)):
        ks = [k for k in (2, 3) if is_k_closure_laminar(M, k)]
        for e in range(M.n):
            bit = 1 << e
            for op, M2 in (("delete", delete(M, bit)), ("contract", contract(M, bit))):
                for k in ks:
                    if not is_k_closure_laminar(M2, k):
                        return False, _witness(
                            M, f"corpus[{i}]: {op} {M.labels[e]} leaves "
                               f"{k}-closure-laminar", bit)
    return True, None


def _check_lem_hamcir(seed):
    for i, M in enumerate(_sweep_corpus(seed)):
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
                        return False, _witness(
                            M, f"corpus[{i}], k={k}: cl(C+{M.labels[e]}) "
                               "not a spanning-circuit flat", C, F)
    return True, None


def _notk_expected(k):
    """Assert the documented behavior of the rank-(2k-1) family."""
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


def _check_thm_notk_k4(seed):
    return _notk_expected(4)


def _check_thm_notk_k5(seed):
    return _notk_expected(5)


def _check_thm_bdm_roundtrip(seed):
    fam3 = notk_cyclic_flats(3)
    v = validate_z_axioms(fam3)
    if v is None:
        return False, {"note": "k=3 family should be rejected"}
    for i, M in enumerate(_sweep_corpus(seed)):
        family = CyclicFlatFamily(M.labels, M.cyclic_flats())
        if validate_z_axioms(family) is not None:
            return False, _witness(M, f"corpus[{i}]: own cyclic flats rejected")
        if from_cyclic_flats(family) != M:
            return False, _witness(M, f"corpus[{i}]: round trip changed the matroid")
    return True, None


def _check_lem_mnk(seed):
    for n, k in ((4, 0), (4, 1), (4, 2), (5, 2)):
        M = mn_family(n, k)
        for predicate in (f"{k}-laminar", f"{k}-closure-laminar"):
            res = is_excluded_minor(M, predicate)
            if not res:
                return False, _witness(M, f"M_{n}({k}) vs {predicate}: {res.reason}")
    return True, None


def _check_lem_therest(seed):
    cases = (
        ("mk23minus", None, ("2-laminar", "2-closure-laminar")),
        ("n52", None, ("2-laminar",)),
        ("p42", None, ("2-closure-laminar",)),
    )
    for name, _, predicates in cases:
        M = _target(name)
        for predicate in predicates:
            res = is_excluded_minor(M, predicate)
            if not res:
                return False, _witness(M, f"{name} vs {predicate}: {res.reason}")
    return True, None


def _check_lem_obvious(seed):
    for i, M in enumerate(_sweep_corpus(seed)):
        circs = M.circuits()
        for C in circs:
            clC = M.closure(C)
            for D in circs:
                if D == C:
                    continue
                if D & ~clC and (D & ~clC).bit_count() < 2:
                    return False, _witness(M, f"corpus[{i}]: (i) fails", C, D)
                if (D & ~C).bit_count() == 1:
                    union = C | D
                    for D2 in circs:
                        if D2 in (C, D) or D2 & ~union:
                            continue
                        if (C & ~D) & ~D2:
                            return False, _witness(M, f"corpus[{i}]: (ii) fails",
                                                   C, D, D2)
    return True, None


def _em2_check(seed, predicate, targets, name):
    """Excluded-minor coverage: over the big corpus, ``predicate`` holds
    exactly when no listed minor is present."""
    corpus = _big_corpus(seed)
    for i, M in enumerate(corpus):
        if bool(predicate(M)) == any(_has_named_minor(M, t) for t in targets):
            return False, _witness(M, f"corpus[{i}] of {len(corpus)}: {name} status "
                                      "does not match excluded-minor containment")
    return True, None


def _check_thm_em2lm(seed):
    return _em2_check(seed, lambda M: is_k_laminar(M, 2),
                      ("mk23minus", "m42", "m52", "n52"), "2-laminar")


def _check_thm_em2lcm(seed):
    return _em2_check(seed, lambda M: is_k_closure_laminar(M, 2),
                      ("mk23minus", "m42", "m52", "p42"), "2-closure-laminar")


def _check_prop_rank_k1(seed):
    for i, M in enumerate(_sweep_corpus(seed)):
        r = M.full_rank()
        for k in range(max(0, r - 1), r + 2):
            if not (is_k_laminar(M, k) and is_k_closure_laminar(M, k)):
                return False, _witness(M, f"corpus[{i}]: rank {r} <= k+1={k + 1} "
                                          "but predicate fails")
    return True, None


def _check_lem_nb(seed):
    M = _target("mk23minus")
    if is_binary(M) or not is_ternary(M):
        return False, _witness(M, "expected non-binary and ternary")
    if has_minor(mn_family(5, 2), uniform(5, 7)) is None:
        return False, {"note": "M_5(2) should have a U_{5,7} minor"}
    if has_minor(pn_family(4, 2), uniform(4, 5)) is None:
        return False, {"note": "P_4(2) should have a U_{4,5} minor"}
    if has_minor(nn_family(5, 2), uniform(5, 6)) is None:
        return False, {"note": "N_5(2) should have a U_{5,6} minor"}
    return True, None


def _intersection_check(seed, class_pred, base_pred, target_names, graphic_only=False):
    """Class-intersection characterizations: base class AND 2-(closure-)laminar
    iff none of the listed minors is present."""
    for i, M in enumerate(_sweep_corpus(seed)):
        if M.n > 8:
            continue
        inside = base_pred(M) and bool(class_pred(M))
        excluded = not any(_has_named_minor(M, t) for t in target_names)
        if inside != excluded:
            return False, _witness(M, f"corpus[{i}]: membership {inside} vs "
                                      f"excluded-minor test {excluded}")
    return True, None


def _check_cor_binary_2lam(seed):
    return _intersection_check(
        seed, lambda M: is_k_laminar(M, 2), is_binary, ("u24", "mk23", "n52"))


def _check_cor_binary_2clam(seed):
    return _intersection_check(
        seed, lambda M: is_k_closure_laminar(M, 2), is_binary,
        ("u24", "mk23", "p42"))


def _check_cor_ternary_2lam(seed):
    return _intersection_check(
        seed, lambda M: is_k_laminar(M, 2), is_ternary,
        ("u25", "u35", "f7", "mk23minus", "mk23", "n52"))


def _check_cor_ternary_2clam(seed):
    return _intersection_check(
        seed, lambda M: is_k_closure_laminar(M, 2), is_ternary,
        ("u25", "u35", "f7", "mk23minus", "mk23", "p42"))


def _graphic_corpus(seed):
    rng = random.Random(seed)
    out = []
    for _ in range(150):
        nv = rng.randint(2, 5)
        m = rng.randint(1, 8)
        edges = tuple(
            (u, v) for u, v in
            ((rng.randrange(nv), rng.randrange(nv)) for _ in range(m)))
        out.append(cycle_matroid(Multigraph(nv, edges)))
    return out


def _check_cor_graphic_2lam(seed):
    targets = ("u24", "mk23", "f7", "mstark33", "n52")
    for i, M in enumerate(_graphic_corpus(seed)):
        inside = bool(is_k_laminar(M, 2))
        excluded = not any(_has_named_minor(M, t) for t in targets)
        if inside != excluded:
            return False, _witness(M, f"graphic[{i}]: 2-laminar {inside} vs "
                                      f"excluded-minor test {excluded}")
    return True, None


def _check_cor_graphic_2clam(seed):
    targets = ("u24", "mk23", "f7", "p42")
    for i, M in enumerate(_graphic_corpus(seed)):
        inside = bool(is_k_closure_laminar(M, 2))
        excluded = not any(_has_named_minor(M, t) for t in targets)
        if inside != excluded:
            return False, _witness(M, f"graphic[{i}]: 2-closure-laminar {inside} vs "
                                      f"excluded-minor test {excluded}")
    return True, None


def _check_lem_outerplanar(seed):
    return _graphic_class_check(
        seed, lambda M: is_k_laminar(M, 2), max_chords=2, paired=True)


def _check_prop_one_chord(seed):
    return _graphic_class_check(
        seed, lambda M: is_k_closure_laminar(M, 2), max_chords=1, paired=False)


def _check_thm_pav1(seed):
    for i, M in enumerate(_sweep_corpus(seed)):
        if not is_paving(M):
            continue
        for k in range(M.full_rank() + 2):
            if bool(is_k_laminar(M, k)) != bool(is_k_closure_laminar(M, k)):
                return False, _witness(M, f"corpus[{i}], k={k}: paving matroid "
                                          "splits the two predicates")
    return True, None


def _check_cor_t2lp(seed):
    targets = ("pavex", "mk23minus", "m42", "m52")
    for i, M in enumerate(_sweep_corpus(seed)):
        if M.n > 8:
            continue
        a = is_paving(M) and bool(is_k_laminar(M, 2))
        b = is_paving(M) and bool(is_k_closure_laminar(M, 2))
        c = not any(_has_named_minor(M, t) for t in targets)
        if not (a == b == c):
            return False, _witness(M, f"corpus[{i}]: statuses {a}/{b}/{c} disagree")
    return True, None


CHECKS = {
    "prop-nested-circuits": _check_prop_nested_circuits,
    "thm-laminar-circuits": _check_thm_laminar_circuits,
    "cor-ham-laminar": _check_cor_ham_laminar,
    "lem-kcl-equiv": _check_lem_kcl_equiv,
    "sec1-pc-example": _check_sec1_pc_example,
    "prop-baby": _check_prop_baby,
    "lem-klam-minor-closed": _check_lem_klam_minor_closed,
    "thm-cl23-minor-closed": _check_thm_cl23_minor_closed,
    "lem-hamcir": _check_lem_hamcir,
    "thm-notk-k4": _check_thm_notk_k4,
    "thm-notk-k5": _check_thm_notk_k5,
    "thm-bdm-roundtrip": _check_thm_bdm_roundtrip,
    "lem-mnk": _check_lem_mnk,
    "lem-therest": _check_lem_therest,
    "lem-obvious": _check_lem_obvious,
    "thm-em2lm": _check_thm_em2lm,
    "thm-em2lcm": _check_thm_em2lcm,
    "prop-rank-k1": _check_prop_rank_k1,
    "lem-nb": _check_lem_nb,
    "cor-binary-2lam": _check_cor_binary_2lam,
    "cor-binary-2clam": _check_cor_binary_2clam,
    "cor-ternary-2lam": _check_cor_ternary_2lam,
    "cor-ternary-2clam": _check_cor_ternary_2clam,
    "cor-graphic-2lam": _check_cor_graphic_2lam,
    "cor-graphic-2clam": _check_cor_graphic_2clam,
    "lem-outerplanar": _check_lem_outerplanar,
    "prop-one-chord": _check_prop_one_chord,
    "thm-pav1": _check_thm_pav1,
    "cor-t2lp": _check_cor_t2lp,
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


def run_all(seed: int = 0) -> list[CheckResult]:
    return [run_check(check_id, seed) for check_id in CHECKS]

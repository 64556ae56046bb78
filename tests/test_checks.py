"""Verification-check registry: statuses, determinism, witnesses."""

import collections
import dataclasses
import itertools

import pytest

import lamina.checks as checks
import lamina.constructions as constructions
import lamina.core as core
import lamina.minors as minors
from lamina.constructions import (
    Multigraph, ZAxiomError, ZViolation, cycle_matroid, cycle_matroids, named_matroid,
    nn_family, sec1_pc_example)
from lamina.core import MatroidError
from lamina.corpus import catalog_with_minors
from lamina.checks import CHECKS, Agree, available_checks, run_check
from lamina.formats import parse_matroid
from lamina.laminar import ClassVerdict, is_k_laminar
from lamina.minors import ExcludedMinorResult

# The two documented red checks (see README "Known red checks").
EXPECTED_FAIL = {"thm-notk-k4", "thm-notk-k5"}


class TestRegistry:
    def test_registry_is_nonempty_and_stable(self):
        ids = available_checks()
        assert len(ids) >= 25
        assert ids == available_checks()

    def test_unknown_check_raises(self):
        with pytest.raises(MatroidError):
            run_check("no-such-check")

    def test_every_corpus_check_is_a_sweep(self):
        """Only the checks on fixed inputs are plain functions; every
        check over a corpus is a ``Sweep``, so none loops by hand."""
        fixed = {"sec1-pc-example", "thm-notk-k4", "thm-notk-k5", "thm-bdm-roundtrip",
                 "lem-mnk", "lem-therest", "lem-nb"}
        assert {cid for cid, entry in CHECKS.items()
                if not isinstance(entry, checks.Sweep)} == fixed


# (swept, distinct) of each sweep at seed 0: the members it reads, and
# those unequal (labels and table) to every earlier one, which it asks
SWEPT = {
    "prop-nested-circuits": (229, 216), "thm-laminar-circuits": (200, 117),
    "cor-ham-laminar": (229, 207), "lem-kcl-equiv": (229, 211), "prop-baby": (229, 213),
    "lem-klam-minor-closed": (229, 214), "thm-cl23-minor-closed": (229, 213),
    "lem-hamcir": (229, 217), "thm-bdm-roundtrip": (229, 214), "lem-obvious": (229, 215),
    "thm-em2lm": (1215, 778), "thm-em2lcm": (1215, 741), "prop-rank-k1": (229, 212),
    "cor-binary-2lam": (229, 218), "cor-binary-2clam": (229, 218),
    "cor-ternary-2lam": (229, 212), "cor-ternary-2clam": (229, 210),
    "cor-graphic-2lam": (191, 149), "cor-graphic-2clam": (191, 147),
    "lem-outerplanar": (749, 749), "prop-one-chord": (749, 749),
    "thm-pav1": (229, 207), "cor-t2lp": (229, 210),
}


class TestResults:
    @pytest.mark.parametrize("check_id", available_checks())
    def test_fast_checks_pass(self, check_id):
        res = run_check(check_id, seed=0)
        expected = "fail" if check_id in EXPECTED_FAIL else "pass"
        assert res.status == expected, res.witness
        assert bool(res) == (expected == "pass")
        assert res.elapsed_ms >= 0
        coverage = res.coverage and (res.coverage["swept"], res.coverage["distinct"])
        assert coverage == SWEPT.get(check_id)

    def test_sweep_totals(self):
        """The 23 sweeps read 8,174 members and ask 6,837; less
        ``thm-bdm-roundtrip``, 7,945 and 6,623."""
        assert set(SWEPT) == {cid for cid, entry in CHECKS.items()
                              if isinstance(entry, checks.Sweep)} | {"thm-bdm-roundtrip"}
        totals = [sum(x) for x in zip(*SWEPT.values())]
        assert totals == [8174, 6837]
        assert [t - x for t, x in zip(totals, SWEPT["thm-bdm-roundtrip"])] == [7945, 6623]

    def test_failing_sweep_counts_up_to_its_witness(self, monkeypatch):
        """A failed sweep counts the members up to and including its
        witness, and the distinct ones among them."""
        cid = "prop-nested-circuits"
        corpus = checks._sweep_corpus(checks._sub_seed(cid, 0))
        j = max(_first_occurrences(corpus[:100]))
        _flip_on(monkeypatch, "is_nested", corpus[j])
        res = run_check(cid)
        assert res.witness["note"].startswith(f"corpus[{j}]: ")
        assert res.coverage == {"swept": j + 1,
                                "distinct": len(_first_occurrences(corpus[:j + 1]))}

    def test_counterexample_family_check_fails_with_witness(self):
        res = run_check("thm-notk-k4")
        assert res.status == "fail"
        assert not bool(res)
        note = res.witness["note"]
        assert "Z3" in note

    def test_determinism_under_seed(self):
        a = run_check("lem-mnk", seed=42)
        b = run_check("lem-mnk", seed=42)
        assert (a.status, a.witness) == (b.status, b.witness)


AGREE_CHECKS = [cid for cid, entry in CHECKS.items()
                if isinstance(getattr(entry, "claim", None), Agree)]
EXCLUDED_MINOR_CHECKS = [
    cid for cid in AGREE_CHECKS
    if [name for name, _ in CHECKS[cid].claim.sides] == ["membership", "excluded-minor test"]]


@pytest.mark.parametrize("check_id", AGREE_CHECKS)
def test_excluded_minor_sweep_is_not_vacuous(check_id):
    """Both halves of every two-sided equivalence run at seed 0: the
    excluded-minor claims, the five predicate equivalences and the two
    graph-shape claims each see a swept input where every side holds and
    one where every side fails."""
    entry = CHECKS[check_id]
    corpus = entry.corpus(checks._sub_seed(check_id, 0))
    verdicts = {got for M in corpus for _, got in entry.claim.verdicts(M)}
    assert any(all(v) for v in verdicts) and any(not any(v) for v in verdicts)


def test_every_equivalence_sweep_is_covered():
    assert len(AGREE_CHECKS) == 15


def test_every_excluded_minor_claim_is_registered():
    assert len(EXCLUDED_MINOR_CHECKS) == 8


@pytest.mark.parametrize("check_id", AGREE_CHECKS)
def test_agree_names_every_side(check_id):
    """With its first side negated on one member, a two-sided claim fails
    its own sweep there, and the note gives every side's verdict (and the
    first k of the sweep for the claims over k)."""
    entry = CHECKS[check_id]
    claim = entry.claim
    seed = checks._sub_seed(check_id, 0)
    corpus = list(entry.corpus(seed))
    # a member with some k to sweep whose table does not occur earlier
    j = next(i for i in range(len(corpus) // 2, len(corpus))
             if corpus.index(corpus[i]) == i and next(claim.verdicts(corpus[i]), None))
    member = corpus[j]
    k, got = next(claim.verdicts(member))
    (name, first), *rest = claim.sides

    def negated(M, *args):
        return not first(M, *args) if M == member else first(M, *args)

    forced = dataclasses.replace(claim, sides=((name, negated), *rest))
    ok, witness, _ = dataclasses.replace(entry, claim=forced)(seed)
    assert not ok
    note = witness["note"]
    assert note.startswith(f"{entry.label}[{j}]: ")
    for (side, _), verdict in zip(claim.sides, (not got[0], *got[1:])):
        assert f"{side} {verdict}" in note
    assert note.endswith(f" at k={k}") if claim.ks else "at k=" not in note
    assert parse_matroid(witness["matroid"]) == member


@pytest.mark.parametrize("cap", [1, 64])
def test_minor_cache_is_bounded(monkeypatch, cap):
    """With the cap set small, the containment cache drops its oldest
    answers, never holds more than the cap, and no verdict changes; at a
    cap of 1 every chunk fill evicts answers it is about to return."""
    # the two sweeps of the 1000-member corpus are left out for time
    ids = [cid for cid in EXCLUDED_MINOR_CHECKS if CHECKS[cid].corpus is not checks._big_corpus]
    want = {(cid, s): run_check(cid, s) for cid in ids for s in (0, 1, 2)}
    sizes = []

    class Bounded(dict):
        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            sizes.append(len(self))

    monkeypatch.setattr(checks, "_MINOR_CACHE_SIZE", cap)
    monkeypatch.setattr(checks, "_MINOR_CACHE", Bounded())
    for (cid, s), res in want.items():
        got = run_check(cid, s)
        assert (got.status, got.witness) == (res.status, res.witness)
    assert max(sizes) == cap and len(sizes) > 10 * cap


def test_membership_sides_read_the_cached_answers(monkeypatch):
    """The binary and ternary membership sides ask the containment cache
    that the excluded-minor sides fill, so no (table, target) search runs
    twice, and none that no side asks; both modules' stacked
    ``find_minors`` are watched, which the one-host ``has_minor`` calls
    too."""
    searches = collections.Counter()
    real = minors.find_minors

    def counting(hosts, N):
        for M in hosts:
            searches[M.n, M.rank_table, N.n, N.rank_table] += 1
        return real(hosts, N)

    monkeypatch.setattr(checks, "_MINOR_CACHE", {})
    for module in (checks, minors):
        monkeypatch.setattr(module, "find_minors", counting)
    cids = ("cor-ternary-2lam", "cor-binary-2clam")
    for cid in cids:
        assert run_check(cid).status == "pass"
    assert searches and max(searches.values()) == 1
    # the chunk fills search exactly the pairs that the sides ask, each
    # target only of the members where no earlier one of its side is found
    asked = set()
    real_named = checks._has_named_minor

    def recording(M, name):
        N = minors.NAMED_MINORS[name]
        asked.add((M.n, M.rank_table, N.n, N.rank_table))
        return real_named(M, name)

    monkeypatch.setattr(checks, "_has_named_minor", recording)
    for cid in cids:
        for M in CHECKS[cid].corpus(checks._sub_seed(cid, 0)):
            list(CHECKS[cid].claim.verdicts(M))
    assert set(searches) == asked


def _flip_on(monkeypatch, name, member):
    """Negate ``lamina.checks.<name>`` on ``member`` only."""
    real = getattr(checks, name)

    def flipped(M, *args):
        verdict = bool(real(M, *args))
        return not verdict if M == member else verdict

    monkeypatch.setattr(checks, name, flipped)


def _assert_witness(res, member, sets=()):
    """A failing result whose witness replays to ``member``."""
    assert res.status == "fail" and not res
    assert parse_matroid(res.witness["matroid"]) == member
    assert res.witness["sets"] == [list(S) for S in sets]
    for S in res.witness["sets"]:
        assert set(S) <= set(member.labels)
    return res.witness["note"]


class TestForcedFailures:
    """Each claim form, forced to fail on one known input, reports that
    input as its witness."""

    def test_plain_sweep(self, monkeypatch):
        cid = "prop-nested-circuits"
        corpus = checks._sweep_corpus(checks._sub_seed(cid, 0))
        _flip_on(monkeypatch, "is_nested", corpus[5])
        note = _assert_witness(run_check(cid), corpus[5])
        assert "corpus[5]" in note

    def test_excluded_minor_claim(self, monkeypatch):
        cid = "thm-em2lm"
        corpus = checks._big_corpus(checks._sub_seed(cid, 0))
        # flipping every containment answer of a member with none of the
        # targets makes it fail; 2-laminar members have none
        j = next(i for i in range(7, len(corpus)) if is_k_laminar(corpus[i], 2))
        _flip_on(monkeypatch, "_has_named_minor", corpus[j])
        note = _assert_witness(run_check(cid), corpus[j])
        assert f"corpus[{j}]" in note

    def test_minor_closure_claim(self, monkeypatch):
        cid = "lem-klam-minor-closed"
        corpus = checks._sweep_corpus(checks._sub_seed(cid, 0))
        j = next(i for i in range(3, len(corpus)) if is_k_laminar(corpus[i], 2))
        real = checks.single_element_minors_of

        def single_element_minors_of(ms):
            # each list runs M \ e1, M / e1, M \ e2, ...; M(K_{2,3}) is not
            # 2-laminar, so the first k in the member's own list fails at
            # the first contraction
            out = real(ms)
            for M, minors in zip(ms, out):
                if M == corpus[j]:
                    minors[1] = named_matroid("mk23")
            return out

        monkeypatch.setattr(checks, "single_element_minors_of", single_element_minors_of)
        first = corpus[j].labels[0]
        note = _assert_witness(run_check(cid), corpus[j], [(first,)])
        assert f"corpus[{j}]" in note and f"contract {first}" in note

    def test_graph_shape(self, monkeypatch):
        cid = "lem-outerplanar"
        member = next(itertools.islice(checks._graph_pool(checks._sub_seed(cid, 0)), 4, None))
        # the labels spell the graph: the 4-cycle 0-1-2-3 with chord 0-2
        assert member.labels == ("0-1", "0-2", "0-3", "1-2", "2-3")
        _flip_on(monkeypatch, "is_k_laminar", member)
        note = _assert_witness(run_check(cid), member)
        assert note == "graph[4]: predicate False vs graph shape True"

    def test_laminar_system(self, monkeypatch):
        cid = "thm-laminar-circuits"
        corpus = list(checks._laminar_system_corpus(checks._sub_seed(cid, 0)))
        j = next(i for i, M in enumerate(corpus) if len(M.circuits()) >= 2 and corpus.index(M) == i)
        member = corpus[j]
        pair = member.circuits()[:2]
        real = checks.is_laminar

        def is_laminar(M):
            return ClassVerdict(False, pair) if M == member else real(M)

        monkeypatch.setattr(checks, "is_laminar", is_laminar)
        note = _assert_witness(run_check(cid), member, [member.names(C) for C in pair])
        assert note == f"laminar[{j}]: laminar-system matroid failed the circuit-pair test"

    def test_fixed_input(self, monkeypatch):
        member = sec1_pc_example(3)
        _flip_on(monkeypatch, "is_k_closure_laminar", member)
        note = _assert_witness(run_check("sec1-pc-example"), member)
        assert "k=3" in note

    def test_excluded_minor_battery(self, monkeypatch):
        member = nn_family(5, 2)
        real = checks.is_excluded_minor

        def is_excluded_minor(M, predicate):
            if M == member:
                return ExcludedMinorResult(False, "forced")
            return real(M, predicate)

        monkeypatch.setattr(checks, "is_excluded_minor", is_excluded_minor)
        note = _assert_witness(run_check("lem-therest"), member)
        assert "2-laminar" in note and "forced" in note

    @pytest.mark.parametrize("error, note", [
        (MatroidError("forced"), "corpus[2]: round trip raised: forced"),
        (ZAxiomError(ZViolation("Z3", (1, 2))), "corpus[2]: own cyclic flats rejected"),
    ])
    def test_round_trip_that_raises(self, monkeypatch, error, note):
        """A member whose cyclic flats do not rebuild it is a failed
        claim with that member as witness, not an escaped error."""
        cid = "thm-bdm-roundtrip"
        member = checks._sweep_corpus(checks._sub_seed(cid, 0))[2]
        real = checks.from_cyclic_flats

        def from_cyclic_flats(family):
            if family.labels == member.labels and real(family) == member:
                raise error
            return real(family)

        monkeypatch.setattr(checks, "from_cyclic_flats", from_cyclic_flats)
        assert _assert_witness(run_check(cid), member) == note


def test_round_trip_validates_each_family_once(monkeypatch):
    """Z0-Z3 run once per distinct member, inside ``from_cyclic_flats``,
    plus once on the k = 3 counterexample family."""
    cid = "thm-bdm-roundtrip"
    calls = []
    real = constructions.validate_z_axioms

    def validate_z_axioms(family):
        calls.append(family)
        return real(family)

    monkeypatch.setattr(checks, "validate_z_axioms", validate_z_axioms)
    monkeypatch.setattr(constructions, "validate_z_axioms", validate_z_axioms)
    assert run_check(cid).status == "pass"
    assert len(calls) == len(_first_occurrences(checks._sweep_corpus(checks._sub_seed(cid, 0)))) + 1


def test_round_trip_primes_cyclic_flats_in_stacks(monkeypatch):
    """The corpus's cyclic flats are found in stacked passes before the
    sweep, never by a one-row pass per member."""
    cid = "thm-bdm-roundtrip"
    rows = []
    real = core._PASSES["cyclic_flats"]

    def cyclic_flat_pass(ms, n):
        rows.append(len(ms))
        return real(ms, n)

    monkeypatch.setitem(core._PASSES, "cyclic_flats", cyclic_flat_pass)
    assert run_check(cid).status == "pass"
    # the corpus is one chunk: at most one pass per element count (shared
    # members may be primed already, so passes can be fewer)
    corpus = checks._sweep_corpus(checks._sub_seed(cid, 0))
    assert len(list(core.runs(corpus, lambda M: 1 << M.n))) == 1
    assert rows and len(rows) <= len({M.n for M in corpus})


def _first_occurrences(members) -> set[int]:
    """The indices of the members unequal (labels and table) to every
    earlier one: those a ``Sweep`` asks."""
    first: dict = {}
    for i, M in enumerate(members):
        first.setdefault((M.labels, M.rank_table), i)
    return set(first.values())


def _graph_of(M):
    """The vertex count and edges that M's ``"u-v"`` labels spell."""
    edges = tuple(tuple(map(int, label.split("-"))) for label in M.labels)
    return 1 + max(map(max, edges)), edges


class TestGraphPool:
    def test_seed_free_part_is_every_two_connected_graph(self):
        """1, 10 and 238 labelled 2-connected graphs on 3, 4 and 5
        vertices (OEIS A013922), each a simple graph on all its vertices."""
        graphs = [_graph_of(M) for M in checks._two_connected_matroids()]
        assert collections.Counter(nv for nv, _ in graphs) == {3: 1, 4: 10, 5: 238}
        for nv, edges in graphs:
            assert len(set(edges)) == len(edges)
            assert {v for e in edges for v in e} == set(range(nv))
            assert all(u < v for u, v in edges)

    def test_members_are_the_graphs_their_labels_spell(self):
        pool = list(checks._graph_pool(checks._sub_seed("prop-one-chord", 0)))
        graphs = [_graph_of(M) for M in pool]
        assert cycle_matroids([Multigraph(nv, edges, M.labels)
                               for (nv, edges), M in zip(graphs, pool)]) == pool
        assert len(set(graphs)) == len(pool) == 249 + 500
        assert {nv for nv, _ in graphs[249:]} == {6}


def _two_connected_by_search(nv, edges):
    """Oracle: simple graph 2-connectivity by brute-force vertex removal
    over adjacency bitmasks, the test the graph pool made before it read
    ranks of K_nv.  With at least 3 vertices, every G - v connected
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


class TestTwoConnected:
    def test_rank_table_matches_the_search_on_every_edge_mask(self):
        """All 8 + 64 + 1,024 + 32,768 edge masks of K_3..K_6."""
        for nv in (3, 4, 5, 6):
            pairs = list(itertools.combinations(range(nv), 2))
            table = checks._two_connected(nv)
            assert len(table) == 1 << len(pairs)
            for S, got in enumerate(table):
                edges = [e for i, e in enumerate(pairs) if S >> i & 1]
                assert got == _two_connected_by_search(nv, edges), (nv, edges)

    def test_below_three_vertices_nothing_is_two_connected(self):
        assert checks._two_connected(2) == b"\0\0"
        assert checks._two_connected(1) == checks._two_connected(0) == b"\0"

    def test_six_vertex_members_keep_the_complete_graphs_edge_order(self):
        K = checks._complete_graph(6)
        assert K.labels == tuple(f"{u}-{v}" for u, v in itertools.combinations(range(6), 2))
        for M in itertools.islice(checks._graph_pool(checks._sub_seed("lem-outerplanar", 0)),
                                  249, None):
            at = [K.labels.index(x) for x in M.labels]
            assert at == sorted(at)

    def test_pool_builds_no_cycle_matroid_once_warm(self, monkeypatch):
        seed = checks._sub_seed("prop-one-chord", 0)
        list(checks._graph_pool(seed))  # warms the seed-free caches
        calls = []

        def counted(graphs):
            calls.append(len(graphs))
            return real(graphs)

        real = constructions.cycle_matroids
        monkeypatch.setattr(constructions, "cycle_matroids", counted)
        monkeypatch.setattr(checks, "cycle_matroids", counted)
        assert len(list(checks._graph_pool(seed + 1))) == 749
        assert calls == []


def _cycle_with_chords_by_permutation(nv, edges, max_chords):
    """Oracle: the walk over all (nv - 1)! vertex orders that the graph
    shape side made for every graph before the shapes were one table of
    K_6 edge masks."""
    edge_set = frozenset(edges)
    if len(edge_set) - nv > max_chords:
        return False
    for perm in itertools.permutations(range(1, nv)):
        if perm[0] > perm[-1]:
            continue
        cycle = (0, *perm, 0)
        ring = {(min(e), max(e)) for e in zip(cycle, cycle[1:])}
        if not ring <= edge_set:
            continue
        chords = edge_set - ring
        if len(chords) <= 1:
            return True
        ends = set.symmetric_difference(*map(set, chords))
        if len(ends) == 2 and tuple(sorted(ends)) in edge_set:
            return True
    return False


def _counted_passes(monkeypatch) -> collections.Counter:
    """Calls of each pass of ``core._PASSES`` from now on, by pass name."""
    counts = collections.Counter()
    for key, real in list(core._PASSES.items()):
        def counted(ms, n, real=real):
            counts[real.__name__] += 1
            return real(ms, n)
        monkeypatch.setitem(core._PASSES, key, counted)
    return counts


class TestSharedWork:
    """Verify builds each seed-free corpus part once per process and
    primes what a check reads a chunk at a time."""

    def test_cycle_with_chords_matches_the_permutation_walk(self):
        """Every simple graph on 3-5 vertices, and both seed-0 graph pools,
        read as the shape side reads them: a K_6 edge mask looked up in the
        table, K_4 included, on 1 + the largest vertex."""
        graphs = []
        for nv in (3, 4, 5):
            pairs = list(itertools.combinations(range(nv), 2))
            graphs += [(nv, tuple(e for i, e in enumerate(pairs) if bits >> i & 1))
                       for bits in range(1 << len(pairs))]
        for cid in ("lem-outerplanar", "prop-one-chord"):
            graphs += map(_graph_of, checks._graph_pool(checks._sub_seed(cid, 0)))
        assert len(graphs) == 8 + 64 + 1024 + 2 * 749
        for (_, edges), k in itertools.product(graphs, (1, 2)):
            nv = 1 + max(map(max, edges), default=-1)
            # a simple graph on under 3 vertices has no cycle; the walk
            # reads the one edge 0-1 as the ring 0-1-0
            want = nv >= 3 and (nv == 4 and len(edges) == 6
                                or _cycle_with_chords_by_permutation(nv, edges, k))
            got = checks._is_graph_shape([f"{u}-{v}" for u, v in edges], k)
            assert got == want, (nv, edges, k)

    def test_shape_side_refuses_labels_outside_k6(self):
        """A member on a seventh vertex raises, never reads a silent False."""
        M = cycle_matroid(Multigraph(7, ((0, 1), (1, 6), (0, 6)), ("0-1", "1-6", "0-6")))
        side = dict(checks.CHECKS["lem-outerplanar"].claim.sides)["graph shape"]
        with pytest.raises(MatroidError, match="unknown element label '1-6'"):
            side(M)

    def test_seed_free_members_are_built_once(self):
        catalog = catalog_with_minors(7)
        assert isinstance(catalog, tuple) and catalog_with_minors(7) is catalog
        for seed in (1, 2):
            members = checks._sweep_corpus(seed)
            assert all(M is N for (_, M), N in zip(catalog, members))
            graphic = checks._graphic_corpus(seed)
            assert all(M is N for M, N in zip(checks._graphic_fixed(), graphic))
        first, again = (list(itertools.islice(checks._graph_pool(s), 249)) for s in (1, 2))
        assert all(M is N for M, N in zip(first, again, strict=True))

    def test_sweep_of_a_tuple_corpus_makes_no_more_passes_than_one_prime(self, monkeypatch):
        base = checks._big_corpus(3)

        def fresh():  # unprimed copies: the catalog part of a corpus is shared
            return tuple(core.Matroid(M.labels, M.rank_table, validate=False) for M in base)

        counts = _counted_passes(monkeypatch)
        core.prime(fresh(), "circuits")
        one_prime, members = counts["_circuit_pass"], fresh()
        counts.clear()
        assert checks.Sweep(lambda _: members, lambda M: None)(0)[:2] == (True, None)
        assert 0 < counts["_circuit_pass"] <= one_prime
        assert all("circuits" in members[i]._cache for i in _first_occurrences(members))

    def test_sweep_makes_one_circuit_pass_per_element_count_of_a_chunk(self, monkeypatch):
        """``prime`` takes a sweep chunk whole: one stacked pass for each
        element count in it, in the order the chunk first holds them."""
        members = tuple(core.Matroid(M.labels, M.rank_table, validate=False)
                        for M in checks._big_corpus(3))  # unprimed copies
        passes = []
        real = core._PASSES["circuits"]

        def circuit_pass(ms, n):
            passes.append(n)
            return real(ms, n)

        monkeypatch.setitem(core._PASSES, "circuits", circuit_pass)
        assert checks.Sweep(lambda _: members, lambda M: None)(0)[:2] == (True, None)
        asked = _first_occurrences(members)
        chunks = core.runs(enumerate(members), lambda member: 1 << member[1].n)
        assert passes == [n for chunk in chunks
                          for n in dict.fromkeys(M.n for i, M in chunk if i in asked)]

    def test_graph_pool_is_primed_in_few_passes(self, monkeypatch):
        """The pool's 6-vertex tables stack a chunk at a time, not two or
        four to a pass."""
        counts = _counted_passes(monkeypatch)
        assert run_check("lem-outerplanar", 0).status == "pass"
        assert 0 < counts["_circuit_pass"] <= 60

    def test_minor_closed_primes_once_per_chunk(self, monkeypatch):
        """With chunks cut small, each chunk of members and their minors is
        primed in one call, not one call per member."""
        cid = "lem-klam-minor-closed"
        monkeypatch.setattr(core, "_TABLE_CELLS", 1 << 10)
        members = checks._sweep_corpus(checks._sub_seed(cid, 0))
        chunks = list(core.runs(enumerate(members), lambda member: 1 << member[1].n))
        assert all(sum(1 << M.n for _, M in c) <= 1 << 10 for c in chunks if len(c) > 1)
        calls = []
        real = checks.prime

        def prime(matroids, key):
            matroids = list(matroids)
            calls.append(len(matroids))
            return real(matroids, key)

        monkeypatch.setattr(checks, "prime", prime)
        assert run_check(cid).status == "pass"
        assert 1 < len(calls) == len(chunks) < len(members)
        # each call holds its chunk's distinct members and their 2n minors each
        asked = _first_occurrences(members)
        assert calls == [sum(1 + 2 * M.n for i, M in c if i in asked) for c in chunks]

    def test_big_corpus_builds_one_stack_per_kind_and_element_count(self, monkeypatch):
        """The 1,000 draws of a big corpus are built by one stacked call for
        each generator kind and stack of element counts (counts up to
        ``_STACK_FLOOR`` share one), not one constructor call per member."""
        catalog_with_minors(8)  # the catalog part is built once per process
        kernels = [(constructions, "_laminar_tables"), (constructions, "_transversal_tables"),
                   (constructions, "_sparse_paving_tables"), (constructions, "_cycle_tables"),
                   (minors, "_minor_tables")]
        calls = collections.defaultdict(list)
        for module, name in kernels:
            def counted(run, n, real=getattr(module, name), name=name):
                calls[name].append((n, len(run)))
                return real(run, n)
            monkeypatch.setattr(module, name, counted)
        members = checks._big_corpus(checks._sub_seed("thm-em2lm", 0))
        assert len(members) == len(catalog_with_minors(8)) + 1000
        assert set(calls) == {name for _, name in kernels}
        assert sum(rows for made in calls.values() for _, rows in made) == 1000
        for name, made in calls.items():
            stacks = [max(n, core._STACK_FLOOR) for n, _ in made]
            # at most 8 elements: stacks of <= 6, 7 and 8, each one run
            assert len(stacks) == len(set(stacks)) <= 3, (name, made)

    def test_verify_searches_minors_a_chunk_at_a_time(self, monkeypatch):
        """Inside a sweep no member is searched for a minor on its own: the
        excluded-minor answers come from at most one stacked search per
        chunk, target, host element count and host rank."""
        chunk = [0]
        real_runs = checks.runs

        def runs(items, cells):
            # every run a sweep reads is counted, the graph pool's too,
            # which only splits chunks that have no excluded-minor side
            for run in real_runs(items, cells):
                chunk[0] += 1
                yield run

        in_sweep = []
        real_call = checks.Sweep.__call__

        def call(self, seed):
            in_sweep.append(self)
            try:
                return real_call(self, seed)
            finally:
                in_sweep.pop()

        alone = []
        real_has_minor = minors.has_minor

        def has_minor(M, N):
            if in_sweep:
                alone.append((M, N))
            return real_has_minor(M, N)

        searches = collections.Counter()
        real_group = minors._find_minors

        def group(hosts, N, n, dr):
            searches[chunk[0], N.rank_table, n, N.full_rank() + dr] += 1
            return real_group(hosts, N, n, dr)

        monkeypatch.setattr(checks, "runs", runs)
        monkeypatch.setattr(checks.Sweep, "__call__", call)
        for module in (checks, minors):
            monkeypatch.setattr(module, "has_minor", has_minor)
        monkeypatch.setattr(minors, "_find_minors", group)
        monkeypatch.setattr(checks, "_MINOR_CACHE", {})
        for cid in available_checks():
            assert run_check(cid).status == ("fail" if cid in EXPECTED_FAIL else "pass")
        assert not alone
        assert searches and max(searches.values()) == 1

    def test_minor_closed_builds_minors_once_per_chunk_and_element_count(self, monkeypatch):
        """Each chunk's single-element minors are one halves pass per
        element count and position over all of its members of that count."""
        cid = "lem-klam-minor-closed"
        monkeypatch.setattr(core, "_TABLE_CELLS", 1 << 10)
        members = checks._sweep_corpus(checks._sub_seed(cid, 0))
        chunks = list(core.runs(enumerate(members), lambda member: 1 << member[1].n))
        passes = []
        real = minors._single_element_tables

        def counted(R, n, p):
            passes.append((len(R), n, p))
            return real(R, n, p)

        monkeypatch.setattr(minors, "_single_element_tables", counted)
        assert run_check(cid).status == "pass"
        want = []
        asked = _first_occurrences(members)
        for chunk in chunks:
            counts = collections.Counter(M.n for i, M in chunk if M.n and i in asked)
            want += [(rows, n, p) for n, rows in counts.items() for p in range(n)]
        assert 1 < len(chunks) < len(members) and passes == want


def test_hamiltonian_flats_come_with_the_circuits(monkeypatch):
    """The circuit pass fills the Hamiltonian flats: once the circuits are
    primed, reading the flats runs no pass, and verify makes none for
    them alone."""
    assert set(core._PASSES.values()) == {
        core._circuit_pass, core._flat_pass, core._cyclic_flat_pass}
    members = tuple(core.Matroid(M.labels, M.rank_table, validate=False)
                    for M in checks._big_corpus(3))  # unprimed copies
    core.prime(members, "circuits")
    counts = _counted_passes(monkeypatch)
    for M in members:
        M.hamiltonian_flats()
    assert not counts
    for cid in available_checks():
        assert run_check(cid).status == ("fail" if cid in EXPECTED_FAIL else "pass")
    assert counts and set(counts) <= {"_circuit_pass", "_flat_pass", "_cyclic_flat_pass"}


def test_round_trip_reads_no_circuits(monkeypatch):
    """``thm-bdm-roundtrip`` names cyclic flats, all its claim reads."""
    counts = _counted_passes(monkeypatch)
    assert run_check("thm-bdm-roundtrip", 0).status == "pass"
    assert counts["_circuit_pass"] == 0 and counts["_cyclic_flat_pass"] > 0

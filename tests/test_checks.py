"""Verification-check registry: statuses, determinism, witnesses."""

import collections
import dataclasses
import itertools

import pytest

import lamina.checks as checks
import lamina.constructions as constructions
import lamina.minors as minors
from lamina.constructions import (
    Multigraph, ZAxiomError, ZViolation, cycle_matroids, named_matroid, nn_family,
    sec1_pc_example)
from lamina.core import MatroidError
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


class TestResults:
    @pytest.mark.parametrize("check_id", available_checks())
    def test_fast_checks_pass(self, check_id):
        res = run_check(check_id, seed=0)
        expected = "fail" if check_id in EXPECTED_FAIL else "pass"
        assert res.status == expected, res.witness
        assert bool(res) == (expected == "pass")
        assert res.elapsed_ms >= 0

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
    ok, witness = dataclasses.replace(entry, claim=forced)(seed)
    assert not ok
    note = witness["note"]
    assert note.startswith(f"{entry.label}[{j}]: ")
    for (side, _), verdict in zip(claim.sides, (not got[0], *got[1:])):
        assert f"{side} {verdict}" in note
    assert note.endswith(f" at k={k}") if claim.ks else "at k=" not in note
    assert parse_matroid(witness["matroid"]) == member


def test_minor_cache_is_bounded(monkeypatch):
    """With the cap set small, the containment cache drops its oldest
    answers, never holds more than the cap, and no verdict changes."""
    # the two sweeps of the 1000-member corpus are left out for time
    ids = [cid for cid in EXCLUDED_MINOR_CHECKS if CHECKS[cid].corpus is not checks._big_corpus]
    want = {(cid, s): run_check(cid, s) for cid in ids for s in (0, 1, 2)}
    cap = 64
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
    twice; both modules' ``has_minor`` are watched."""
    searches = collections.Counter()
    real = minors.has_minor

    def counting(M, N):
        searches[M.n, M.rank_table, N.n, N.rank_table] += 1
        return real(M, N)

    monkeypatch.setattr(checks, "_MINOR_CACHE", {})
    for module in (checks, minors):
        monkeypatch.setattr(module, "has_minor", counting)
    for cid in ("cor-ternary-2lam", "cor-binary-2clam"):
        assert run_check(cid).status == "pass"
    assert searches and max(searches.values()) == 1


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
        real = checks.single_element_minors

        def single_element_minors(M):
            # the list runs M \ e1, M / e1, M \ e2, ...; M(K_{2,3}) is not
            # 2-laminar, so the first k in the member's own list fails at
            # the first contraction
            minors = real(M)
            if M == corpus[j]:
                minors[1] = named_matroid("mk23")
            return minors

        monkeypatch.setattr(checks, "single_element_minors", single_element_minors)
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
            return ClassVerdict("laminar", False, pair) if M == member else real(M)

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
    """Z0-Z3 run once per member, inside ``from_cyclic_flats``, plus once
    on the k = 3 counterexample family."""
    cid = "thm-bdm-roundtrip"
    calls = []
    real = constructions.validate_z_axioms

    def validate_z_axioms(family):
        calls.append(family)
        return real(family)

    monkeypatch.setattr(checks, "validate_z_axioms", validate_z_axioms)
    monkeypatch.setattr(constructions, "validate_z_axioms", validate_z_axioms)
    assert run_check(cid).status == "pass"
    assert len(calls) == len(checks._sweep_corpus(checks._sub_seed(cid, 0))) + 1


def _graph_of(M):
    """The vertex count and edges that M's ``"u-v"`` labels spell."""
    edges = tuple(tuple(map(int, label.split("-"))) for label in M.labels)
    return 1 + max(map(max, edges)), edges


class TestGraphPool:
    def test_seed_free_part_is_every_two_connected_graph(self):
        """1, 10 and 238 labelled 2-connected graphs on 3, 4 and 5
        vertices (OEIS A013922), each a simple graph on all its vertices."""
        graphs = checks._two_connected_graphs()
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

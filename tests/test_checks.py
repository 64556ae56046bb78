"""Verification-check registry: statuses, determinism, witnesses."""

import itertools

import pytest

import lamina.checks as checks
from lamina.constructions import (
    Multigraph, cycle_matroid, named_matroid, nn_family, sec1_pc_example)
from lamina.core import MatroidError
from lamina.checks import CHECKS, Excludes, available_checks, run_check
from lamina.formats import parse_matroid
from lamina.laminar import (
    is_k_closure_laminar, is_k_closure_laminar_circuit_form, is_k_laminar, is_laminar,
    is_nested, is_paving)
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


EXCLUDED_MINOR_CHECKS = [cid for cid, entry in CHECKS.items()
                         if isinstance(getattr(entry, "claim", None), Excludes)]


def _pairwise_nested(M):
    """No two circuits each leave the other's closure."""
    pairs = itertools.combinations([(C, M.closure(C)) for C in M.circuits()], 2)
    return not any(C1 & ~F2 and C2 & ~F1 for (C1, F1), (C2, F2) in pairs)


def _both_forms(M, pred1, pred2):
    return [(bool(pred1(M, k)), bool(pred2(M, k))) for k in range(M.full_rank() + 2)]


def _excludes_sides(claim):
    return lambda M: [(bool(claim.inside(M)), checks._excluded(M, claim.targets))]


# the sides of each two-sided equivalence that a sweep compares, as
# M -> list of verdict tuples (one per k for the claims over k)
EQUIVALENCE_SIDES = {
    **{cid: _excludes_sides(CHECKS[cid].claim) for cid in EXCLUDED_MINOR_CHECKS},
    "prop-nested-circuits": lambda M: [(bool(is_nested(M)), _pairwise_nested(M))],
    "cor-ham-laminar": lambda M: [(bool(is_laminar(M)), bool(is_k_closure_laminar(M, 1)))],
    "lem-kcl-equiv": lambda M: _both_forms(
        M, is_k_closure_laminar, is_k_closure_laminar_circuit_form),
    "thm-pav1": lambda M: _both_forms(M, is_k_laminar, is_k_closure_laminar)
    if is_paving(M) else [],
    "cor-t2lp": lambda M: [(
        is_paving(M) and bool(is_k_laminar(M, 2)),
        is_paving(M) and bool(is_k_closure_laminar(M, 2)),
        checks._excluded(M, ("pavex", "mk23minus", "m42", "m52")))],
}


@pytest.mark.parametrize("check_id", EQUIVALENCE_SIDES)
def test_excluded_minor_sweep_is_not_vacuous(check_id):
    """Both halves of every two-sided equivalence run at seed 0: the
    excluded-minor claims and the five predicate equivalences each see a
    swept input where every side holds and one where every side fails."""
    entry = CHECKS[check_id]
    corpus = entry.corpus(checks._sub_seed(check_id, 0))
    verdicts = {sides for M in corpus for sides in EQUIVALENCE_SIDES[check_id](M)}
    assert any(all(v) for v in verdicts) and any(not any(v) for v in verdicts)


def test_every_equivalence_sweep_is_covered():
    assert len(EQUIVALENCE_SIDES) == 13


def test_every_excluded_minor_claim_is_registered():
    assert len(EXCLUDED_MINOR_CHECKS) == 8


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
        nv, edges = checks._graph_pool(checks._sub_seed(cid, 0))[4]
        member = cycle_matroid(Multigraph(nv, edges))
        _flip_on(monkeypatch, "is_k_laminar", member)
        note = _assert_witness(run_check(cid), member)
        assert f"{nv} vertices" in note and str(edges) in note

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

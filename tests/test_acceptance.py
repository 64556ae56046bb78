"""Acceptance gate: one pass/fail line per top-level criterion.

Each test prints ``ACCEPTANCE <name>: PASS`` or ``FAIL`` (run pytest
with ``-s`` or check captured output) and then asserts the verdict, so
the suite is red exactly when a criterion is unmet.
"""

import json

import pytest

from lamina.checks import run_check
from lamina.cli import main
from lamina.constructions import (
    CyclicFlatFamily,
    ZAxiomError,
    from_cyclic_flats,
    mn_family,
    named_matroid,
    nn_family,
    notk_cyclic_flats,
    notk_example,
    pn_family,
    uniform,
    validate_z_axioms,
)
from lamina.corpus import CorpusSpec, catalog_matroids, generate_corpus
from lamina.formats import serialize_matroid
from lamina.laminar import (
    is_k_closure_laminar,
    is_k_laminar,
    is_laminar,
    is_nested,
)
from lamina.minors import contract, is_binary, is_excluded_minor, is_ternary
from test_kernels import circuits_from_cyclic_flats


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {name}: {status}"
    if detail and not ok:
        line += f"  ({detail})"
    print(line)
    assert ok, detail or name


def test_acceptance_analyze_mk23(tmp_path, capsys):
    p = tmp_path / "mk23.matroid"
    p.write_text(serialize_matroid(named_matroid("mk23")), encoding="utf-8")
    code = main(["analyze", str(p), "--json"])
    report = json.loads(capsys.readouterr().out)
    nonsp = report["nonspanning_circuits"]
    ok = (
        code == 0
        and report["rank"] == 4
        and len(report["elements"]) == 6
        and len(nonsp) == 3
        and all(len(C) == 4 for C in nonsp)
        and not is_k_laminar(named_matroid("mk23"), 2)
        and report["min_laminar_k"] == 3
        and report["nested"] is False
    )
    with capsys.disabled():
        _report("analyze-mk23", ok)


@pytest.mark.parametrize("k,n_expected", [(4, 13), (5, 16)])
def test_acceptance_thm_notk(k, n_expected, capsys):
    """The stated nine-set cyclic-flat family for the rank-(2k-1)
    counterexample.  The family as defined violates lattice axiom Z3
    (two rank-k members meet in a 2-element independent set), so the
    construction necessarily raises and this criterion is reported as a
    genuine failure rather than being patched over."""
    detail = ""
    try:
        M = notk_example(k)
        ranks = sorted(r for _, r in M.cyclic_flats())
        expected_ranks = sorted([0, k, k, k, 2 * k - 3, 2 * k - 3,
                                 2 * k - 2, 2 * k - 2, 2 * k - 1])
        e = M.mask(["e"])
        Mc = contract(M, e)
        verdict = is_k_closure_laminar(Mc, k)
        ok = (
            M.n == n_expected
            and M.full_rank() == 2 * k - 1
            and len(M.cyclic_flats()) == 9
            and ranks == expected_ranks
            and bool(is_k_closure_laminar(M, k))
            and not verdict
        )
    except ZAxiomError as exc:
        ok = False
        detail = f"construction rejected: {exc}"
    with capsys.disabled():
        _report(f"thm-notk-k{k}", ok, detail)


def test_acceptance_excluded_minor_battery(capsys):
    cases = [
        (named_matroid("mk23minus"), ["2-laminar", "2-closure-laminar"]),
        (mn_family(4, 2), ["2-laminar", "2-closure-laminar"]),
        (mn_family(5, 2), ["2-laminar", "2-closure-laminar"]),
        (mn_family(6, 2), ["2-laminar", "2-closure-laminar"]),
        (nn_family(5, 2), ["2-laminar"]),
        (nn_family(6, 2), ["2-laminar"]),
        (pn_family(4, 2), ["2-closure-laminar"]),
        (pn_family(5, 2), ["2-closure-laminar"]),
    ]
    ok = all(bool(is_excluded_minor(M, cls))
             for M, classes in cases for cls in classes)
    with capsys.disabled():
        _report("excluded-minor-battery", ok)


def test_acceptance_em2_corpus(capsys):
    from lamina.checks import CHECKS, _sub_seed

    # the corpora the two checks sweep under seed 0, read from their entries
    sizes = []
    ok = True
    for cid in ("thm-em2lm", "thm-em2lcm"):
        corpus = CHECKS[cid].corpus(_sub_seed(cid, 0))
        sizes.append(len(corpus))
        ok = ok and len(corpus) >= 1000 and all(M.n <= 8 for M in corpus)
    r1 = run_check("thm-em2lm")
    r2 = run_check("thm-em2lcm")
    ok = ok and r1.status == "pass" and r2.status == "pass"
    with capsys.disabled():
        _report("em2-corpus", ok,
                f"em2lm={r1.status} em2lcm={r2.status} sizes={sizes}")


def test_acceptance_minor_closure(capsys):
    r1 = run_check("lem-klam-minor-closed")
    r2 = run_check("thm-cl23-minor-closed")
    ok = r1.status == "pass" and r2.status == "pass"
    with capsys.disabled():
        _report("minor-closure-suite", ok, f"{r1.status}/{r2.status}")


def test_acceptance_definition_equivalence(capsys):
    r1 = run_check("lem-kcl-equiv")
    r2 = run_check("prop-baby")
    boundary_ok = True
    for _, M in catalog_matroids(7):
        boundary_ok &= bool(is_k_laminar(M, 0)) == bool(is_nested(M))
        boundary_ok &= bool(is_k_closure_laminar(M, 0)) == bool(is_nested(M))
        boundary_ok &= bool(is_k_laminar(M, 1)) == bool(is_laminar(M))
        boundary_ok &= bool(is_k_closure_laminar(M, 1)) == bool(is_laminar(M))
    ok = r1.status == "pass" and r2.status == "pass" and boundary_ok
    with capsys.disabled():
        _report("definition-equivalence-suite", ok)


def test_acceptance_round_trip(capsys):
    r = run_check("thm-bdm-roundtrip")
    corpus = generate_corpus(CorpusSpec(seed=17, count=60, max_elements=6))
    rt_ok = True
    for M in corpus:
        fam = CyclicFlatFamily(M.labels, M.cyclic_flats())
        M2 = from_cyclic_flats(fam)
        rt_ok &= M2 == M
        rt_ok &= tuple(circuits_from_cyclic_flats(fam)) == tuple(M.circuits())
    rejected = validate_z_axioms(notk_cyclic_flats(3)) is not None
    ok = r.status == "pass" and rt_ok and rejected
    with capsys.disabled():
        _report("round-trip-suite", ok)


def test_acceptance_section4(capsys):
    results = {cid: run_check(cid) for cid in (
        "lem-nb", "thm-pav1", "cor-t2lp", "prop-rank-k1",
        "lem-outerplanar", "prop-one-chord")}
    facts = (
        not is_binary(named_matroid("mk23minus"))
        and is_ternary(named_matroid("mk23minus"))
        and run_check("lem-nb").status == "pass"
    )
    ok = all(r.status == "pass" for r in results.values()) and facts
    failing = [cid for cid, r in results.items() if r.status != "pass"]
    with capsys.disabled():
        _report("section4-suite", ok, f"failing: {failing}")

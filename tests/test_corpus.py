"""Corpus generation: determinism, validity, generator properties."""

import hashlib
import random

import pytest

from lamina import checks, corpus
from lamina.core import validate_rank_axioms
from lamina.corpus import CorpusSpec, catalog_matroids, catalog_with_minors, generate_corpus
from lamina.laminar import is_paving


class TestDeterminism:
    def test_same_spec_same_corpus(self):
        spec = CorpusSpec(seed=7, count=25, max_elements=6)
        a = generate_corpus(spec)
        b = generate_corpus(spec)
        assert [(M.labels, M.rank_table) for M in a] == \
               [(M.labels, M.rank_table) for M in b]

    def test_different_seed_differs(self):
        a = generate_corpus(CorpusSpec(seed=1, count=25, max_elements=6))
        b = generate_corpus(CorpusSpec(seed=2, count=25, max_elements=6))
        assert [(M.labels, M.rank_table) for M in a] != \
               [(M.labels, M.rank_table) for M in b]


class TestValidity:
    def test_every_member_is_a_matroid(self):
        for M in generate_corpus(CorpusSpec(seed=3, count=60, max_elements=7)):
            assert validate_rank_axioms(M.rank_table, M.n) is None
            assert M.n <= 7

    def test_catalog_within_budget(self):
        for name, M in catalog_matroids(8):
            assert M.n <= 8, name

    def test_catalog_minors_dedup(self):
        items = catalog_with_minors(6)
        keys = [(M.labels, M.rank_table) for _, M in items]
        assert len(keys) == len(set(keys))

    def test_catalog_only_spec(self):
        spec = CorpusSpec(seed=0, count=0, max_elements=6)
        members = generate_corpus(spec)
        assert len(members) == len(catalog_with_minors(6))


class TestGeneratorMix:
    def test_sparse_paving_members_are_paving(self):
        rng = random.Random(11)
        draw, build, _ = corpus._GENERATORS["sparse_paving"]
        for M in build([draw(rng, 6) for _ in range(40)]):
            assert is_paving(M)

    def test_corpus_is_not_class_vacuous(self):
        """A reasonably large mixed corpus must contain members both inside
        and outside the 2-laminar class, or downstream checks test nothing."""
        from lamina.laminar import is_k_laminar
        members = generate_corpus(CorpusSpec(seed=5, count=120, max_elements=7))
        verdicts = {bool(is_k_laminar(M, 2)) for M in members}
        assert verdicts == {True, False}


def _digest(members) -> str:
    """sha256 over every member's labels and rank table, in order."""
    h = hashlib.sha256()
    for M in members:
        h.update(",".join(M.labels).encode() + b";" + M.rank_table)
    return h.hexdigest()


class TestPinnedCorpora:
    """The members the harness sweeps, pinned byte for byte: a change to
    how they are drawn or built must leave every table and label as it was."""

    @pytest.mark.parametrize("seed, digest", [
        (0, "c4bcd31b19f8d83ff79a7936465be1527b7e2af08a7834e7b84d8e60f6c741e3"),
        (1, "23f21d5d719cd6be9ac1576ea9824f7205f55c8c56ce0bef307f046ef9706a97"),
        (2, "a156675bd834acb17f7c967f73a8f312e2069130fd6b067bdb61c81e64c6d26b"),
        (3, "d07585728253bf27f8d86c8cde8a204a003c11e13f322409ea7e6454073ddf23"),
    ])
    def test_generate_corpus(self, seed, digest):
        assert _digest(generate_corpus(CorpusSpec(seed, 200, 8))) == digest

    @pytest.mark.parametrize("build, check_id, digest", [
        (checks._laminar_system_corpus, "thm-laminar-circuits",
         "6ef0116ccfd1a17a6d63f2718e6f04b928559d19b9000d73a0836e61b7bf2fab"),
        (checks._graph_pool, "lem-outerplanar",
         "105e13bdb50cb52f4f963bb9f0a6e3d6048682ba7893d529d2261488fa2bab68"),
        (checks._graphic_corpus, "cor-graphic-2lam",
         "61b5bb81d21e8f4a6b76b3dfaaf113799c75033be76f8a3584f1cae5b12844ed"),
    ])
    def test_harness_corpora(self, build, check_id, digest):
        assert _digest(build(checks._sub_seed(check_id, 0))) == digest

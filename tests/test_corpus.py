"""Corpus generation: determinism, validity, generator properties."""

import random

from lamina import corpus
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
        for _ in range(40):
            assert is_paving(corpus._random_sparse_paving(rng, 6))

    def test_corpus_is_not_class_vacuous(self):
        """A reasonably large mixed corpus must contain members both inside
        and outside the 2-laminar class, or downstream checks test nothing."""
        from lamina.laminar import is_k_laminar
        members = generate_corpus(CorpusSpec(seed=5, count=120, max_elements=7))
        verdicts = {bool(is_k_laminar(M, 2)) for M in members}
        assert verdicts == {True, False}

"""Class predicates: nested, laminar, k-laminar, k-closure-laminar, paving."""

import pytest

from lamina.constructions import (
    Multigraph,
    circuit_matroid,
    cycle_matroid,
    named_matroid,
    sec1_pc_example,
    uniform,
)
from lamina.corpus import catalog_matroids
from lamina.laminar import (
    is_k_closure_laminar,
    is_k_laminar,
    is_laminar,
    is_nested,
    is_paving,
    min_closure_laminar_k,
    min_laminar_k,
)
from test_kernels import reference_circuit_form


class TestBasics:
    def test_uniform_is_nested(self):
        M = uniform(2, 4)
        assert is_nested(M)
        assert is_laminar(M)
        assert min_laminar_k(M) == 0
        assert min_closure_laminar_k(M) == 0

    def test_single_circuit(self):
        M = circuit_matroid(5)
        assert is_nested(M)

    def test_mk23_hierarchy(self):
        M = named_matroid("mk23")
        assert not is_nested(M)
        assert not is_laminar(M)
        assert not is_k_laminar(M, 2)
        assert is_k_laminar(M, 3)
        assert min_laminar_k(M) == 3
        assert min_closure_laminar_k(M) == 3

    def test_witnesses_replay(self):
        M = named_matroid("mk23")
        verdict = is_k_laminar(M, 2)
        assert not verdict
        C1, C2 = verdict.witness
        assert M.is_circuit(C1) and M.is_circuit(C2)
        assert (C1 & C2).bit_count() >= 2
        assert C1 & ~M.closure(C2) and C2 & ~M.closure(C1)

    def test_closure_witness_replay(self):
        M = named_matroid("mk23")
        verdict = is_k_closure_laminar(M, 2)
        assert not verdict
        X, F1, F2 = verdict.witness
        assert M.rank(X) == 2 == X.bit_count()
        assert F1 & X == X and F2 & X == X
        assert F1 & ~F2 and F2 & ~F1
        assert M.is_hamiltonian_flat(F1) and M.is_hamiltonian_flat(F2)

    def test_negative_k_rejected(self):
        M = uniform(2, 4)
        with pytest.raises(ValueError):
            is_k_laminar(M, -1)
        with pytest.raises(ValueError):
            is_k_closure_laminar(M, -1)

    def test_vacuous_beyond_rank(self):
        M = named_matroid("mk23")
        assert is_k_closure_laminar(M, M.full_rank() + 1)


class TestStrictSeparation:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_pc_example_separates(self, k):
        M = sec1_pc_example(k)
        assert is_k_laminar(M, k)
        assert not is_k_closure_laminar(M, k)


class TestDefinitionAgreement:
    @pytest.mark.parametrize("name,M", catalog_matroids(8),
                             ids=[name for name, _ in catalog_matroids(8)])
    def test_circuit_form_agrees(self, name, M):
        for k in range(M.full_rank() + 2):
            assert bool(is_k_closure_laminar(M, k)) == (reference_circuit_form(M, k) is None)

    @pytest.mark.parametrize("name,M", catalog_matroids(8),
                             ids=[name for name, _ in catalog_matroids(8)])
    def test_boundary_cases(self, name, M):
        assert bool(is_k_laminar(M, 0)) == bool(is_nested(M))
        assert bool(is_k_closure_laminar(M, 0)) == bool(is_nested(M))
        assert bool(is_k_laminar(M, 1)) == bool(is_laminar(M))
        assert bool(is_k_closure_laminar(M, 1)) == bool(is_laminar(M))


class TestPaving:
    def test_uniform_paving(self):
        assert is_paving(uniform(2, 4))

    def test_mk23_paving(self):
        assert is_paving(named_matroid("mk23"))

    def test_non_paving(self):
        # a triangle plus two coloops has a 3-circuit below rank 4
        M = cycle_matroid(
            Multigraph(5, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4))))
        assert not is_paving(M)

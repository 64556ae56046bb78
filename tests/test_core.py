"""Rank-table core: axiom validation and derived structure.

Derived notions (circuits, flats, cyclic flats, Hamiltonian flats,
duals) are compared against direct brute-force definitions computed
from the rank table alone, so the oracles share no code with the
implementation under test.
"""

import itertools

import numpy as np
import pytest

from lamina.core import (
    MAX_ELEMENTS,
    Matroid,
    MatroidError,
    validate_rank_axioms,
)
from lamina.constructions import (
    Multigraph,
    cycle_matroid,
    named_matroid,
    relax_circuit_hyperplane,
    uniform,
)


def brute_circuits(M):
    """Minimal dependent sets straight from the definition."""
    rt = M.rank_table
    dependent = [A for A in range(1, M.E + 1) if rt[A] < A.bit_count()]
    dep = set(dependent)
    out = []
    for A in dependent:
        if all((A & ~(1 << i)) not in dep for i in range(M.n) if A >> i & 1):
            out.append(A)
    return sorted(out, key=lambda C: (C.bit_count(), C))


def brute_closure(M, A):
    return A | sum(
        1 << i for i in range(M.n)
        if not A >> i & 1 and M.rank_table[A | 1 << i] == M.rank_table[A])


SAMPLES = [
    uniform(0, 0),
    uniform(0, 3),
    uniform(2, 2),
    uniform(2, 4),
    uniform(3, 6),
    named_matroid("mk23"),
    named_matroid("mk23minus"),
    named_matroid("f7"),
    named_matroid("f7star"),
    named_matroid("wheel4rimdel"),
    cycle_matroid(Multigraph(3, ((0, 1), (0, 1), (1, 2), (2, 2)))),
]


class TestAxiomValidation:
    def test_uniform_tables_valid(self):
        assert validate_rank_axioms(uniform(2, 4).rank_table, 4) is None

    def test_r1_empty_set(self):
        table = bytearray(uniform(2, 4).rank_table)
        table[0] = 1
        v = validate_rank_axioms(bytes(table), 4)
        assert v is not None and v.axiom == "R1"

    def test_r1_cardinality_bound(self):
        table = bytearray(uniform(2, 4).rank_table)
        table[0b0001] = 2
        v = validate_rank_axioms(bytes(table), 4)
        assert v is not None and v.axiom == "R1"

    def test_r2_monotonicity(self):
        table = bytearray(uniform(3, 4).rank_table)
        table[0b1111] = 2  # below the rank of a facet
        v = validate_rank_axioms(bytes(table), 4)
        assert v is not None and v.axiom in ("R2", "R3")

    def test_r3_submodularity(self):
        # rank 2 on the two singletons but rank 1 on their union and 0 below
        table = bytes([0, 1, 1, 1])
        v = validate_rank_axioms(table, 2)
        assert v is None
        bad = bytes([0, 1, 1, 3])
        assert validate_rank_axioms(bad, 2) is not None

    def test_witness_is_reported(self):
        table = bytearray(uniform(2, 4).rank_table)
        table[0b0011] = 0
        v = validate_rank_axioms(bytes(table), 4)
        assert v is not None and v.witness

    def test_negative_element_count_names_the_range(self):
        with pytest.raises(ValueError, match=r"0\.\.16"):
            validate_rank_axioms(b"\x00", -1)

    def test_too_many_elements_names_the_range(self):
        with pytest.raises(ValueError, match=r"0\.\.16"):
            validate_rank_axioms(bytes(1 << (MAX_ELEMENTS + 1)), MAX_ELEMENTS + 1)

    def test_entry_beyond_int16_is_r1(self):
        v = validate_rank_axioms([0, 1, 70000, 2], 2)
        assert v is not None and (v.axiom, v.witness) == ("R1", (2,))

    @pytest.mark.parametrize("table, mask", [
        ([0, 0.5], 1),
        ([0, 1.0], 1),
        (["0", "1"], 0),
        ([0, None], 1),
    ], ids=["half", "float_one", "strings", "none"])
    def test_non_integer_entry_is_r1(self, table, mask):
        v = validate_rank_axioms(table, 1)
        assert v is not None and (v.axiom, v.witness) == ("R1", (mask,))

    @pytest.mark.parametrize("table", [[0, 300], [0, -1], [0, 0.5], [0, None]],
                             ids=["above_byte", "negative", "half", "none"])
    def test_constructor_reports_bad_entry_as_r1(self, table):
        with pytest.raises(MatroidError, match=r"R1 violated at masks \(1,\)"):
            Matroid(["a"], table)

    def test_constructor_reads_array_entries_by_value(self):
        want = Matroid(("a", "b"), bytes([0, 1, 1, 1]))
        assert Matroid(("a", "b"), np.array([0, 1, 1, 1], dtype=np.int64)) == want

    def test_constructor_rejects_invalid(self):
        with pytest.raises(MatroidError):
            Matroid(("a", "b"), bytes([0, 1, 1, 3]))

    def test_size_cap(self):
        with pytest.raises(MatroidError):
            Matroid(
                tuple(f"e{i}" for i in range(MAX_ELEMENTS + 1)),
                bytes(1 << (MAX_ELEMENTS + 1)),
            )

    def test_table_length_must_match(self):
        with pytest.raises(MatroidError):
            Matroid(("a", "b"), bytes([0, 1, 1]))


class TestDerivedStructure:
    @pytest.mark.parametrize("M", SAMPLES, ids=lambda M: f"n{M.n}r{M.full_rank()}")
    def test_circuits_match_brute_force(self, M):
        assert list(M.circuits()) == brute_circuits(M)

    @pytest.mark.parametrize("M", SAMPLES, ids=lambda M: f"n{M.n}r{M.full_rank()}")
    def test_closure_matches_brute_force(self, M):
        for A in range(M.E + 1):
            assert M.closure(A) == brute_closure(M, A)

    @pytest.mark.parametrize("M", SAMPLES, ids=lambda M: f"n{M.n}r{M.full_rank()}")
    def test_flats_are_closure_fixed_points(self, M):
        flats = set(M.flats())
        for A in range(M.E + 1):
            assert (A in flats) == (brute_closure(M, A) == A)

    @pytest.mark.parametrize("M", SAMPLES, ids=lambda M: f"n{M.n}r{M.full_rank()}")
    def test_cyclic_flats_definition(self, M):
        """Cyclic flat = flat in which every element stays spanned after
        its own removal (no coloops in the restriction)."""
        rt = M.rank_table
        expected = []
        for F in M.flats():
            if all(rt[F & ~(1 << i)] == rt[F] for i in range(M.n) if F >> i & 1):
                expected.append(F)
        assert sorted(F for F, _ in M.cyclic_flats()) == sorted(expected)
        assert all(r == rt[F] for F, r in M.cyclic_flats())

    @pytest.mark.parametrize("M", SAMPLES, ids=lambda M: f"n{M.n}r{M.full_rank()}")
    def test_hamiltonian_flats_definition(self, M):
        circs = brute_circuits(M)
        expected = {brute_closure(M, C) for C in circs}
        assert set(M.hamiltonian_flats()) == expected
        for F in M.flats():
            assert M.is_hamiltonian_flat(F) == (F in expected)

    def test_hamiltonian_rejects_non_flat(self):
        M = uniform(2, 4)
        with pytest.raises(MatroidError):
            M.is_hamiltonian_flat(M.mask(["e1", "e2", "e3"]))

    @pytest.mark.parametrize("M", SAMPLES, ids=lambda M: f"n{M.n}r{M.full_rank()}")
    def test_dual_rank_formula(self, M):
        D = M.dual()
        rt, n = M.rank_table, M.n
        for A in range(M.E + 1):
            assert D.rank_table[A] == A.bit_count() + rt[M.E & ~A] - rt[M.E]

    def test_dual_involution_and_uniform(self):
        M = uniform(2, 5)
        assert M.dual() == uniform(3, 5, M.labels)
        assert M.dual().dual() == M

    def test_fano_dual_circuits_are_cocircuits(self):
        """Circuits of the dual are complements of hyperplanes."""
        M = named_matroid("f7")
        hyperplanes = [F for F in M.flats()
                       if M.rank_table[F] == M.full_rank() - 1]
        expected = sorted(M.E & ~H for H in hyperplanes)
        got = sorted(M.dual().circuits())
        # cocircuits are the minimal sets meeting every basis; for the
        # self-complementary Fano layout both lists coincide exactly
        assert got == expected

    def test_loops_and_coloops(self):
        G = Multigraph(3, ((0, 1), (1, 2), (2, 2)))
        M = cycle_matroid(G)
        assert M.loops() == 0b100
        assert M.rank(0b100) == 0

    def test_labels_and_masks(self):
        M = uniform(1, 2)
        assert M.mask(["e2"]) == 0b10
        assert M.names(0b11) == ("e1", "e2")
        with pytest.raises(MatroidError):
            M.mask(["nope"])

    def test_equality_is_labeled(self):
        A = uniform(1, 2)
        B = uniform(1, 2, ("x", "y"))
        assert A != B
        assert A == uniform(1, 2)

    def test_rank_bounds_check(self):
        M = uniform(1, 2)
        with pytest.raises(MatroidError):
            M.rank(0b100)

    def test_independence_bounds_check(self):
        # -1 would read rank_table[-1], the rank of E
        M = uniform(1, 2)
        with pytest.raises(MatroidError):
            M.is_independent(-1)
        with pytest.raises(MatroidError):
            M.is_independent(0b100)

    def test_circuit_bounds_check(self):
        M = named_matroid("mk23")
        with pytest.raises(MatroidError):
            M.is_circuit(1 << 20)
        with pytest.raises(MatroidError):
            relax_circuit_hyperplane(M, 1 << 20)


class TestEmptyAndDegenerate:
    def test_empty_matroid(self):
        M = uniform(0, 0)
        assert M.full_rank() == 0
        assert M.circuits() == ()
        assert M.cyclic_flats() == ((0, 0),)

    def test_all_loops(self):
        M = uniform(0, 3)
        assert M.circuits() == (0b001, 0b010, 0b100)
        assert M.full_rank() == 0

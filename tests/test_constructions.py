"""Constructors versus independent brute-force oracles.

Each constructor's rank table is compared against a from-scratch oracle
computed directly from the defining combinatorial structure (capacity
counts, matchings, spanning forests), not against the library's own
rank machinery.
"""

import itertools
import random
import re

import pytest

from lamina.core import MatroidError
from lamina.constructions import (
    NAMED_FIXED,
    CyclicFlatFamily,
    LaminarCapacitySystem,
    Multigraph,
    NestedPresentation,
    ZAxiomError,
    circuit_matroid,
    cycle_matroid,
    direct_sum,
    from_cyclic_flats,
    laminar_matroid,
    matroid_from_circuits,
    mn_family,
    named_matroid,
    nn_family,
    notk_cyclic_flats,
    notk_example,
    parallel_connection,
    pn_family,
    relax_circuit_hyperplane,
    sec1_pc_example,
    transversal_matroid,
    truncate,
    uniform,
    validate_z_axioms,
)
from lamina.minors import is_isomorphic
from test_kernels import circuits_from_cyclic_flats


class TestUniformAndCircuit:
    def test_uniform_rank_table(self):
        M = uniform(2, 4)
        for A in range(16):
            assert M.rank(A) == min(2, A.bit_count())

    def test_uniform_bounds(self):
        with pytest.raises(MatroidError):
            uniform(3, 2)
        with pytest.raises(MatroidError):
            uniform(-1, 2)

    @pytest.mark.parametrize("labels", [("a", "b"), ("a", "b", "c", "d")])
    def test_uniform_needs_one_label_per_element(self, labels):
        with pytest.raises(MatroidError, match=rf"^need one label per element: {len(labels)} "):
            uniform(2, 3, labels)

    def test_circuit_matroid(self):
        M = circuit_matroid(4)
        assert M.full_rank() == 3
        assert M.circuits() == (M.E,)


class TestCycleMatroid:
    @staticmethod
    def forest_rank(nv, edges, A):
        """Union-find spanning-forest oracle."""
        parent = list(range(nv))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        r = 0
        for i, (u, v) in enumerate(edges):
            if not A >> i & 1:
                continue
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                r += 1
        return r

    def test_against_forest_oracle(self):
        rng = random.Random(7)
        for _ in range(30):
            nv = rng.randint(1, 5)
            m = rng.randint(0, 8)
            edges = tuple((rng.randrange(nv), rng.randrange(nv)) for _ in range(m))
            M = cycle_matroid(Multigraph(nv, edges))
            for A in range(1 << m):
                assert M.rank(A) == self.forest_rank(nv, edges, A)

    def test_loops_and_parallels(self):
        M = cycle_matroid(Multigraph(2, ((0, 0), (0, 1), (0, 1))))
        assert M.loops() == 0b001
        assert M.circuits() == (0b001, 0b110)

    def test_edge_endpoint_validation(self):
        with pytest.raises(MatroidError):
            cycle_matroid(Multigraph(2, ((0, 2),)))


class TestLaminarMatroid:
    @staticmethod
    def capacity_independent(system, A):
        return all(
            (A & member).bit_count() <= cap
            for member, cap in zip(system.family, system.capacities))

    def test_against_capacity_oracle(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 7)
            labels = tuple(f"e{i}" for i in range(n))
            full = (1 << n) - 1
            family = [full]
            for _ in range(rng.randint(0, 3)):
                parent = rng.choice(family)
                taken = 0
                for other in family:
                    if other != parent and other & ~parent == 0:
                        taken |= other
                bits = [i for i in range(n) if parent >> i & 1 and not taken >> i & 1]
                if len(bits) < 2:
                    continue
                child = sum(1 << i for i in
                            rng.sample(bits, rng.randint(1, len(bits) - 1)))
                family.append(child)
            caps = tuple(rng.randint(0, 4) for _ in family)
            system = LaminarCapacitySystem(labels, tuple(family), caps)
            M = laminar_matroid(system)
            for A in range(full + 1):
                expected = max(
                    (S.bit_count() for S in self._subsets(A)
                     if self.capacity_independent(system, S)), default=0)
                assert M.rank(A) == expected

    @staticmethod
    def _subsets(A):
        S = A
        while True:
            yield S
            if S == 0:
                return
            S = (S - 1) & A

    def test_rejects_crossing_family(self):
        # the witness is the first crossing pair's positions, each mask's first
        with pytest.raises(MatroidError) as err:
            LaminarCapacitySystem(("a", "b", "c"), (0b001, 0b011, 0b110, 0b011),
                                  (1, 1, 1, 1)).check_laminar()
        assert err.value.members == (1, 2)

    def test_member_outside_ground_set_names_the_mask(self):
        with pytest.raises(MatroidError, match=r"^family member 0x4 not within ground set$"):
            LaminarCapacitySystem(("a", "b"), (0b11, 0b100), (1, 1))

    def test_rejects_17_elements(self):
        labels = tuple(f"e{i}" for i in range(17))
        system = LaminarCapacitySystem(labels, ((1 << 17) - 1,), (3,))
        with pytest.raises(MatroidError, match=r"^ground set too large: 17 > 16$"):
            laminar_matroid(system)


class TestTransversalMatroid:
    def test_against_matching_oracle(self):
        rng = random.Random(13)
        for _ in range(25):
            n = rng.randint(1, 6)
            labels = tuple(f"e{i}" for i in range(n))
            # nested chain of blocks
            order = list(range(n))
            rng.shuffle(order)
            blocks = []
            acc = 0
            cut = 0
            while cut < n:
                step = rng.randint(1, n - cut)
                for i in order[cut:cut + step]:
                    acc |= 1 << i
                cut += step
                blocks.append(acc)
            chosen = tuple(sorted(rng.sample(blocks, rng.randint(1, len(blocks)))))
            M = transversal_matroid(NestedPresentation(labels, chosen))
            for A in range(1 << n):
                assert M.rank(A) == self._matching(A, chosen)

    @staticmethod
    def _matching(A, blocks):
        """Max matching by exhaustion over block-to-element injections."""
        elements = [i for i in range(16) if A >> i & 1]
        best = 0
        for k in range(min(len(blocks), len(elements)), 0, -1):
            for bs in itertools.combinations(range(len(blocks)), k):
                for es in itertools.permutations(elements, k):
                    if all(blocks[bs[t]] >> es[t] & 1 for t in range(k)):
                        return k
        return best

    def test_chain_presentation_required(self):
        # the witness is positions, as a mask can repeat
        for blocks, members in (((0b01, 0b10), (0, 1)), ((0b01, 0b11, 0b01), (1, 2))):
            with pytest.raises(MatroidError) as err:
                transversal_matroid(NestedPresentation(("a", "b"), blocks))
            assert err.value.members == members

    def test_block_outside_ground_set_names_the_mask(self):
        with pytest.raises(MatroidError, match=r"^block 0x2 not within ground set$"):
            NestedPresentation(("a",), (0b1, 0b10))

    def test_rejects_17_elements(self):
        labels = tuple(f"e{i}" for i in range(17))
        with pytest.raises(MatroidError, match=r"^ground set too large: 17 > 16$"):
            transversal_matroid(NestedPresentation(labels, ((1 << 17) - 1,)))


class TestCompositions:
    def test_truncate(self):
        M = truncate(uniform(3, 5), 2)
        assert M == uniform(2, 5)
        with pytest.raises(MatroidError):
            truncate(uniform(2, 4), 3)

    def test_direct_sum_rank_additivity(self):
        A, B = uniform(1, 2), uniform(2, 3)
        S = direct_sum(A, B)
        assert S.full_rank() == 3
        assert S.n == 5
        for X in range(4):
            for Y in range(8):
                assert S.rank(X | Y << 2) == A.rank(X) + B.rank(Y)

    def test_direct_sum_relabels_collisions(self):
        S = direct_sum(uniform(1, 2), uniform(1, 2))
        assert len(set(S.labels)) == 4

    def test_parallel_connection_matches_glued_graph(self):
        """Gluing two cycles along an edge, by matroid and by graph."""
        # cycles of lengths 4 and 3 sharing one edge
        pc = parallel_connection(circuit_matroid(4, "c"), "c1",
                                 circuit_matroid(3, "t"), "t1")
        glued = cycle_matroid(Multigraph(
            5, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 1))))
        assert is_isomorphic(pc, glued)

    def test_parallel_connection_rejects_loops(self):
        loopy = cycle_matroid(Multigraph(1, ((0, 0),)))
        with pytest.raises(MatroidError):
            parallel_connection(loopy, loopy.labels[0], circuit_matroid(3), "e1")

    def test_relaxation(self):
        M = named_matroid("mk23")
        X = next(C for C in M.circuits() if M.rank(C) == M.full_rank() - 1)
        R = relax_circuit_hyperplane(M, X)
        assert R.rank(X) == M.rank(X) + 1
        assert len(R.nonspanning_circuits()) == 2
        with pytest.raises(MatroidError):
            relax_circuit_hyperplane(R, X)

    def test_matroid_from_circuits_roundtrip(self):
        for M in (uniform(2, 4), named_matroid("mk23"), named_matroid("f7")):
            rebuilt = matroid_from_circuits(M.labels, M.circuits())
            assert rebuilt == M

    def test_matroid_from_circuits_rejects_non_matroidal(self):
        # two triangles sharing two elements but no exchange circuit
        with pytest.raises(MatroidError):
            matroid_from_circuits(("a", "b", "c", "d"), (0b0111, 0b1011))

    def test_matroid_from_circuits_rejects_non_antichain(self):
        with pytest.raises(MatroidError):
            matroid_from_circuits(("a", "b"), (0b01, 0b11))

    def test_matroid_from_circuits_reads_input_order(self):
        labels = ("a", "b", "c")
        # the first invalid mask as given, not the least one
        with pytest.raises(MatroidError, match=r"^invalid circuit mask 0x20$"):
            matroid_from_circuits(labels, [1 << 5, 0])
        assert matroid_from_circuits(labels, [0b11, 0b11]) == matroid_from_circuits(labels, [0b11])


class TestCyclicFlatSynthesis:
    def test_round_trip_on_catalog(self):
        for name in ("mk23", "mk23minus", "f7", "f7star", "wheel4rimdel"):
            M = named_matroid(name)
            family = CyclicFlatFamily(M.labels, M.cyclic_flats())
            assert validate_z_axioms(family) is None
            assert from_cyclic_flats(family) == M

    def test_circuits_from_cyclic_flats(self):
        M = named_matroid("mk23")
        family = CyclicFlatFamily(M.labels, M.cyclic_flats())
        assert circuits_from_cyclic_flats(family) == M.circuits()

    def test_rejects_17_elements(self):
        family = CyclicFlatFamily(tuple(f"e{i}" for i in range(17)), ((0, 0),))
        with pytest.raises(MatroidError, match=r"^ground set too large: 17 > 16$"):
            from_cyclic_flats(family)

    def test_mask_of_unknown_label_is_matroid_error(self):
        family = CyclicFlatFamily(("a", "b"), ((0, 0), (0b11, 1)))
        assert family.mask(["b"]) == 0b10
        with pytest.raises(MatroidError, match="unknown element label 'z'"):
            family.mask(["a", "z"])

    def test_z_axiom_rejections(self):
        # Z1: bottom has positive rank
        fam = CyclicFlatFamily(("a", "b"), ((0, 1), (0b11, 2)))
        v = validate_z_axioms(fam)
        assert v is not None and v.axiom == "Z1"
        # Z2: rank jump not strictly between 0 and the size gap
        fam = CyclicFlatFamily(("a", "b", "c"), ((0, 0), (0b111, 3)))
        v = validate_z_axioms(fam)
        assert v is not None and v.axiom == "Z2"
        # Z0: no unique meet
        fam = CyclicFlatFamily(
            ("a", "b", "c", "d"),
            ((0b0011, 1), (0b0110, 1), (0b1111, 2)))
        v = validate_z_axioms(fam)
        assert v is not None and v.axiom == "Z0"


class TestNamedFamilies:
    def test_m42_is_mk23(self):
        assert is_isomorphic(mn_family(4, 2), named_matroid("mk23"))

    def test_mn_zero_truncated_double_circuit(self):
        M = mn_family(4, 0)
        assert M.n == 8 and M.full_rank() == 4
        assert len(M.nonspanning_circuits()) == 2

    def test_p42_is_wheel4_rim_deleted(self):
        assert is_isomorphic(pn_family(4, 2), named_matroid("wheel4rimdel"))

    def test_family_sizes(self):
        assert mn_family(5, 2).n == 8
        assert nn_family(5, 2).n == 8
        assert pn_family(5, 2).n == 9
        assert sec1_pc_example(2).n == 7

    def test_family_parameter_validation(self):
        with pytest.raises(MatroidError):
            mn_family(3, 2)
        with pytest.raises(MatroidError):
            nn_family(4, 2)
        with pytest.raises(MatroidError):
            pn_family(3, 2)
        with pytest.raises(MatroidError):
            sec1_pc_example(1)

    def test_fano_is_not_self_dual_here(self):
        F = named_matroid("f7")
        assert F.full_rank() == 3
        assert named_matroid("f7star").full_rank() == 4
        assert not is_isomorphic(F, named_matroid("f7star"))

    def test_named_matroid_dispatch(self):
        assert named_matroid("MK23") == named_matroid("mk23")
        assert named_matroid("uniform", n=4, k=2) == uniform(2, 4)
        with pytest.raises(MatroidError):
            named_matroid("mn")  # missing parameters
        with pytest.raises(MatroidError):
            named_matroid("nope")

    def test_named_fixed_order(self):
        assert NAMED_FIXED == (
            "mk23", "mk23minus", "mk4", "f7", "f7star", "mstark33", "wheel4rimdel")
        assert [named_matroid(name).n for name in NAMED_FIXED] == [6, 6, 6, 7, 7, 9, 7]

    @pytest.mark.parametrize("spelling, key, params", [
        ("MK4", "mk4", {}),
        ("  F7-Star ", "f7star", {}),
        ("mk23_minus", "mk23minus", {}),
        ("wheel-4-rim_del", "wheel4rimdel", {}),
        ("M-N", "mn", {"n": 5, "k": 2}),
        ("P_N", "pn", {"n": 5, "k": 2}),
        ("sec1-pc-example", "sec1pc", {"k": 3}),
        ("Sec1_PC", "sec1pc", {"k": 2}),
        ("UNIFORM", "uniform", {"n": 5, "k": 3}),
    ])
    def test_named_matroid_spellings(self, spelling, key, params):
        assert named_matroid(spelling, **params) == named_matroid(key, **params)

    @pytest.mark.parametrize("spelling", ["notk", "NOTK", "notk-example", "notk_example"])
    def test_notk_spellings_raise_the_synthesis_error(self, spelling):
        with pytest.raises(ZAxiomError) as want:
            notk_example(4)
        with pytest.raises(ZAxiomError, match=re.escape(str(want.value))):
            named_matroid(spelling, k=4)

    @pytest.mark.parametrize("name, params, missing", [
        ("uniform", {"k": 2}, "n"),
        ("nn", {"n": 5}, "k"),
        ("mn", {}, "n"),
        ("pn", {"k": 2}, "n"),
        ("sec1pc", {"n": 5}, "k"),
        ("notk-example", {}, "k"),
    ])
    def test_named_matroid_first_missing_parameter(self, name, params, missing):
        with pytest.raises(MatroidError, match=f"^family '{name}' requires parameter {missing}$"):
            named_matroid(name, **params)

    @pytest.mark.parametrize("name, params, extra", [
        ("f7", {"n": 3}, "n"),
        ("f7", {"n": 3, "k": 9}, "n"),
        ("MK4", {"k": 0}, "k"),
        ("sec1pc", {"n": 5, "k": 2}, "n"),
        ("notk-example", {"n": 5, "k": 4}, "n"),
    ])
    def test_named_matroid_rejects_unused_parameter(self, name, params, extra):
        with pytest.raises(MatroidError, match=f"^family '{name}' takes no parameter {extra}$"):
            named_matroid(name, **params)

    @pytest.mark.parametrize("build, message", [
        (lambda: mn_family(12, 2), "M_12(2) needs 22 elements > 16"),
        (lambda: sec1_pc_example(40), "sec1_pc_example(40) needs 45 elements > 16"),
        (lambda: sec1_pc_example(1), "sec1_pc_example needs k >= 2"),
        (lambda: notk_cyclic_flats(20), "notk_cyclic_flats(20) needs 58 elements > 16"),
        (lambda: notk_cyclic_flats(2), "notk_cyclic_flats needs k >= 3"),
    ], ids=["mn", "sec1pc", "sec1pc-k", "notk", "notk-k"])
    def test_size_errors_name_the_construction(self, build, message):
        with pytest.raises(MatroidError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("name", ["nope", "", "f8", "mn-example", "k4", "mk23plus"])
    def test_named_matroid_unknown(self, name):
        with pytest.raises(MatroidError, match=f"^unknown catalog matroid '{name}'$"):
            named_matroid(name, n=5, k=2)


class TestCounterexampleFamily:
    """The nine-set family behind the contraction counterexample is not
    a lattice of cyclic flats; the constructor must say so precisely."""

    def test_family_shape(self):
        fam = notk_cyclic_flats(4)
        assert len(fam.labels) == 10
        assert len(fam.entries) == 9
        assert sorted(r for _, r in fam.entries) == [0, 4, 4, 4, 5, 5, 6, 6, 7]

    def test_construction_raises_with_witness(self):
        with pytest.raises(ZAxiomError) as err:
            notk_example(4)
        v = err.value.violation
        assert v.axiom == "Z3"
        fam = notk_cyclic_flats(4)
        witness_sets = [
            {fam.labels[i] for i in range(len(fam.labels)) if m >> i & 1}
            for m in v.witness]
        assert {"a2", "a3", "b1", "c1", "e"} in witness_sets
        assert {"a1", "b2", "b3", "c1", "e"} in witness_sets
        assert tuple(fam.entries[i][0] for i in err.value.members) == v.witness

    def test_k3_family_rejected(self):
        assert validate_z_axioms(notk_cyclic_flats(3)) is not None

    def test_k5_also_fails_z3(self):
        with pytest.raises(ZAxiomError):
            notk_example(5)

    def test_k_range(self):
        with pytest.raises(MatroidError):
            notk_example(3)
        with pytest.raises(MatroidError):
            notk_cyclic_flats(2)

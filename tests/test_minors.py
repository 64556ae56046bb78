"""Minor operations, isomorphism, minor containment, excluded minors."""

import pytest

from lamina.core import MatroidError
from lamina.constructions import (
    direct_sum,
    mn_family,
    named_matroid,
    nn_family,
    pn_family,
    uniform,
)
from lamina.laminar import is_k_closure_laminar, is_k_laminar, is_laminar, is_nested, is_paving
from lamina.minors import (
    BINARY,
    NAMED_MINORS,
    TERNARY,
    MinorSpec,
    class_predicate,
    contract,
    delete,
    find_isomorphism,
    has_minor,
    is_binary,
    is_excluded_minor,
    is_isomorphic,
    is_ternary,
    minor,
)


class TestDeleteContract:
    def test_contract_uniform(self):
        M = uniform(2, 4)
        assert contract(M, M.mask(["e1"])) == uniform(1, 3, ("e2", "e3", "e4"))

    def test_delete_uniform(self):
        M = uniform(2, 4)
        assert delete(M, M.mask(["e4"])) == uniform(2, 3)

    def test_contraction_rank_formula(self):
        M = named_matroid("f7")
        C = M.mask(["f1"])
        Mc = contract(M, C)
        for A in range(Mc.E + 1):
            full = M.mask(Mc.names(A))
            assert Mc.rank(A) == M.rank(full | C) - M.rank(C)

    def test_operations_commute(self):
        M = named_matroid("f7star")
        D = M.mask(["f1"])
        C = M.mask(["f3"])
        left = contract(delete(M, D), delete(M, D).mask(["f3"]))
        right = delete(contract(M, C), contract(M, C).mask(["f1"]))
        assert left == right

    def test_minor_spec_disjointness(self):
        with pytest.raises(MatroidError):
            MinorSpec(0b01, 0b01)

    def test_minor_applies_both(self):
        M = uniform(2, 4)
        N = minor(M, MinorSpec(delete=M.mask(["e1"]), contract=M.mask(["e2"])))
        assert N == uniform(1, 2, ("e3", "e4"))

    def test_mask_bounds(self):
        with pytest.raises(MatroidError):
            delete(uniform(1, 2), 0b100)

    @pytest.mark.parametrize("spec", [
        MinorSpec(0, 1 << 9), MinorSpec(1 << 4, 0), MinorSpec(0b1, 0b10000),
        MinorSpec(-1, 0), MinorSpec(0, -2),
    ], ids=["contract-far", "delete-next", "contract-next", "negative-delete",
            "negative-contract"])
    def test_minor_spec_bounds(self, spec):
        # a contract bit outside E(M) used to be dropped without a word
        with pytest.raises(MatroidError):
            minor(uniform(2, 4), spec)


class TestIsomorphism:
    def test_identity(self):
        M = named_matroid("mk23")
        assert find_isomorphism(M, M) == tuple(range(M.n))

    def test_relabeling(self):
        M = uniform(2, 4)
        N = uniform(2, 4, ("w", "x", "y", "z"))
        assert is_isomorphic(M, N)

    def test_symmetric_and_transitive_spot(self):
        A = mn_family(4, 2)
        B = named_matroid("mk23")
        assert is_isomorphic(A, B) and is_isomorphic(B, A)

    def test_distinguishes(self):
        assert not is_isomorphic(uniform(2, 4), uniform(2, 5))
        assert not is_isomorphic(named_matroid("f7"), named_matroid("f7star"))
        # same size and rank but different circuit structure
        assert not is_isomorphic(named_matroid("mk23"),
                                 named_matroid("mk23minus"))

    def test_mapping_carries_ranks(self):
        A = mn_family(4, 2)
        B = named_matroid("mk23")
        mapping = find_isomorphism(A, B)
        for S in range(A.E + 1):
            img = 0
            for i in range(A.n):
                if S >> i & 1:
                    img |= 1 << mapping[i]
            assert A.rank(S) == B.rank(img)


class TestNamedMinorFacts:
    def test_n52_contract_central_gives_p42(self):
        N = nn_family(5, 2)
        M = contract(N, N.mask(["c3"]))
        assert is_isomorphic(M, pn_family(4, 2))

    def test_f7star_delete_gives_mk23(self):
        F = named_matroid("f7star")
        for lab in F.labels:
            assert is_isomorphic(delete(F, F.mask([lab])), named_matroid("mk23"))

    def test_m52_has_u57_minor(self):
        spec = has_minor(mn_family(5, 2), uniform(5, 7))
        assert spec is not None
        N = minor(mn_family(5, 2), spec)
        assert is_isomorphic(N, uniform(5, 7))

    def test_n52_has_u56_minor(self):
        assert has_minor(nn_family(5, 2), uniform(5, 6)) is not None

    def test_reflexive_minor(self):
        M = uniform(2, 4)
        spec = has_minor(M, M)
        assert spec == MinorSpec(0, 0)

    def test_no_minor_of_larger(self):
        assert has_minor(uniform(2, 4), uniform(2, 5)) is None


class TestBinaryTernary:
    def test_mk23_binary(self):
        assert is_binary(named_matroid("mk23"))

    def test_mk23minus_nonbinary_ternary(self):
        M = named_matroid("mk23minus")
        assert not is_binary(M)
        assert is_ternary(M)

    def test_u24_nonbinary_ternary(self):
        assert not is_binary(uniform(2, 4))
        assert is_ternary(uniform(2, 4))

    def test_f7_binary_not_ternary(self):
        F = named_matroid("f7")
        assert is_binary(F)
        assert not is_ternary(F)


class TestNamedMinors:
    def test_registry_entries_are_their_catalog_constructions(self):
        assert NAMED_MINORS == {
            "mk23minus": named_matroid("mk23minus"),
            "mk23": named_matroid("mk23"),
            "m42": mn_family(4, 2),
            "m52": mn_family(5, 2),
            "n52": nn_family(5, 2),
            "p42": pn_family(4, 2),
            "u24": uniform(2, 4),
            "u25": uniform(2, 5),
            "u35": uniform(3, 5),
            "f7": named_matroid("f7"),
            "f7star": named_matroid("f7").dual(),
            "mstark33": named_matroid("mstark33"),
            "pavex": direct_sum(uniform(0, 1), uniform(2, 2)),
        }

    def test_binary_and_ternary_are_names_in_the_registry(self):
        assert BINARY == ("u24",)
        assert TERNARY == ("u25", "u35", "f7", "f7star")


class TestClassPredicate:
    @pytest.mark.parametrize("name, test", [
        ("nested", is_nested), ("laminar", is_laminar), ("paving", is_paving),
        ("binary", is_binary), ("ternary", is_ternary)])
    def test_fixed_names_ignore_case_and_spaces(self, name, test):
        for spelling in (name, f" {name.upper()} "):
            P = class_predicate(spelling)
            # each class holds for some of these and fails for others
            for M in (uniform(2, 4), named_matroid("f7"), pn_family(4, 2), mn_family(4, 0)):
                assert P(M) == bool(test(M))

    @pytest.mark.parametrize("name, test, k", [
        ("0-laminar", is_k_laminar, 0), ("2-laminar", is_k_laminar, 2),
        ("12-laminar", is_k_laminar, 12), ("1-closure-laminar", is_k_closure_laminar, 1),
        (" 3-Closure-Laminar", is_k_closure_laminar, 3),
    ])
    def test_k_classes_read_k_and_the_family(self, name, test, k):
        P = class_predicate(name)
        for M in (uniform(2, 4), mn_family(4, 2), pn_family(4, 2), named_matroid("mk23minus")):
            assert P(M) is bool(test(M, k))

    @pytest.mark.parametrize("name", [
        "-laminar", "k-laminar", "2-closure", "closure-laminar",
        "2-closure-closure-laminar", "2-laminar-x", "2 laminar", "binaryx"])
    def test_unregistered_names_raise(self, name):
        with pytest.raises(MatroidError) as err:
            class_predicate(name)
        assert str(err.value) == f"unregistered class predicate {name!r}"


class TestExcludedMinors:
    def test_mk23minus_both_classes(self):
        M = named_matroid("mk23minus")
        assert is_excluded_minor(M, "2-laminar")
        assert is_excluded_minor(M, "2-closure-laminar")

    def test_m42_both_classes(self):
        M = mn_family(4, 2)
        assert is_excluded_minor(M, "2-laminar")
        assert is_excluded_minor(M, "2-closure-laminar")

    def test_p42_closure_only(self):
        M = pn_family(4, 2)
        assert is_excluded_minor(M, "2-closure-laminar")
        # P_4(2) is 2-laminar, hence not an excluded minor for that class
        res = is_excluded_minor(M, "2-laminar")
        assert not res and "satisfies" in res.reason

    def test_n52_laminar_only(self):
        M = nn_family(5, 2)
        assert is_excluded_minor(M, "2-laminar")

    def test_inside_class_is_not_excluded(self):
        res = is_excluded_minor(uniform(2, 4), "2-laminar")
        assert not res

    def test_failing_minor_witness(self):
        # M_5(2) properly contains no excluded-minor structure for
        # 3-laminar, but it is not 2-laminar and a deletion shows the
        # violation is not minimal for the larger family M_6(2)
        M = mn_family(6, 2)
        res = is_excluded_minor(M, "3-laminar")
        if not res and res.witness is not None:
            spec = res.witness
            N = minor(M, spec)
            # replay: the single-element minor still violates the class
            from lamina.laminar import is_k_laminar
            assert not is_k_laminar(N, 3)

    def test_unregistered_predicate(self):
        with pytest.raises(MatroidError):
            is_excluded_minor(uniform(2, 4), "totally-made-up")

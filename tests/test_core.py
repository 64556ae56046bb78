"""Rank-table core: axiom validation and derived structure.

Derived notions (circuits, flats, cyclic flats, Hamiltonian flats,
duals) are compared against direct brute-force definitions computed
from the rank table alone, so the oracles share no code with the
implementation under test.
"""

import ast
import itertools
import pathlib

import numpy as np
import pytest

import lamina
import lamina.core as core
import lamina.minors as minors
from lamina.core import (
    MAX_ELEMENTS,
    Matroid,
    MatroidError,
    runs,
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

    @pytest.mark.parametrize("table, mask", [
        ([0, 300], 1),
        ([0, -1], 1),
        ([0, 0.5], 1),
        ([0, None], 1),
        # an array is checked before its cast to uint8, so 256 does not
        # wrap to a valid 0
        (np.array([0, 300], dtype=np.int64), 1),
        (np.array([0, 256], dtype=np.int64), 1),
        (np.array([0, -1], dtype=np.int8), 1),
        # a non-integer array is read by value: every entry reads as -1
        (np.array([0.0, 1.0]), 0),
    ], ids=["above_byte", "negative", "half", "none", "int64_array_300", "int64_array_256",
            "int8_array_negative", "float_array"])
    def test_constructor_reports_bad_entry_as_r1(self, table, mask):
        with pytest.raises(MatroidError, match=rf"R1 violated at masks \({mask},\)"):
            Matroid(["a"], table)

    def test_constructor_reads_array_entries_by_value(self):
        want = Matroid(("a", "b"), bytes([0, 1, 1, 1]))
        assert Matroid(("a", "b"), np.array([0, 1, 1, 1], dtype=np.int64)) == want

    def test_integer_array_is_not_read_entry_by_entry(self):
        class Unlisted(np.ndarray):
            def __iter__(self):
                raise AssertionError("integer array read entry by entry")

        M = named_matroid("f7")
        table = M.ranks.astype(np.int64).view(Unlisted)
        assert validate_rank_axioms(table, M.n) is None
        assert Matroid(M.labels, table) == M

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_array_of_any_shape_is_read_in_c_order(self, order):
        M = named_matroid("f7")
        table = np.array(M.ranks.reshape(8, 16), dtype=np.int16, order=order)
        assert Matroid(M.labels, table) == Matroid(M.labels, table.ravel()) == M

    def test_validation_reads_an_array_of_any_shape_in_c_order(self):
        assert validate_rank_axioms(np.array([[0, 1], [1, 2]]), 2) is None
        # in C order, entry (1, 2) of a 2 x 4 table is mask 6, the first
        # entry above its size; in F order it would be mask 5
        table = np.array([[0, 1, 1, 2], [1, 2, 3, 2]])
        v = validate_rank_axioms(table, 3)
        assert (v.axiom, v.witness) == ("R1", (6,))

    def test_non_contiguous_half_is_stored_without_flattening(self):
        class Unflattened(np.ndarray):
            def ravel(self, *args, **kwargs):
                raise AssertionError("table flattened before it was stored")

        M = named_matroid("wheel4rimdel")
        half = minors.halves(M.ranks, 2)[0]
        assert not half.flags.c_contiguous
        got = Matroid(M.labels[:2] + M.labels[3:], half.view(Unflattened), validate=False)
        assert got.rank_table == np.ascontiguousarray(half).tobytes()
        assert got == minors.single_element_minors(M)[4]

    def test_unchecked_uint8_view_stores_the_same_bytes(self):
        M = named_matroid("wheel4rimdel")
        got = Matroid(M.labels, M.ranks, validate=False)
        assert type(got.rank_table) is bytes and got.rank_table == M.rank_table

    def test_ranks_is_a_read_only_view(self):
        M = named_matroid("f7")
        assert M.ranks.dtype == np.uint8 and not M.ranks.flags.writeable
        assert M.ranks.tobytes() == M.rank_table
        assert np.shares_memory(M.ranks, np.frombuffer(M.rank_table, dtype=np.uint8))

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

    @pytest.mark.parametrize("A", [1 << 3, -1])
    def test_names_bounds_check(self, A):
        # without the check, -1 would name every element and 1 << 3 none
        with pytest.raises(MatroidError, match=rf"^mask {A:#x} not within ground set$"):
            uniform(2, 3).names(A)

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


class TestRuns:
    """``runs`` cuts an iterable into consecutive runs within the one
    table-entry budget, the batch of every stacked pass, sweep and DP."""

    def test_order_is_kept_and_each_run_fits(self, monkeypatch):
        monkeypatch.setattr(core, "_TABLE_CELLS", 10)
        sizes = [3, 4, 2, 11, 1, 9, 10, 5, 5, 6]
        got = list(runs(sizes, lambda x: x))
        assert [x for run in got for x in run] == sizes
        assert all(sum(run) <= 10 or len(run) == 1 for run in got)
        # each run ends where the next item would overflow it
        assert got == [[3, 4, 2], [11], [1, 9], [10], [5, 5], [6]]

    def test_empty_input_gives_no_runs(self):
        assert list(runs([], lambda x: 1)) == []

    def test_a_generator_is_read_lazily(self, monkeypatch):
        """One item past each run, so a lazy corpus holds one run at a time."""
        monkeypatch.setattr(core, "_TABLE_CELLS", 4)
        read = []

        def items():
            for i in itertools.count():
                read.append(i)
                yield i

        it = runs(items(), lambda _: 2)
        assert next(it) == [0, 1] and read == [0, 1, 2]
        assert next(it) == [2, 3] and read == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("path", sorted(pathlib.Path(lamina.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_core_converts_the_stored_table(path):
    """The uint8 table format is core's: other modules read ``M.ranks``
    and hand ``Matroid`` arrays, never calling ``np.frombuffer`` or
    passing a ``.tobytes()`` table."""
    if path.name == "core.py":
        return
    text = path.read_text(encoding="utf-8")
    assert "frombuffer" not in text
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Matroid":
            assert "tobytes" not in ast.unparse(node), f"line {node.lineno}"


@pytest.mark.parametrize("path", sorted(pathlib.Path(lamina.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_calls_np_unique(path):
    """``np.unique`` imports ``numpy.ma`` on first call, over 1 MiB of RSS
    (``tests/test_cli.py`` checks at run time that none is imported): the
    library drops repeats by marking masks on a boolean table or by a
    sort and a ``diff`` instead."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr == "unique":
            assert ast.unparse(node.value) not in ("np", "numpy"), f"line {node.lineno}"
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            assert "unique" not in {a.name for a in node.names}, f"line {node.lineno}"


@pytest.mark.parametrize("path", sorted(pathlib.Path(lamina.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_names_validate_rank_axioms(path):
    """R1-R3 run only where a table comes from outside the library, through
    ``Matroid(labels, table)``: outside ``core`` and the re-export in
    ``__init__`` no module names ``validate_rank_axioms``, so every other
    check of parsed or built input is its constructor's own."""
    if path.name in ("core.py", "__init__.py"):
        return
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        names = (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        assert "validate_rank_axioms" not in names, f"line {node.lineno}"


def _meet_gathers(tree: ast.AST) -> list[int]:
    """Lines that index ``subset_sizes(...)``, or a name bound to it alone
    or in a tuple, by an ``&`` expression: the ``sizes[X & B]`` gather."""
    def calls(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "subset_sizes"

    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                names |= {t.id for t, v in pairs
                          if isinstance(t, ast.Name) and any(map(calls, ast.walk(v)))}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.BinOp)
            and isinstance(node.slice.op, ast.BitAnd)
            and (calls(node.value) or getattr(node.value, "id", None) in names)]


@pytest.mark.parametrize("path", sorted(pathlib.Path(lamina.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_gathers_subset_sizes_at_a_meet(path):
    """|X ∩ B| over every X is ``core.meet_sizes``: outside ``core`` no
    module indexes ``subset_sizes(...)``, or a name bound to it, by an
    ``&`` expression, the gather through a 2^n index array."""
    if path.name != "core.py":
        assert _meet_gathers(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("src, lines", [
    ("sizes = subset_sizes(n)\nt = sizes[X & B]", [2]),
    ("sizes, X = subset_sizes(n), np.arange(1 << n)\nt = sizes[X & B]", [2]),
    ("sizes = core.subset_sizes(n).astype(np.uint8)\nt = sizes[X & free[:, t]]", [2]),
    ("t = subset_sizes(n)[X & ~Z] + r", [1]),
    ("sizes = subset_sizes(n)\nt = sizes[Z & Y ^ M]", []),
])
def test_meet_gather_lint_sees_the_old_forms(src, lines):
    """The forms the constructors wrote before ``meet_sizes`` are flagged,
    and a pair table whose index only contains an ``&`` is not."""
    assert _meet_gathers(ast.parse(src)) == lines

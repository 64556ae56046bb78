"""Text format: all repr kinds, error reporting, serialize round trips."""

import itertools
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from lamina import core
from lamina.constructions import (
    CyclicFlatFamily, Multigraph, _sparse_paving, cycle_matroid, named_matroid, uniform)
from lamina.corpus import CorpusSpec, catalog_matroids, generate_corpus
from lamina.formats import ParseError, parse_matroid, serialize_matroid


class TestParseKinds:
    def test_uniform(self):
        M = parse_matroid("%matroid v1\nn 4\nrepr uniform\nr 2\n")
        assert M == uniform(2, 4)

    def test_uniform_custom_labels(self):
        M = parse_matroid("%matroid v1\nn 2\nlabels x y\nrepr uniform\nr 1\n")
        assert M == uniform(1, 2, ("x", "y"))

    def test_circuits(self):
        M = parse_matroid(
            "%matroid v1\nn 4\nrepr circuits\n{e1 e2} {e3 e4}\n")
        assert sorted(M.circuits()) == sorted(
            [M.mask(["e1", "e2"]), M.mask(["e3", "e4"])])
        assert M.full_rank() == 2

    def test_incomplete_circuit_family_rejected(self):
        # {e1 e2 e3} and {e2 e3 e4} without their elimination circuit
        with pytest.raises(ParseError):
            parse_matroid(
                "%matroid v1\nn 4\nrepr circuits\n{e1 e2 e3} {e2 e3 e4}\n")

    def test_circuits_empty_body_is_free(self):
        M = parse_matroid("%matroid v1\nn 3\nrepr circuits\n")
        assert M.full_rank() == 3

    def test_cyclic_flats(self):
        text = ("%matroid v1\nn 4\nrepr cyclic-flats\n"
                "set {} rank 0\nset {e1 e2 e3 e4} rank 2\n")
        assert parse_matroid(text) == uniform(2, 4)

    def test_graph(self):
        text = ("%matroid v1\nn 3\nlabels a b c\nrepr graph\nvertices 3\n"
                "edge a 0 1\nedge b 1 2\nedge c 2 0\n")
        M = parse_matroid(text)
        assert M == cycle_matroid(
            Multigraph(3, ((0, 1), (1, 2), (2, 0)), ("a", "b", "c")))

    def test_laminar(self):
        text = ("%matroid v1\nn 4\nrepr laminar\n"
                "cap {e1 e2 e3 e4} 2\ncap {e1 e2} 1\n")
        M = parse_matroid(text)
        assert M.full_rank() == 2
        assert M.rank(M.mask(["e1", "e2"])) == 1

    def test_transversal(self):
        text = ("%matroid v1\nn 3\nrepr transversal\n"
                "block {e1}\nblock {e1 e2 e3}\n")
        M = parse_matroid(text)
        assert M.full_rank() == 2

    def test_comments_and_blanks(self):
        text = ("# header comment\n%matroid v1\n\nn 2  # two elements\n"
                "repr uniform\nr 1\n")
        assert parse_matroid(text) == uniform(1, 2)


def _bad(id, text, line, message):
    return pytest.param(text, line, message, id=id)


# one malformed text per error branch of parse_matroid, with the exact
# line and message it is reported under
_MALFORMED = [
    _bad("empty", "", 1, "unexpected end of input"),
    _bad("header", "%wrong\nn 2\nrepr uniform\nr 1\n", 1,
         "expected '%matroid v1' header, got '%wrong'"),
    _bad("end-after-header", "%matroid v1\n", 1, "unexpected end of input"),
    _bad("n-usage", "%matroid v1\nn 2 3\n", 2, "expected 'n <count>'"),
    _bad("n-keyword", "%matroid v1\nnope\n", 2, "expected 'n <count>'"),
    _bad("n-invalid", "%matroid v1\nn x\n", 2, "invalid element count 'x'"),
    _bad("n-negative", "%matroid v1\nn -5\n", 2, "element count must be nonnegative"),
    _bad("n-too-large", "%matroid v1\nn 17\n", 2, "ground set too large: 17 > 16"),
    _bad("end-after-n", "%matroid v1\nn 2\n", 2, "unexpected end of input"),
    _bad("labels-count", "%matroid v1\nn 2\nlabels a\nrepr uniform\nr 1\n", 3,
         "expected 2 labels, got 1"),
    _bad("labels-duplicate", "%matroid v1\nn 2\nlabels a a\nrepr uniform\nr 1\n", 3,
         "element labels must be distinct"),
    _bad("end-after-labels", "%matroid v1\nn 2\nlabels a b\n", 3, "unexpected end of input"),
    _bad("labels-brace", "%matroid v1\nn 2\nlabels a{ b}\nrepr uniform\nr 1\n", 3,
         "label 'a{' contains a brace"),
    _bad("repr-usage", "%matroid v1\nn 2\nrepr\n", 3, "expected 'repr <kind>'"),
    _bad("repr-keyword", "%matroid v1\nn 2\nkind uniform\n", 3, "expected 'repr <kind>'"),
    _bad("repr-unknown", "%matroid v1\nn 2\nrepr nonsense\n", 3, "unknown repr kind 'nonsense'"),
    _bad("uniform-no-body", "%matroid v1\nn 2\nrepr uniform\n", 3,
         "uniform body is a single 'r <int>' line"),
    _bad("uniform-two-lines", "%matroid v1\nn 2\nrepr uniform\nr 1\nr 1\n", 4,
         "uniform body is a single 'r <int>' line"),
    _bad("r-usage", "%matroid v1\nn 2\nrepr uniform\nr\n", 4, "expected 'r <int>'"),
    _bad("r-keyword", "%matroid v1\nn 2\nrepr uniform\nq 1\n", 4, "expected 'r <int>'"),
    _bad("r-invalid", "%matroid v1\nn 2\nrepr uniform\nr 1.5\n", 4, "invalid rank '1.5'"),
    _bad("uniform-range", "%matroid v1\nn 2\nrepr uniform\nr 3\n", 4,
         "uniform matroid needs 0 <= r <= n, got r=3, n=2"),
    _bad("circuits-two-lines", "%matroid v1\nn 2\nrepr circuits\n{e1}\n{e2}\n", 5,
         "circuits body is a single line of sets"),
    _bad("unknown-label", "%matroid v1\nn 2\nrepr circuits\n{a b}\n", 4,
         "unknown element label 'a'"),
    _bad("nested-brace", "%matroid v1\nn 2\nrepr circuits\n{e1 {e2}}\n", 4, "nested '{'"),
    _bad("unmatched-brace", "%matroid v1\nn 2\nrepr circuits\n{e1} }\n", 4, "unmatched '}'"),
    _bad("outside-braces", "%matroid v1\nn 2\nrepr circuits\ne1 {e2}\n", 4,
         "unexpected token 'e1' outside braces"),
    _bad("unterminated-brace", "%matroid v1\nn 2\nrepr circuits\n{e1 e2\n", 4,
         "unterminated '{'"),
    _bad("circuits-not-matroidal", "%matroid v1\nn 4\nrepr circuits\n{e1 e2 e3} {e2 e3 e4}\n",
         4, "rank axiom R3 violated at masks (7, 14)"),
    _bad("set-usage", "%matroid v1\nn 2\nrepr cyclic-flats\nset\n", 4,
         "expected 'set {..} rank <int>'"),
    _bad("set-keyword", "%matroid v1\nn 2\nrepr cyclic-flats\nflat {e1} rank 1\n", 4,
         "expected 'set {..} rank <int>'"),
    _bad("set-missing-rank", "%matroid v1\nn 2\nrepr cyclic-flats\nset {e1} 1\n", 4,
         "missing 'rank <int>'"),
    _bad("set-invalid-rank", "%matroid v1\nn 2\nrepr cyclic-flats\nset {e1} rank two\n", 4,
         "invalid rank 'two'"),
    _bad("set-rank-in-label", "%matroid v1\nn 2\nlabels frank b\nrepr cyclic-flats\n"
         "set {frank} 1\n", 5, "missing 'rank <int>'"),
    _bad("set-empty-rank", "%matroid v1\nn 2\nrepr cyclic-flats\nset {} rank\n", 4,
         "invalid rank ''"),
    _bad("set-two-sets", "%matroid v1\nn 2\nrepr cyclic-flats\nset {e1} {e2} rank 1\n", 4,
         "expected exactly one braced set, got 2"),
    _bad("cyclic-flat-axiom", "%matroid v1\nn 2\nrepr cyclic-flats\n"
         "set {e1} rank 0\nset {e2} rank 0\n", 5,
         "cyclic-flat axiom Z0 violated at masks ('0x1', '0x2')"),
    _bad("cyclic-flat-axiom-later-pair", "%matroid v1\nn 3\nlabels a b c\nrepr cyclic-flats\n"
         "set {} rank 0\nset {a b c} rank 1\nset {a b} rank 2\n", 7,
         "cyclic-flat axiom Z2 violated at masks ('0x0', '0x3')"),
    _bad("cyclic-flat-negative-rank", "%matroid v1\nn 2\nlabels a b\nrepr cyclic-flats\n"
         "set {} rank 0\nset {a b} rank -1\n", 6, "ranks must be nonnegative"),
    _bad("cyclic-flat-repeated-member", "%matroid v1\nn 2\nlabels a b\nrepr cyclic-flats\n"
         "set {} rank 0\nset {a b} rank 1\nset {} rank 0\n", 7,
         "cyclic-flat members must be distinct"),
    _bad("graph-no-body", "%matroid v1\nn 1\nrepr graph\n", 3,
         "graph body needs a 'vertices <int>' line"),
    _bad("vertices-usage", "%matroid v1\nn 1\nrepr graph\nvertices\n", 4,
         "expected 'vertices <int>'"),
    _bad("vertices-invalid", "%matroid v1\nn 1\nrepr graph\nvertices two\n", 4,
         "invalid vertex count 'two'"),
    _bad("vertices-negative", "%matroid v1\nn 0\nrepr graph\nvertices -3\n", 4,
         "vertex count must be nonnegative"),
    _bad("vertices-negative-edge", "%matroid v1\nn 1\nrepr graph\nvertices -3\nedge e1 0 0\n",
         4, "vertex count must be nonnegative"),
    _bad("edge-usage", "%matroid v1\nn 1\nrepr graph\nvertices 2\nedge e1 0\n", 5,
         "expected 'edge <label> <u> <v>'"),
    _bad("edge-invalid-u", "%matroid v1\nn 1\nrepr graph\nvertices 2\nedge e1 x y\n", 5,
         "invalid endpoint 'x'"),
    _bad("edge-invalid-v", "%matroid v1\nn 1\nrepr graph\nvertices 2\nedge e1 0 y\n", 5,
         "invalid endpoint 'y'"),
    _bad("edge-count", "%matroid v1\nn 2\nrepr graph\nvertices 2\nedge e1 0 1\n", 5,
         "expected 2 edges, got 1"),
    _bad("edge-count-none", "%matroid v1\nn 1\nrepr graph\nvertices 2\n", 4,
         "expected 1 edges, got 0"),
    _bad("edge-labels", "%matroid v1\nn 2\nrepr graph\nvertices 2\n"
         "edge e1 0 1\nedge e3 0 1\n", 6, "edge labels do not match declared labels"),
    _bad("edge-endpoint-range", "%matroid v1\nn 1\nrepr graph\nvertices 2\nedge e1 0 5\n", 5,
         "edge (0,5) has an invalid endpoint"),
    _bad("cap-usage", "%matroid v1\nn 2\nrepr laminar\ncap\n", 4, "expected 'cap {..} <int>'"),
    _bad("cap-empty", "%matroid v1\nn 2\nrepr laminar\ncap {e1}\n", 4, "invalid capacity ''"),
    _bad("cap-invalid", "%matroid v1\nn 2\nrepr laminar\ncap {x} y\n", 4,
         "invalid capacity 'y'"),
    _bad("cap-two-sets", "%matroid v1\nn 2\nrepr laminar\ncap {e1} {e2} 1\n", 4,
         "expected exactly one braced set, got 2"),
    _bad("cap-negative", "%matroid v1\nn 2\nlabels a b\nrepr laminar\n"
         "cap {a} 1\ncap {a b} -1\n", 6, "capacities must be nonnegative"),
    _bad("not-laminar", "%matroid v1\nn 3\nrepr laminar\ncap {e1 e2} 1\ncap {e2 e3} 1\n", 5,
         "family is not laminar: members 0x3 and 0x6 intersect without nesting"),
    _bad("not-laminar-later-pair", "%matroid v1\nn 3\nlabels a b c\nrepr laminar\n"
         "cap {a} 1\ncap {a b} 1\ncap {b c} 1\n", 7,
         "family is not laminar: members 0x3 and 0x6 intersect without nesting"),
    _bad("block-usage", "%matroid v1\nn 2\nrepr transversal\nblock\n", 4,
         "expected 'block {..}'"),
    _bad("block-two-sets", "%matroid v1\nn 2\nrepr transversal\nblock {e1} {e2}\n", 4,
         "expected exactly one braced set, got 2"),
    _bad("not-a-chain", "%matroid v1\nn 2\nrepr transversal\nblock {e1 e2}\nblock {e1}\n", 5,
         "blocks do not form a chain B_1 ⊆ ... ⊆ B_m"),
    _bad("not-a-chain-later-pair", "%matroid v1\nn 3\nlabels a b c\nrepr transversal\n"
         "block {a}\nblock {a b}\nblock {c}\n", 7,
         "blocks do not form a chain B_1 ⊆ ... ⊆ B_m"),
]


class TestParseErrors:
    @pytest.mark.parametrize("text,line,message", _MALFORMED)
    def test_message_is_pinned(self, text, line, message):
        with pytest.raises(ParseError) as exc:
            parse_matroid(text)
        assert (exc.value.line, str(exc.value)) == (line, f"line {line}: {message}")

    @pytest.mark.parametrize("text,line", [
        ("%wrong\nn 2\nrepr uniform\nr 1\n", 1),
        ("%matroid v1\nnope\nrepr uniform\nr 1\n", 2),
        ("%matroid v1\nn 2\nrepr nonsense\nr 1\n", 3),
        ("%matroid v1\nn 2\nlabels a\nrepr uniform\nr 1\n", 3),
        ("%matroid v1\nn 2\nrepr uniform\nq 1\n", 4),
        ("%matroid v1\nn 2\nrepr circuits\n{a b}\n", 4),
        ("%matroid v1\nn 2\nrepr circuits\n{e1 e2\n", 4),
        ("%matroid v1\nn 2\nrepr cyclic-flats\nset {e1} rank two\n", 4),
    ])
    def test_line_is_reported(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_matroid(text)
        assert exc.value.line == line
        assert f"line {line}" in str(exc.value)

    @pytest.mark.parametrize("lookup,prefix", [
        (lambda names: uniform(1, 2, ("a", "b")).mask(names), ""),
        (lambda names: CyclicFlatFamily(("a", "b"), ()).mask(names), ""),
        (lambda names: parse_matroid("%matroid v1\nn 2\nlabels a b\nrepr cyclic-flats\n"
                                     "set {} rank 0\nset {" + " ".join(names) + "} rank 1\n"),
         "line 6: "),
    ], ids=["Matroid.mask", "CyclicFlatFamily.mask", "parsed-set-line"])
    def test_unknown_label_has_one_text(self, lookup, prefix):
        # one lookup in core; the parser adds only its line number
        with pytest.raises(ValueError) as exc:
            lookup(["a", "z"])
        assert str(exc.value) == prefix + "unknown element label 'z'"

    def test_cap_without_a_set(self):
        # the capacity line's set runs up to its last '}'; here there is none
        with pytest.raises(ParseError, match=r"^line 4: expected exactly one braced set, got 0$"):
            parse_matroid("%matroid v1\nn 2\nrepr laminar\ncap 3\n")

    def test_truncated_input(self):
        with pytest.raises(ParseError):
            parse_matroid("%matroid v1\n")

    def test_rank_axioms_checked_once_at_the_boundary(self):
        """Each kind is checked once: a circuit family's table by one R1-R3
        pass, and every other kind by its constructor's own input check,
        after which the table is a matroid's by theorem.  A pass is counted
        by its code object, so a call under any module's name is seen."""
        code = core.validate_rank_axioms.__code__

        def passes(text):
            calls = []
            previous = sys.getprofile()
            sys.setprofile(lambda frame, event, arg:
                           event == "call" and frame.f_code is code and calls.append(1))
            try:
                parse_matroid(text)
            finally:
                sys.setprofile(previous)
            return len(calls)

        head = "%matroid v1\nn 4\n"
        texts = {
            "uniform": head + "repr uniform\nr 2\n",
            "graph": head + "repr graph\nvertices 3\n"
                     + "".join(f"edge e{i + 1} {u} {v}\n"
                               for i, (u, v) in enumerate([(0, 1), (1, 2), (2, 0), (0, 0)])),
            "laminar": head + "repr laminar\ncap {e1 e2 e3 e4} 2\ncap {e1 e2} 1\n",
            "transversal": head + "repr transversal\nblock {e1 e2}\nblock {e1 e2 e3}\n",
            "cyclic-flats": serialize_matroid(named_matroid("mk23")),
            "circuits": head + "repr circuits\n{e1 e2} {e3 e4}\n",
        }
        assert {kind: passes(text) for kind, text in texts.items()} == {
            "uniform": 0, "graph": 0, "laminar": 0, "transversal": 0,
            "cyclic-flats": 0, "circuits": 1}

    def test_invalid_matroid_reported_as_parse_error(self):
        # a cyclic-flat family violating the lattice axioms
        text = ("%matroid v1\nn 2\nrepr cyclic-flats\n"
                "set {e1} rank 0\nset {e2} rank 0\n")
        with pytest.raises(ParseError):
            parse_matroid(text)


class TestRoundTrip:
    @pytest.mark.parametrize("name,M", catalog_matroids(8),
                             ids=[name for name, _ in catalog_matroids(8)])
    def test_catalog_round_trip(self, name, M):
        assert parse_matroid(serialize_matroid(M)) == M

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.sampled_from(generate_corpus(CorpusSpec(seed=5, count=300, max_elements=10))))
    def test_seeded_corpus_round_trip(self, M):
        assert parse_matroid(serialize_matroid(M)) == M

    def test_empty_matroid_round_trip(self):
        M = uniform(0, 0)
        assert parse_matroid(serialize_matroid(M)) == M

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.lists(st.text(st.sampled_from("ab{}#"), min_size=1, max_size=3),
                    min_size=2, max_size=2))
    def test_every_parsed_label_can_be_written(self, labels):
        text = "%matroid v1\nn 2\nlabels " + " ".join(labels) + "\nrepr uniform\nr 1\n"
        try:
            M = parse_matroid(text)
        except ParseError:
            return
        assert parse_matroid(serialize_matroid(M)) == M

    def test_large_cyclic_flat_family(self):
        """A 16-element, rank-5 sparse paving matroid with 232 cyclic
        flats round-trips, and its Z-axiom check and table synthesis
        stay in chunks: parsing peaks under 16 MiB."""
        sets = [sum(1 << i for i in s) for s in itertools.combinations(range(16), 5)]
        random.Random(1).shuffle(sets)
        kept = []
        for s in sets:
            if all((s & k).bit_count() <= 3 for k in kept):
                kept.append(s)
        # 5-sets meeting pairwise in at most 3 elements
        M = _sparse_paving(tuple(f"e{i}" for i in range(16)), 5, kept)
        assert len(M.cyclic_flats()) == 232
        text = serialize_matroid(M)
        tracemalloc.start()
        try:
            assert parse_matroid(text) == M
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, peak

    @pytest.mark.parametrize("label", ["", "a b", "a{", "}", "a#"])
    def test_unwritable_label_is_rejected(self, label):
        # each would be written as text that parses to another matroid or not at all
        M = core.Matroid([label, "z"], [0, 1, 1, 1])
        with pytest.raises(core.MatroidError, match="cannot be serialized"):
            serialize_matroid(M)

    def test_serialized_header(self):
        text = serialize_matroid(named_matroid("mk23"))
        assert text.startswith("%matroid v1\n")
        assert "repr cyclic-flats" in text

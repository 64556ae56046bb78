"""Text format: all repr kinds, error reporting, serialize round trips."""

import pytest
from hypothesis import given, settings, strategies as st

from lamina import core, formats
from lamina.constructions import named_matroid, uniform, cycle_matroid, Multigraph
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


class TestParseErrors:
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

    def test_truncated_input(self):
        with pytest.raises(ParseError):
            parse_matroid("%matroid v1\n")

    def test_rank_axioms_checked_once_at_the_boundary(self, monkeypatch):
        calls = []
        real = formats.validate_rank_axioms

        def counting(table, n):
            calls.append(n)
            return real(table, n)

        monkeypatch.setattr(core, "validate_rank_axioms", counting)
        monkeypatch.setattr(formats, "validate_rank_axioms", counting)
        assert parse_matroid(serialize_matroid(named_matroid("mk23"))) \
            == named_matroid("mk23")
        assert calls == [6]

    def test_bad_table_from_a_trusted_constructor_is_caught(self, monkeypatch):
        # stands in for a constructor bug: a table failing R2
        monkeypatch.setattr(formats, "uniform", lambda r, n, labels: core.Matroid(
            labels, bytes([0, 1, 1, 0]), validate=False))
        with pytest.raises(ParseError, match="rank axiom R2") as exc:
            parse_matroid("%matroid v1\nn 2\nrepr uniform\nr 1\n")
        assert exc.value.line == 4

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

    def test_serialized_header(self):
        text = serialize_matroid(named_matroid("mk23"))
        assert text.startswith("%matroid v1\n")
        assert "repr cyclic-flats" in text

"""CLI behavior: subcommands, exit codes, JSON modes."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lamina import cli
from lamina.cli import main
from lamina.constructions import named_matroid, uniform
from lamina.corpus import CorpusSpec, generate_corpus
from lamina.formats import parse_matroid, serialize_matroid


@pytest.fixture
def mk23_file(tmp_path):
    p = tmp_path / "mk23.matroid"
    p.write_text(serialize_matroid(named_matroid("mk23")), encoding="utf-8")
    return str(p)


class TestConstruct:
    def test_construct_stdout(self, capsys):
        assert main(["construct", "--family", "uniform", "--n", "4", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert parse_matroid(out) == uniform(2, 4)

    def test_construct_to_file(self, tmp_path, capsys):
        target = tmp_path / "f7.matroid"
        assert main(["construct", "--family", "f7", "-o", str(target)]) == 0
        assert parse_matroid(target.read_text()) == named_matroid("f7")

    def test_unknown_family_is_usage_error(self, capsys):
        assert main(["construct", "--family", "nope"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unused_parameter_is_usage_error(self, capsys):
        assert main(["construct", "--family", "f7", "--n", "3", "--k", "9"]) == 2
        assert capsys.readouterr().err == "error: family 'f7' takes no parameter n\n"

    @pytest.mark.parametrize("params, message", [
        (["--family", "mn", "--n", "12", "--k", "2"], "M_12(2) needs 22 elements > 16"),
        (["--family", "sec1pc", "--k", "40"], "sec1_pc_example(40) needs 45 elements > 16"),
        (["--family", "notk", "--k", "20"], "notk_cyclic_flats(20) needs 58 elements > 16"),
    ], ids=["mn", "sec1pc", "notk"])
    def test_oversized_family_is_usage_error(self, capsys, params, message):
        assert main(["construct", *params]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestAnalyze:
    def test_human_output(self, mk23_file, capsys):
        assert main(["analyze", mk23_file]) == 0
        out = capsys.readouterr().out
        assert "rank: 4" in out
        assert "min_laminar_k: 3" in out

    def test_json_output(self, mk23_file, capsys):
        assert main(["analyze", mk23_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rank"] == 4
        assert len(report["elements"]) == 6
        assert report["min_laminar_k"] == 3
        assert report["nested"] is False

    # sha256 of stdout as json.dumps(report, indent=2) and print wrote it;
    # sec1pc(11) has 16 elements, so its sets span both mask bytes
    @pytest.mark.parametrize("family, k, flags, digest", [
        ("mk23", None, [], "de713121bda3efda5992e99429e7094aac6db16fabb18bc035b1934d19a7c24a"),
        ("mk23", None, ["--json"],
         "a0cad5b920d73ab7aa3ff472261ce644215a0448300b094e91e2c97bc1241e97"),
        ("sec1pc", 11, [], "63316f87b1933226bbdc1828efa57bed83905f9adcc103c44856588122355c97"),
        ("sec1pc", 11, ["--json"],
         "361931e3a1166d470c91da0fb16bc2291fa3496648e74e81ef930489ed5a8ff9"),
    ], ids=["mk23", "mk23-json", "sec1pc11", "sec1pc11-json"])
    def test_output_bytes_are_pinned(self, tmp_path, capsys, family, k, flags, digest):
        p = tmp_path / "m.matroid"
        p.write_text(serialize_matroid(named_matroid(family, k=k)), encoding="utf-8")
        assert main(["analyze", str(p), *flags]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest

    def test_missing_file(self, capsys):
        assert main(["analyze", "/no/such/file"]) == 2

    def test_malformed_file(self, tmp_path, capsys):
        p = tmp_path / "bad.matroid"
        p.write_text("not a matroid\n", encoding="utf-8")
        assert main(["analyze", str(p)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("body,line", [
        (b"%matroid v1\nn 1\nrepr graph\nvertices two\nedge e1 0 1\n", 4),
        (b"%matroid v1\nn 1\nrepr graph\nvertices 2\nedge e1 0 x\n", 5),
        (b"%matroid v1\nn 2\nrepr uniform\nr 1.5\n", 4),
        (b"%matroid v1\nn 2\nlabels a \xff\nrepr uniform\nr 1\n", 3),
        (b"%matroid v1\nn 17\nrepr uniform\nr 1\n", 2),
        (b"%matroid v1\nn 0\nrepr graph\nvertices -3\n", 4),
        (b"%matroid v1\nn 2\nlabels a{ b}\nrepr uniform\nr 1\n", 3),
    ], ids=["vertices", "endpoint", "uniform-r", "not-utf8", "too-many", "negative-vertices",
            "brace-label"])
    def test_malformed_input_is_a_parse_error(self, tmp_path, capsys, body, line):
        p = tmp_path / "bad.matroid"
        p.write_bytes(body)
        assert main(["analyze", str(p)]) == 2
        assert f"error: line {line}:" in capsys.readouterr().err


_WELL_FORMED = [
    "%matroid v1\nn 4\nrepr uniform\nr 2\n",
    "%matroid v1\nn 4\nrepr circuits\n{e1 e2} {e3 e4}\n",
    "%matroid v1\nn 3\nlabels a b c\nrepr graph\nvertices 3\n"
    "edge a 0 1\nedge b 1 2\nedge c 2 0\n",
    "%matroid v1\nn 4\nrepr laminar\ncap {e1 e2 e3 e4} 2\ncap {e1 e2} 1\n",
    "%matroid v1\nn 3\nrepr transversal\nblock {e1}\nblock {e1 e2 e3}\n",
    "# comment\n%matroid v1\nn 2  # two\n\nrepr uniform\nr 1\n",
    serialize_matroid(named_matroid("mk23")),
    *(serialize_matroid(M) for M in generate_corpus(CorpusSpec(seed=9, count=4))[-4:]),
]
_BAD_INTEGERS = ["x", "-5", "-1", "1.5", "", "99999999999999999999", "0x10", "1e3"]


@st.composite
def mutated_texts(draw):
    """A well-formed text with lines dropped, duplicated or garbled, or an
    integer replaced by a bad one."""
    lines = draw(st.sampled_from(_WELL_FORMED)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "garble", "integer"]))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "garble":
            lines[i] = draw(st.text(st.sampled_from("e1 2{}#-.xrnsetvk%\u00e9"), max_size=20))
        else:
            bad = draw(st.sampled_from(_BAD_INTEGERS))
            lines[i] = re.sub(r"\d+", lambda _: bad, lines[i], count=1)
    return "\n".join(lines) + "\n"


class TestMalformedInputFuzz:
    """Every malformed text ends in exit 2 with a line number; a mutation
    that leaves a valid matroid may exit 0.  A traceback fails the test."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(mutated_texts())
    def test_analyze_never_raises(self, tmp_path_factory, text):
        p = tmp_path_factory.mktemp("fuzz") / "m.matroid"
        p.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["analyze", str(p)])
        assert rc in (0, 2)
        if rc == 2:
            assert re.fullmatch(r"error: line \d+(, column \d+)?: .+\n", err.getvalue())


class TestMinorIso:
    def test_minor_found(self, mk23_file, tmp_path, capsys):
        t = tmp_path / "u23.matroid"
        t.write_text(serialize_matroid(uniform(2, 3)), encoding="utf-8")
        assert main(["minor", "--host", mk23_file, "--target", str(t)]) == 0
        out = capsys.readouterr().out
        assert "delete" in out and "contract" in out

    def test_minor_absent(self, mk23_file, tmp_path, capsys):
        t = tmp_path / "u25.matroid"
        t.write_text(serialize_matroid(uniform(2, 5)), encoding="utf-8")
        assert main(["minor", "--host", mk23_file, "--target", str(t)]) == 1
        assert "no minor" in capsys.readouterr().out

    def test_iso_positive(self, tmp_path, capsys):
        a = tmp_path / "a.matroid"
        b = tmp_path / "b.matroid"
        a.write_text(serialize_matroid(uniform(2, 4)), encoding="utf-8")
        b.write_text(serialize_matroid(uniform(2, 4, ("w", "x", "y", "z"))),
                     encoding="utf-8")
        assert main(["iso", str(a), str(b)]) == 0
        assert "isomorphic" in capsys.readouterr().out

    def test_iso_negative(self, tmp_path, capsys):
        a = tmp_path / "a.matroid"
        b = tmp_path / "b.matroid"
        a.write_text(serialize_matroid(uniform(2, 4)), encoding="utf-8")
        b.write_text(serialize_matroid(uniform(2, 5)), encoding="utf-8")
        assert main(["iso", str(a), str(b)]) == 1
        assert "not isomorphic" in capsys.readouterr().out

    @pytest.mark.parametrize("command,bad", [
        ("minor", "host"), ("minor", "target"), ("iso", "file1"), ("iso", "file2"),
    ])
    def test_parse_error_names_the_file(self, mk23_file, tmp_path, capsys, command, bad):
        p = tmp_path / "bad.matroid"
        p.write_text("%matroid v1\nn 2\nrepr uniform\nr 3\n", encoding="utf-8")
        files = {name: str(p) if name == bad else mk23_file
                 for name in ("host", "target", "file1", "file2")}
        argv = (["minor", "--host", files["host"], "--target", files["target"]]
                if command == "minor" else ["iso", files["file1"], files["file2"]])
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {p}: line 4: ")


class TestVerify:
    def test_single_passing_check(self, capsys):
        assert main(["verify", "--check", "lem-mnk"]) == 0
        out = capsys.readouterr().out
        assert "lem-mnk: PASS" in out
        assert "1/1 checks passed" in out

    def test_failing_check_exit_code(self, capsys):
        assert main(["verify", "--check", "thm-notk-k4"]) == 1
        out = capsys.readouterr().out
        assert "thm-notk-k4: FAIL" in out

    def test_json_mode(self, capsys):
        assert main(["verify", "--check", "lem-mnk", "--check", "lem-nb",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["check_id"] for r in payload] == ["lem-mnk", "lem-nb"]
        assert all(r["status"] == "pass" for r in payload)

    def test_json_mode_reports_sweep_coverage(self, capsys):
        """A sweep's result says how many members it read and how many
        distinct ones it asked; a fixed-input check has no such keys."""
        assert main(["verify", "--check", "thm-laminar-circuits", "--check", "lem-mnk",
                     "--json"]) == 0
        sweep, fixed = json.loads(capsys.readouterr().out)
        assert (sweep["swept"], sweep["distinct"]) == (200, 117)
        assert "swept" not in fixed and "distinct" not in fixed

    def test_unknown_check(self, capsys):
        assert main(["verify", "--check", "bogus"]) == 2


class TestCorpus:
    def test_corpus_writes_files(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        assert main(["corpus", "--seed", "3", "--count", "5",
                     "--max-elements", "5", "-o", str(out_dir)]) == 0
        files = sorted(out_dir.glob("corpus-*.matroid"))
        assert files
        for f in files:
            parse_matroid(f.read_text())

    def test_members_are_primed_before_writing(self, tmp_path, monkeypatch):
        """One stacked pass finds every member's cyclic flats before the
        first file is written."""
        written = []

        def serialize(M):
            assert "cyclic_flats" in M._cache
            written.append(M)
            return serialize_matroid(M)

        monkeypatch.setattr(cli, "serialize_matroid", serialize)
        assert main(["corpus", "--seed", "3", "--count", "10",
                     "--max-elements", "8", "-o", str(tmp_path / "corpus")]) == 0
        assert len(written) == len(list((tmp_path / "corpus").iterdir())) > 10

    def test_output_bytes_are_pinned(self, tmp_path, capsys):
        # sha256 over each file's name, a NUL and its bytes, in name
        # order, as written before the cyclic flats were stacked
        out_dir = tmp_path / "corpus"
        assert main(["corpus", "--seed", "3", "--count", "40",
                     "--max-elements", "10", "-o", str(out_dir)]) == 0
        digest = hashlib.sha256()
        files = sorted(out_dir.iterdir())
        for f in files:
            digest.update(f.name.encode() + b"\0" + f.read_bytes())
        assert len(files) == 409
        assert digest.hexdigest() == (
            "c869fd91dea898c759e8306db6ec71c9e9225d7b5d58c199ec8c92bb340512ea")

    @pytest.mark.parametrize("count,cap,message", [
        ("5", "0", "max_elements must be at least 3"),
        ("5", "1", "max_elements must be at least 3"),
        ("5", "2", "max_elements must be at least 3"),
        ("-3", "8", "count must be nonnegative"),
    ], ids=["cap-0", "cap-1", "cap-2", "negative-count"])
    def test_invalid_corpus_spec_is_usage_error(self, tmp_path, capsys, count, cap, message):
        out_dir = tmp_path / "corpus"
        assert main(["corpus", "--seed", "0", "--count", count,
                     "--max-elements", cap, "-o", str(out_dir)]) == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()


class TestParserReuse:
    """``main`` builds its argparse parser once per process."""

    def test_append_default_is_not_shared(self, capsys):
        assert main(["verify", "--check", "lem-mnk"]) == 0
        parser = cli.build_parser()
        assert parser.parse_args(["verify", "--seed", "3"]).check is None
        assert parser.parse_args(["verify", "--check", "lem-nb"]).check == ["lem-nb"]
        assert cli.build_parser() is parser

    def test_usage_error_then_good_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["minor", "--host", "h.matroid"])
        assert exc.value.code == 2
        assert "--target" in capsys.readouterr().err
        assert main(["verify", "--check", "lem-mnk"]) == 0
        assert "1/1 checks passed" in capsys.readouterr().out
        assert cli.build_parser.cache_info().currsize == 1

    def test_import_builds_no_parser(self):
        code = ("import lamina.cli as cli; info = cli.build_parser.cache_info(); "
                "print(info.hits + info.misses)")
        assert _fresh_python(code) == "0"


def _fresh_python(code: str) -> str:
    """Stripped stdout of ``code`` run in a new interpreter on this library."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.strip()


def test_library_never_imports_numpy_ma():
    """``np.unique`` imports ``numpy.ma`` lazily, 1.2-1.6 MiB of RSS that
    no diff shows: priming every family and running a check loads none."""
    code = ("import sys, lamina.cli; from lamina import checks, core, corpus; "
            "ms = tuple(corpus.generate_corpus(corpus.CorpusSpec(seed=0, count=20))); "
            "[core.prime(ms, key) for key in core._PASSES]; "
            "print(checks.run_check('lem-mnk').status, 'numpy.ma' in sys.modules)")
    assert _fresh_python(code) == "pass False"


def test_import_fills_no_shared_pool():
    """perfbench's ``setup_s`` times ``import lamina.cli``, so every
    cached function of the library (the corpus catalog, the seed-free
    graph pools, M(K_n) and its 2-connectivity tables, the table of
    graph shapes) is still empty after it."""
    code = ("import json, sys, lamina.cli; print(json.dumps({"
            "f'{f.__module__}.{f.__qualname__}': f.cache_info().currsize "
            "for name, mod in list(sys.modules.items()) if name.startswith('lamina') "
            "for f in vars(mod).values() if hasattr(f, 'cache_info')}))")
    sizes = json.loads(_fresh_python(code))
    assert {"lamina.corpus.catalog_with_minors", "lamina.checks._two_connected_matroids",
            "lamina.checks._graphic_fixed", "lamina.checks._graph_shapes",
            "lamina.checks._complete_graph", "lamina.checks._two_connected"} <= set(sizes)
    assert set(sizes.values()) == {0}, sizes

import contextlib
import errno
import io
import os
import resource
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachsym import (ParseError, SymmetrizationConfig, auto_hierarchy,
                      load_edge_list, symmetrize, write_undirected)
from reachsym import cli, similarity
from reachsym.cli import main

from conftest import (oracle_symmetrize, powerlaw_digraph, write_edge_list,
                      write_undirected_by_fstrings)


def write(path, text):
    path.write_text(text)
    return str(path)


CHAIN = "a\tb\nb\tc\n"
TWO_SOURCES = "u\tw\nv\tw\n"
# main() in a fresh interpreter, without the entry point.
IN_PROCESS = ["-c", "import sys, reachsym.cli as c; sys.exit(c.main(sys.argv[1:]))"]


def run_python(argv, **env):
    """``python *argv`` with the package on the path and ``env`` set."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=path, **env))


class TestSymmetrizeCommand:
    def test_reach_defaults(self, tmp_path, capsys):
        inp = write(tmp_path / "g.tsv", TWO_SOURCES)
        assert main(["symmetrize", "-i", inp]) == 0
        out, err = capsys.readouterr()
        assert out == "u\tv\t0.707107\n"
        assert "nodes=3" in err and "self_loops_dropped=0" in err

    def test_output_file(self, tmp_path):
        inp = write(tmp_path / "g.tsv", TWO_SOURCES)
        dst = tmp_path / "u.tsv"
        assert main(["symmetrize", "--method", "reach", "--l", "2",
                     "--alpha", "0.5", "--beta", "0.5",
                     "-i", inp, "-o", str(dst)]) == 0
        assert dst.read_text() == "u\tv\t0.707107\n"

    def test_bibliometric_to_stdout(self, tmp_path, capsys):
        inp = write(tmp_path / "g.tsv", TWO_SOURCES)
        assert main(["symmetrize", "--method", "bibliometric", "-i", inp]) == 0
        out, _ = capsys.readouterr()
        assert out == "u\tv\t1.000000\n"

    def test_depth_zero_exit_1(self, tmp_path, capsys):
        inp = write(tmp_path / "g.tsv", CHAIN)
        assert main(["symmetrize", "--method", "reach", "--l", "0",
                     "-i", inp]) == 1
        _, err = capsys.readouterr()
        assert "error: depth must be ≥ 1" in err

    @pytest.mark.parametrize("sub", ["symmetrize", "stats"])
    def test_depth_beyond_a_float_runs_as_inf(self, tmp_path, capsys, sub):
        # 400 digits: float(depth) would raise OverflowError
        inp = write(tmp_path / "g.tsv", "a\tb\nb\tc\nc\ta\nc\td\n")
        assert main([sub, "--l", "inf", "-i", inp]) == 0
        want, _ = capsys.readouterr()
        assert main([sub, "--l", "9" * 400, "-i", inp]) == 0
        assert capsys.readouterr()[0] == want

    def test_l_requires_reach(self, tmp_path, capsys):
        inp = write(tmp_path / "g.tsv", CHAIN)
        assert main(["symmetrize", "--method", "bibliometric", "--l", "2",
                     "-i", inp]) == 1
        _, err = capsys.readouterr()
        assert err.startswith("error:")

    @pytest.mark.parametrize("flags, message", [
        (["--threads", "0"], "error: threads must be ≥ 1"),
        (["--l", "abc"], "error: invalid depth 'abc'"),
    ])
    def test_invalid_value_exit_1(self, tmp_path, capsys, flags, message):
        inp = write(tmp_path / "g.tsv", CHAIN)
        assert main(["symmetrize", "-i", inp, *flags]) == 1
        assert assert_one_error_line(capsys) == message

    def test_hierarchy_file_line_with_three_fields_exit_3(self, tmp_path, capsys):
        inp = write(tmp_path / "g.tsv", TWO_SOURCES)
        hf = write(tmp_path / "h.tsv", "u\t0\nv\t0\t9\nw\t1\n")
        assert main(["symmetrize", "--hierarchy", f"file:{hf}", "-i", inp]) == 3
        assert assert_one_error_line(capsys) == \
            "error: line 2: expected `label<TAB>score`"

    def test_gamma_requires_hierarchy(self, tmp_path):
        inp = write(tmp_path / "g.tsv", CHAIN)
        assert main(["symmetrize", "--gamma", "2", "-i", inp]) == 1

    def test_missing_input_exit_2(self, tmp_path):
        assert main(["symmetrize", "-i", str(tmp_path / "nope.tsv")]) == 2

    def test_parse_error_exit_3(self, tmp_path):
        inp = write(tmp_path / "g.tsv", "oops\n")
        assert main(["symmetrize", "-i", inp]) == 3

    def test_depth_one_byte_identical_to_degree_discounted(self, tmp_path):
        rng = np.random.default_rng(53)
        lines = [f"n{int(u)}\tn{int(v)}"
                 for u, v in rng.integers(0, 40, size=(150, 2)) if u != v]
        inp = write(tmp_path / "g.tsv", "\n".join(lines) + "\n")
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert main(["symmetrize", "--method", "reach", "--l", "1",
                     "-i", inp, "-o", str(a)]) == 0
        assert main(["symmetrize", "--method", "degree-discounted",
                     "-i", inp, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("given, explicit", [
        ([], ["--method", "reach", "--l", "2", "--alpha", "0.5", "--beta", "0.5",
              "--epsilon", "0"]),
        (["--hierarchy", "auto"], ["--gamma", "1", "--delta", "1"])],
        ids=["plain", "auto"])
    def test_flags_not_given_take_the_config_defaults(self, tmp_path, given,
                                                      explicit):
        rng = np.random.default_rng(61)
        lines = [f"n{int(u)}\tn{int(v)}"
                 for u, v in rng.integers(0, 40, size=(150, 2)) if u != v]
        inp = write(tmp_path / "g.tsv", "\n".join(lines) + "\n")
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert main(["symmetrize", *given, "-i", inp, "-o", str(a)]) == 0
        assert main(["symmetrize", *given, *explicit, "-i", inp, "-o", str(b)]) == 0
        with open(inp, encoding="utf-8") as f:
            g = load_edge_list(f)
        lib = io.BytesIO()
        write_undirected(symmetrize(g, SymmetrizationConfig(),
                                    auto_hierarchy(g) if given else None),
                         g.labels, lib)
        assert a.read_bytes() == b.read_bytes() == lib.getvalue()
        assert len(lib.getvalue().splitlines()) > 100

    def test_threads_do_not_change_bytes(self, tmp_path):
        rng = np.random.default_rng(59)
        lines = [f"{int(u)}\t{int(v)}"
                 for u, v in rng.integers(0, 60, size=(300, 2)) if u != v]
        inp = write(tmp_path / "g.tsv", "\n".join(lines) + "\n")
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert main(["symmetrize", "-i", inp, "-o", str(a), "--threads", "1"]) == 0
        assert main(["symmetrize", "-i", inp, "-o", str(b), "--threads", "4"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_hierarchy_file_mode(self, tmp_path, capsys):
        inp = write(tmp_path / "g.tsv", TWO_SOURCES)
        hf = write(tmp_path / "h.tsv", "u\t0\nv\t0\nw\t1\n")
        assert main(["symmetrize", "--l", "1",
                     "--hierarchy", f"file:{hf}",
                     "--gamma", "0", "--delta", "1", "-i", inp]) == 0
        out, _ = capsys.readouterr()
        # distance discount 1/4 applied to the 0.707107 base weight
        assert out == "u\tv\t0.176777\n"

    def test_weighted_input(self, tmp_path, capsys):
        inp = write(tmp_path / "g.tsv", "u\tw\t2\nv\tw\t3\n")
        assert main(["symmetrize", "--method", "degree-discounted",
                     "--weighted", "-i", inp]) == 0
        out, _ = capsys.readouterr()
        expect = (6 / 5 ** 0.5) / (6 ** 0.5)
        assert out == f"u\tv\t{expect:.6f}\n"

    def test_oracle_flag_agrees_with_sparse(self, tmp_path):
        """The CLI's default output equals the dense oracle's, written by the
        same writer."""
        rng = np.random.default_rng(61)
        lines = [f"{int(u)}\t{int(v)}"
                 for u, v in rng.integers(0, 25, size=(80, 2)) if u != v]
        inp = write(tmp_path / "g.tsv", "\n".join(lines) + "\n")
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert main(["symmetrize", "-i", inp, "-o", str(a)]) == 0
        with open(inp, encoding="utf-8") as f:
            g = load_edge_list(f)
        with open(b, "wb") as f:
            write_undirected(oracle_symmetrize(g, SymmetrizationConfig()),
                             g.labels, f)
        assert a.read_text() == b.read_text()

    def test_top_t_and_epsilon_flags(self, tmp_path, capsys):
        inp = write(tmp_path / "g.tsv", TWO_SOURCES)
        assert main(["symmetrize", "-i", inp, "--epsilon", "10"]) == 0
        out, _ = capsys.readouterr()
        assert out == ""
        assert main(["symmetrize", "-i", inp, "--top-t", "1"]) == 0
        out, _ = capsys.readouterr()
        assert out == "u\tv\t0.707107\n"


class TestHierarchyCommand:
    def test_chain_scores(self, tmp_path, capsys):
        inp = write(tmp_path / "g.tsv", CHAIN)
        assert main(["hierarchy", "-i", inp]) == 0
        out, _ = capsys.readouterr()
        assert out == "a\t0.000000\nb\t0.500000\nc\t1.000000\n"

    def test_cycle_scores_zero(self, tmp_path, capsys):
        inp = write(tmp_path / "g.tsv", "a\tb\nb\tc\nc\ta\n")
        assert main(["hierarchy", "-i", inp]) == 0
        out, _ = capsys.readouterr()
        assert out == "a\t0.000000\nb\t0.000000\nc\t0.000000\n"

    def test_missing_input_exit_2(self, tmp_path):
        assert main(["hierarchy", "-i", str(tmp_path / "nope.tsv")]) == 2


class TestStatsCommand:
    def test_empty_file(self, tmp_path, capsys):
        inp = write(tmp_path / "g.tsv", "")
        assert main(["stats", "-i", inp]) == 0
        out, _ = capsys.readouterr()
        assert "nodes\t0" in out and "edges\t0" in out

    def test_chain_closure_degrees(self, tmp_path, capsys):
        inp = write(tmp_path / "g.tsv", CHAIN)
        assert main(["stats", "-i", inp, "--l", "2"]) == 0
        out, _ = capsys.readouterr()
        # closure out-degrees are 2, 1, 0: one node each
        assert "closure_out_degree\t0\t1" in out
        assert "closure_out_degree\t1\t1" in out
        assert "closure_out_degree\t2\t1" in out

    def test_in_degree_histogram(self, tmp_path, capsys):
        inp = write(tmp_path / "g.tsv", "b\tc\nc\td\na\tc\n")
        assert main(["stats", "-i", inp]) == 0
        out, _ = capsys.readouterr()
        # in-degrees: b 0, c 2, d 1, a 0 (the last node)
        assert [ln for ln in out.splitlines() if ln.startswith("in_degree")] == \
            ["in_degree\t0\t2", "in_degree\t1\t1", "in_degree\t2\t1"]

    def test_self_loops_reported(self, tmp_path, capsys):
        inp = write(tmp_path / "g.tsv", "a\ta\n")
        assert main(["stats", "-i", inp]) == 0
        out, _ = capsys.readouterr()
        assert "nodes\t1" in out and "self_loops_dropped\t1" in out

    def test_bad_depth_exit_1(self, tmp_path, capsys):
        inp = write(tmp_path / "g.tsv", CHAIN)
        assert main(["stats", "-i", inp, "--l", "0"]) == 1
        assert assert_one_error_line(capsys) == "error: depth must be ≥ 1"

    def test_lines_in_order(self, tmp_path, capsys):
        inp = write(tmp_path / "g.tsv", CHAIN)
        assert main(["stats", "-i", inp, "--l", "2"]) == 0
        assert capsys.readouterr().out == (
            "nodes\t3\nedges\t2\nself_loops_dropped\t0\n"
            "out_degree\t0\t1\nout_degree\t1\t2\n"
            "in_degree\t0\t1\nin_degree\t1\t2\n"
            "closure_out_degree\t0\t1\nclosure_out_degree\t1\t1\n"
            "closure_out_degree\t2\t1\n"
            "closure_in_degree\t0\t1\nclosure_in_degree\t1\t1\n"
            "closure_in_degree\t2\t1\n")

    def test_memory_exhausted_prints_no_line(self, tmp_path, capsys,
                                             monkeypatch):
        """stats writes all its lines or none: a closure that runs out of
        memory leaves stdout empty, after the counts are known."""
        def local_closure(g, l):
            raise MemoryError

        monkeypatch.setattr(cli, "local_closure", local_closure)
        inp = write(tmp_path / "g.tsv", CHAIN)
        assert main(["stats", "-i", inp, "--l", "2"]) == 1
        assert assert_one_error_line(capsys) == (
            "error: out of memory; a smaller --l keeps a smaller closure")


class TestUsageErrors:
    def test_unknown_method_exit_1(self, tmp_path, capsys):
        inp = write(tmp_path / "g.tsv", CHAIN)
        assert main(["symmetrize", "--method", "mystery", "-i", inp]) == 1
        _, err = capsys.readouterr()
        assert err.startswith("error:")

    def test_unknown_hierarchy_value(self, tmp_path):
        inp = write(tmp_path / "g.tsv", CHAIN)
        assert main(["symmetrize", "--hierarchy", "bogus", "-i", inp]) == 1


def assert_one_error_line(capsys):
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "Traceback" not in err
    return lines[0]


class TestRejectedInputs:
    def test_invalid_utf8_input_is_parse_error(self, tmp_path, capsys):
        inp = tmp_path / "g.tsv"
        inp.write_bytes(b"a\tb\nb\tc\xff\n")
        assert main(["symmetrize", "-i", str(inp)]) == 3
        assert "line 2" in assert_one_error_line(capsys)

    @pytest.mark.parametrize("data, line", [
        (b"a\tb\r\nb\tc\r\n\xff\td\r\n", 3),
        (b"a\tb\n\xe8\x8a\nc\td\n", 2),  # a sequence cut by the newline
        (b"a\tb\nb\t\xed\xa0\x80\n", 2),  # an encoded surrogate
        (b"#\xff\na\tb\n", 1),  # in a comment
        (b"a\tb\rc\td\r\xff\n", 3),  # a lone \r ends a line, as in the parser
    ], ids=["crlf", "cut", "surrogate", "comment", "lone-cr"])
    def test_invalid_utf8_keeps_its_line_number(self, tmp_path, capsys, data,
                                                line):
        inp = tmp_path / "g.tsv"
        inp.write_bytes(data)
        assert main(["symmetrize", "-i", str(inp)]) == 3
        assert assert_one_error_line(capsys) == \
            f"error: line {line}: invalid UTF-8 in {inp}"
        # The library checks the bytes too, and numbers the line alike.
        with pytest.raises(ParseError, match=f"^line {line}: invalid UTF-8 in "
                           "the stream$"):
            load_edge_list(io.BytesIO(data))
        # A str is the caller's own text: a lone surrogate in it still parses.
        assert load_edge_list(io.StringIO("a\ud800\tb\n")).labels == [
            "a\ud800", "b"]

    def test_missing_scores_file_fails_before_the_input_is_read(
            self, tmp_path, capsys, monkeypatch):
        def parse(*args, **kwargs):
            raise AssertionError("the input was parsed")

        monkeypatch.setattr(cli, "load_edge_list", parse)
        inp = write(tmp_path / "g.tsv", TWO_SOURCES)
        scores = tmp_path / "scores.tsv"
        assert main(["symmetrize", "--hierarchy", f"file:{scores}",
                     "-i", inp]) == 2
        assert assert_one_error_line(capsys).endswith(f"'{scores}'")

    def test_invalid_utf8_hierarchy_file_is_parse_error(self, tmp_path, capsys):
        inp = write(tmp_path / "g.tsv", TWO_SOURCES)
        hf = tmp_path / "h.tsv"
        hf.write_bytes(b"u\t0\n\xff\t1\nw\t1\n")
        assert main(["symmetrize", "--hierarchy", f"file:{hf}", "-i", inp]) == 3
        assert "line 2" in assert_one_error_line(capsys)

    @pytest.mark.parametrize("value", ["-1", "18", "400", "six"])
    def test_precision_out_of_range(self, tmp_path, capsys, value):
        inp = write(tmp_path / "g.tsv", TWO_SOURCES)
        assert main(["symmetrize", "-i", inp, "--precision", value]) == 1
        assert "--precision" in assert_one_error_line(capsys)
        assert main(["hierarchy", "-i", inp, "--precision", value]) == 1
        assert_one_error_line(capsys)

    def test_precision_bounds_accepted(self, tmp_path, capsys):
        inp = write(tmp_path / "g.tsv", TWO_SOURCES)
        assert main(["symmetrize", "-i", inp, "--precision", "0"]) == 0
        assert capsys.readouterr()[0] == "u\tv\t1\n"
        assert main(["symmetrize", "-i", inp, "--precision", "17"]) == 0
        assert capsys.readouterr()[0] == f"u\tv\t{0.5 ** 0.5:.17f}\n"

    @pytest.mark.parametrize("method", ["reach", "bibliometric"])
    def test_weighted_rejected_where_ignored(self, tmp_path, capsys, method):
        inp = write(tmp_path / "g.tsv", "u\tw\t2\nv\tw\t3\n")
        assert main(["symmetrize", "--method", method, "--weighted",
                     "-i", inp]) == 1
        assert "--weighted" in assert_one_error_line(capsys)

    @pytest.mark.parametrize("sub", ["hierarchy", "stats"])
    def test_weighted_unknown_where_weights_are_unused(self, tmp_path, capsys,
                                                       sub):
        inp = write(tmp_path / "g.tsv", "u\tw\t2\nv\tw\t3\n")
        assert main([sub, "--weighted", "-i", inp]) == 1
        assert "--weighted" in assert_one_error_line(capsys)

    @pytest.mark.parametrize("sub", ["hierarchy", "stats"])
    def test_weight_column_is_ignored(self, tmp_path, capsys, sub):
        two = write(tmp_path / "two.tsv", "u\tw\nv\tw\nw\tx\nw\tx\n")
        three = write(tmp_path / "three.tsv", "u\tw\t2\nv\tw\t3\nw\tx\t0.5\nw\tx\t1\n")
        assert main([sub, "-i", two]) == 0
        want = capsys.readouterr().out
        assert main([sub, "-i", three]) == 0
        assert capsys.readouterr().out == want != ""


    @pytest.mark.parametrize("flags", [
        ["--alpha", "-1"], ["--threads", "0"], ["--top-t", "0"],
        ["--hub-cap", "5", "--method", "bibliometric"],
        ["--hierarchy", "bogus"],
        ["--hierarchy", "auto", "--method", "bibliometric"],
        ["--hierarchy", "file:x", "--method", "degree-discounted"]],
        ids=["alpha", "threads", "top-t", "hub-cap", "hierarchy",
             "hierarchy-bibliometric", "hierarchy-degree-discounted"])
    def test_flags_checked_before_the_input_is_read(self, tmp_path, capsys,
                                                    flags):
        missing = str(tmp_path / "nope.tsv")
        assert main(["symmetrize", "-i", missing, *flags]) == 1
        assert "nope.tsv" not in assert_one_error_line(capsys)

    @pytest.mark.parametrize("scores", ["", "# no scores\n"])
    def test_hierarchy_file_on_an_empty_graph(self, tmp_path, capsys, scores):
        inp = write(tmp_path / "g.tsv", "# only a comment\n")
        hf = write(tmp_path / "h.tsv", scores)
        assert main(["symmetrize", "--hierarchy", f"file:{hf}", "--top-t", "2",
                     "-i", inp]) == 0
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("nodes=0 edges=0 undirected_edges=0")

    @pytest.mark.parametrize("method", ["degree-discounted", "bibliometric"])
    def test_hub_cap_rejected_for_first_order(self, tmp_path, capsys, method):
        inp = write(tmp_path / "g.tsv", "u\tw\nv\tw\nx\tu\nx\tv\n")
        assert main(["symmetrize", "--method", method, "--hub-cap", "1",
                     "-i", inp]) == 1
        assert "hub_cap" in assert_one_error_line(capsys)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_hierarchy_score(self, tmp_path, capsys, score):
        inp = write(tmp_path / "g.tsv", TWO_SOURCES)
        hf = write(tmp_path / "h.tsv", f"u\t0\nv\t{score}\nw\t1\n")
        assert main(["symmetrize", "--hierarchy", f"file:{hf}", "-i", inp]) == 3
        assert assert_one_error_line(capsys) == \
            f"error: line 2: non-finite score '{score}'"

    @pytest.mark.parametrize("flags, message", [
        (["--hub-cap", "1"], "warning: hub cap 1: skipping 1 common-neighbor"),
        (["--hierarchy", "file:{hf}"],
         "warning: hierarchy file line 2: unknown label 'x' ignored"),
    ])
    def test_warning_is_one_line_without_source(self, tmp_path, flags, message):
        inp = write(tmp_path / "g.tsv", TWO_SOURCES)
        hf = write(tmp_path / "h.tsv", "u\t0\nx\t1\nv\t1\nw\t2\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = ["symmetrize", "-i", inp] + [f.format(hf=hf) for f in flags]
        proc = subprocess.run([sys.executable, "-m", "reachsym", *argv],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 2 and lines[1].startswith("nodes=")
        assert lines[0].startswith(message)
        assert "reachsym" not in lines[0] and ".py" not in lines[0]

    def test_hub_cap_warning_prints_once_for_both_directions(self, tmp_path):
        # Node c is a hub both as a successor and as a predecessor.
        inp = write(tmp_path / "g.tsv", "a\tc\nb\tc\nc\td\nc\te\n")
        proc = run_python(["-m", "reachsym", "symmetrize", "--hub-cap", "1",
                           "--l", "1", "-i", inp])
        assert proc.returncode == 0, proc.stderr
        assert [line for line in proc.stderr.decode().splitlines()
                if line.startswith("warning:")] == \
            ["warning: hub cap 1: skipping 1 common-neighbor node(s)"]

    def test_each_call_prints_its_warning(self, tmp_path):
        # Python prints a warning once per source line; a second call of
        # main in the same process prints it again.
        inp = write(tmp_path / "g.tsv", "a\tc\nb\tc\nc\td\nc\te\n")
        argv = ["symmetrize", "--hub-cap", "1", "-i", inp]
        proc = run_python(["-c", "import sys, reachsym.cli as c\n"
                           "for _ in range(2): c.main(sys.argv[1:])", *argv])
        assert proc.returncode == 0, proc.stderr
        assert [line for line in proc.stderr.decode().splitlines()
                if line.startswith("warning:")] == \
            ["warning: hub cap 1: skipping 3 common-neighbor node(s)"] * 2

    def test_enclosing_recorder_still_gets_warnings(self, tmp_path, capsys):
        inp = write(tmp_path / "g.tsv", TWO_SOURCES)
        before = warnings.formatwarning
        with pytest.warns(UserWarning, match="hub cap 1"):
            assert main(["symmetrize", "--hub-cap", "1", "-i", inp]) == 0
        assert "warning" not in capsys.readouterr().err
        assert warnings.formatwarning is before

    @pytest.mark.filterwarnings("error::UserWarning")
    def test_warning_filters_in_force_still_apply(self, tmp_path):
        inp = write(tmp_path / "g.tsv", TWO_SOURCES)
        with pytest.raises(UserWarning, match="hub cap"):
            main(["symmetrize", "--hub-cap", "1", "-i", inp])

    def test_warning_made_an_error_by_w_error_is_one_error_line(self, tmp_path):
        inp = write(tmp_path / "g.tsv", TWO_SOURCES)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "reachsym",
                               "symmetrize", "--hub-cap", "1", "-i", inp],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=path))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.splitlines() == [
            "error: hub cap 1: skipping 1 common-neighbor node(s)"]

    @pytest.mark.filterwarnings("error")
    def test_hierarchy_score_range_overflowing_a_double(self, tmp_path, capsys):
        inp = write(tmp_path / "g.tsv", TWO_SOURCES)
        huge = write(tmp_path / "huge.tsv", "u\t-1e308\nv\t0\nw\t1e308\n")
        small = write(tmp_path / "small.tsv", "u\t0\nv\t1\nw\t2\n")
        assert main(["symmetrize", "--hierarchy", f"file:{huge}", "-i", inp]) == 0
        got = capsys.readouterr().out
        assert main(["symmetrize", "--hierarchy", f"file:{small}", "-i", inp]) == 0
        assert got == capsys.readouterr().out != ""

    def test_duplicate_hierarchy_label(self, tmp_path, capsys):
        inp = write(tmp_path / "g.tsv", TWO_SOURCES)
        hf = write(tmp_path / "h.tsv", "u\t1\nv\t2\nw\t3\nu\t9\n")
        assert main(["symmetrize", "--hierarchy", f"file:{hf}", "-i", inp]) == 3
        assert assert_one_error_line(capsys) == \
            "error: line 4: duplicate score for label 'u'"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, node", [
        ("a\tb\t1e308\na\tb\t1e308\nc\tb\t1\na\td\t1\n", "a"),
        ("a\tc\t1e308\nb\tc\t1e308\n", "c"),
    ])
    def test_overflowing_weighted_degree(self, tmp_path, capsys, text, node):
        inp = write(tmp_path / "g.tsv", text)
        assert main(["symmetrize", "--method", "degree-discounted", "--weighted",
                     "-i", inp]) == 1
        assert f"node '{node}'" in assert_one_error_line(capsys)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, exponent, pair", [
        pytest.param("a\tc\t1e-300\nb\tc\t1e-300\n", "2", "('a', 'b')",
                     id="discount-overflows"),
        pytest.param("a\tc\t1e200\nb\tc\t1e200\n", "0", "('a', 'b')",
                     id="product-overflows"),
        pytest.param("a\tc\t1e300\na\td\t1e-300\nb\td\t1e-300\n", "2",
                     "('a', 'b')", id="inf-times-zero"),
        # The first non-finite pair is pair 1, and its row is node 3.
        pytest.param("a\tc\t1\nb\tc\t1\nd\tf\t1e-300\ne\tf\t1e-300\n", "2",
                     "('d', 'e')", id="past-row-0"),
    ])
    def test_non_finite_pair_weight(self, tmp_path, capsys, text, exponent,
                                    pair):
        inp = write(tmp_path / "g.tsv", text)
        assert main(["symmetrize", "--method", "degree-discounted", "--weighted",
                     "--alpha", exponent, "--beta", exponent, "-i", inp]) == 1
        assert assert_one_error_line(capsys) == \
            f"error: weight of pair {pair} is not finite"


# Flag values, bad ones among them, and input tokens: line ends of each kind,
# comments, NUL, bytes that are not UTF-8, non-ASCII labels and numbers that
# do not parse or do not fit.
FUZZ_VALUES = ["", "x", "-1", "0", "1", "3", "0.5", "inf", "nan", "1e308",
               "99999999999999999999"]
FUZZ_FLAGS = {"symmetrize": ["--l", "--alpha", "--beta", "--gamma", "--delta",
                             "--epsilon", "--top-t", "--hub-cap", "--threads",
                             "--precision"],
              "hierarchy": ["--precision"],
              "stats": ["--l"]}
FUZZ_TOKENS = [b"a", b"b", b"c", b"7", b"", b"#", b"\0", b"\xff",
               "\u00e9\u8282\u70b9".encode(), b"1e309", b"nan", b"-1", b"0.5"]
# A line is tab-separated tokens, or tokens run together with a tab or a line
# end among them.
fuzz_line = st.one_of(
    st.lists(st.sampled_from(FUZZ_TOKENS), min_size=1, max_size=4).map(b"\t".join),
    st.lists(st.sampled_from(FUZZ_TOKENS + [b"\t", b"\r"]), max_size=6).map(b"".join))
fuzz_bytes = st.lists(st.tuples(fuzz_line, st.sampled_from([b"\n", b"\r\n", b"\r"])),
                      max_size=12).map(lambda lines: b"".join(a + b for a, b in lines))


@st.composite
def fuzz_argv(draw, root):
    """argv for one subcommand with random flags, reading ``root/in.tsv``;
    ``--hierarchy file:`` reads ``root/scores.tsv``."""
    sub = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv = [sub, "-i", os.path.join(root, "in.tsv")]
    flags = draw(st.dictionaries(st.sampled_from(FUZZ_FLAGS[sub]),
                                 st.sampled_from(FUZZ_VALUES), max_size=2))
    for flag, value in flags.items():
        argv += [flag, value]
    if sub == "symmetrize":
        argv += draw(st.sampled_from(
            [[], ["--method", "reach"], ["--method", "degree-discounted"],
             ["--method", "degree-discounted", "--weighted"],
             ["--method", "bibliometric"], ["--method", "bogus"], ["--weighted"]]))
        argv += ["--hierarchy", draw(st.sampled_from(
            ["none", "auto", "file:" + os.path.join(root, "scores.tsv"),
             "file:" + os.path.join(root, "missing.tsv"), "bogus"]))]
    if sub != "stats":
        output = draw(st.sampled_from(
            [None, "out.tsv", ".", os.path.join("missing", "out.tsv")]))
        argv += [] if output is None else ["-o", os.path.join(root, output)]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_fuzzed_argv_keeps_the_exit_contract(fuzz_dir, data):
    # Any argv and any input ends in exit 0, 1, 2 or 3, with one error line
    # when it fails, none when it succeeds, and never a traceback.
    argv = data.draw(fuzz_argv(str(fuzz_dir)), label="argv")
    (fuzz_dir / "in.tsv").write_bytes(data.draw(fuzz_bytes, label="input"))
    (fuzz_dir / "scores.tsv").write_bytes(data.draw(fuzz_bytes, label="scores"))
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    errors = [line for line in err.getvalue().split("\n") if line.startswith("error:")]
    assert len(errors) == (1 if code else 0), err.getvalue()
    assert "Traceback" not in err.getvalue()


def _check_ascii_stdout(tmp_path, sub, launcher):
    """``python <launcher> <sub> -i g.tsv``, run with an ASCII stdout
    encoding over a non-ASCII label, prints the bytes that -o writes, or for
    stats (which has no -o) the bytes of a run under UTF-8."""
    inp = tmp_path / "g.tsv"
    inp.write_text("节点\tc\nb\tc\n", encoding="utf-8")
    if sub == "stats":
        want = run_python(["-m", "reachsym", sub, "-i", str(inp)],
                          PYTHONIOENCODING="utf-8").stdout
    else:
        dst = tmp_path / "out.tsv"
        assert main([sub, "-i", str(inp), "-o", str(dst)]) == 0
        want = dst.read_bytes()
        assert "节点".encode("utf-8") in want
    proc = run_python([*launcher, sub, "-i", str(inp)], PYTHONIOENCODING="ascii")
    assert proc.returncode == 0, proc.stderr
    assert b"Traceback" not in proc.stderr
    assert proc.stdout == want != b""


@pytest.mark.parametrize("sub", ["symmetrize", "hierarchy", "stats"])
def test_stdout_is_utf8_whatever_the_locale(tmp_path, sub):
    """stdout carries the bytes that -o writes, also when Python's stdout
    encoding is ASCII."""
    _check_ascii_stdout(tmp_path, sub, ["-m", "reachsym"])


@pytest.mark.parametrize("sub", ["symmetrize", "hierarchy", "stats"])
def test_in_process_main_writes_utf8_stdout(tmp_path, sub):
    """main() called in-process, without the entry point, also prints UTF-8
    under an ASCII stdout encoding."""
    _check_ascii_stdout(tmp_path, sub, IN_PROCESS)


@pytest.mark.parametrize("launcher", [["-m", "reachsym"], IN_PROCESS],
                         ids=["module", "in-process"])
@pytest.mark.parametrize("sub", ["symmetrize", "hierarchy", "stats",
                                 pytest.param(None, id="reachsym")])
def test_help_is_utf8_whatever_the_locale(sub, launcher):
    """--help under an ASCII stdout encoding exits 0 and prints the bytes it
    prints under UTF-8."""
    argv = [sub, "--help"] if sub else ["--help"]
    want = run_python(["-m", "reachsym", *argv], PYTHONIOENCODING="utf-8")
    proc = run_python([*launcher, *argv], PYTHONIOENCODING="ascii")
    assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr
    assert proc.stdout == want.stdout != b""
    if sub == "symmetrize":  # the only help text that is not ASCII
        assert "≥".encode("utf-8") in proc.stdout


@pytest.mark.parametrize("text", [
    "a\tc\r\nb\tc\r\n", "a\tc\rb\tc\r", "\ufeffa\tc\nb\tc\n",
    "a\0\tc\na\tc\nb\0\tc\n", "节点\tc\né\tc\n",
    "".join(f"{'w' * 63}{i}\tc\n" for i in range(3)),
    "".join(f"{'w' * 64}{i}\tc\n" for i in range(3))],
    ids=["crlf", "lone-cr", "bom", "nul", "non-ascii", "64B", "65B"])
def test_labels_keep_their_bytes_on_stdout_and_in_a_file(tmp_path, capsysbinary,
                                                         text):
    """The input's labels come out as they went in, on stdout and with -o:
    the bytes of the file read in text mode and written line by line."""
    inp = tmp_path / "g.tsv"
    inp.write_bytes(text.encode())
    dst = tmp_path / "out.tsv"
    assert main(["symmetrize", "-i", str(inp), "-o", str(dst)]) == 0
    assert main(["symmetrize", "-i", str(inp)]) == 0
    out = capsysbinary.readouterr().out
    with open(inp, encoding="utf-8") as f:
        g = load_edge_list(f)
    want = io.BytesIO()
    write_undirected_by_fstrings(symmetrize(g, SymmetrizationConfig()),
                                 g.labels, want)
    assert dst.read_bytes() == out == want.getvalue() != b""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the import's VmPeak from /proc")
def test_memory_exhausted_is_one_error_line(tmp_path):
    """A run that exhausts its address space is exit 1 and one error line
    naming the flags that keep fewer pairs, without a traceback.  The limit
    is set on the child alone: its import's footprint and 64 MB, where the
    run needs over 100 MB more (3.6 M pairs)."""
    inp = tmp_path / "g.tsv"
    with open(inp, "w", encoding="utf-8") as f:
        write_edge_list(powerlaw_digraph(3000, 9000, 0.45, seed=1), f)
    # One BLAS thread: a pool that cannot map its buffers under the limit
    # would spin instead of failing.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   os.path.dirname(os.path.dirname(cli.__file__)),
                   os.environ.get("PYTHONPATH")])))
    peak = subprocess.run(
        [sys.executable, "-c", "import reachsym.cli; print(open("
         "'/proc/self/status').read().split('VmPeak:')[1].split()[0])"],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    limit = int(peak.stdout) * 1024 + (64 << 20)

    def limited():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run([sys.executable, "-m", "reachsym", "symmetrize",
                           "--l", "3", "-i", str(inp), "-o", os.devnull],
                          capture_output=True, text=True, env=env, timeout=120,
                          preexec_fn=limited)
    assert (proc.returncode, proc.stderr.splitlines()) == (1, [
        "error: out of memory; --hub-cap or a smaller --l keep fewer pairs"])


@pytest.mark.parametrize("argv, where, hint", [
    (["symmetrize", "--top-t", "3"], "symmetrize",
     "; --hub-cap or a smaller --l keep fewer pairs"),
    (["symmetrize", "--method", "degree-discounted"], "symmetrize", ""),
    (["hierarchy"], "auto_hierarchy", ""),
    (["stats"], "_load_graph", "")],
    ids=["reach", "first-order", "hierarchy", "stats-without-l"])
def test_memory_hint_names_only_what_lowers_the_peak(tmp_path, capsys, monkeypatch,
                                                     argv, where, hint):
    """--top-t and --epsilon cut the pairs after they all exist, and the
    first-order methods and the parse take neither --l nor --hub-cap."""
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, where, exhausted)
    inp = write(tmp_path / "g.tsv", CHAIN)
    assert main(argv + ["-i", inp]) == 1
    assert assert_one_error_line(capsys) == f"error: out of memory{hint}"


def test_products_map_failing_is_out_of_memory(tmp_path, capsys, monkeypatch):
    """The products' buffer is an anonymous map, whose failure is an
    OSError (ENOMEM), not numpy's MemoryError: it is out of memory too."""
    def exhausted(*args, **kwargs):
        raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

    monkeypatch.setattr(similarity.mmap, "mmap", exhausted)
    inp = write(tmp_path / "g.tsv", TWO_SOURCES)
    assert main(["symmetrize", "-i", inp]) == 1
    assert assert_one_error_line(capsys) == (
        "error: out of memory; --hub-cap or a smaller --l keep fewer pairs")


class _FailsOnce(io.RawIOBase):
    """A pipe whose reader has gone, for the first write only."""

    def __init__(self):
        self.failed = False

    def writable(self):
        return True

    def write(self, b):
        if not self.failed:
            self.failed = True
            raise BrokenPipeError(32, "Broken pipe")
        return len(b)


@pytest.mark.parametrize("encoding", ["utf-8", "ascii"])
def test_failed_stdout_write_is_one_error_line(tmp_path, capsys, monkeypatch,
                                               encoding):
    """A write to stdout that fails is exit 2 with one error line, whatever
    stdout's text encoding."""
    inp = write(tmp_path / "g.tsv", TWO_SOURCES)
    stdout = io.TextIOWrapper(io.BufferedWriter(_FailsOnce()), encoding=encoding)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["symmetrize", "-i", inp]) == 2
    assert sys.stdout is stdout
    assert assert_one_error_line(capsys) == "error: [Errno 32] Broken pipe"


class _Recorder(io.RawIOBase):
    """A pipe that keeps what each write to it hands over."""

    def __init__(self):
        self.writes = []

    def writable(self):
        return True

    def write(self, b):
        self.writes.append(bytes(b))
        return len(b)


def test_ascii_stdout_is_written_line_by_line(tmp_path, monkeypatch):
    """Under an ASCII stdout, main() writes hierarchy's UTF-8 lines through
    to stdout's buffer one at a time, not as one string, and its commands
    see the caller's own stdout."""
    inp = tmp_path / "g.tsv"
    inp.write_text("".join(f"节点{i}\t{i + 1}\n" for i in range(200)),
                   encoding="utf-8")
    dst = tmp_path / "out.tsv"
    assert main(["hierarchy", "-i", str(inp), "-o", str(dst)]) == 0
    raw = _Recorder()
    stdout = io.TextIOWrapper(io.BufferedWriter(raw, buffer_size=16),
                              encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    seen, scores = [], cli.auto_hierarchy

    def auto_hierarchy(g):
        seen.append(sys.stdout)
        return scores(g)

    monkeypatch.setattr(cli, "auto_hierarchy", auto_hierarchy)
    assert main(["hierarchy", "-i", str(inp)]) == 0
    assert sys.stdout is stdout and seen == [stdout]
    assert b"".join(raw.writes) == dst.read_bytes()
    assert len(raw.writes) > 100 and max(map(len, raw.writes)) < 64


class _NoText(io.TextIOWrapper):
    """A stdout whose text layer refuses every write: only its binary buffer
    may be written."""

    def write(self, s):
        raise AssertionError(f"text written to stdout: {s!r}")


@pytest.mark.parametrize("argv", [["symmetrize", "-i"], ["hierarchy", "-i"],
                                  ["stats", "-i"], ["symmetrize", "--help"],
                                  ["--help"]],
                         ids=["symmetrize", "hierarchy", "stats", "help",
                              "reachsym-help"])
def test_main_keeps_the_callers_stdout(tmp_path, monkeypatch, argv):
    """main() runs and returns with the caller's own sys.stdout object, and
    writes every stdout byte to its buffer: the bytes of a UTF-8 run."""
    if argv[-1] == "-i":
        (tmp_path / "g.tsv").write_bytes("节点\tc\nb\tc\n".encode())
        argv = argv + [str(tmp_path / "g.tsv")]
    want = run_python(["-m", "reachsym", *argv], PYTHONIOENCODING="utf-8").stdout
    raw = _Recorder()
    stdout = _NoText(io.BufferedWriter(raw), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    seen, emit = [], cli._emit

    def spy(path, write_fn):
        seen.append(sys.stdout)
        return emit(path, write_fn)

    monkeypatch.setattr(cli, "_emit", spy)
    try:
        code = main(argv)
    except SystemExit as e:  # --help
        code = e.code
    assert code == 0 and sys.stdout is stdout and seen == [stdout]
    stdout.buffer.flush()
    assert b"".join(raw.writes) == want != b""


@pytest.mark.parametrize("encoding", ["utf-8", "ascii"])
@pytest.mark.parametrize("argv", [["symmetrize", "-i"], ["stats", "-i"],
                                  ["hierarchy", "-i"], ["symmetrize", "--help"]],
                         ids=["symmetrize", "stats", "hierarchy", "help"])
def test_closed_stdout_pipe_is_one_error_line(tmp_path, argv, encoding):
    """Stdout is a pipe whose reader has exited before the start: whatever
    is left in stdout's buffer at the end, the run is exit 2 and one error
    line, with no report of a failed flush at exit."""
    if argv[-1] == "-i":
        argv = argv + [write(tmp_path / "g.tsv", TWO_SOURCES)]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=path, PYTHONIOENCODING=encoding)
    read, write_end = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "reachsym", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode().splitlines()) == \
        (2, ["error: [Errno 32] Broken pipe"])


class TestOutputFile:
    def run(self, tmp_path, dst):
        inp = write(tmp_path / "g.tsv", TWO_SOURCES)
        return main(["symmetrize", "-i", inp, "-o", str(dst)])

    def test_failed_write_keeps_previous_file(self, tmp_path, capsys,
                                              monkeypatch):
        def failing_writer(result, labels, f, precision):
            f.write(b"u\tv\t0.7")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_undirected", failing_writer)
        dst = tmp_path / "u.tsv"
        dst.write_bytes(b"previous\toutput\n")
        assert self.run(tmp_path, dst) == 2
        assert "disk full" in assert_one_error_line(capsys)
        assert dst.read_bytes() == b"previous\toutput\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.tsv", "u.tsv"]

    def test_replaces_existing_file_without_temp_left(self, tmp_path):
        dst = tmp_path / "u.tsv"
        dst.write_text("previous\n")
        assert self.run(tmp_path, dst) == 0
        assert dst.read_text() == "u\tv\t0.707107\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.tsv", "u.tsv"]

    def test_dev_null_is_written_in_place(self, tmp_path):
        assert self.run(tmp_path, os.devnull) == 0

    def test_new_file_mode_follows_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            assert self.run(tmp_path, tmp_path / "u.tsv") == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "u.tsv").stat().st_mode) == 0o640

    def test_existing_file_keeps_its_mode(self, tmp_path):
        dst = tmp_path / "u.tsv"
        dst.write_text("previous\n")
        dst.chmod(0o604)
        assert self.run(tmp_path, dst) == 0
        assert stat.S_IMODE(dst.stat().st_mode) == 0o604

    def test_symlink_target_is_replaced(self, tmp_path):
        real = tmp_path / "real.tsv"
        real.write_text("previous\n")
        link = tmp_path / "link.tsv"
        link.symlink_to(real)
        assert self.run(tmp_path, link) == 0
        assert link.is_symlink() and real.read_text() == "u\tv\t0.707107\n"

    def test_missing_directory_names_the_requested_path(self, tmp_path, capsys):
        dst = tmp_path / "nope" / "u.tsv"
        assert self.run(tmp_path, dst) == 2
        assert assert_one_error_line(capsys).endswith(f"'{dst}'")

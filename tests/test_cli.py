import os
import stat

import numpy as np
import pytest

from reachsym import SymmetrizationConfig, load_edge_list, write_undirected
from reachsym import cli
from reachsym.cli import main

from conftest import oracle_symmetrize


def write(path, text):
    path.write_text(text)
    return str(path)


CHAIN = "a\tb\nb\tc\n"
TWO_SOURCES = "u\tw\nv\tw\n"


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

    def test_l_requires_reach(self, tmp_path, capsys):
        inp = write(tmp_path / "g.tsv", CHAIN)
        assert main(["symmetrize", "--method", "bibliometric", "--l", "2",
                     "-i", inp]) == 1
        _, err = capsys.readouterr()
        assert err.startswith("error:")

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
        with open(b, "w", encoding="utf-8") as f:
            write_undirected(oracle_symmetrize(g, SymmetrizationConfig()), f)
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

    def test_self_loops_reported(self, tmp_path, capsys):
        inp = write(tmp_path / "g.tsv", "a\ta\n")
        assert main(["stats", "-i", inp]) == 0
        out, _ = capsys.readouterr()
        assert "nodes\t1" in out and "self_loops_dropped\t1" in out

    def test_bad_depth_exit_1(self, tmp_path):
        inp = write(tmp_path / "g.tsv", CHAIN)
        assert main(["stats", "-i", inp, "--l", "0"]) == 1


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


class TestOutputFile:
    def run(self, tmp_path, dst):
        inp = write(tmp_path / "g.tsv", TWO_SOURCES)
        return main(["symmetrize", "-i", inp, "-o", str(dst)])

    def test_failed_write_keeps_previous_file(self, tmp_path, capsys,
                                              monkeypatch):
        def failing_writer(result, f, precision):
            f.write("u\tv\t0.7")
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

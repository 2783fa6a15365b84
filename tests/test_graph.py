import argparse
import io
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reachsym import (DirectedGraph, ParseError, ValidationError,
                      graph_from_pairs, load_edge_list, write_undirected)

from reachsym import cli, graph
from conftest import (digraphs, load_edge_list_by_lines, pair_set,
                      random_digraph, reach_by_matrix_powers, traced_peak,
                      write_undirected_by_fstrings)
from reference import in_neighbors, out_neighbors, read_undirected


def load(text, weighted=False):
    return load_edge_list(io.StringIO(text), weighted=weighted)


class TestLoadEdgeList:
    def test_minimal_chain(self):
        g = load("a\tb\nb\tc")
        assert g.n == 3
        assert g.labels == ["a", "b", "c"]
        assert [(u, v) for u in range(3) for v in out_neighbors(g, u)] == \
            [(0, 1), (1, 2)]

    def test_self_loop_dropped_and_counted(self):
        g = load("a\ta")
        assert g.n == 1
        assert g.edge_count == 0
        assert g.self_loops_dropped == 1

    def test_duplicate_weighted_edges_sum(self):
        g = load("a\tb\t1\na\tb\t1", weighted=True)
        assert g.edge_count == 1
        assert g.adj[0, 1] == 2.0

    def test_duplicate_unweighted_edges_collapse_to_unit(self):
        g = load("a\tb\na\tb")
        assert g.edge_count == 1
        assert g.adj[0, 1] == 1.0

    def test_comments_and_blank_lines_skipped(self):
        g = load("# header\n\na\tb\n")
        assert g.edge_count == 1

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            load("a\tb\nnot-an-edge")

    def test_missing_weight_column(self):
        with pytest.raises(ValidationError, match="weight column"):
            load("a\tb", weighted=True)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValidationError):
            load("a\tb\t0", weighted=True)
        with pytest.raises(ValidationError):
            load("a\tb\t-3", weighted=True)

    def test_non_numeric_weight(self):
        with pytest.raises(ParseError, match="line 1"):
            load("a\tb\tmany", weighted=True)

    def test_blank_lines_take_no_per_line_memory(self):
        # 4.0 bytes per input byte: the text, its UTF-8 copy and byte masks;
        # an int64 position per line would take 8 bytes per blank line more.
        text = "a\tb\n" + "\n" * 2_000_000 + "b\tc\n"
        stream = io.StringIO(text)
        g, peak = traced_peak(load_edge_list, stream)
        assert g.labels == ["a", "b", "c"] and g.edge_count == 2
        assert peak < 5 * len(text)
        with pytest.raises(ParseError, match="^line 2000003: expected"):
            load(text + "c\n")

    @pytest.mark.parametrize("line", ["\r\n", "#\r\n"], ids=["blank", "comment"])
    def test_crlf_lines_take_no_per_line_memory(self, line):
        # Line ends become \n before lines are found: 2.0 and 2.7 bytes per
        # input byte (29 and 9.3 when every \r got run arrays of its own).
        text = "a\tb\r\n" + line * 2_000_000 + "b\tc\r\n"
        for stream in (io.StringIO(text, newline=""), io.BytesIO(text.encode())):
            g, peak = traced_peak(load_edge_list, stream)
            assert g.labels == ["a", "b", "c"] and g.edge_count == 2
            assert peak < 5 * len(text)

    def test_comment_lines_take_no_per_line_memory(self, tmp_path):
        # Comment lines are dropped by their first byte before the per-line
        # arrays are built: the same 4.0 bytes per input byte as blank lines
        # (13.5 when each took an int64 start and end).
        text = "a\tb\n" + "#\n" * 2_000_000 + "b\tc\n"
        for stream in (io.StringIO(text), io.BytesIO(text.encode())):
            g, peak = traced_peak(load_edge_list, stream)
            assert g.labels == ["a", "b", "c"] and g.edge_count == 2
            assert peak < 5 * len(text)
        # The CLI's reader, file read included, hands its bytes to the
        # parser: no second copy of the input is held while it runs.
        path = tmp_path / "g.tsv"
        path.write_text(text)
        args = argparse.Namespace(input=str(path), weighted=False)
        g, peak = traced_peak(cli._load_graph, args)
        assert g.edge_count == 2 and peak < 4.5 * len(text)
        with pytest.raises(ParseError, match="^line 2000003: expected"):
            load(text + "c\n")

    def test_interning_is_first_appearance_order(self):
        g = load("z\ty\na\tz")
        assert g.labels == ["z", "y", "a"]
        # The parser keeps the labels as UTF-8 bytes; `labels` decodes them.
        assert load("z\t节\na\tz").raw_labels == "z\n节\na\n".encode()

    @given(digraphs())
    def test_in_out_mirror(self, g):
        for u in range(g.n):
            for v in out_neighbors(g, u).tolist():
                assert u in in_neighbors(g, v).tolist()
        for v in range(g.n):
            for u in in_neighbors(g, v).tolist():
                assert v in out_neighbors(g, u).tolist()


# Few distinct fields, so duplicate edges, self-loops and every error are
# frequent; 0.1/0.2/0.3 sum differently in different orders.
# Labels over 8 bytes, with an interior \r, and "a" beside "a\0", which pad
# alike; weights that only Python's float() reads.
_LABEL = st.sampled_from(["a", "b", "c", "é", "节点", "", " ", "#a", "a" * 9,
                          "节点节点", "a\rb", "a\0", "\0"])
_WEIGHT = st.sampled_from(["1", "0.1", "0.2", "0.3", "1e-300", "2.5", "0", "-1",
                           "nan", "inf", "x", "", " 3 ", "１", "1_0"])
_LINE = st.one_of(
    st.just(""),
    st.lists(_LABEL | _WEIGHT, max_size=3).map(lambda f: "#" + "\t".join(f)),
    st.tuples(_LABEL, _LABEL, _WEIGHT).map("\t".join),
    st.lists(_LABEL | _WEIGHT, min_size=1, max_size=4).map("\t".join))


def parsed(parse, text, weighted, newline=None):
    """Labels, CSR arrays and loop count, or the error's type and text, of
    ``text`` read through ``io.StringIO(text, newline=newline)``."""
    return outcome(lambda: parse(io.StringIO(text, newline=newline),
                                 weighted=weighted))


def outcome(run):
    """Labels, CSR arrays and loop count of ``run()``, or the error's type
    and text."""
    try:
        g = run()
    except (ParseError, ValidationError) as e:
        return type(e), str(e)
    labels, adj, loops = ((g.labels, g.adj, g.self_loops_dropped)
                          if isinstance(g, DirectedGraph) else g)
    return (labels, adj.shape, adj.indptr.tolist(), adj.indices.tolist(),
            adj.indices.dtype, adj.data.tolist(), loops)


class TestLoadMatchesLineByLine:
    @given(st.lists(_LINE, max_size=12),
           st.sampled_from(["\n", "\r\n", "\r\r\n", "\r"]), st.booleans(),
           st.booleans(), st.booleans())
    # A comment line's tabs sit between two data lines' separators.
    @example(["a\tb\t1", "#x\ty\t2", "b\tc\t3", "#\t"], "\n", True, False, False)
    @example(["a\tb\t1", "#x\ty\t2", "b\tc\t3", "#\t"], "\n", True, True, False)
    # Unweighted lines ignore a third and a fourth column.
    @example(["a\tb\tx\ty", "b\tc\t\t", "c\ta"], "\r\n", False, False, False)
    # Every edge a self-loop: no key is left to dedupe.
    @example(["a\ta", "b\tb\t2", "a\ta"], "\n", True, False, False)
    @example(["a\ta\t1", "b\tb\t2"], "\n", True, True, False)
    # One edge, many times.
    @example(["a\tb\t0.1"] * 40, "\n", True, False, False)
    @example(["a\tb\t0.1"] * 40, "\n", True, True, False)
    @settings(max_examples=400, deadline=None)
    def test_same_graph_or_same_error(self, lines, eol, last_eol, weighted,
                                      bom):
        """The text, its line ends untranslated, gives the graph of the text
        read with universal newlines: ``\\r\\n``, a lone ``\\r`` (one inside
        a label too) and ``\\n`` each end a line, so ``\\r\\r\\n`` ends two."""
        # A BOM is part of the first label: the input is utf-8, not utf-8-sig.
        text = "\ufeff" * bom + eol.join(lines) + (eol if last_eol else "")
        want = parsed(load_edge_list_by_lines, text, weighted)
        assert parsed(load_edge_list, text, weighted, newline="") == want
        # The same text as UTF-8 bytes gives the same graph or error.
        assert outcome(lambda: load_edge_list(io.BytesIO(text.encode(
            "utf-8", "surrogatepass")), weighted=weighted)) == want

    @given(st.lists(_LINE, max_size=12), st.sampled_from(["\n", "\r\n", "\r"]),
           st.booleans(), st.booleans())
    # Lone \r line ends: two edges and four nodes, as in text mode.
    @example(["a\tb", "c\td"], "\r", True, False)
    @settings(max_examples=100, deadline=None)
    def test_file_through_the_cli_reader(self, lines, eol, last_eol, weighted):
        """A file read by the CLI's own reader gives the graph of the file
        read in text mode, with universal newlines: a lone ``\\r`` ends a
        line there."""
        text = eol.join(lines) + (eol if last_eol else "")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.tsv")
            with open(path, "wb") as f:
                f.write(text.encode("utf-8", "surrogatepass"))
            args = argparse.Namespace(input=path, weighted=weighted)
            got = outcome(lambda: cli._load_graph(args))
            with open(path, encoding="utf-8") as f:
                assert got == outcome(lambda: load_edge_list_by_lines(
                    f, weighted=weighted))
        if lines == ["a\tb", "c\td"]:
            assert got[0] == ["a", "b", "c", "d"]

    @pytest.mark.parametrize("pad, long", [
        (1, ["x" * 10_000]),
        (1, ["x" * 10_000, "x" * 10_000, "x" * 9_999 + "y", "y" * 41, "节" * 14]),
        (30, ["x" * 10_000, "y" * 41, "y" * 40])])
    def test_long_labels_among_short_ones(self, pad, long):
        """Labels too wide for the padded table are interned apart: the table
        keeps to the token width cap and to 4x the input's bytes."""
        short = [str(i % 300).rjust(pad, "s") for i in range(5000)]
        labels = short[:2000] + long + short[2000:]
        text = "".join(f"{a}\t{b}\n" for a, b in zip(labels, labels[::-1]))
        with mock.patch.object(graph, "_words", wraps=graph._words) as spy:
            got = parsed(load_edge_list, text, False)
        (_, starts, _, width), _ = spy.call_args
        assert width <= graph._TABLE_WIDTH
        assert len(starts) * width <= 4 * len(text.encode())
        assert got == parsed(load_edge_list_by_lines, text, False)
        assert set(long) <= set(got[0])

    def test_duplicate_weights_sum_in_line_order(self):
        fwd = load("a\tb\t0.1\na\tb\t0.2\na\tb\t0.3", weighted=True)
        rev = load("a\tb\t0.3\na\tb\t0.2\na\tb\t0.1", weighted=True)
        assert fwd.adj[0, 1] == (0.1 + 0.2) + 0.3
        assert rev.adj[0, 1] == (0.3 + 0.2) + 0.1
        assert fwd.adj[0, 1] != rev.adj[0, 1]

    def test_first_bad_line_is_reported(self):
        text = "# a\tb\n\na\tb\t1\nb\tc\tx\nc\n"
        with pytest.raises(ParseError, match="^line 4: non-numeric weight 'x'$"):
            load(text, weighted=True)
        with pytest.raises(ParseError, match="^line 5: expected"):
            load(text)


class TestGraphFromPairs:
    def test_rejects_index_outside_graph(self):
        with pytest.raises(ValueError):
            graph_from_pairs([(0, 2)], n=2)
        with pytest.raises(ValueError):
            graph_from_pairs([(-1, 0)], n=2)

    def test_weighted_duplicates_sum_and_loops_count(self):
        g = graph_from_pairs([(0, 1), (1, 1), (0, 1)], weights=[0.5, 9.0, 2.0])
        assert g.n == 2 and g.self_loops_dropped == 1
        assert g.adj.toarray().tolist() == [[0.0, 2.5], [0.0, 0.0]]


def _boundary_weights(p):
    """Weights near the rounding boundaries of ``%.{p}f``, plus the values
    the record writer must leave to ``%``."""
    scale = 10.0 ** p
    tie = st.integers(0, 2 ** 31).map(lambda k: (k + 0.5) / scale)
    beside = st.tuples(tie, st.sampled_from([-np.inf, np.inf])).map(
        lambda t: float(np.nextafter(*t)))
    return st.one_of(
        st.floats(0, 1e3), tie, beside, tie.map(lambda w: -w),
        st.floats(2.0 ** 29 / scale, 2.0 ** 31 / scale),
        st.sampled_from([0.0, -0.0, -1.0, np.inf, -np.inf, np.nan]))


_LABELS = ["a", "é", "节点", "", "#x"]


class TestWriteUndirected:
    def make(self, edges, labels):
        # Stable by u, the one order a pair set can hold; the records are
        # otherwise arbitrary (v <= u, repeats), which the writer just prints.
        edges = sorted(edges, key=lambda e: e[0])
        u = np.array([e[0] for e in edges], dtype=np.int64)
        v = np.array([e[1] for e in edges], dtype=np.int64)
        w = np.array([e[2] for e in edges], dtype=np.float64)
        return pair_set(len(labels), u, v, w), labels

    def test_empty_graph_empty_output(self):
        buf = io.BytesIO()
        write_undirected(*self.make([], []), buf)
        assert buf.getvalue() == b""

    def test_fixed_precision_formatting(self):
        buf = io.BytesIO()
        write_undirected(*self.make([(0, 1, 0.5)], ["a", "b"]), buf)
        assert buf.getvalue() == b"a\tb\t0.500000\n"

    def test_precision_flag(self):
        buf = io.BytesIO()
        write_undirected(*self.make([(0, 1, 0.5)], ["a", "b"]), buf, precision=2)
        assert buf.getvalue() == b"a\tb\t0.50\n"

    def test_round_trip(self):
        pairs, labels = self.make([(0, 1, 0.25), (1, 2, 1.5)], ["a", "b", "c"])
        buf = io.BytesIO()
        write_undirected(pairs, labels, buf)
        back = read_undirected(io.StringIO(buf.getvalue().decode()))
        assert back == [("a", "b", 0.25), ("b", "c", 1.5)]

    def text(self, writer, pairs, labels, precision=6):
        buf = io.BytesIO()
        writer(pairs, labels, buf, precision=precision)
        return buf.getvalue()

    @given(st.integers(0, 17).flatmap(lambda p: st.tuples(st.just(p), st.lists(
               st.tuples(st.integers(0, 4), st.integers(0, 4),
                         st.one_of(st.floats(0, 1e12), _boundary_weights(p))),
               max_size=30))),
           st.sampled_from([1, 2, 3, graph._WRITE_CHUNK]),
           st.sampled_from([np.float64, np.float32]))
    # Weights left to `%` (ties, a negative, NaN) first and last in a slice.
    @example((1, [(0, 1, 0.05), (0, 2, 0.3), (1, 2, -1.0), (1, 3, np.nan),
                  (2, 3, 0.25), (3, 4, 0.15)]), 3, np.float64)
    @settings(max_examples=800, deadline=None)
    def test_matches_fstring_reference(self, edges_at_precision, chunk, dtype):
        precision, edges = edges_at_precision
        pairs, labels = self.make(edges, _LABELS)
        pairs.w = pairs.w.astype(dtype)
        with mock.patch.object(graph, "_WRITE_CHUNK", chunk):
            assert self.text(write_undirected, pairs, labels, precision) == \
                self.text(write_undirected_by_fstrings, pairs, labels, precision)

    def test_more_than_one_slice_matches_reference(self):
        rng = np.random.default_rng(5)
        m = 2 * graph._WRITE_CHUNK + 17
        u = np.sort(rng.integers(0, 300, m))
        pairs = pair_set(400, u, u + rng.integers(1, 100, m), rng.random(m))
        labels = [f"n{i}" for i in range(400)]
        for precision in (0, 6, 17):
            assert self.text(write_undirected, pairs, labels, precision) == \
                self.text(write_undirected_by_fstrings, pairs, labels, precision)

    @pytest.mark.parametrize("precision", [0, 1, 2, 4, 5, 6, 7, 9])
    def test_every_digit_grouping_matches_reference(self, precision):
        """Records whose widest integer part has each digit count the record
        path takes at this precision (w·10^p < 2^30): the digits go out four,
        then two, then one at a time, and the shorter integer parts in the
        slice lose their leading zeros."""
        labels = [f"n{i}" for i in range(10)]
        table = graph._label_table("".join(s + "\n" for s in labels).encode())
        widest = 2 ** 30 // 10 ** precision - 1
        for digits in range(1, len(str(widest)) + 1):
            top = min(10 ** digits - 1, widest)
            w = np.array([top + 0.25, 10 ** (digits - 1) + 0.5 + 1e-3, 7.0,
                          0.0625, 0.5, 42.3, 0.0, 1 / 3, top])
            pairs = pair_set(10, np.arange(9), np.arange(9) + 1, w)
            want = self.text(write_undirected_by_fstrings, pairs, labels,
                             precision)
            assert self.text(write_undirected, pairs, labels, precision) == want
            assert graph._format_records(table[:9], table[1:], w,
                                         precision) == want

    def test_slice_with_some_weights_left_to_percent(self):
        """A slice whose records hold weights that `%` formats (a negative,
        NaN, inf, a rounding tie, one past 2^30 at this precision) beside
        ones formatted from digits."""
        slow = [-1.0, np.nan, np.inf, 0.125, 2.0 ** 30, 1e300]
        fast = [0.5, 3.25, 12345.678, 9.999999, 0.0, 1e-9]
        w = np.array([x for pair in zip(slow, fast, fast) for x in pair])
        labels = [f"n{i}" for i in range(len(w) + 1)]
        pairs = pair_set(len(labels), np.arange(len(w)), np.arange(len(w)) + 1, w)
        for precision in (0, 2, 6):
            want = self.text(write_undirected_by_fstrings, pairs, labels, precision)
            assert self.text(write_undirected, pairs, labels, precision) == want
            table = graph._label_table("".join(s + "\n" for s in labels).encode())
            u, v = table[pairs.rows(0, len(w))], table[pairs.v]
            assert graph._format_records(u, v, w, precision) == want

    @pytest.mark.parametrize("extra", [
        ["x\0y"], ["z" * 10_000], [f"{'w' * 63}{i}" for i in range(9)],
        [f"{'w' * 64}{i}" for i in range(9)]], ids=["nul", "10kB", "64B", "65B"])
    @pytest.mark.parametrize("precision", [0, 6, 17])
    def test_label_edge_cases(self, extra, precision):
        labels = _LABELS + extra
        w = np.r_[np.random.default_rng(3).random(40) * 1e3, 0.5, -0.0, np.nan]
        m, n = len(w), len(labels)
        order = np.argsort(np.arange(m) % n, kind="stable")
        pairs = pair_set(n, (np.arange(m) % n)[order],
                         (np.arange(m) * 7 % n)[order], w[order])
        want = self.text(write_undirected_by_fstrings, pairs, labels, precision)
        assert self.text(write_undirected, pairs, labels, precision) == want
        # The labels as the parser keeps them: UTF-8, each ended by \n.
        blob = "".join(s + "\n" for s in labels).encode()
        assert self.text(write_undirected, pairs, blob, precision) == want

    @pytest.mark.parametrize("labels, bad", [
        (["a\tb", "c", "d"], "a\tb"), (["c", "a\nb", "d"], "a\nb"),
        (["c", "d", "\r"], "\r"), (b"c\na\tb\nd\n", "a\tb"),
        (b"c\nd\na\rb\n", "a\rb"), (["c", "a\nb"], "a\nb")],
        ids=["tab", "newline", "cr", "bytes-tab", "bytes-cr",
             "newline-in-short-list"])
    def test_label_the_tsv_cannot_carry_is_refused(self, labels, bad):
        # Written, "a\tb" would read back as "non-numeric weight 'c'", and
        # "a\nb" would split its line in two.  Two listed labels, one of them
        # holding \n, end as many lines as the labels of three nodes.
        pairs, _ = self.make([(0, 1, 0.5), (1, 2, 0.25)], ["", "", ""])
        buf = io.BytesIO()
        with pytest.raises(ValidationError,
                           match=f"^label {re.escape(repr(bad))} holds"):
            write_undirected(pairs, labels, buf)
        assert buf.getvalue() == b""

    @pytest.mark.parametrize("count", [3, 5], ids=["short", "long"])
    @pytest.mark.parametrize("form", ["list", "bytes"])
    def test_label_count_other_than_nodes_is_refused(self, count, form):
        # A first chunk of pairs that every label count names, then a pair of
        # node 3: too few labels raised IndexError after that chunk was
        # written, and too many were ignored.
        m = graph._WRITE_CHUNK
        pairs = pair_set(4, np.r_[np.zeros(m, dtype=np.int64), 2],
                         np.r_[np.ones(m, dtype=np.int64), 3], np.full(m + 1, 0.5))
        labels = [f"n{i}" for i in range(count)]
        buf = io.BytesIO()
        with pytest.raises(ValidationError, match=f"^{count} labels for 4 nodes$"):
            write_undirected(pairs, labels if form == "list" else
                             "".join(s + "\n" for s in labels).encode(), buf)
        assert buf.getvalue() == b""

    def test_which_labels_get_a_table(self):
        # NUL would be compressed out of a record; past 64 bytes `%` is the
        # faster writer; one long label would widen the whole table.
        def table(labels):  # of the labels as the parser keeps them
            return graph._label_table("".join(s + "\n" for s in labels).encode())

        many = [str(i) for i in range(100)]
        assert table(many + ["x\0y"]) is None
        assert table(many + ["z" * 10_000]) is None
        assert table(many + ["z" * 60]) is None
        wide = [f"{'w' * 63}{i}" for i in range(9)]
        assert table(wide).dtype.itemsize == 64
        assert table([s + "w" for s in wide]) is None
        for labels in (_LABELS, ["abc", "de", "f"], ["", "12345678", "é" * 4]):
            assert table(labels).tolist() == [s.encode() for s in labels]

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                              st.floats(0.001, 100)), max_size=20))
    def test_round_trip_random(self, raw):
        pairs = {}
        for a, b, w in raw:
            if a == b:
                continue
            pairs[(min(a, b), max(a, b))] = round(w, 6)
        pairs = {k: v for k, v in pairs.items() if v > 0}
        keys = sorted(pairs)
        g = self.make([(a, b, pairs[(a, b)]) for a, b in keys],
                      [f"n{i}" for i in range(9)])
        buf = io.BytesIO()
        write_undirected(*g, buf)
        back = read_undirected(io.StringIO(buf.getvalue().decode()))
        assert len(back) == len(keys)
        for (a, b, w), (ka, kb) in zip(back, keys):
            assert (a, b) == (f"n{ka}", f"n{kb}")
            assert w == pytest.approx(pairs[(ka, kb)], abs=1e-6)


class TestCondensation:
    """``graph._sccs``, the SCC pass that ``auto_hierarchy`` condenses by."""

    def test_two_cycle_is_one_scc(self):
        comp, depth = graph._sccs(graph_from_pairs([(0, 1), (1, 0)]).adj)
        assert comp[0] == comp[1]
        assert len(depth) == 1

    def test_chain_gives_singleton_sccs(self):
        comp, depth = graph._sccs(graph_from_pairs([(0, 1), (1, 2)]).adj)
        # Three components in topological order, each one deeper.
        assert comp.tolist() == [0, 1, 2]
        assert depth.tolist() == [0, 1, 2]

    def test_matches_mutual_reachability_partition(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 20))
            g = random_digraph(rng, n, 0.15)
            comp, _ = graph._sccs(g.adj)
            reach = reach_by_matrix_powers(g, float("inf"))
            reach = reach | np.eye(n, dtype=bool)
            mutual = reach & reach.T
            for i in range(n):
                for j in range(n):
                    assert (comp[i] == comp[j]) == bool(mutual[i, j])

    def test_empty_graph(self):
        comp, depth = graph._sccs(graph_from_pairs([], n=0).adj)
        assert comp.dtype == np.int64 and comp.shape == (0,)
        assert depth.dtype == np.int64 and depth.shape == (0,)

    def test_scc_ids_contiguous(self):
        g = graph_from_pairs([(0, 1), (1, 0), (1, 2), (3, 2)])
        comp, depth = graph._sccs(g.adj)
        assert sorted(set(comp.tolist())) == list(range(len(depth)))

    @given(digraphs(max_n=30, max_edges=80))
    @settings(max_examples=100)
    def test_ids_in_topological_order(self, g):
        # No edge goes to a lower id, so the components form a DAG.
        comp, _ = graph._sccs(g.adj)
        coo = g.adj.tocoo()
        assert (comp[coo.row] <= comp[coo.col]).all()

import io
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reachsym import (DirectedGraph, ParseError, ValidationError,
                      condensation, graph_from_pairs, load_edge_list,
                      write_undirected)

from reachsym import cli, graph
from conftest import (digraphs, load_edge_list_by_lines, pair_set,
                      random_digraph, reach_by_matrix_powers, traced_peak,
                      write_undirected_by_fstrings)
from reference import in_neighbors, out_neighbors, reach_rows, read_undirected


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

    def test_interning_is_first_appearance_order(self):
        g = load("z\ty\na\tz")
        assert g.labels == ["z", "y", "a"]

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


def parsed(parse, text, weighted):
    """Labels, CSR arrays and loop count, or the error's type and text.
    Lines split at ``\\n`` only, as ``load_edge_list`` splits them."""
    return outcome(lambda: parse(io.StringIO(text, newline="\n"),
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
           st.sampled_from(["\n", "\r\n", "\r\r\n"]), st.booleans(),
           st.booleans(), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_same_graph_or_same_error(self, lines, eol, last_eol, weighted,
                                      bom):
        # A BOM is part of the first label: the input is utf-8, not utf-8-sig.
        text = "\ufeff" * bom + eol.join(lines) + (eol if last_eol else "")
        assert parsed(load_edge_list, text, weighted) == \
            parsed(load_edge_list_by_lines, text, weighted)

    @given(st.lists(_LINE, max_size=12), st.sampled_from(["\n", "\r\n", "\r"]),
           st.booleans(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_file_through_the_cli_reader(self, lines, eol, last_eol, weighted):
        """A file opened as the CLI opens it, with universal newlines: a lone
        ``\\r`` ends a line there."""
        text = eol.join(lines) + (eol if last_eol else "")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.tsv")
            with open(path, "wb") as f:
                f.write(text.encode("utf-8", "surrogatepass"))
            assert outcome(lambda: cli._parse_file(
                path, load_edge_list, weighted=weighted)) == \
                outcome(lambda: cli._parse_file(
                    path, load_edge_list_by_lines, weighted=weighted))

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
        with mock.patch.object(graph, "_pad_table",
                               wraps=graph._pad_table) as spy:
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
        assert g.n == 2 and g.weighted and g.self_loops_dropped == 1
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
        buf = io.StringIO()
        write_undirected(*self.make([], []), buf)
        assert buf.getvalue() == ""

    def test_fixed_precision_formatting(self):
        buf = io.StringIO()
        write_undirected(*self.make([(0, 1, 0.5)], ["a", "b"]), buf)
        assert buf.getvalue() == "a\tb\t0.500000\n"

    def test_precision_flag(self):
        buf = io.StringIO()
        write_undirected(*self.make([(0, 1, 0.5)], ["a", "b"]), buf, precision=2)
        assert buf.getvalue() == "a\tb\t0.50\n"

    def test_round_trip(self):
        pairs, labels = self.make([(0, 1, 0.25), (1, 2, 1.5)], ["a", "b", "c"])
        buf = io.StringIO()
        write_undirected(pairs, labels, buf)
        back = read_undirected(io.StringIO(buf.getvalue()))
        assert back == [("a", "b", 0.25), ("b", "c", 1.5)]

    def text(self, writer, pairs, labels, precision=6):
        buf = io.StringIO()
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
        assert self.text(write_undirected, pairs, labels, precision) == \
            self.text(write_undirected_by_fstrings, pairs, labels, precision)

    def test_which_labels_get_a_table(self):
        # NUL would be compressed out of a record; past 64 bytes `%` is the
        # faster writer; one long label would widen the whole table.
        many = [str(i) for i in range(100)]
        assert graph._label_table(many + ["x\0y"]) is None
        assert graph._label_table(many + ["z" * 10_000]) is None
        assert graph._label_table(many + ["z" * 60]) is None
        wide = [f"{'w' * 63}{i}" for i in range(9)]
        assert graph._label_table(wide).dtype.itemsize == 64
        assert graph._label_table([s + "w" for s in wide]) is None
        for labels in (_LABELS, ["abc", "de", "f"]):
            assert graph._label_table(labels).tolist() == \
                [s.encode() for s in labels]

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
        buf = io.StringIO()
        write_undirected(*g, buf)
        back = read_undirected(io.StringIO(buf.getvalue()))
        assert len(back) == len(keys)
        for (a, b, w), (ka, kb) in zip(back, keys):
            assert (a, b) == (f"n{ka}", f"n{kb}")
            assert w == pytest.approx(pairs[(ka, kb)], abs=1e-6)


class TestCondensation:
    def test_two_cycle_is_one_scc(self):
        g = graph_from_pairs([(0, 1), (1, 0)])
        comp, dag = condensation(g)
        assert comp[0] == comp[1]
        assert dag.shape[0] == 1

    def test_chain_gives_singleton_sccs(self):
        g = graph_from_pairs([(0, 1), (1, 2)])
        comp, dag = condensation(g)
        assert len(set(comp.tolist())) == 3
        # DAG is a chain: each component has at most one successor
        assert sorted(len(d) for d in reach_rows(dag)) == [0, 1, 1]

    def test_dag_is_acyclic(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_digraph(rng, 12, 0.2)
            comp, dag = condensation(g)
            # Kahn's algorithm consumes every component iff acyclic
            indeg = np.zeros(dag.shape[0], dtype=int)
            for succ in reach_rows(dag):
                for t in succ:
                    indeg[t] += 1
            stack = [i for i in range(dag.shape[0]) if indeg[i] == 0]
            seen = 0
            while stack:
                s = stack.pop()
                seen += 1
                for t in reach_rows(dag)[s]:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        stack.append(int(t))
            assert seen == dag.shape[0]

    def test_matches_mutual_reachability_partition(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 20))
            g = random_digraph(rng, n, 0.15)
            comp, _ = condensation(g)
            reach = reach_by_matrix_powers(g, float("inf"))
            reach = reach | np.eye(n, dtype=bool)
            mutual = reach & reach.T
            for i in range(n):
                for j in range(n):
                    assert (comp[i] == comp[j]) == bool(mutual[i, j])

    def test_scc_ids_contiguous(self):
        g = graph_from_pairs([(0, 1), (1, 0), (1, 2), (3, 2)])
        comp, dag = condensation(g)
        assert sorted(set(comp.tolist())) == list(range(dag.shape[0]))

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachsym import (DirectedGraph, ParseError, UndirectedWeightedGraph,
                      ValidationError, condensation, graph_from_pairs,
                      load_edge_list, read_undirected, write_undirected)

from reachsym import graph
from conftest import (digraphs, load_edge_list_by_lines, random_digraph,
                      reach_by_matrix_powers, write_undirected_by_fstrings)


def load(text, weighted=False):
    return load_edge_list(io.StringIO(text), weighted=weighted)


class TestLoadEdgeList:
    def test_minimal_chain(self):
        g = load("a\tb\nb\tc")
        assert g.n == 3
        assert g.labels == ["a", "b", "c"]
        assert [(u, v) for u in range(3) for v in g.out_neighbors(u)] == [(0, 1), (1, 2)]

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

    def test_interning_is_first_appearance_order(self):
        g = load("z\ty\na\tz")
        assert g.labels == ["z", "y", "a"]

    @given(digraphs())
    def test_in_out_mirror(self, g):
        for u in range(g.n):
            for v in g.out_neighbors(u).tolist():
                assert u in g.in_neighbors(v).tolist()
        for v in range(g.n):
            for u in g.in_neighbors(v).tolist():
                assert v in g.out_neighbors(u).tolist()


# Few distinct fields, so duplicate edges, self-loops and every error are
# frequent; 0.1/0.2/0.3 sum differently in different orders.
_LABEL = st.sampled_from(["a", "b", "c", "é", "节点", "", " ", "#a"])
_WEIGHT = st.sampled_from(["1", "0.1", "0.2", "0.3", "1e-300", "2.5", "0", "-1",
                           "nan", "inf", "x", "", " 3 "])
_LINE = st.one_of(
    st.just(""),
    st.lists(_LABEL | _WEIGHT, max_size=3).map(lambda f: "#" + "\t".join(f)),
    st.tuples(_LABEL, _LABEL, _WEIGHT).map("\t".join),
    st.lists(_LABEL | _WEIGHT, min_size=1, max_size=4).map("\t".join))


def parsed(parse, text, weighted):
    """Labels, CSR arrays and loop count, or the error's type and text."""
    try:
        g = parse(io.StringIO(text, newline=""), weighted=weighted)
    except (ParseError, ValidationError) as e:
        return type(e), str(e)
    labels, adj, loops = ((g.labels, g.adj, g.self_loops_dropped)
                          if isinstance(g, DirectedGraph) else g)
    return (labels, adj.shape, adj.indptr.tolist(), adj.indices.tolist(),
            adj.indices.dtype, adj.data.tolist(), loops)


class TestLoadMatchesLineByLine:
    @given(st.lists(_LINE, max_size=12), st.sampled_from(["\n", "\r\n"]),
           st.booleans(), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_same_graph_or_same_error(self, lines, eol, last_eol, weighted):
        text = eol.join(lines) + (eol if last_eol else "")
        assert parsed(load_edge_list, text, weighted) == \
            parsed(load_edge_list_by_lines, text, weighted)

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


class TestWriteUndirected:
    def make(self, edges, labels):
        u = np.array([e[0] for e in edges], dtype=np.int64)
        v = np.array([e[1] for e in edges], dtype=np.int64)
        w = np.array([e[2] for e in edges], dtype=np.float64)
        return UndirectedWeightedGraph(len(labels), labels, u, v, w)

    def test_empty_graph_empty_output(self):
        buf = io.StringIO()
        write_undirected(self.make([], []), buf)
        assert buf.getvalue() == ""

    def test_fixed_precision_formatting(self):
        buf = io.StringIO()
        write_undirected(self.make([(0, 1, 0.5)], ["a", "b"]), buf)
        assert buf.getvalue() == "a\tb\t0.500000\n"

    def test_precision_flag(self):
        buf = io.StringIO()
        write_undirected(self.make([(0, 1, 0.5)], ["a", "b"]), buf, precision=2)
        assert buf.getvalue() == "a\tb\t0.50\n"

    def test_round_trip(self):
        g = self.make([(0, 1, 0.25), (1, 2, 1.5)], ["a", "b", "c"])
        buf = io.StringIO()
        write_undirected(g, buf)
        back = read_undirected(io.StringIO(buf.getvalue()))
        assert back == [("a", "b", 0.25), ("b", "c", 1.5)]

    def text(self, writer, g, precision=6):
        buf = io.StringIO()
        writer(g, buf, precision=precision)
        return buf.getvalue()

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                              st.floats(0, 1e12)), max_size=20),
           st.integers(0, 17))
    @settings(max_examples=200, deadline=None)
    def test_matches_fstring_reference(self, edges, precision):
        g = self.make(edges, ["a", "b", "é", "节点", "#x"])
        assert self.text(write_undirected, g, precision) == \
            self.text(write_undirected_by_fstrings, g, precision)

    def test_more_than_one_slice_matches_reference(self):
        rng = np.random.default_rng(5)
        m = 2 * graph._WRITE_CHUNK + 17
        u = np.sort(rng.integers(0, 300, m))
        g = UndirectedWeightedGraph(400, [f"n{i}" for i in range(400)], u,
                                    u + rng.integers(1, 100, m), rng.random(m))
        for precision in (0, 6, 17):
            assert self.text(write_undirected, g, precision) == \
                self.text(write_undirected_by_fstrings, g, precision)

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
        write_undirected(g, buf)
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
        assert len(dag) == 1

    def test_chain_gives_singleton_sccs(self):
        g = graph_from_pairs([(0, 1), (1, 2)])
        comp, dag = condensation(g)
        assert len(set(comp.tolist())) == 3
        # DAG is a chain: each component has at most one successor
        assert sorted(len(d) for d in dag) == [0, 1, 1]

    def test_dag_is_acyclic(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_digraph(rng, 12, 0.2)
            comp, dag = condensation(g)
            # Kahn's algorithm consumes every component iff acyclic
            indeg = np.zeros(len(dag), dtype=int)
            for succ in dag:
                for t in succ:
                    indeg[t] += 1
            stack = [i for i in range(len(dag)) if indeg[i] == 0]
            seen = 0
            while stack:
                s = stack.pop()
                seen += 1
                for t in dag[s]:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        stack.append(int(t))
            assert seen == len(dag)

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
        assert sorted(set(comp.tolist())) == list(range(len(dag)))

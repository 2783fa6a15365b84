import io
import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from reachsym import (DirectedGraph, HierarchyScores, ParseError,
                      SymmetrizationConfig, ValidationError, auto_hierarchy,
                      graph_from_pairs, load_edge_list, load_hierarchy,
                      local_closure, pair_hierarchy_discount, symmetrize)
from reachsym import graph, hierarchy

from conftest import (digraphs, pair_set, powerlaw_digraph, random_digraph,
                      random_pairs, traced_peak)
from reference import class_depths, distance_discount, out_neighbors, to_dense


@st.composite
def cyclic_digraphs(draw, max_n=30):
    """A random digraph with a directed cycle through two or more nodes; if
    self-loop nodes are drawn, built by DirectedGraph directly with those
    diagonal entries, which the parser and graph_from_pairs drop."""
    n = draw(st.integers(2, max_n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    ring = draw(st.permutations(range(n)))[:draw(st.integers(2, n))]
    g = graph_from_pairs(edges + list(zip(ring, ring[1:] + ring[:1])), n=n)
    loops = draw(st.lists(st.integers(0, n - 1), unique=True))
    if not loops:
        return g
    diag = sp.csr_matrix((np.ones(len(loops)), (loops, loops)), shape=(n, n))
    return DirectedGraph(n, g.labels, (g.adj + diag).tocsr())


def deep_graph(shape, n=200_000):
    """A path i -> i + 1 ("path"), its reverse ("reversed"), whose reversed
    graph the SCC pass walks to depth n, or the cycle of the path and n-1 -> 0."""
    i = np.arange(n)
    j = (i + 1) % n
    pairs = {"path": np.c_[i, j][:-1], "reversed": np.c_[j, i][:-1],
             "cycle": np.c_[i, j]}[shape]
    return graph_from_pairs(pairs, n=n)


class TestAutoHierarchy:
    def test_chain(self):
        g = graph_from_pairs([(0, 1), (1, 2)], n=3)
        assert auto_hierarchy(g).score.tolist() == [0.0, 0.5, 1.0]

    def test_cycle_all_zero(self):
        g = graph_from_pairs([(0, 1), (1, 2), (2, 0)], n=3)
        assert auto_hierarchy(g).score.tolist() == [0.0, 0.0, 0.0]

    def test_diamond(self):
        g = graph_from_pairs([(0, 1), (0, 2), (1, 3), (2, 3)], n=4)
        assert auto_hierarchy(g).score.tolist() == [0.0, 0.5, 0.5, 1.0]

    def test_longest_path_not_shortest(self):
        # 0->3 directly and 0->1->2->3: depth of 3 is 3, not 1
        g = graph_from_pairs([(0, 3), (0, 1), (1, 2), (2, 3)], n=4)
        s = auto_hierarchy(g).score
        assert s.tolist() == [0.0, 1 / 3, 2 / 3, 1.0]

    def test_cycles_collapse_before_scoring(self):
        # two-node cycle feeding a sink: cycle SCC depth 0, sink depth 1
        g = graph_from_pairs([(0, 1), (1, 0), (1, 2)], n=3)
        assert auto_hierarchy(g).score.tolist() == [0.0, 0.0, 1.0]

    @given(digraphs(max_n=8), st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_relabeling_permutes_scores(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        relabeled = graph_from_pairs(
            [(perm[u], perm[int(v)]) for u in range(g.n)
             for v in out_neighbors(g, u)], n=g.n)
        a = auto_hierarchy(g).score
        b = auto_hierarchy(relabeled).score
        for i in range(g.n):
            assert a[i] == b[perm[i]]

    def test_empty_graph(self):
        g = graph_from_pairs([], n=0)
        score = auto_hierarchy(g).score
        assert score.dtype == np.float64 and score.shape == (0,)

    @given(st.one_of(cyclic_digraphs(), digraphs(max_n=30, max_edges=60)))
    @settings(max_examples=200, deadline=None)
    def test_matches_depths_over_dense_closure(self, g):
        depth = class_depths(g)
        want = depth / depth.max() if depth.max() else np.zeros(g.n)
        assert auto_hierarchy(g).score.tolist() == want.tolist()

    def test_self_loop_entry_is_no_cycle(self):
        # A diagonal entry that only DirectedGraph itself lets through.
        adj = sp.csr_matrix(np.array([[0, 1, 0], [0, 1, 1], [0, 0, 0]], dtype=float))
        g = DirectedGraph(3, ["a", "b", "c"], adj)
        assert auto_hierarchy(g).score.tolist() == [0.0, 0.5, 1.0]
        comp, depth = graph._sccs(g.adj)
        assert comp.tolist() == [0, 1, 2]
        assert depth.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("shape", ["path", "reversed", "cycle"])
    def test_deep_graphs(self, shape):
        # 200 000 nodes: a recursive pass would exceed Python's stack.
        g = deep_graph(shape)
        n = g.n
        depth = {"path": np.arange(n), "reversed": np.arange(n)[::-1],
                 "cycle": np.zeros(n, dtype=np.int64)}[shape]
        want = depth / depth.max() if depth.max() else np.zeros(n)
        assert auto_hierarchy(g).score.tolist() == want.tolist()
        comp, comp_depth = graph._sccs(g.adj)
        # One component, or n in topological order: each id is its depth.
        assert comp.tolist() == depth.tolist()
        assert comp_depth.tolist() == list(range(comp.max() + 1))

    @pytest.mark.parametrize("shape, bound", [("powerlaw", 100), ("cycle", 250)])
    def test_traced_peak_per_node(self, shape, bound):
        # Traced bytes per node: about 60 on the power-law graph (the
        # benchmark's shape), 190 on the cycle, whose DFS path holds every
        # node.
        g = (powerlaw_digraph(20_000, 40_000, 0.45, seed=1) if shape == "powerlaw"
             else deep_graph("cycle", 50_000))
        _, peak = traced_peak(auto_hierarchy, g)
        assert peak / g.n < bound


class TestLoadHierarchy:
    def graph(self):
        return load_edge_list(io.StringIO("a\tb\nb\tc"))

    def test_min_max_normalization(self):
        h = load_hierarchy(io.StringIO("a\t10\nb\t20\nc\t30"), self.graph())
        assert h.score.tolist() == [0.0, 0.5, 1.0]
        # Lines are read as the edge list's are: from UTF-8 bytes too, and
        # ended by a lone \r or by \r\n as by \n.
        for stream in (io.BytesIO(b"a\t10\nb\t20\nc\t30\n"),
                       io.StringIO("a\t10\rb\t20\rc\t30\r"),
                       io.StringIO("a\t10\r\nb\t20\r\nc\t30\r\n")):
            h = load_hierarchy(stream, self.graph())
            assert h.score.tolist() == [0.0, 0.5, 1.0]

    def test_degenerate_all_equal_maps_to_zero(self):
        h = load_hierarchy(io.StringIO("a\t7\nb\t7\nc\t7"), self.graph())
        assert h.score.tolist() == [0.0, 0.0, 0.0]

    def test_comment_and_blank_lines_skipped(self):
        h = load_hierarchy(io.StringIO("# depth\na\t10\n\nb\t20\nc\t30\n"),
                           self.graph())
        assert h.score.tolist() == [0.0, 0.5, 1.0]

    def test_missing_node_named(self):
        with pytest.raises(ValidationError, match="c"):
            load_hierarchy(io.StringIO("a\t1\nb\t2"), self.graph())

    def test_unknown_label_warned_and_ignored(self):
        with pytest.warns(UserWarning, match="unknown label"):
            h = load_hierarchy(io.StringIO("a\t1\nb\t2\nc\t3\nghost\t9"),
                               self.graph())
        assert h.score.tolist() == [0.0, 0.5, 1.0]
        with pytest.warns(UserWarning, match="^hierarchy file line 3: unknown "
                          "label 'ghost' ignored$"):
            h = load_hierarchy(io.StringIO("a\t1\rb\t2\rghost\t9\rc\t3\r"),
                               self.graph())
        assert h.score.tolist() == [0.0, 0.5, 1.0]

    def test_non_numeric_score(self):
        with pytest.raises(ParseError, match="line 2"):
            load_hierarchy(io.StringIO("a\t1\nb\thigh\nc\t3"), self.graph())

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_names_its_line(self, score):
        with pytest.raises(ParseError,
                           match=f"line 2: non-finite score '{score}'"):
            load_hierarchy(io.StringIO(f"a\t1\nb\t{score}\nc\t3"),
                           self.graph())


    @pytest.mark.filterwarnings("error")
    def test_range_overflowing_a_double(self):
        h = load_hierarchy(io.StringIO("a\t-1e308\nb\t0\nc\t1e308"),
                           self.graph())
        assert h.score.tolist() == [0.0, 0.5, 1.0]

    def test_empty_graph(self):
        g = load_edge_list(io.StringIO("# no edges\n"))
        for text in ("", "# no scores\n"):
            h = load_hierarchy(io.StringIO(text), g)
            assert h.score.dtype == np.float64 and len(h) == 0

    def test_duplicate_label_rejected(self):
        with pytest.raises(ParseError,
                           match="line 4: duplicate score for label 'a'"):
            load_hierarchy(io.StringIO("a\t1\nb\t2\nc\t3\na\t9"),
                           self.graph())


def acc_one_pair(n, u, v, w):
    return pair_set(n, [u], np.array([v]), [float(w)])


class TestHierarchyScores:
    @pytest.mark.parametrize("score, message", [
        (math.nan, "must be finite"), (1.5, r"must lie in \[0, 1\]")])
    def test_rejected(self, score, message):
        with pytest.raises(ValidationError, match=message):
            HierarchyScores(np.array([0.0, score]))


class TestPairHierarchyDiscount:
    def test_negative_gamma_rejected(self):
        h = HierarchyScores(np.array([0.0, 1.0]))
        with pytest.raises(ValidationError, match="gamma must be ≥ 0"):
            pair_hierarchy_discount(acc_one_pair(2, 0, 1, 1.0), h, gamma=-1.0)

    def test_equal_scores_unchanged(self):
        h = HierarchyScores(np.array([0.4, 0.4]))
        acc = pair_hierarchy_discount(acc_one_pair(2, 0, 1, 2.0), h, gamma=3.0)
        assert to_dense(acc)[0, 1] == 2.0

    def test_gamma_zero_identity(self):
        h = HierarchyScores(np.array([0.0, 1.0]))
        acc = pair_hierarchy_discount(acc_one_pair(2, 0, 1, 2.0), h, gamma=0.0)
        assert to_dense(acc)[0, 1] == 2.0

    def test_unit_difference_halves(self):
        h = HierarchyScores(np.array([0.0, 1.0]))
        acc = pair_hierarchy_discount(acc_one_pair(2, 0, 1, 1.0), h, gamma=1.0)
        assert to_dense(acc)[0, 1] == pytest.approx(0.5, abs=1e-15)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
           st.floats(0, 4))
    def test_monotone_in_difference(self, h1, h2a, h2b, gamma):
        lo, hi = sorted([abs(h1 - h2a), abs(h1 - h2b)])
        w = 1.0
        near = w / (1 + lo) ** gamma
        far = w / (1 + hi) ** gamma
        assert far <= near + 1e-15
        if gamma > 1e-6 and hi > lo + 1e-9:
            assert far < near

    @given(st.integers(1, 5), st.floats(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_sliced_bit_equal_to_one_pass(self, slice_, gamma):
        # The pair discount and the neighbor discount over a closure's CSR
        # share one sliced kernel.
        acc = random_pairs(30, 200, 3)
        s = np.random.default_rng(4).random(30)
        R = local_closure(random_digraph(np.random.default_rng(5), 30, 0.1),
                          2).out_mat
        rows = np.repeat(np.arange(30), np.diff(R.indptr))
        with mock.patch.object(hierarchy, "_SLICE", slice_):
            out = pair_hierarchy_discount(acc, HierarchyScores(s), gamma)
            disc = hierarchy.neighbor_discount_data(R.indptr, R.indices,
                                                    HierarchyScores(s), gamma)
        w = (np.abs(s[acc.u] - s[acc.v]) + 1.0) ** -gamma * acc.w
        assert out.w.tobytes() == w.tobytes()
        assert R.nnz > 5 * slice_
        assert disc.tobytes() == \
            ((1.0 + np.abs(s[rows] - s[R.indices])) ** -gamma).tobytes()

    def test_peak_memory_per_pair(self):
        # 9.7 bytes per pair, 8 of them the new weights; a full-size gather
        # of the v-side scores takes 16.4.
        acc = random_pairs(2000, 400_000, 5)
        h = HierarchyScores(np.random.default_rng(1).random(2000))
        out, peak = traced_peak(pair_hierarchy_discount, acc, h, 1.0)
        assert len(out) == len(acc) > 180_000
        assert peak < 12.5 * len(acc)


class TestDistanceDiscount:
    def test_all_equal_scores_factor_one(self):
        h = HierarchyScores(np.array([0.3, 0.3, 0.3]))
        assert distance_discount(0, 1, 2, h, delta=2.0) == 1.0

    def test_delta_zero_factor_one(self):
        h = HierarchyScores(np.array([0.0, 0.5, 1.0]))
        assert distance_discount(0, 1, 2, h, delta=0.0) == 1.0

    def test_unit_differences_quarter(self):
        h = HierarchyScores(np.array([1.0, 1.0, 0.0]))
        assert distance_discount(0, 1, 2, h, delta=1.0) == pytest.approx(0.25)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
           st.floats(0, 1), st.floats(0.01, 4))
    def test_monotone_in_either_difference(self, hi_, hj, hk1, hk2, delta):
        h1 = HierarchyScores(np.array([hi_, hj, hk1]))
        h2 = HierarchyScores(np.array([hi_, hj, hk2]))
        d1 = abs(hi_ - hk1) + abs(hj - hk1)
        d2 = abs(hi_ - hk2) + abs(hj - hk2)
        f1 = distance_discount(0, 1, 2, h1, delta)
        f2 = distance_discount(0, 1, 2, h2, delta)
        if abs(hi_ - hk1) <= abs(hi_ - hk2) and abs(hj - hk1) <= abs(hj - hk2):
            assert f2 <= f1 + 1e-15


class TestHierarchyInPipeline:
    def test_disabled_mode_is_bitwise_plain(self):
        # Without scores, gamma and delta are inert.
        rng = np.random.default_rng(41)
        g = random_digraph(rng, 20, 0.15)
        plain = symmetrize(g, SymmetrizationConfig(l=2))
        off = symmetrize(g, SymmetrizationConfig(l=2, gamma=5.0, delta=5.0))
        assert plain.w.tolist() == off.w.tolist()
        assert plain.u.tolist() == off.u.tolist()

    def test_short_scores_name_missing_labels(self):
        g = load_edge_list(io.StringIO("a\tb\nb\tc"))
        h = HierarchyScores(np.array([0.0, 1.0]))
        with pytest.raises(ValidationError,
                           match="^hierarchy scores must cover every node; missing: c$"):
            symmetrize(g, SymmetrizationConfig(l=1), h)

    def test_long_scores_give_the_counts(self):
        # No label is missing, so the message names the counts.
        g = load_edge_list(io.StringIO("a\tb\nb\tc"))
        h = HierarchyScores(np.zeros(5))
        with pytest.raises(ValidationError,
                           match="^one hierarchy score per node: 5 scores for 3 nodes$"):
            symmetrize(g, SymmetrizationConfig(), h)

    def test_hierarchy_with_baseline_method_rejected(self):
        g = graph_from_pairs([(0, 1)], n=2)
        h = HierarchyScores(np.array([0.0, 1.0]))
        with pytest.raises(ValidationError, match="reach"):
            symmetrize(g, SymmetrizationConfig(method="bibliometric", l=1), h)

    def test_delta_discount_damps_distant_common_neighbors(self):
        # u->w, v->w with w far from both in hierarchy: delta > 0 shrinks
        g = graph_from_pairs([(0, 2), (1, 2)], n=3)
        far = HierarchyScores(np.array([0.0, 0.0, 1.0]))
        base = symmetrize(g, SymmetrizationConfig(l=1, gamma=0.0, delta=0.0),
                          far)
        damped = symmetrize(g, SymmetrizationConfig(l=1, gamma=0.0, delta=1.0),
                            far)
        assert to_dense(damped)[0, 1] == pytest.approx(to_dense(base)[0, 1] / 4)

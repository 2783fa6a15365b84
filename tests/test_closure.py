import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachsym import (INF, ValidationError, bfs_bounded, graph_from_pairs,
                      local_closure)

from conftest import (cyclic_digraphs, digraphs, random_digraph,
                      reach_by_matrix_powers)


def closure_sets(g, l):
    c = local_closure(g, l)
    return [set(r.tolist()) for r in c.out_reach]


class TestBfsBounded:
    def test_chain_depths(self):
        g = graph_from_pairs([(0, 1), (1, 2)])  # a -> b -> c
        assert bfs_bounded(g, 0, 1, "out").tolist() == [1]
        assert bfs_bounded(g, 0, 2, "out").tolist() == [1, 2]

    def test_three_cycle_reaches_itself(self):
        g = graph_from_pairs([(0, 1), (1, 2), (2, 0)])
        assert bfs_bounded(g, 0, 3, "out").tolist() == [0, 1, 2]
        # but not within fewer steps than the cycle length
        assert 0 not in bfs_bounded(g, 0, 2, "out").tolist()

    def test_depth_two_motif(self):
        # i reaches {a, b, d} and j reaches {b, e} within two steps; their
        # only shared node is b, while c and k sit beyond the bound.
        labels = {"i": 0, "a": 1, "b": 2, "d": 3, "j": 4, "e": 5, "c": 6, "k": 7}
        g = graph_from_pairs([
            (labels["i"], labels["a"]),
            (labels["a"], labels["b"]),
            (labels["a"], labels["d"]),
            (labels["b"], labels["c"]),
            (labels["j"], labels["e"]),
            (labels["e"], labels["b"]),
            (labels["c"], labels["k"]),
        ], n=8)
        out_i = set(bfs_bounded(g, labels["i"], 2, "out").tolist())
        out_j = set(bfs_bounded(g, labels["j"], 2, "out").tolist())
        assert out_i == {labels["a"], labels["b"], labels["d"]}
        assert out_j == {labels["e"], labels["b"]}
        assert out_i & out_j == {labels["b"]}

    def test_in_direction_mirrors_reversed_graph(self):
        g = graph_from_pairs([(0, 1), (1, 2), (2, 0), (3, 1)])
        rg = g.reversed()
        for s in range(4):
            for l in (1, 2, 3, INF):
                assert bfs_bounded(g, s, l, "in").tolist() == \
                    bfs_bounded(rg, s, l, "out").tolist()

    def test_rejects_bad_args(self):
        g = graph_from_pairs([(0, 1)])
        with pytest.raises(ValidationError):
            bfs_bounded(g, 0, 0, "out")
        with pytest.raises(ValidationError):
            bfs_bounded(g, 0, 1, "sideways")
        with pytest.raises(ValidationError):
            bfs_bounded(g, 5, 1, "out")


class TestLocalClosure:
    def test_depth_zero_rejected(self):
        g = graph_from_pairs([(0, 1)])
        with pytest.raises(ValidationError, match="depth must be ≥ 1"):
            local_closure(g, 0)

    def test_chain_unbounded_equals_exact_tc(self):
        g = graph_from_pairs([(0, 1), (1, 2)])
        c = local_closure(g, INF)
        assert c.out_reach[0].tolist() == [1, 2]
        assert c.out_reach[1].tolist() == [2]
        assert c.out_reach[2].tolist() == []

    def test_empty_graph(self):
        g = graph_from_pairs([], n=4)
        c = local_closure(g, 2)
        assert all(len(r) == 0 for r in c.out_reach)
        assert c.d_out_plus.tolist() == [0, 0, 0, 0]
        assert c.d_in_plus.tolist() == [0, 0, 0, 0]

    def test_matches_boolean_matrix_powers(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            g = random_digraph(rng, n, 0.1)
            for l in (1, 2, 3):
                expected = reach_by_matrix_powers(g, l)
                c = local_closure(g, l)
                for i in range(n):
                    assert set(c.out_reach[i].tolist()) == \
                        set(np.flatnonzero(expected[i]).tolist())

    def test_degrees_match_set_sizes(self):
        rng = np.random.default_rng(5)
        g = random_digraph(rng, 15, 0.2)
        c = local_closure(g, 2)
        assert c.d_out_plus.tolist() == [len(r) for r in c.out_reach]
        assert c.d_in_plus.tolist() == [len(r) for r in c.in_reach]

    @given(digraphs(), st.integers(1, 4))
    def test_out_in_transpose_consistency(self, g, l):
        c = local_closure(g, l)
        for i in range(g.n):
            for j in c.out_reach[i].tolist():
                assert i in c.in_reach[j].tolist()

    @given(digraphs(), st.integers(1, 3))
    def test_monotone_in_depth(self, g, l):
        shallow = closure_sets(g, l)
        deep = closure_sets(g, l + 1)
        for a, b in zip(shallow, deep):
            assert a <= b

    @given(digraphs())
    def test_depth_one_is_adjacency(self, g):
        c = local_closure(g, 1)
        for i in range(g.n):
            assert c.out_reach[i].tolist() == g.out_neighbors(i).tolist()

    @given(digraphs(max_n=8))
    def test_duality_with_reversed_graph(self, g):
        for l in (1, 2, INF):
            fwd = local_closure(g, l)
            rev = local_closure(g.reversed(), l)
            for i in range(g.n):
                assert fwd.in_reach[i].tolist() == rev.out_reach[i].tolist()

    def test_unbounded_closure_is_idempotent(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = random_digraph(rng, 12, 0.15)
            c1 = local_closure(g, INF)
            closed = graph_from_pairs(
                [(i, int(j)) for i in range(g.n) for j in c1.out_reach[i]],
                n=g.n)
            c2 = local_closure(closed, INF)
            for i in range(g.n):
                assert c1.out_reach[i].tolist() == c2.out_reach[i].tolist()

    def test_matches_per_source_bfs(self):
        rng = np.random.default_rng(13)
        g = random_digraph(rng, 20, 0.1)
        for l in (1, 2, INF):
            c = local_closure(g, l)
            for s in range(g.n):
                assert c.out_reach[s].tolist() == bfs_bounded(g, s, l, "out").tolist()

    @given(cyclic_digraphs(), st.sampled_from([1, 2, 3, INF]))
    @settings(max_examples=150, deadline=None)
    def test_cyclic_graphs_match_bfs_both_directions(self, g, l):
        c = local_closure(g, l)
        for s in range(g.n):
            assert c.out_reach[s].tolist() == bfs_bounded(g, s, l, "out").tolist()
            assert c.in_reach[s].tolist() == bfs_bounded(g, s, l, "in").tolist()

    def test_threaded_equals_serial(self):
        rng = np.random.default_rng(17)
        g = random_digraph(rng, 40, 0.1)
        a = local_closure(g, 2, threads=1)
        b = local_closure(g, 2, threads=4)
        for i in range(g.n):
            assert a.out_reach[i].tolist() == b.out_reach[i].tolist()

    def test_inf_warns_on_large_graphs(self):
        g = graph_from_pairs([(0, 1)], n=10_500)
        with pytest.warns(RuntimeWarning, match="expensive"):
            local_closure(g, INF)

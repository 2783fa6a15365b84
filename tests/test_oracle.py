import numpy as np
import pytest

from reachsym import (INF, HierarchyScores, ValidationError, graph_from_pairs,
                      local_closure)

from conftest import random_digraph
from reference import dense_closure, dense_similarity, reach_rows


class TestDenseClosure:
    def test_chain_full_closure(self):
        g = graph_from_pairs([(0, 1), (1, 2)], n=3)
        c = dense_closure(g, INF)
        expect = np.zeros((3, 3))
        expect[0, 1] = expect[0, 2] = expect[1, 2] = 1
        assert (c == expect).all()

    def test_two_cycle_includes_diagonal(self):
        g = graph_from_pairs([(0, 1), (1, 0)], n=2)
        assert (dense_closure(g, 2) == np.ones((2, 2))).all()

    def test_matches_bfs_closure(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            g = random_digraph(rng, n, 0.1)
            for l in (1, 2, 3, INF):
                dense = dense_closure(g, l)
                bfs = local_closure(g, l)
                sparse = np.zeros((n, n))
                for i in range(n):
                    sparse[i, reach_rows(bfs.out_mat)[i]] = 1.0
                assert (dense == sparse).all()

    def test_size_guard(self):
        g = graph_from_pairs([], n=600)
        with pytest.raises(ValidationError, match="refuses"):
            dense_closure(g, 1)


class TestDenseSimilarity:
    def test_two_sources_hand_value(self):
        g = graph_from_pairs([(0, 2), (1, 2)], n=3)
        _, _, a_u = dense_similarity(dense_closure(g, 1), 0.5, 0.5)
        assert a_u[0, 1] == pytest.approx(2 ** -0.5, abs=1e-12)
        off = a_u.copy()
        off[0, 1] = off[1, 0] = 0
        assert (off == 0).all()

    def test_alpha_beta_zero_counts_co_reach(self):
        g = graph_from_pairs([(0, 2), (0, 3), (1, 2), (1, 3)], n=4)
        b_o, _, _ = dense_similarity(dense_closure(g, 1), 0.0, 0.0)
        assert b_o[0, 1] == 2.0

    def test_result_symmetric(self):
        rng = np.random.default_rng(47)
        g = random_digraph(rng, 15, 0.2)
        for l in (1, 2, INF):
            _, _, a_u = dense_similarity(dense_closure(g, l), 0.5, 0.5)
            assert np.allclose(a_u, a_u.T, atol=0)

    def test_diagonal_zeroed(self):
        g = graph_from_pairs([(0, 1), (1, 0)], n=2)
        _, _, a_u = dense_similarity(dense_closure(g, 2), 0.5, 0.5)
        assert a_u[0, 0] == 0.0 and a_u[1, 1] == 0.0

    def test_hierarchy_discount_matches_scalar_form(self):
        from reference import distance_discount
        g = graph_from_pairs([(0, 2), (1, 2)], n=3)
        h = HierarchyScores(np.array([0.0, 0.5, 1.0]))
        plain = dense_similarity(dense_closure(g, 1), 0.5, 0.5)[2]
        damped = dense_similarity(dense_closure(g, 1), 0.5, 0.5,
                                  h=h, delta=1.0)[2]
        factor = distance_discount(0, 1, 2, h, 1.0)
        assert damped[0, 1] == pytest.approx(plain[0, 1] * factor, abs=1e-12)

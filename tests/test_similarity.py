import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from reachsym import (INF, SimilarityAccumulator, SymmetrizationConfig,
                      UndirectedWeightedGraph, ValidationError, auto_hierarchy,
                      bibliometric, degree_discounted, dense_closure,
                      dense_similarity,
                      graph_from_pairs, in_reach_similarity, local_closure,
                      out_reach_similarity, pair_hierarchy_discount,
                      sparsify_top_t, symmetrize)
from reachsym.similarity import _to_undirected

from conftest import (canonical_pairs, digraphs, random_digraph,
                      sparsify_top_t_by_lexsort)

INV_SQRT2 = 0.7071067811865476  # 1 / 2**0.5


def cfg(**kw):
    return SymmetrizationConfig(**kw)


def fig1_motif():
    # f and g share a successor s and a predecessor p only at distance 2:
    # f->x1->s, g->x2->s, p->y1->f, p->y2->g.
    f, g_, x1, x2, s, p, y1, y2 = range(8)
    return graph_from_pairs([
        (f, x1), (x1, s), (g_, x2), (x2, s),
        (p, y1), (y1, f), (p, y2), (y2, g_),
    ], n=8), f, g_


class TestOutReachSimilarity:
    def test_two_sources_hand_value(self):
        # u->w, v->w at l=1: single common successor w with closure
        # in-degree 2, both sources have closure out-degree 1.
        g = graph_from_pairs([(0, 2), (1, 2)], n=3)
        c = local_closure(g, 1)
        acc = out_reach_similarity(c, cfg(l=1))
        assert len(acc) == 1
        assert acc.get(0, 1) == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_fig1_pair_appears_only_at_depth_two(self):
        g, f, g_ = fig1_motif()
        acc1 = out_reach_similarity(local_closure(g, 1), cfg(l=1))
        acc2 = out_reach_similarity(local_closure(g, 2), cfg(l=2))
        assert acc1.get(f, g_) == 0.0
        assert acc2.get(f, g_) > 0.0

    def test_no_shared_successors_empty(self):
        g = graph_from_pairs([(0, 1), (2, 3)], n=4)
        acc = out_reach_similarity(local_closure(g, 2), cfg(l=2))
        assert len(acc) == 0

    def test_depth_mismatch_rejected(self):
        g = graph_from_pairs([(0, 1)], n=2)
        with pytest.raises(ValidationError, match="depth"):
            out_reach_similarity(local_closure(g, 1), cfg(l=2))


class TestInReachSimilarity:
    def test_two_sinks_hand_value(self):
        g = graph_from_pairs([(2, 0), (2, 1)], n=3)
        acc = in_reach_similarity(local_closure(g, 1), cfg(l=1))
        assert acc.get(0, 1) == pytest.approx(INV_SQRT2, abs=1e-12)

    @given(digraphs(max_n=7), st.integers(1, 3))
    def test_equals_out_reach_on_reversed_graph(self, g, l):
        c = cfg(l=l, alpha=0.3, beta=0.8)
        swapped = cfg(l=l, alpha=0.8, beta=0.3)
        fwd = in_reach_similarity(local_closure(g, l), c)
        rev = out_reach_similarity(local_closure(g.reversed(), l), swapped)
        assert np.allclose(fwd.to_dense(), rev.to_dense(), atol=1e-12)

    def test_empty_graph(self):
        g = graph_from_pairs([], n=3)
        acc = in_reach_similarity(local_closure(g, 2), cfg(l=2))
        assert len(acc) == 0


class TestSymmetrize:
    def test_two_sources_total(self):
        g = graph_from_pairs([(0, 2), (1, 2)], n=3)
        out = symmetrize(g, cfg(l=1))
        assert out.edges == [(0, 1, pytest.approx(INV_SQRT2, abs=1e-12))]

    def test_fig1_motif_weight(self):
        g, f, g_ = fig1_motif()
        assert symmetrize(g, cfg(l=1)).weight(f, g_) == 0.0
        w2 = symmetrize(g, cfg(l=2)).weight(f, g_)
        # common successor and predecessor each contribute
        # (1/2) * (1/sqrt(4)) = 0.25 at alpha = beta = 0.5
        assert w2 == pytest.approx(0.5, abs=1e-12)

    def test_reach_depth_one_equals_degree_discounted_exactly(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            g = random_digraph(rng, int(rng.integers(2, 25)), 0.15)
            a = symmetrize(g, cfg(l=1))
            b = degree_discounted(g, 0.5, 0.5)
            assert a.u.tolist() == b.u.tolist()
            assert a.v.tolist() == b.v.tolist()
            assert a.w.tolist() == b.w.tolist()  # bit-exact, shared kernel

    def test_reach_alpha_beta_zero_reproduces_bibliometric(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            g = random_digraph(rng, int(rng.integers(2, 25)), 0.15)
            a = symmetrize(g, cfg(l=1, alpha=0.0, beta=0.0))
            b = bibliometric(g)
            assert np.allclose(a.to_dense(), b.to_dense(), rtol=1e-12, atol=0)

    def test_large_epsilon_empties_graph(self):
        g = graph_from_pairs([(0, 2), (1, 2)], n=3)
        out = symmetrize(g, cfg(l=1, epsilon=1e9))
        assert out.edge_count == 0

    @given(digraphs(max_n=8), st.integers(1, 3))
    def test_nonnegative_no_self_pairs(self, g, l):
        out = symmetrize(g, cfg(l=l))
        assert (out.w > 0).all()
        assert (out.u < out.v).all()

    @given(digraphs(max_n=7), st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_permutation_equivariance(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        relabeled = graph_from_pairs(
            [(perm[u], perm[int(v)]) for u in range(g.n)
             for v in g.out_neighbors(u)], n=g.n)
        a = symmetrize(g, cfg(l=2)).to_dense()
        b = symmetrize(relabeled, cfg(l=2)).to_dense()
        p = np.array(perm, dtype=np.int64)
        if g.n:
            assert np.allclose(b[np.ix_(p, p)], a, atol=1e-12)

    def test_hub_cap_skips_heavy_common_neighbors(self):
        # star of 5 sources into one sink: the sink has closure in-degree 5
        g = graph_from_pairs([(i, 5) for i in range(5)], n=6)
        full = symmetrize(g, cfg(l=1))
        assert full.edge_count == 10
        with pytest.warns(UserWarning, match="hub cap"):
            capped = symmetrize(g, cfg(l=1, hub_cap=4))
        assert capped.edge_count == 0

    def test_weighted_first_order(self):
        # u->w (weight 2), v->w (weight 3): numerator 2*3, in-degree 5
        g = graph_from_pairs([(0, 2), (1, 2)], n=3, weights=[2.0, 3.0])
        out = degree_discounted(g, 0.5, 0.5)
        expect = (2 * 3 / 5 ** 0.5) / (2 ** 0.5 * 3 ** 0.5)
        assert out.weight(0, 1) == pytest.approx(expect, abs=1e-12)


class TestDegreeDiscounted:
    def test_two_sources(self):
        g = graph_from_pairs([(0, 2), (1, 2)], n=3)
        out = degree_discounted(g, 0.5, 0.5)
        assert out.weight(0, 1) == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_star_alpha_beta_zero_is_cocitation_count(self):
        g = graph_from_pairs([(3, 0), (3, 1), (3, 2)], n=4)
        out = degree_discounted(g, 0.0, 0.0)
        for a in range(3):
            for b in range(a + 1, 3):
                assert out.weight(a, b) == 1.0

    def test_single_edge_empty(self):
        g = graph_from_pairs([(0, 1)], n=2)
        assert degree_discounted(g).edge_count == 0


class TestBibliometric:
    def test_one_common_successor(self):
        g = graph_from_pairs([(0, 2), (1, 2)], n=3)
        assert bibliometric(g).weight(0, 1) == 1.0

    def test_common_successor_plus_predecessor(self):
        g = graph_from_pairs([(0, 2), (1, 2), (3, 0), (3, 1)], n=4)
        assert bibliometric(g).weight(0, 1) == 2.0

    def test_chain_empty(self):
        g = graph_from_pairs([(0, 1), (1, 2)], n=3)
        assert bibliometric(g).edge_count == 0


class TestSparsifyTopT:
    def make(self, triples, n):
        order = sorted(range(len(triples)), key=lambda i: triples[i][:2])
        u = np.array([triples[i][0] for i in order], dtype=np.int64)
        v = np.array([triples[i][1] for i in order], dtype=np.int64)
        w = np.array([triples[i][2] for i in order], dtype=np.float64)
        return UndirectedWeightedGraph(n, [str(i) for i in range(n)], u, v, w)

    def test_under_budget_unchanged(self):
        g = self.make([(0, 1, 1.0), (1, 2, 2.0)], 3)
        out = sparsify_top_t(g, 2)
        assert out.edges == g.edges

    def test_star_union_keeps_leaf_edges(self):
        # center 0 with weights 5..1: leaves rescue edges beyond the
        # center's top-2 because each leaf's only edge is its own top-1.
        g = self.make([(0, i, 6.0 - i) for i in range(1, 6)], 6)
        out = sparsify_top_t(g, 2)
        assert out.edge_count == 5

    def test_tie_break_prefers_smaller_partner(self):
        # node 0 has three equal-weight edges; t=1 keeps the one to node 1,
        # but every leaf keeps its own edge, so drop leaf rescue by making
        # the leaves share a heavier alternative.
        g = self.make([(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0),
                       (1, 2, 5.0), (1, 3, 5.0), (2, 3, 5.0)], 4)
        out = sparsify_top_t(g, 1)
        kept = {(a, b) for a, b, _ in out.edges}
        assert (0, 1) in kept
        assert (0, 2) not in kept and (0, 3) not in kept

    def test_idempotent(self):
        rng = np.random.default_rng(31)
        g = random_digraph(rng, 20, 0.3)
        out = symmetrize(g, cfg(l=2, top_t=3))
        again = sparsify_top_t(out, 3)
        assert out.edges == again.edges

    def test_rejects_zero(self):
        g = self.make([], 1)
        with pytest.raises(ValidationError):
            sparsify_top_t(g, 0)

    @given(canonical_pairs(), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_matches_lexsort_reference(self, pairs, t):
        n, u, v, w = pairs
        g = UndirectedWeightedGraph(n, [str(i) for i in range(n)], u, v, w)
        mask = sparsify_top_t_by_lexsort(g, t)
        out = sparsify_top_t(g, t)
        assert out.u.tolist() == u[mask].tolist()
        assert out.v.tolist() == v[mask].tolist()
        assert out.w.tolist() == w[mask].tolist()


class TestNothingDropped:
    """A step that drops no pair passes the pair arrays on, not copies."""

    def pairs(self):
        g = random_digraph(np.random.default_rng(3), 12, 0.3)
        c = local_closure(g, 2)
        acc = out_reach_similarity(c, cfg()).add(in_reach_similarity(c, cfg()))
        assert len(acc) > 0
        return g, acc

    def test_epsilon_zero_shares_arrays(self):
        g, acc = self.pairs()
        out = _to_undirected(g, acc, 0.0)
        for a, b in ((out.u, acc.u), (out.v, acc.v), (out.w, acc.w)):
            assert np.shares_memory(a, b)

    def test_pair_discount_shares_pairs(self):
        g, acc = self.pairs()
        out = pair_hierarchy_discount(acc, auto_hierarchy(g), 1.0)
        assert len(out) == len(acc)
        assert np.shares_memory(out.u, acc.u) and np.shares_memory(out.v, acc.v)


class TestAccumulatorAdd:
    @given(canonical_pairs(max_weight=1000), canonical_pairs(max_weight=1000))
    @settings(max_examples=200, deadline=None)
    def test_matches_sparse_sum(self, a, b):
        n = max(a[0], b[0])
        acc_a = SimilarityAccumulator(n, a[1], a[2], a[3] / 7.0)
        acc_b = SimilarityAccumulator(n, b[1], b[2], b[3] / 3.0)
        total = acc_a.add(acc_b)

        def coo(acc):
            return sp.csr_matrix((acc.w, (acc.u, acc.v)), shape=(n, n))
        ref = SimilarityAccumulator.from_matrix(coo(acc_a) + coo(acc_b), n)
        assert total.u.tolist() == ref.u.tolist()
        assert total.v.tolist() == ref.v.tolist()
        assert total.w.tolist() == ref.w.tolist()
        assert total.u.dtype == total.v.dtype == np.int64


class TestOracleAgreement:
    @given(digraphs(max_n=10),
           st.sampled_from([1, 2, 3, INF]),
           st.sampled_from([0.0, 0.5, 1.0]),
           st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_sparse_matches_dense(self, g, l, alpha, beta):
        out = symmetrize(g, cfg(l=l, alpha=alpha, beta=beta))
        closure = dense_closure(g, l)
        _, _, a_u = dense_similarity(closure, alpha, beta)
        assert np.allclose(out.to_dense(), a_u, atol=1e-9)

    def test_symmetry_of_reconstruction(self):
        rng = np.random.default_rng(37)
        g = random_digraph(rng, 25, 0.15)
        d = symmetrize(g, cfg(l=2)).to_dense()
        assert (d == d.T).all()

import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from reachsym import (INF, SymmetrizationConfig, ValidationError,
                      auto_hierarchy, bibliometric, degree_discounted,
                      graph_from_pairs, in_reach_similarity, local_closure,
                      out_reach_similarity, pair_hierarchy_discount,
                      sparsify_top_t, symmetrize)
from reachsym import similarity
from reachsym.accumulator import index_dtype
from reachsym.hierarchy import neighbor_discount_data
from reachsym.similarity import _co_reach, _degree_discount, _row_blocks
from reachsym.synthetic import powerlaw_digraph

from conftest import (canonical_pairs, co_reach_full_rows, digraphs,
                      first_order_by_adjacency, pair_set, pairs_from_matrix,
                      random_digraph, random_pairs, sparsify_top_t_by_lexsort,
                      traced_peak)
from reference import (dense_closure, dense_similarity, out_neighbors,
                       reversed_graph)

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
        rev = out_reach_similarity(local_closure(reversed_graph(g), l), swapped)
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
        assert symmetrize(g, cfg(l=1)).get(f, g_) == 0.0
        w2 = symmetrize(g, cfg(l=2)).get(f, g_)
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
        assert len(out) == 0

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
             for v in out_neighbors(g, u)], n=g.n)
        a = symmetrize(g, cfg(l=2)).to_dense()
        b = symmetrize(relabeled, cfg(l=2)).to_dense()
        p = np.array(perm, dtype=np.int64)
        if g.n:
            assert np.allclose(b[np.ix_(p, p)], a, atol=1e-12)

    def test_hub_cap_skips_heavy_common_neighbors(self):
        # star of 5 sources into one sink: the sink has closure in-degree 5
        g = graph_from_pairs([(i, 5) for i in range(5)], n=6)
        full = symmetrize(g, cfg(l=1))
        assert len(full) == 10
        with pytest.warns(UserWarning, match="hub cap"):
            capped = symmetrize(g, cfg(l=1, hub_cap=4))
        assert len(capped) == 0

    def test_weighted_first_order(self):
        # u->w (weight 2), v->w (weight 3): numerator 2*3, in-degree 5
        g = graph_from_pairs([(0, 2), (1, 2)], n=3, weights=[2.0, 3.0])
        out = degree_discounted(g, 0.5, 0.5)
        expect = (2 * 3 / 5 ** 0.5) / (2 ** 0.5 * 3 ** 0.5)
        assert out.get(0, 1) == pytest.approx(expect, abs=1e-12)


class TestDegreeDiscounted:
    def test_two_sources(self):
        g = graph_from_pairs([(0, 2), (1, 2)], n=3)
        out = degree_discounted(g, 0.5, 0.5)
        assert out.get(0, 1) == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_star_alpha_beta_zero_is_cocitation_count(self):
        g = graph_from_pairs([(3, 0), (3, 1), (3, 2)], n=4)
        out = degree_discounted(g, 0.0, 0.0)
        for a in range(3):
            for b in range(a + 1, 3):
                assert out.get(a, b) == 1.0

    def test_single_edge_empty(self):
        g = graph_from_pairs([(0, 1)], n=2)
        assert len(degree_discounted(g)) == 0


@st.composite
def weighted_digraphs(draw, max_n=10, max_edges=30):
    n = draw(st.integers(1, max_n))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.floats(1e-3, 1e3)),
        max_size=max_edges))
    return graph_from_pairs([e[:2] for e in edges], n=n,
                            weights=[e[2] for e in edges])


class TestFirstOrderThroughReachKernel:
    @given(st.one_of(digraphs(), weighted_digraphs()),
           st.sampled_from(["degree-discounted", "bibliometric"]),
           st.floats(0, 2), st.floats(0, 2))
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_adjacency_reference(self, g, method, alpha, beta):
        out = symmetrize(g, cfg(method=method, alpha=alpha, beta=beta))
        if method == "bibliometric":
            ref = first_order_by_adjacency(g, 0.0, 0.0, use_weights=False)
        else:
            ref = first_order_by_adjacency(g, alpha, beta, use_weights=True)
        keep = ref.w > 0
        assert out.u.tolist() == ref.u[keep].tolist()
        assert out.v.tolist() == ref.v[keep].tolist()
        assert out.w.tolist() == ref.w[keep].tolist()

    @pytest.mark.parametrize("method", ["degree-discounted", "bibliometric"])
    def test_hub_cap_rejected(self, method):
        g = graph_from_pairs([(0, 2), (1, 2), (3, 0), (3, 1)], n=4)
        with pytest.raises(ValidationError, match="hub_cap"):
            symmetrize(g, cfg(method=method, hub_cap=1))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("edges, weights, node", [
        # a summed edge weight overflows: node 0's out-degree
        ([(0, 1), (0, 1), (2, 1), (0, 3)], [1e308, 1e308, 1.0, 1.0], "0"),
        # two finite weights into one node: node 2's in-degree
        ([(0, 2), (1, 2)], [1e308, 1e308], "2"),
    ])
    def test_overflowing_weighted_degree_rejected(self, edges, weights, node):
        g = graph_from_pairs(edges, weights=weights)
        with pytest.raises(ValidationError, match=f"node '{node}'"):
            degree_discounted(g)


class TestBibliometric:
    def test_one_common_successor(self):
        g = graph_from_pairs([(0, 2), (1, 2)], n=3)
        assert bibliometric(g).get(0, 1) == 1.0

    def test_common_successor_plus_predecessor(self):
        g = graph_from_pairs([(0, 2), (1, 2), (3, 0), (3, 1)], n=4)
        assert bibliometric(g).get(0, 1) == 2.0

    def test_chain_empty(self):
        g = graph_from_pairs([(0, 1), (1, 2)], n=3)
        assert len(bibliometric(g)) == 0


class TestSparsifyTopT:
    def make(self, triples, n):
        order = sorted(range(len(triples)), key=lambda i: triples[i][:2])
        u = np.array([triples[i][0] for i in order], dtype=np.int64)
        v = np.array([triples[i][1] for i in order], dtype=np.int64)
        w = np.array([triples[i][2] for i in order], dtype=np.float64)
        return pair_set(n, u, v, w)

    def test_under_budget_unchanged(self):
        g = self.make([(0, 1, 1.0), (1, 2, 2.0)], 3)
        out = sparsify_top_t(g, 2)
        assert out.edges == g.edges

    def test_star_union_keeps_leaf_edges(self):
        # center 0 with weights 5..1: leaves rescue edges beyond the
        # center's top-2 because each leaf's only edge is its own top-1.
        g = self.make([(0, i, 6.0 - i) for i in range(1, 6)], 6)
        out = sparsify_top_t(g, 2)
        assert len(out) == 5

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

    @given(canonical_pairs(), st.integers(1, 4),
           st.sampled_from([np.int64, np.int32]), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_matches_lexsort_reference(self, pairs, t, dtype, ulps):
        n, u, v, w = pairs
        if ulps:
            # Weights 1 + k ulp differ only in their last bits; each row's
            # weights are gathered through its edge ids, so a wrong id shows.
            w = 1.0 + w * np.spacing(1.0)
        g = pair_set(n, u, v.astype(dtype), w)
        mask = sparsify_top_t_by_lexsort(g, t)
        out = sparsify_top_t(g, t)
        assert out.u.dtype == out.v.dtype == dtype
        assert out.u.tobytes() == g.u[mask].tobytes()
        assert out.v.tobytes() == g.v[mask].tobytes()
        assert out.w.tobytes() == g.w[mask].tobytes()

    @given(canonical_pairs(max_n=16, max_pairs=80), st.integers(1, 5),
           st.sampled_from([1, 2, 7]))
    @settings(max_examples=300, deadline=None)
    def test_matches_lexsort_reference_in_tiny_chunks(self, pairs, t, chunk):
        # Blocks of 1, 2 or 7 cells: every row gets a block of its own, or a
        # degree class is split over several blocks.
        n, u, v, w = pairs
        g = pair_set(n, u, v, w)
        with mock.patch.object(similarity, "_TOP_T_CHUNK", chunk):
            self.assert_matches_reference(g, t)

    def assert_matches_reference(self, g, t):
        mask = sparsify_top_t_by_lexsort(g, t)
        out = sparsify_top_t(g, t)
        assert out.u.tobytes() == g.u[mask].tobytes()
        assert out.v.tobytes() == g.v[mask].tobytes()
        assert out.w.tobytes() == g.w[mask].tobytes()
        return out

    @pytest.mark.parametrize("t", [1, 3, 10])
    def test_all_weights_equal(self, t):
        # Every heavy row is settled by ties alone.
        g = random_pairs(60, 2000, 11)
        g = pair_set(g.n, g.u, g.v, np.ones(len(g)))
        for chunk in (7, similarity._TOP_T_CHUNK):
            with mock.patch.object(similarity, "_TOP_T_CHUNK", chunk):
                out = self.assert_matches_reference(g, t)
        assert 0 < len(out) < len(g)

    @pytest.mark.parametrize("chunk", [7, 1 << 22])
    def test_hub_row_wider_than_the_rest(self, chunk):
        # Node 0 is every node's partner; the others have a handful each.
        g = random_pairs(400, 1500, 12)
        hub = np.arange(1, g.n, dtype=g.u.dtype)
        u = np.r_[np.zeros_like(hub), g.u[g.u > 0]]
        v = np.r_[hub, g.v[g.u > 0]]
        w = np.r_[np.random.default_rng(12).random(len(hub)), g.w[g.u > 0]]
        g = pair_set(g.n, u, v, w)
        with mock.patch.object(similarity, "_TOP_T_CHUNK", chunk):
            for t in (1, 2, 5):
                self.assert_matches_reference(g, t)

    def test_blocks_stay_within_the_chunk(self):
        # A block holds at most _TOP_T_CHUNK cells, or one row wider than that.
        g = random_pairs(400, 6000, 15)
        shapes = []
        place = similarity._place

        def spy(block, *args):
            shapes.append(block.shape)
            place(block, *args)

        with mock.patch.object(similarity, "_TOP_T_CHUNK", 64), \
                mock.patch.object(similarity, "_place", spy):
            self.assert_matches_reference(g, 3)
        assert len(set(shapes)) > 3
        assert all(k * width <= 64 or k == 1 for k, width in shapes)

    def test_t_above_every_degree_returns_the_pairs(self):
        g = random_pairs(50, 300, 13)
        deg = np.bincount(np.r_[g.u, g.v], minlength=g.n)
        for t in (deg.max(), deg.max() + 5):
            assert sparsify_top_t(g, int(t)) is g

    def test_t_one(self):
        g = random_pairs(300, 6000, 14)
        g = pair_set(g.n, g.u, g.v, np.round(g.w * 4) + 1)
        out = self.assert_matches_reference(g, 1)
        # every node with a partner keeps at least one edge
        assert (np.union1d(out.u, out.v) == np.union1d(g.u, g.v)).all()

    @pytest.mark.parametrize("t", [1, 10])
    def test_peak_memory_per_pair(self, t):
        # 12.1 bytes per pair (the upper triangle's transpose); a full-size
        # copy of the weights or a U + U^T sum would exceed this.
        g = random_pairs(2000, 400_000, 5)
        out, peak = traced_peak(sparsify_top_t, g, t)
        assert len(g) > 180_000 and 0 < len(out) < len(g)
        assert peak < 15 * len(g)

    @pytest.mark.parametrize("t", [1, 10])
    def test_peak_memory_per_pair_every_weight_tied(self, t):
        # 12.8 bytes per pair: ties are settled slice by slice; holding the
        # ties of all rows at once took 132.
        g = random_pairs(2000, 400_000, 5)
        g = pair_set(g.n, g.u, g.v, np.ones(len(g)))
        out, peak = traced_peak(sparsify_top_t, g, t)
        assert 0 < len(out) < len(g)
        assert peak < 15 * len(g)


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
        out = acc.select(acc.w > 0.0)
        for a, b in ((out.indptr, acc.indptr), (out.v, acc.v), (out.w, acc.w)):
            assert np.shares_memory(a, b)

    def test_pair_discount_shares_pairs(self):
        g, acc = self.pairs()
        out = pair_hierarchy_discount(acc, auto_hierarchy(g), 1.0)
        assert len(out) == len(acc)
        assert np.shares_memory(out.indptr, acc.indptr)
        assert np.shares_memory(out.v, acc.v)

    def test_to_matrix_is_a_view(self):
        g, acc = self.pairs()
        m = acc.to_matrix()
        for a, b in ((m.indptr, acc.indptr), (m.indices, acc.v), (m.data, acc.w)):
            assert np.shares_memory(a, b)


class TestAccumulatorAdd:
    @given(canonical_pairs(max_weight=1000), canonical_pairs(max_weight=1000))
    @settings(max_examples=200, deadline=None)
    def test_matches_sparse_sum(self, a, b):
        n = max(a[0], b[0])
        acc_a = pair_set(n, a[1], a[2], a[3] / 7.0)
        acc_b = pair_set(n, b[1], b[2], b[3] / 3.0)
        total = acc_a.add(acc_b)

        def coo(acc):
            return sp.csr_matrix((acc.w, (acc.u, acc.v)), shape=(n, n))
        ref = pairs_from_matrix(coo(acc_a) + coo(acc_b), n)
        idx = index_dtype(n)
        assert total.u.dtype == total.v.dtype == idx
        assert total.u.tobytes() == ref.u.astype(idx).tobytes()
        assert total.v.tobytes() == ref.v.astype(idx).tobytes()
        assert total.w.tobytes() == ref.w.tobytes()

    def test_peak_memory_per_input_pair(self):
        # 12.1 bytes per input pair (the sum's indices and weights, sized
        # for both inputs); int64 indices would exceed this.
        a, b = random_pairs(2000, 400_000, 6), random_pairs(2000, 400_000, 7)
        total, peak = traced_peak(a.add, b)
        assert len(a) + len(b) > 360_000 and len(total) > len(a)
        assert peak < 14 * (len(a) + len(b))


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


@st.composite
def hub_digraphs(draw, max_n=40, max_edges=60):
    """Random digraph plus one hub joined to every other node, each link
    outgoing, incoming or both."""
    n = draw(st.integers(2, max_n))
    hub = draw(st.integers(0, n - 1))
    others = [x for x in range(n) if x != hub]
    links = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=n - 1,
                          max_size=n - 1))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=max_edges))
    edges += [(hub, x) for x, d in zip(others, links) if d & 1]
    edges += [(x, hub) for x, d in zip(others, links) if d & 2]
    return graph_from_pairs(edges, n=n)


def one_row_blocks(R):
    return np.arange(R.shape[0] + 1)


def assert_bit_equal(got, ref):
    idx = index_dtype(got.n)
    assert got.u.dtype == got.v.dtype == idx
    assert got.u.tobytes() == ref.u.astype(idx).tobytes()
    assert got.v.tobytes() == ref.v.astype(idx).tobytes()
    assert got.w.tobytes() == ref.w.tobytes()


class TestCoReachUpperTriangle:
    @pytest.mark.parametrize("blocks", [_row_blocks, one_row_blocks])
    @given(st.one_of(digraphs(max_n=40, max_edges=120), hub_digraphs()),
           st.sampled_from([1, 2, 3, INF]), st.booleans(),
           st.floats(0, 2), st.floats(0, 2))
    @settings(max_examples=100, deadline=None)
    def test_bit_equal_to_full_rows(self, blocks, g, l, hier, alpha, beta):
        c = local_closure(g, l)
        h = auto_hierarchy(g) if hier else None
        with mock.patch.object(similarity, "_row_blocks", blocks):
            for R, d_outer, d_inner in ((c.out_mat, c.d_out_plus, c.d_in_plus),
                                        (c.in_mat, c.d_in_plus, c.d_out_plus)):
                outer = _degree_discount(d_outer, alpha)
                inner = _degree_discount(d_inner, beta)
                disc = (None if h is None else
                        neighbor_discount_data(R.indptr, R.indices, h, 1.0))
                assert_bit_equal(_co_reach(R, outer, inner, disc),
                                 co_reach_full_rows(R, outer, inner, disc))


    @pytest.mark.parametrize("n, m, exponent, l", [
        (3000, 6000, 0.45, 2), (3000, 6000, 0.0, 3), (2000, 4000, 0.9, 2)])
    def test_bit_equal_over_several_shipped_blocks(self, n, m, exponent, l):
        g = powerlaw_digraph(n, m, exponent, seed=n + m)
        c = local_closure(g, l)
        disc = neighbor_discount_data(c.out_mat.indptr, c.out_mat.indices,
                                      auto_hierarchy(g), 0.5)
        outer = _degree_discount(c.d_out_plus, 0.5)
        inner = _degree_discount(c.d_in_plus, 0.5)
        assert len(_row_blocks(c.out_mat)) > 3
        for d in (None, disc):
            assert_bit_equal(_co_reach(c.out_mat, outer, inner, d),
                             co_reach_full_rows(c.out_mat, outer, inner, d))

    def test_peak_memory_against_its_result(self):
        # The factors are freed before the joins and each list once joined:
        # 1.77 times the stored bytes; with the factors held, 1.91.
        g = powerlaw_digraph(2000, 6000, 0.45, seed=5)
        c = local_closure(g, 2)
        outer = _degree_discount(c.d_out_plus, 0.5)
        inner = _degree_discount(c.d_in_plus, 0.5)
        acc, peak = traced_peak(_co_reach, c.out_mat, outer, inner)
        assert len(acc) > 300_000 and len(_row_blocks(c.out_mat)) > 3
        assert peak < 1.9 * (acc.indptr.nbytes + acc.v.nbytes + acc.w.nbytes)


class TestRowBlocks:
    def test_no_rows_no_block(self):
        R = sp.csr_matrix((0, 0))
        assert _row_blocks(R).tolist() == [0]
        acc = _co_reach(R, np.ones(0), np.ones(0))
        assert acc.n == 0 and len(acc) == 0

    def test_all_rows_empty(self):
        R = sp.csr_matrix((5, 5))
        assert len(_co_reach(R, np.ones(5), np.ones(5))) == 0

    def test_hub_row_gets_its_own_block(self):
        # Row 40 000 holds every column, rows below 20 000 only their own.
        # The hub's work (80 000 flops) is over half the total (120 000),
        # which is more than a block's share.
        n, hub, r = 60_000, 40_000, 20_000
        rows = np.r_[np.arange(r), np.full(n, hub)]
        cols = np.r_[np.arange(r), np.arange(n)]
        R = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        bounds = _row_blocks(R).tolist()
        assert len(bounds) > 2
        i = bounds.index(hub)
        assert bounds[i + 1] == hub + 1
        assert_bit_equal(_co_reach(R, np.ones(n), np.ones(n)),
                         co_reach_full_rows(R, np.ones(n), np.ones(n)))

    @given(st.one_of(digraphs(max_n=40, max_edges=200), hub_digraphs()),
           st.sampled_from([1, 2, INF]))
    @settings(max_examples=100, deadline=None)
    def test_bounds_cover_rows_strictly_increasing(self, g, l):
        c = local_closure(g, l)
        for R in (c.out_mat, c.in_mat):
            bounds = _row_blocks(R)
            assert bounds[0] == 0 and bounds[-1] == g.n
            assert (np.diff(bounds) > 0).all()

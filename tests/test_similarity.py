import math
import mmap
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from reachsym import (INF, HierarchyScores, SymmetrizationConfig, ValidationError,
                      auto_hierarchy, bibliometric, degree_discounted,
                      graph_from_pairs, in_reach_similarity, local_closure,
                      out_reach_similarity, pair_hierarchy_discount,
                      sparsify_top_t, symmetrize)
from reachsym import similarity
from reachsym.accumulator import index_dtype
from reachsym.hierarchy import neighbor_discount_data
from reachsym.similarity import _block_bound, _co_reach, _degree_discount, _row_blocks

from conftest import (canonical_pairs, co_reach_full_rows, digraphs,
                      first_order_by_adjacency, pair_set, pairs_from_matrix,
                      powerlaw_digraph, random_digraph, random_pairs,
                      sparsify_top_t_by_lexsort, traced_peak)
from reference import (dense_closure, dense_similarity, out_neighbors,
                       reversed_graph, to_dense)

INV_SQRT2 = 0.7071067811865476  # 1 / 2**0.5


def cfg(**kw):
    return SymmetrizationConfig(**kw)


def assert_same_pairs(a, b):
    for name in ("u", "v", "w"):
        assert getattr(a, name).tolist() == getattr(b, name).tolist(), name


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
        assert to_dense(acc)[0, 1] == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_fig1_pair_appears_only_at_depth_two(self):
        g, f, g_ = fig1_motif()
        acc1 = out_reach_similarity(local_closure(g, 1), cfg(l=1))
        acc2 = out_reach_similarity(local_closure(g, 2), cfg(l=2))
        assert to_dense(acc1)[f, g_] == 0.0
        assert to_dense(acc2)[f, g_] > 0.0

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
        assert to_dense(acc)[0, 1] == pytest.approx(INV_SQRT2, abs=1e-12)

    @given(st.data(), digraphs(max_n=7), st.integers(1, 3))
    def test_equals_out_reach_on_reversed_graph(self, data, g, l):
        # Bit for bit: both feed one body, with the degree roles swapped.
        scores = data.draw(st.none() | st.lists(st.floats(0, 1), min_size=g.n,
                                                max_size=g.n))
        h = None if scores is None else HierarchyScores(np.array(scores))
        alpha, beta, delta = (data.draw(st.floats(0, 2)) for _ in range(3))
        kw = dict(l=l, delta=delta, hub_cap=data.draw(st.none() | st.integers(1, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the hub cap's
            fwd = in_reach_similarity(local_closure(g, l),
                                      cfg(alpha=alpha, beta=beta, **kw), h)
            rev = out_reach_similarity(local_closure(reversed_graph(g), l),
                                       cfg(alpha=beta, beta=alpha, **kw), h)
        for name in ("indptr", "v", "w"):
            assert getattr(fwd, name).tobytes() == getattr(rev, name).tobytes()

    def test_depth_mismatch_rejected(self):
        g = graph_from_pairs([(0, 1)], n=2)
        with pytest.raises(ValidationError, match="depth"):
            in_reach_similarity(local_closure(g, 1), cfg(l=2))

    def test_empty_graph(self):
        g = graph_from_pairs([], n=3)
        acc = in_reach_similarity(local_closure(g, 2), cfg(l=2))
        assert len(acc) == 0


class TestSymmetrize:
    def test_two_sources_total(self):
        g = graph_from_pairs([(0, 2), (1, 2)], n=3)
        out = symmetrize(g, cfg(l=1))
        assert (out.u.tolist(), out.v.tolist()) == ([0], [1])
        assert out.w.tolist() == [pytest.approx(INV_SQRT2, abs=1e-12)]

    def test_fig1_motif_weight(self):
        g, f, g_ = fig1_motif()
        assert to_dense(symmetrize(g, cfg(l=1)))[f, g_] == 0.0
        w2 = to_dense(symmetrize(g, cfg(l=2)))[f, g_]
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
            assert np.allclose(to_dense(a), to_dense(b), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kw, message", [
        (dict(method="mystery"), "unknown method 'mystery'"),
        (dict(alpha=-1), "alpha must be finite and ≥ 0"),
        (dict(beta=math.inf), "beta must be finite and ≥ 0"),
        (dict(top_t=0), "top_t must be ≥ 1"),
        (dict(hub_cap=0), "hub_cap must be ≥ 1"),
    ])
    def test_invalid_config_rejected(self, kw, message):
        g = graph_from_pairs([(0, 2), (1, 2)], n=3)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            symmetrize(g, cfg(**kw))

    @pytest.mark.parametrize("method", ["degree-discounted", "bibliometric"])
    def test_hierarchy_needs_reach(self, method):
        c = cfg(method=method)
        c.validate()
        with pytest.raises(ValidationError,
                           match="^hierarchy refinements require method 'reach'$"):
            c.validate(hierarchy=True)
        cfg().validate(hierarchy=True)

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
        a = to_dense(symmetrize(g, cfg(l=2)))
        b = to_dense(symmetrize(relabeled, cfg(l=2)))
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
        assert to_dense(out)[0, 1] == pytest.approx(expect, abs=1e-12)


class TestDegreeDiscounted:
    def test_two_sources(self):
        g = graph_from_pairs([(0, 2), (1, 2)], n=3)
        out = degree_discounted(g, 0.5, 0.5)
        assert to_dense(out)[0, 1] == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_star_alpha_beta_zero_is_cocitation_count(self):
        g = graph_from_pairs([(3, 0), (3, 1), (3, 2)], n=4)
        out = degree_discounted(g, 0.0, 0.0)
        for a in range(3):
            for b in range(a + 1, 3):
                assert to_dense(out)[a, b] == 1.0

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
        assert to_dense(bibliometric(g))[0, 1] == 1.0

    def test_common_successor_plus_predecessor(self):
        g = graph_from_pairs([(0, 2), (1, 2), (3, 0), (3, 1)], n=4)
        assert to_dense(bibliometric(g))[0, 1] == 2.0

    def test_chain_empty(self):
        g = graph_from_pairs([(0, 1), (1, 2)], n=3)
        assert len(bibliometric(g)) == 0


@st.composite
def top_t_cases(draw):
    """(pairs, t): weights from 1 to 4 values, or all distinct, and t of 1,
    2, the largest degree or one more."""
    n, u, v, w = draw(canonical_pairs(max_n=16, max_pairs=80,
                                      max_weight=draw(st.integers(1, 4))))
    if draw(st.booleans()):
        w = np.array(draw(st.permutations(range(1, len(w) + 1))), dtype=np.float64)
    top = int(np.bincount(np.r_[u, v], minlength=n).max())
    t = draw(st.sampled_from([1, 2, max(top, 1), top + 1]))
    return pair_set(n, u, v, w), t


class TestSparsifyTopT:
    def make(self, triples, n):
        order = sorted(range(len(triples)), key=lambda i: triples[i][:2])
        u = np.array([triples[i][0] for i in order], dtype=np.int64)
        v = np.array([triples[i][1] for i in order], dtype=np.int64)
        w = np.array([triples[i][2] for i in order], dtype=np.float64)
        return pair_set(n, u, v, w)

    def test_under_budget_unchanged(self):
        g = self.make([(0, 1, 1.0), (1, 2, 2.0)], 3)
        assert_same_pairs(sparsify_top_t(g, 2), g)

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
        kept = set(zip(out.u.tolist(), out.v.tolist()))
        assert (0, 1) in kept
        assert (0, 2) not in kept and (0, 3) not in kept

    def test_idempotent(self):
        rng = np.random.default_rng(31)
        g = random_digraph(rng, 20, 0.3)
        out = symmetrize(g, cfg(l=2, top_t=3))
        again = sparsify_top_t(out, 3)
        assert_same_pairs(out, again)

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

    @given(top_t_cases(), st.sampled_from([7, similarity._TOP_T_CHUNK]))
    @settings(max_examples=300, deadline=None)
    def test_cut_leaves_the_result_unchanged(self, case, chunk):
        # Few distinct weights put ties at the cut's bound; t at and above the
        # largest degree leaves nothing or everything to cut.
        g, t = case
        with mock.patch.object(similarity, "_TOP_T_CHUNK", chunk):
            self.assert_matches_reference(g, t)

    @staticmethod
    def power_law_pairs(hubs_last):
        """The l = 2 pairs of a power-law graph whose hubs hold the lowest
        node indices, or with its indices reversed, the highest."""
        g = powerlaw_digraph(3000, 6000, 0.45, seed=1)
        if hubs_last:
            a = g.adj.tocoo()
            g = graph_from_pairs(zip((g.n - 1 - a.row).tolist(),
                                     (g.n - 1 - a.col).tolist()), g.n)
        return symmetrize(g, cfg(l=2))

    @pytest.mark.parametrize("hubs_last", [False, True], ids=["hubs-first", "hubs-last"])
    def test_cut_keeps_a_quarter_of_a_power_law_pair_set(self, hubs_last):
        # 24.5 % kept with the hubs first (18.5 % on the benchmark's larger
        # graph), 21.3 % with them last, whose rows above them are short: the
        # thresholds and ties are settled over these pairs alone.
        pairs = self.power_law_pairs(hubs_last)
        cut = similarity._top_t_cut(pairs, 10, 1 << 14)
        assert len(pairs) > 300_000
        assert len(cut) < 0.27 * len(pairs)
        assert_same_pairs(sparsify_top_t(cut, 10), sparsify_top_t(pairs, 10))

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
        windows = similarity._windows

        def spy(*args):
            block = windows(*args)
            shapes.append(block.shape)
            return block

        with mock.patch.object(similarity, "_TOP_T_CHUNK", 64), \
                mock.patch.object(similarity, "_windows", spy):
            self.assert_matches_reference(g, 3)
        assert len(set(shapes)) > 3
        assert all(k * width <= 64 or k == 1 for k, width in shapes)

    @staticmethod
    def tail_pairs(t, seed):
        """Pairs of 100 nodes whose blocks hold windows that run past the end
        of the pair arrays, where a wrong value would change the result.

        Node 99 has the most partners, all below it.  Node 98, in its degree
        class, pairs with nodes 3-17, 40-58 and 88 below it at weights in
        [0.1, 1), and with 99 above it at 0.05: its window's last value is
        its lowest, where any of the last pairs' weights, all over 1.1, would
        enter its top t.  Node 88's 11 partners above it, in the class of
        node 2's 15, hold the last pairs but (98, 99).  Node 1 pairs with 0
        only below it, so its window in w starts at 0.  Nodes 18-38 pair in
        groups of one node and t others, which have degree t."""
        rng = np.random.default_rng(seed)
        n, zone = 100, np.arange(40, 89)
        pairs = {(0, 1), (1, 41), (1, 57)} | {(2, v) for v in range(3, 18)}
        pairs |= {(a, b) for a in range(18, 39 - t, t + 1)
                  for b in range(a + 1, a + t + 1)}
        pairs |= {(88, v) for v in range(89, 100)} | {(98, 99)}
        pairs |= {(int(u), 99) for u in zone[:-1]}
        pairs |= {(u, 98) for u in [*range(3, 18), *range(40, 59)]}
        for a, b in rng.integers(40, 88, size=(300, 2)).tolist():
            if a != b:
                pairs.add((min(a, b), max(a, b)))
        u, v = (np.array(x) for x in zip(*sorted(pairs)))
        w = 1.1 + rng.integers(0, 8, len(u)) / 8  # ties
        if seed % 2:
            w = 1.1 + rng.permutation(len(u)) / len(u)
        w[v == 98] = rng.uniform(0.1, 1, np.count_nonzero(v == 98))
        w[(u == 98) & (v == 99)] = 0.05
        return pair_set(n, u, v.astype(np.int32), w)

    @pytest.mark.parametrize("t", [1, 3, 10])
    def test_window_tails(self, t):
        windows, over = similarity._windows, set()

        def spy(src, starts, lens, width):
            if (starts > len(src) - width).any():
                over.add(sys._getframe(1).f_code.co_name)
            return windows(src, starts, lens, width)

        for seed in range(4):
            g = self.tail_pairs(t, seed)
            deg = np.bincount(np.r_[g.u, g.v], minlength=g.n)
            cls = np.frexp(deg - 1)[1]
            assert deg.argmax() == g.n - 1 and cls[-1] == cls.max() == cls[-2]
            assert (deg == t).sum() >= 2 and g.indptr[1] - 1 == 0
            for chunk in (7, similarity._TOP_T_CHUNK):
                with mock.patch.object(similarity, "_TOP_T_CHUNK", chunk), \
                        mock.patch.object(similarity, "_windows", spy):
                    self.assert_matches_reference(g, t)
        assert over == {"_top_t_cut", "sparsify_top_t"}

    @given(st.data(), st.integers(1, 40), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_windows_equal_slices(self, data, m, width):
        # Starts up to the last value, so many windows run past the end.
        width = min(width, m)
        src = np.arange(1.0, m + 1)
        starts = data.draw(st.lists(st.integers(0, m - 1), max_size=6))
        starts = np.array(starts, dtype=np.int64)
        lens = np.minimum(width, m - starts)
        block = similarity._windows(src, starts, lens, width)
        assert block.shape == (len(starts), width)
        for row, s, k in zip(block, starts, lens):
            assert row[:k].tolist() == src[s:s + k].tolist()
            assert (row[k:] == -np.inf).all()

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
        # 3.4 (t = 1) and 9.9 (t = 10) bytes per pair: only the pairs that
        # pass the cut, 5 % and 31 % of them, are transposed.  A transpose of
        # all of them took 12.1.
        g = random_pairs(2000, 400_000, 5)
        out, peak = traced_peak(sparsify_top_t, g, t)
        assert len(g) > 180_000 and 0 < len(out) < len(g)
        assert peak < 11 * len(g)

    def test_peak_memory_per_pair_hubs_last(self):
        # 7.0 bytes per pair (7.6 with the hubs first).
        pairs = self.power_law_pairs(hubs_last=True)
        out, peak = traced_peak(sparsify_top_t, pairs, 10)
        assert 0 < len(out) < len(pairs)
        assert peak < 9 * len(pairs)

    @pytest.mark.parametrize("t", [1, 10])
    def test_peak_memory_per_pair_every_weight_tied(self, t):
        # 14.5 bytes per pair: the cut keeps every pair, and ties are settled
        # slice by slice; holding the ties of all rows at once took 132, and
        # a full-size cut test by row, 15.1.
        g = random_pairs(2000, 400_000, 5)
        g = pair_set(g.n, g.u, g.v, np.ones(len(g)))
        out, peak = traced_peak(sparsify_top_t, g, t)
        assert 0 < len(out) < len(g)
        assert peak < 15 * len(g)

    @pytest.mark.parametrize("t", [1, 10])
    def test_peak_memory_per_pair_most_weights_tied(self, t):
        # The cut would keep 95 % of the pairs, and a copy of them held
        # beside their transpose took 24.5 bytes per pair; past half they go
        # on uncut, at the 14.5 of the all-tied set.
        g = random_pairs(2000, 400_000, 5)
        w = np.where(np.random.default_rng(5).random(len(g)) < 0.05, 0.5, 1.0)
        g = pair_set(g.n, g.u, g.v, w)
        assert similarity._top_t_cut(g, t, 1 << 14) is g
        out, peak = traced_peak(sparsify_top_t, g, t)
        assert 0 < len(out) < len(g)
        assert peak < 15 * len(g)


class TestStoredZerosAbsent:
    """scipy's product stores no exact 0, so neither does _co_reach, and
    symmetrize's epsilon = 0 step can keep every pair it is given."""

    CAP = 3

    def graph(self):
        # 0 and 1 share only successor 7 (in-degree 5) and predecessor 8
        # (out-degree 5), both over the cap: both direction sums are 0.
        # 2 and 3 share successor 9 and 5, 6 predecessor 10, under the cap.
        edges = [(x, 7) for x in range(5)] + [(8, x) for x in (0, 1, 4, 5, 6)]
        edges += [(2, 9), (3, 9), (10, 5), (10, 6)]
        return graph_from_pairs(edges, n=11)

    def dense(self, g, alpha=0.5, beta=0.5):
        """The pair weights of symmetrize at l = 1 with the hub cap, from
        dense matrices: a capped node's term is 0, its degree still counts."""
        a = (g.adj.toarray() != 0).astype(np.float64)
        d_out, d_in = a.sum(axis=1), a.sum(axis=0)
        out_in = _degree_discount(d_in, beta) * (d_in <= self.CAP)
        in_out = _degree_discount(d_out, alpha) * (d_out <= self.CAP)
        oa, ib = _degree_discount(d_out, alpha), _degree_discount(d_in, beta)
        total = (oa[:, None] * oa[None, :]) * ((a * out_in) @ a.T) \
            + (ib[:, None] * ib[None, :]) * ((a.T * in_out) @ a)
        return np.triu(total, 1)

    def test_pair_with_only_capped_neighbours_is_absent(self):
        g = self.graph()
        c = local_closure(g, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            acc = symmetrize(g, cfg(l=1, hub_cap=self.CAP))
            parts = [f(c, cfg(l=1, hub_cap=self.CAP))
                     for f in (out_reach_similarity, in_reach_similarity)]
        for part in parts:
            assert to_dense(part)[0, 1] == 0 and (part.w != 0).all()
        assert to_dense(acc)[0, 1] == 0 and (acc.w > 0).all()
        want = self.dense(g)
        assert want[0, 1] == 0 and 0 < len(acc) == np.count_nonzero(want)
        np.testing.assert_allclose(to_dense(acc)[want != 0], want[want != 0],
                                   rtol=1e-12)
        assert to_dense(acc)[np.triu(want == 0, 1)].max(initial=0) == 0

    def test_all_zero_inner_gives_no_pair(self):
        g = powerlaw_digraph(400, 1200, 0.6, seed=2)
        c = local_closure(g, 2)
        outer = _degree_discount(c.d_out_plus, 0.5)
        for disc in (None, neighbor_discount_data(c.out_mat.indptr, c.out_mat.indices,
                                                  auto_hierarchy(g), 1.0)):
            acc = _co_reach(c.out_mat, outer, np.zeros(g.n), disc)
            assert len(acc) == 0 and acc.indptr.tolist() == [0] * (g.n + 1)


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


class TestSelect:
    @given(canonical_pairs(max_n=16, max_pairs=80), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_pairs_built_from_the_mask(self, case, data):
        # Masks keeping at most half the pairs are gathered by index, the
        # others by mask.
        n, u, v, w = case
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(w),
                                           max_size=len(w))), dtype=bool)
        g = pair_set(n, u, v.astype(index_dtype(n)), w)
        out = g.select(keep)
        want = pair_set(n, u[keep], g.v[keep], w[keep])
        assert out.indptr.dtype == g.indptr.dtype
        for a, b in ((out.indptr, want.indptr), (out.v, want.v), (out.w, want.w)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("share", [0.186, 0.95])
    def test_peak_memory_per_pair(self, share):
        # 3.7 and 15.4 bytes per pair: a gather by index, at 8 bytes a kept
        # pair, took 19.0 at 95 %.
        g = random_pairs(2000, 400_000, 5)
        keep = np.random.default_rng(6).random(len(g)) < share
        out, peak = traced_peak(g.select, keep)
        assert len(out) == np.count_nonzero(keep)
        assert peak < (4.5 + 12 * share) * len(g)


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
        assert np.allclose(to_dense(out), a_u, atol=1e-9)

    def test_symmetry_of_reconstruction(self):
        rng = np.random.default_rng(37)
        g = random_digraph(rng, 25, 0.15)
        d = to_dense(symmetrize(g, cfg(l=2)))
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
        # tracemalloc does not see the products' buffer, an anonymous map:
        # 0.36 times the stored bytes, bounded at 0.45 (25 % margin).
        sizes, real = [], mmap.mmap

        def recorded(fileno, length, *args, **kwargs):
            sizes.append(length)
            return real(fileno, length, *args, **kwargs)

        with mock.patch.object(similarity.mmap, "mmap", recorded):
            acc, peak = traced_peak(_co_reach, c.out_mat, outer, inner)
        assert len(acc) > 300_000 and len(_row_blocks(c.out_mat)) > 3
        stored = acc.indptr.nbytes + acc.v.nbytes + acc.w.nbytes
        assert peak < 1.9 * stored
        assert len(sizes) == 1 and sizes[0] < 0.45 * stored


def two_row_blocks(R):
    return np.r_[np.arange(0, R.shape[0], 2), R.shape[0]]


def heavy_row_alone(R):
    """Blocks of one row each around R's heaviest row h: h - 1, h, h + 1."""
    h = int(np.diff(R.indptr).argmax())
    return np.unique([0, h - 1, h, h + 1, h + 2, R.shape[0]])


class TestCoReachBlockLayouts:
    @staticmethod
    def graph():
        """A power-law graph relabelled so that the heaviest out-reach and
        in-reach rows each sit between two nodes without edges."""
        g = powerlaw_digraph(1500, 4000, 0.6, seed=7)
        c = local_closure(g, 2)
        hubs = list(dict.fromkeys([int(c.d_out_plus.argmax()),
                                   int(c.d_in_plus.argmax())]))
        deg = np.diff(g.adj.indptr) + np.bincount(g.adj.indices, minlength=g.n)
        lone = np.flatnonzero(deg == 0)[:2 * len(hubs)].tolist()
        rest = [x for x in range(g.n) if x not in hubs and x not in lone]
        order = rest[:500] + [lone[0], hubs[0], lone[1]] + rest[500:1000]
        if len(hubs) > 1:
            order += [lone[2], hubs[1], lone[3]]
        order += rest[1000:]
        new = np.empty(g.n, dtype=np.int64)
        new[order] = np.arange(g.n)
        a = g.adj.tocoo()
        return graph_from_pairs(zip(new[a.row].tolist(), new[a.col].tolist()), g.n)

    def test_block_bounds_change_no_bit(self):
        g = self.graph()
        c = local_closure(g, 2)
        h = auto_hierarchy(g)
        for R, d_outer, d_inner in ((c.out_mat, c.d_out_plus, c.d_in_plus),
                                    (c.in_mat, c.d_in_plus, c.d_out_plus)):
            outer = _degree_discount(d_outer, 0.5)
            inner = _degree_discount(d_inner, 0.5)
            disc = neighbor_discount_data(R.indptr, R.indices, h, 1.0)
            hub = int(np.diff(R.indptr).argmax())
            assert np.diff(R.indptr)[[hub - 1, hub + 1]].tolist() == [0, 0]
            assert len(_row_blocks(R)) > 3
            want = _co_reach(R, outer, inner, disc)
            assert len(want) > 10_000
            for blocks in (one_row_blocks, two_row_blocks, heavy_row_alone):
                with mock.patch.object(similarity, "_row_blocks", blocks):
                    got = _co_reach(R, outer, inner, disc)
                for a, b in ((got.indptr, want.indptr), (got.v, want.v),
                             (got.w, want.w)):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def block_product(R, r0, r1):
    """Row block [r0, r1)'s product right[r0:] @ left[r0:r1]^T by scipy's
    public ``@``, over R's pattern: every weight 1, so no entry cancels."""
    n, p0, p1 = R.shape[0], R.indptr[r0], R.indptr[r1]
    ones = np.ones(R.nnz - p0)
    right = sp.csr_matrix((ones, R.indices[p0:], R.indptr[r0:] - p0),
                          shape=(n - r0, n))
    left = sp.csr_matrix((ones[:p1 - p0], R.indices[p0:p1],
                          R.indptr[r0:r1 + 1] - p0), shape=(r1 - r0, n))
    return right @ left.T


def block_flops(R, r0, r1):
    """The raw flop count of the block's product: its uncapped bound."""
    p0, p1 = R.indptr[r0], R.indptr[r1]
    per_k = np.bincount(R.indices[p0:p1], minlength=R.shape[0])
    return int(per_k[R.indices[p0:]].sum())


class TestCoReachKernel:
    """_co_reach calls scipy's kernels into a buffer it sizes itself."""

    @pytest.mark.parametrize("blocks", [_row_blocks, one_row_blocks, two_row_blocks])
    @given(st.one_of(digraphs(max_n=40, max_edges=120), hub_digraphs()),
           st.sampled_from([1, 2, 3, INF]))
    @settings(max_examples=100, deadline=None)
    def test_bound_never_undercounts(self, blocks, g, l):
        # An undercount would let csr_matmat write past the buffer.
        c = local_closure(g, l)
        for R in (c.out_mat, c.in_mat):
            b = blocks(R).tolist()
            for r0, r1 in zip(b[:-1], b[1:]):
                nnz = block_product(R, r0, r1).nnz
                assert nnz <= _block_bound(R, r0, r1) <= block_flops(R, r0, r1)

    @pytest.mark.parametrize("g, l", [
        (graph_from_pairs([(0, x) for x in range(1, 30)] + [(x, 0) for x in range(1, 30)]), 2),
        (powerlaw_digraph(3000, 9000, 0.45, seed=1), 3)], ids=["hub", "powerlaw-l3"])
    def test_bound_meets_the_cap(self, g, l):
        """Rows that meet more left entries than the block has rows are
        capped, so the bound stays within 1.5 times the entries (1.0 on the
        hub, 1.33 on the power-law graph), where the raw flop count is 30
        and 11.7 times them."""
        R = local_closure(g, l).out_mat
        b = _row_blocks(R).tolist()
        nnz, bound, flops = (sum(f(R, r0, r1) for r0, r1 in zip(b[:-1], b[1:]))
                             for f in (lambda *a: block_product(*a).nnz,
                                       _block_bound,
                                       block_flops))
        assert nnz <= bound < 1.5 * nnz and bound < flops

    @pytest.mark.parametrize("forced", [False, True], ids=["R-int64", "kernel-int64"])
    def test_int64_indices(self, forced):
        """R's int64 arrays are cast to the kernel's one index dtype, and
        int64 (forced, as past 2^31 indices) gives the same pairs."""
        g = powerlaw_digraph(2000, 4000, 0.45, seed=3)
        c = local_closure(g, 2)
        R = c.out_mat.copy()
        R.indptr, R.indices = R.indptr.astype(np.int64), R.indices.astype(np.int64)
        outer = _degree_discount(c.d_out_plus, 0.5)
        inner = _degree_discount(c.d_in_plus, 0.5)
        assert len(_row_blocks(R)) > 3
        rule = (lambda n: np.dtype(np.int64)) if forced else index_dtype
        with mock.patch.object(similarity, "index_dtype", rule):
            got = _co_reach(R, outer, inner)
        ref = co_reach_full_rows(c.out_mat, outer, inner)
        assert got.v.dtype == np.dtype(np.int64 if forced else np.int32)
        assert got.u.tolist() == ref.u.tolist() and got.v.tolist() == ref.v.tolist()
        assert got.w.tobytes() == ref.w.tobytes()

    def test_no_counting_pass(self):
        """scipy's ``@`` counts each product's entries in a C pass before
        it computes them; _co_reach skips that pass."""
        c = local_closure(powerlaw_digraph(500, 1500, 0.45, seed=2), 2)
        ones = np.ones(c.out_mat.shape[0])

        def counted(*args):
            raise AssertionError("csr_matmat_maxnnz called")

        with mock.patch("scipy.sparse._sparsetools.csr_matmat_maxnnz", counted), \
                mock.patch("scipy.sparse._compressed.csr_matmat_maxnnz", counted):
            assert len(_co_reach(c.out_mat, ones, ones)) > 1000


class TestRowBlocks:
    def test_no_rows_no_block(self):
        R = sp.csr_matrix((0, 0))
        assert _row_blocks(R).tolist() == [0]
        acc = _co_reach(R, np.ones(0), np.ones(0))
        assert acc.n == 0 and len(acc) == 0

    def test_all_rows_empty(self):
        R = sp.csr_matrix((5, 5))
        assert len(_co_reach(R, np.ones(5), np.ones(5))) == 0

    @given(st.one_of(digraphs(max_n=40, max_edges=200), hub_digraphs()),
           st.sampled_from([1, 2, INF]))
    @settings(max_examples=100, deadline=None)
    def test_bounds_cover_rows_strictly_increasing(self, g, l):
        c = local_closure(g, l)
        for R in (c.out_mat, c.in_mat):
            bounds = _row_blocks(R)
            assert bounds[0] == 0 and bounds[-1] == g.n
            assert (np.diff(bounds) > 0).all()

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachsym import (HierarchyScores, ParseError, SymmetrizationConfig,
                      ValidationError, auto_hierarchy, graph_from_pairs,
                      load_edge_list, load_hierarchy, pair_hierarchy_discount,
                      symmetrize)
from reachsym import hierarchy

from conftest import (digraphs, pair_set, random_digraph, random_pairs,
                      traced_peak)
from reference import distance_discount, out_neighbors


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
        assert len(auto_hierarchy(g)) == 0


class TestLoadHierarchy:
    def graph(self):
        return load_edge_list(io.StringIO("a\tb\nb\tc"))

    def test_min_max_normalization(self):
        h = load_hierarchy(io.StringIO("a\t10\nb\t20\nc\t30"), self.graph())
        assert h.score.tolist() == [0.0, 0.5, 1.0]

    def test_degenerate_all_equal_maps_to_zero(self):
        h = load_hierarchy(io.StringIO("a\t7\nb\t7\nc\t7"), self.graph())
        assert h.score.tolist() == [0.0, 0.0, 0.0]

    def test_missing_node_named(self):
        with pytest.raises(ValidationError, match="c"):
            load_hierarchy(io.StringIO("a\t1\nb\t2"), self.graph())

    def test_unknown_label_warned_and_ignored(self):
        with pytest.warns(UserWarning, match="unknown label"):
            h = load_hierarchy(io.StringIO("a\t1\nb\t2\nc\t3\nghost\t9"),
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

    def test_duplicate_label_rejected(self):
        with pytest.raises(ParseError,
                           match="line 4: duplicate score for label 'a'"):
            load_hierarchy(io.StringIO("a\t1\nb\t2\nc\t3\na\t9"),
                           self.graph())


def acc_one_pair(n, u, v, w):
    return pair_set(n, [u], np.array([v]), [float(w)])


class TestPairHierarchyDiscount:
    def test_equal_scores_unchanged(self):
        h = HierarchyScores(np.array([0.4, 0.4]))
        acc = pair_hierarchy_discount(acc_one_pair(2, 0, 1, 2.0), h, gamma=3.0)
        assert acc.get(0, 1) == 2.0

    def test_gamma_zero_identity(self):
        h = HierarchyScores(np.array([0.0, 1.0]))
        acc = pair_hierarchy_discount(acc_one_pair(2, 0, 1, 2.0), h, gamma=0.0)
        assert acc.get(0, 1) == 2.0

    def test_unit_difference_halves(self):
        h = HierarchyScores(np.array([0.0, 1.0]))
        acc = pair_hierarchy_discount(acc_one_pair(2, 0, 1, 1.0), h, gamma=1.0)
        assert acc.get(0, 1) == pytest.approx(0.5, abs=1e-15)

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
        acc = random_pairs(30, 200, 3)
        s = np.random.default_rng(4).random(30)
        with mock.patch.object(hierarchy, "_SLICE", slice_):
            out = pair_hierarchy_discount(acc, HierarchyScores(s), gamma)
        w = (np.abs(s[acc.u] - s[acc.v]) + 1.0) ** -gamma * acc.w
        assert out.w.tobytes() == w.tobytes()

    def test_peak_memory_per_pair(self):
        # The new weights and one slice's row indices and gathers: 10.4 bytes
        # per pair; a full-size gather of the v-side scores takes 16.4.
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
        with pytest.raises(ValidationError, match="c"):
            symmetrize(g, SymmetrizationConfig(l=1), h)

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
        assert damped.get(0, 1) == pytest.approx(base.get(0, 1) / 4)

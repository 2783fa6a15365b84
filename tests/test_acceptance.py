"""End-to-end acceptance suite.  Each test prints one PASS/FAIL line."""
import io
import itertools
import resource
import time

import numpy as np
import pytest

from reachsym import (INF, SymmetrizationConfig, auto_hierarchy, bibliometric,
                      degree_discounted, graph_from_pairs, in_reach_similarity,
                      local_closure, out_reach_similarity, symmetrize,
                      write_undirected)
from reachsym.cli import main
from conftest import powerlaw_digraph

from conftest import random_digraph, reach_by_matrix_powers
from reference import dense_closure, dense_similarity, reach_rows, to_dense


class _report:
    """Context manager printing `ACCEPTANCE PASS/FAIL: <name>`."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {verdict}: {self.name}", flush=True)
        return False


def cfg(**kw):
    return SymmetrizationConfig(**kw)


def sparse_a_u(closure, alpha, beta, h, delta):
    c = cfg(l=closure.l, alpha=alpha, beta=beta, delta=delta)
    b = out_reach_similarity(closure, c, h)
    return to_dense(b.add(in_reach_similarity(closure, c, h)))


def test_oracle_equivalence():
    """200 random digraphs x {l} x {alpha, beta} x {hierarchy}: the sparse
    pipeline matches the dense matrix oracle within 1e-9 per entry."""
    with _report("oracle equivalence (200 graphs, full config grid, 1e-9)"):
        rng = np.random.default_rng(2024)
        exps = (0.0, 0.5, 1.0)
        for gi in range(200):
            n = int(rng.integers(5, 41))
            p = rng.choice([0.05, 0.1, 0.2])
            g = random_digraph(rng, n, p)
            h = auto_hierarchy(g)
            for l in (1, 2, 3, INF):
                c = local_closure(g, l)
                dc = dense_closure(g, l)
                for alpha, beta in itertools.product(exps, exps):
                    for hh, delta in ((None, 1.0), (h, 0.0), (h, 1.0)):
                        got = sparse_a_u(c, alpha, beta, hh, delta)
                        _, _, want = dense_similarity(dc, alpha, beta,
                                                      h=hh, delta=delta)
                        assert np.abs(got - want).max() <= 1e-9, \
                            (gi, l, alpha, beta, delta, hh is not None)


def _fixtures():
    rng = np.random.default_rng(99)
    graphs = [
        graph_from_pairs([], n=1),
        graph_from_pairs([(0, 2), (1, 2)], n=3),
        graph_from_pairs([(0, 1), (1, 2), (2, 0)], n=3),
        graph_from_pairs([(3, 0), (3, 1), (3, 2), (0, 2), (1, 2)], n=4),
    ]
    for _ in range(30):
        n = int(rng.integers(2, 35))
        graphs.append(random_digraph(rng, n, rng.choice([0.05, 0.1, 0.2, 0.4])))
    return graphs


def test_baseline_reduction():
    """Depth-1 reach output is byte-identical to the degree-discounted
    baseline and weight-equal to bibliometric at alpha = beta = 0."""
    with _report("baseline reduction at l = 1 (byte-identical / 1e-12 rel)"):
        for g in _fixtures():
            a = io.BytesIO()
            write_undirected(symmetrize(g, cfg(l=1, alpha=0.5, beta=0.5)),
                             g.labels, a)
            b = io.BytesIO()
            write_undirected(degree_discounted(g, 0.5, 0.5), g.labels, b)
            assert a.getvalue() == b.getvalue()

            r0 = symmetrize(g, cfg(l=1, alpha=0.0, beta=0.0))
            bib = bibliometric(g)
            assert r0.u.tolist() == bib.u.tolist()
            assert r0.v.tolist() == bib.v.tolist()
            assert np.allclose(r0.w, bib.w, rtol=1e-12, atol=0)


def test_second_order_motif():
    """Two nodes sharing successors and predecessors only at distance 2 are
    unconnected at l = 1 but connected at l = 2."""
    with _report("distance-2 motif: weight 0 at l = 1, positive at l = 2"):
        f, g_, x1, x2, s, p, y1, y2 = range(8)
        g = graph_from_pairs([
            (f, x1), (x1, s), (g_, x2), (x2, s),
            (p, y1), (y1, f), (p, y2), (y2, g_),
        ], n=8)
        assert to_dense(symmetrize(g, cfg(l=1)))[f, g_] == 0.0
        w2 = to_dense(symmetrize(g, cfg(l=2)))[f, g_]
        assert w2 > 0.0
        assert w2 == pytest.approx(0.5, abs=1e-12)


def test_hierarchy_monotonicity():
    """On 100 random graphs, growing the hierarchy gap of a pair (or of a
    pair to a common neighbor) never increases the weight; strictly
    decreases it for positive exponents and base weights."""
    with _report("hierarchy monotonicity (pair-level and neighbor-level)"):
        rng = np.random.default_rng(7)
        checked_pair = checked_neighbor = 0
        for _ in range(100):
            n = int(rng.integers(4, 25))
            g = random_digraph(rng, n, 0.25)
            c = local_closure(g, 2)
            base = out_reach_similarity(c, cfg(l=2)).add(
                in_reach_similarity(c, cfg(l=2)))
            if len(base) == 0:
                continue

            # pair level: move v away from u in score space, all else fixed
            k = int(rng.integers(len(base)))
            u, v = int(base.u[k]), int(base.v[k])
            gaps = np.sort(rng.random(4))
            for gamma in (0.0, 1.0, 2.5):
                weights = []
                for gap in gaps:
                    scores = np.zeros(n)
                    scores[v] = gap
                    from reachsym import HierarchyScores, pair_hierarchy_discount
                    disc = pair_hierarchy_discount(
                        base, HierarchyScores(scores), gamma)
                    weights.append(to_dense(disc)[u, v])
                diffs = np.diff(weights)
                assert (diffs <= 1e-15).all()
                if gamma > 0 and to_dense(base)[u, v] > 0:
                    assert (diffs < 0).all()
                    checked_pair += 1

            # neighbor level: move a common successor k0 away from both
            # endpoints; only its own contribution changes
            cand = [(i, int(reach_rows(c.in_mat)[i][0]),
                     int(reach_rows(c.in_mat)[i][1]))
                    for i in range(n) if len(reach_rows(c.in_mat)[i]) >= 2]
            if not cand:
                continue
            k0, i, j = cand[int(rng.integers(len(cand)))]
            if i == k0 or j == k0:
                continue
            for delta in (0.0, 1.0, 2.5):
                weights = []
                for gap in gaps:
                    from reachsym import HierarchyScores
                    scores = np.zeros(n)
                    scores[k0] = gap
                    acc = out_reach_similarity(
                        c, cfg(l=2, delta=delta), HierarchyScores(scores))
                    weights.append(to_dense(acc)[i, j])
                diffs = np.diff(weights)
                assert (diffs <= 1e-12).all()
                if delta > 0:
                    assert (diffs < 0).all()
                    checked_neighbor += 1
        assert checked_pair > 50 and checked_neighbor > 50


def test_thread_count_determinism(tmp_path):
    """Full CLI pipeline on a 10k-node power-law graph: --threads 1 and
    --threads 8 produce byte-identical files."""
    with _report("byte-identical output at --threads 1 vs --threads 8"):
        # slight node surplus: isolated nodes drop out of the edge-list
        # round trip and the loaded graph must still exceed 10k nodes
        g = powerlaw_digraph(10_700, 30_000, 0.45, seed=7)
        inp = tmp_path / "g.tsv"
        with open(inp, "w") as fh:
            from conftest import write_edge_list
            write_edge_list(g, fh)
        from reachsym import load_edge_list
        with open(inp) as fh:
            assert load_edge_list(fh).n >= 10_000
        out1 = tmp_path / "t1.tsv"
        out8 = tmp_path / "t8.tsv"
        assert main(["symmetrize", "-i", str(inp), "-o", str(out1),
                     "--threads", "1"]) == 0
        assert main(["symmetrize", "-i", str(inp), "-o", str(out8),
                     "--threads", "8"]) == 0
        b1 = out1.read_bytes()
        assert len(b1) > 0
        assert b1 == out8.read_bytes()


def test_performance_smoke(tmp_path):
    """100k-edge power-law graph, method=reach, l=2, defaults: finishes in
    under 60 s with peak memory under 2 GB."""
    with _report("performance smoke (100k edges, < 60 s, < 2 GB)"):
        t0 = time.perf_counter()
        g = powerlaw_digraph(50_000, 100_000, 0.45, seed=123)
        assert g.edge_count == 100_000
        result = symmetrize(g, cfg(l=2))
        with open(tmp_path / "out.tsv", "wb") as fh:
            write_undirected(result, g.labels, fh)
        elapsed = time.perf_counter() - t0
        peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 ** 2
        assert len(result) > 0
        assert elapsed < 60, f"took {elapsed:.1f}s"
        assert peak_gb < 2.0, f"peak RSS {peak_gb:.2f} GB"


def test_reachability_cross_validation():
    """The sparse matrix-power closure equals the dense boolean-matrix-power
    oracle on 100 random graphs for every depth, with exact set equality."""
    with _report("sparse closure vs dense matrix powers (100 graphs, exact)"):
        rng = np.random.default_rng(31337)
        for _ in range(100):
            n = int(rng.integers(2, 31))
            g = random_digraph(rng, n, rng.choice([0.05, 0.1, 0.2]))
            for l in (1, 2, 3, INF):
                want = reach_by_matrix_powers(g, l)
                c = local_closure(g, l)
                for i in range(n):
                    assert reach_rows(c.out_mat)[i].tolist() == \
                        np.flatnonzero(want[i]).tolist()

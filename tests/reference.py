"""Test-only code: the dense oracle, per-source BFS, the scalar neighbor
discount, a TSV reader for written output, and per-node views of CSR
matrices and graphs.

The references work on Python sets or explicit n x n numpy arrays,
independent of the sparse production path; clarity over speed.
"""
from __future__ import annotations

from typing import Iterable, Optional

import numpy as np
import scipy.sparse as sp

from reachsym import (DirectedGraph, HierarchyScores, ParseError,
                      ValidationError)
from reachsym.closure import _check_depth

DENSE_GUARD = 512


def reach_rows(m: sp.csr_matrix) -> list[np.ndarray]:
    """Read-only sorted row views of a CSR matrix: for a closure's
    ``out_mat``, the nodes each node reaches; for ``in_mat``, the nodes
    that reach it.  For the condensation DAG, each SCC's successors."""
    indices = m.indices.view()
    indices.flags.writeable = False
    return np.split(indices, m.indptr[1:-1]) if m.shape[0] else []


def out_neighbors(g: DirectedGraph, u: int) -> np.ndarray:
    a = g.adj
    return a.indices[a.indptr[u]:a.indptr[u + 1]]


def in_neighbors(g: DirectedGraph, u: int) -> np.ndarray:
    r = g.adj.tocsc()  # column u holds u's predecessors, sorted
    return r.indices[r.indptr[u]:r.indptr[u + 1]]


def reversed_graph(g: DirectedGraph) -> DirectedGraph:
    """Graph with every edge direction flipped (labels preserved)."""
    return DirectedGraph(g.n, g.labels, g.adj.T.tocsr(), weighted=g.weighted,
                         self_loops_dropped=g.self_loops_dropped)


def bfs_bounded(g: DirectedGraph, source: int, l, direction: str = "out"
                ) -> np.ndarray:
    """Sorted set of nodes with a directed path of length in [1, l] from
    (direction="out") or to (direction="in") ``source``.

    The source itself is included only when it lies on a cycle of length <= l.
    """
    _check_depth(l)
    if direction == "out":
        neigh = out_neighbors
    elif direction == "in":
        neigh = in_neighbors
    else:
        raise ValidationError(f"direction must be 'out' or 'in', got {direction!r}")
    if not (0 <= source < g.n):
        raise ValidationError(f"source {source} out of range")

    visited: set[int] = set()
    frontier = [source]
    depth = 0
    while frontier and depth < l:
        nxt = []
        for u in frontier:
            for v in neigh(g, u).tolist():
                if v not in visited:
                    visited.add(v)
                    nxt.append(v)
        frontier = nxt
        depth += 1
    return np.array(sorted(visited), dtype=np.int64)


def distance_discount(i: int, j: int, k: int, h: HierarchyScores,
                      delta: float) -> float:
    """Damping factor in (0, 1] for common neighbor k of the pair (i, j)."""
    if delta < 0:
        raise ValidationError("delta must be ≥ 0")
    s = h.score
    return float(((1.0 + abs(s[i] - s[k])) * (1.0 + abs(s[j] - s[k]))) ** -delta)


def read_undirected(stream: Iterable[str]) -> list[tuple[str, str, float]]:
    """Read back a written undirected edge list as (labelU, labelV, weight)."""
    out = []
    for line_no, raw in enumerate(stream, 1):
        line = raw.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError("expected `u<TAB>v<TAB>weight`", line_no)
        out.append((parts[0], parts[1], float(parts[2])))
    return out


def dense_closure(g: DirectedGraph, l) -> np.ndarray:
    """Boolean 0/1 reachability matrix: entry (i, j) = 1 iff a directed path
    of length in [1, l] exists.  Computed by entrywise-OR of boolean powers
    A^1 ... A^l (fixed point for l = inf)."""
    if g.n > DENSE_GUARD:
        raise ValidationError(f"dense oracle refuses n > {DENSE_GUARD}")
    a = (g.adj.toarray() != 0)
    acc = a.copy()
    power = a.copy()
    step = 1
    while step < l:
        power = (power @ a) > 0
        nxt = acc | power
        if (nxt == acc).all():
            break
        acc = nxt
        step += 1
    return acc.astype(np.float64)


def dense_similarity(closure: np.ndarray, alpha: float, beta: float,
                     h: Optional[HierarchyScores] = None, delta: float = 1.0
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Literal evaluation of the two similarity matrices and their sum.

    Zero-degree rows/columns use the zero convention (their discount factor
    is 0, matching the sparse path).  The returned sum has a zeroed diagonal,
    matching the no-self-pair rule.  When hierarchy scores are given, each
    common-neighbor term k is damped by
    1 / ((1 + |h_i - h_k|) (1 + |h_j - h_k|))^delta.
    """
    n = closure.shape[0]
    d_out = closure.sum(axis=1)
    d_in = closure.sum(axis=0)

    def disc(deg, e):
        out = np.zeros(n)
        nz = deg > 0
        out[nz] = deg[nz] ** -e
        return out

    oa = disc(d_out, alpha)
    ib = disc(d_in, beta)
    if h is not None:
        m = (1.0 + np.abs(h.score[:, None] - h.score[None, :])) ** -delta
    else:
        m = np.ones((n, n))

    reach_w = closure * m                      # (i, k) term with its i-side damp
    b_o = (oa[:, None] * oa[None, :]) * np.einsum(
        "ik,jk,k->ij", reach_w, reach_w, ib)
    reached_w = closure.T * m                  # (i, k) = 1 iff k reaches i
    c_i = (ib[:, None] * ib[None, :]) * np.einsum(
        "ik,jk,k->ij", reached_w, reached_w, oa)
    a_u = b_o + c_i
    np.fill_diagonal(a_u, 0.0)
    return b_o, c_i, a_u

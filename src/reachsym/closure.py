"""Depth-bounded reachability (local transitive closure).

For depth bound l, a node's out-reach set contains every node reachable by a
directed path of length in [1, l]; in-reach mirrors it on reversed edges.
A node appears in its own reach set only through a genuine cycle of length
<= l (non-null paths only).  l = inf yields the exact transitive closure.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .graph import DirectedGraph, ValidationError

INF = math.inf

_LARGE_INF_WARN = 10_000


def _check_depth(l) -> None:
    if l == INF:
        return
    if not float(l).is_integer() or l < 1:
        raise ValidationError("depth must be ≥ 1")


@dataclass
class LocalClosure:
    """Bounded reach sets for one depth l, as two boolean CSR matrices."""

    n: int
    l: float                      # integer depth or math.inf
    out_mat: sp.csr_matrix        # (i, k) set iff k is reachable from i within l
    in_mat: sp.csr_matrix         # transpose of out_mat, indices sorted
    d_out_plus: np.ndarray        # |out_reach| per node
    d_in_plus: np.ndarray         # |in_reach| per node

    def out_csr(self) -> sp.csr_matrix:
        """The stored boolean out-reach pattern itself, not a copy: read only."""
        return self.out_mat

    def in_csr(self) -> sp.csr_matrix:
        """The stored boolean in-reach pattern itself, not a copy: read only."""
        return self.in_mat

    @cached_property
    def out_reach(self) -> list[np.ndarray]:
        """Read-only sorted row views: the nodes each node reaches within l."""
        return _rows(self.out_mat)

    @cached_property
    def in_reach(self) -> list[np.ndarray]:
        """Read-only sorted row views: the nodes that reach each node within l."""
        return _rows(self.in_mat)


def _rows(m: sp.csr_matrix) -> list[np.ndarray]:
    indices = m.indices.view()
    indices.flags.writeable = False
    return np.split(indices, m.indptr[1:-1]) if m.shape[0] else []


def bfs_bounded(g: DirectedGraph, source: int, l, direction: str = "out"
                ) -> np.ndarray:
    """Sorted set of nodes with a directed path of length in [1, l] from
    (direction="out") or to (direction="in") ``source``.

    The source itself is included only when it lies on a cycle of length <= l.
    """
    _check_depth(l)
    if direction == "out":
        neigh = g.out_neighbors
    elif direction == "in":
        neigh = g.in_neighbors
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
            for v in neigh(u).tolist():
                if v not in visited:
                    visited.add(v)
                    nxt.append(v)
        frontier = nxt
        depth += 1
    return np.array(sorted(visited), dtype=np.int64)


def local_closure(g: DirectedGraph, l, threads: int = 1) -> LocalClosure:
    """Local closure by boolean sparse matrix powers.

    Runs R <- R + R A from R = A, l - 1 times or until the entry count stops
    growing, which is how l = inf ends.  ``threads`` is accepted for
    compatibility and has no effect.
    """
    _check_depth(l)
    if l == INF and g.n > _LARGE_INF_WARN:
        warnings.warn(
            "l = inf computes the full transitive closure; this is expensive "
            "on large cyclic graphs", RuntimeWarning, stacklevel=2)
    n = g.n
    # Own index arrays: sort_indices below must never reorder g.adj.
    adj = sp.csr_matrix((np.ones(g.adj.nnz, dtype=bool), g.adj.indices.copy(),
                         g.adj.indptr.copy()), shape=(n, n))
    reach = adj
    depth = 1
    while depth < l:
        grown = reach + reach @ adj
        if grown.nnz == reach.nnz:
            break  # no new pair, so no later step adds one either
        reach = grown
        depth += 1
    reach.sort_indices()
    rev = reach.T.tocsr()
    rev.sort_indices()
    return LocalClosure(n=n, l=l, out_mat=reach, in_mat=rev,
                        d_out_plus=np.diff(reach.indptr).astype(np.int64),
                        d_in_plus=np.diff(rev.indptr).astype(np.int64))

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

import numpy as np
import scipy.sparse as sp

from .graph import DirectedGraph, ValidationError

INF = math.inf

_LARGE_INF_WARN = 10_000


def _check_depth(l) -> None:
    if l == INF:
        return
    if not (l >= 1 and l % 1 == 0):  # no float(l): an int may not fit one
        raise ValidationError("depth must be ≥ 1")


@dataclass
class LocalClosure:
    """Bounded reach sets for one depth l, as two CSR matrices with sorted
    indices.  They are read only: one may be the graph's own adjacency."""

    l: float                      # integer depth or math.inf
    out_mat: sp.csr_matrix        # (i, k) set iff k is reachable from i within l
    in_mat: sp.csr_matrix         # transpose of out_mat
    d_out_plus: np.ndarray        # out-reach size (weighted: row sum) per node
    d_in_plus: np.ndarray         # in-reach size (weighted: column sum) per node


def local_closure(g: DirectedGraph, l) -> LocalClosure:
    """Local closure by boolean sparse matrix powers.

    Runs R <- R + R A from R = A, l - 1 times or until the entry count stops
    growing, which is how l = inf ends.
    """
    _check_depth(l)
    if l == INF and g.n > _LARGE_INF_WARN:
        warnings.warn(
            "l = inf computes the full transitive closure; this is expensive "
            "on large cyclic graphs", RuntimeWarning, stacklevel=2)
    # Own index arrays: sort_indices below must never reorder g.adj.
    adj = sp.csr_matrix((np.ones(g.adj.nnz, dtype=bool), g.adj.indices.copy(),
                         g.adj.indptr.copy()), shape=(g.n, g.n))
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
    return LocalClosure(l=l, out_mat=reach, in_mat=rev,
                        d_out_plus=np.diff(reach.indptr).astype(np.int64),
                        d_in_plus=np.diff(rev.indptr).astype(np.int64))


def weighted_closure(g: DirectedGraph) -> LocalClosure:
    """Depth-1 closure that keeps the edge weights: the adjacency itself,
    with weighted out- and in-degrees.  A degree that overflows to inf is
    rejected, since its discount would turn the node's pair weights to NaN."""
    with np.errstate(over="ignore"):
        d_out = np.asarray(g.adj.sum(axis=1)).ravel()
        d_in = np.asarray(g.adj.sum(axis=0)).ravel()
    bad = ~(np.isfinite(d_out) & np.isfinite(d_in))
    if bad.any():
        raise ValidationError(f"weighted degree of node {g.labels[bad.argmax()]!r} "
                              "is not finite")
    rev = g.adj.T.tocsr()
    rev.sort_indices()
    return LocalClosure(l=1, out_mat=g.adj, in_mat=rev,
                        d_out_plus=d_out, d_in_plus=d_in)

"""Degree-discounted similarity over bounded reach sets.

The out-reach weight of a pair (i, j) sums 1 / d_in_plus(k)^beta over common
reachable successors k, normalized by d_out_plus(i)^alpha * d_out_plus(j)^alpha;
the in-reach weight mirrors it over common predecessors with alpha and beta
swapped.  The undirected result is the entrywise sum of the two.  Both are
evaluated as sparse matrix products over the closure, which performs the same
per-k summation at C speed while preserving sparsity; first-order baselines
(bibliometric coupling + co-citation counts, and the degree-discounted variant)
reuse the same kernel on the raw adjacency so the depth-1 reach output is
byte-identical to the degree-discounted baseline.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .accumulator import SimilarityAccumulator
from .closure import INF, LocalClosure, _check_depth, local_closure
from .graph import DirectedGraph, UndirectedWeightedGraph, ValidationError
from .hierarchy import HierarchyScores, neighbor_discount_data, pair_hierarchy_discount

METHODS = ("reach", "degree-discounted", "bibliometric")
HIERARCHY_MODES = ("none", "file", "auto")


@dataclass
class SymmetrizationConfig:
    method: str = "reach"
    l: float = 2                     # depth bound, integer >= 1 or math.inf
    alpha: float = 0.5               # out-degree discount exponent
    beta: float = 0.5                # in-degree discount exponent
    gamma: float = 1.0               # pair-level hierarchy exponent
    delta: float = 1.0               # common-neighbor hierarchy exponent
    hierarchy_mode: str = "none"
    epsilon: float = 0.0             # drop weights <= epsilon
    top_t: Optional[int] = None      # per-node strongest-edge cap
    hub_cap: Optional[int] = None    # skip common neighbors above this closure degree
    threads: int = 1

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        if self.hierarchy_mode not in HIERARCHY_MODES:
            raise ValidationError(f"unknown hierarchy mode {self.hierarchy_mode!r}")
        _check_depth(self.l)
        for name in ("alpha", "beta", "gamma", "delta", "epsilon"):
            val = getattr(self, name)
            if not math.isfinite(val) or val < 0:
                raise ValidationError(f"{name} must be finite and ≥ 0")
        if self.top_t is not None and self.top_t < 1:
            raise ValidationError("top_t must be ≥ 1")
        if self.hub_cap is not None and self.hub_cap < 1:
            raise ValidationError("hub_cap must be ≥ 1")
        if self.threads < 1:
            raise ValidationError("threads must be ≥ 1")


def _degree_discount(deg: np.ndarray, exponent: float,
                     cap: Optional[int] = None) -> np.ndarray:
    """deg^-exponent with zero-degree entries mapped to 0 (they can never
    contribute, so the 0^-x singularity is never evaluated)."""
    deg = np.asarray(deg, dtype=np.float64)
    out = np.zeros(len(deg))
    nz = deg > 0
    out[nz] = deg[nz] ** -exponent
    if cap is not None:
        over = deg > cap
        if over.any():
            warnings.warn(f"hub cap {cap}: skipping {int(over.sum())} "
                          "common-neighbor node(s)", stacklevel=3)
            out[over] = 0.0
    return out


_CO_REACH_BLOCK = 4096


def _co_reach(R: sp.csr_matrix, outer: np.ndarray, inner: np.ndarray,
              disc: Optional[np.ndarray] = None) -> SimilarityAccumulator:
    """Canonical pairs of P = diag(outer) Rd diag(inner) Rd^T diag(outer),
    where Rd is R with optional per-entry discount factors multiplied in.

    The product is evaluated in row blocks and only the strict upper
    triangle is kept, so the full symmetric matrix never materializes.
    """
    n = R.shape[0]
    rows = np.repeat(np.arange(n), np.diff(R.indptr))
    base = R.data * outer[rows]
    if disc is not None:
        base = base * disc
    left = sp.csr_matrix((base * inner[R.indices], R.indices, R.indptr),
                         shape=R.shape)
    right_t = sp.csr_matrix((base, R.indices, R.indptr), shape=R.shape).T.tocsr()

    us, vs, ws = [], [], []
    for r0 in range(0, n, _CO_REACH_BLOCK):
        r1 = min(r0 + _CO_REACH_BLOCK, n)
        prod = left[r0:r1] @ right_t
        prod.sort_indices()
        block = prod.tocoo()
        row = block.row.astype(np.int64) + r0
        keep = (block.col > row) & (block.data != 0.0)
        us.append(row[keep])
        vs.append(block.col[keep].astype(np.int64))
        ws.append(block.data[keep])
    if not us:
        return SimilarityAccumulator.empty(n)
    # blocks are row-major and each CSR row has sorted columns, so the
    # concatenation is already in canonical (u, v) order
    return SimilarityAccumulator(n, np.concatenate(us), np.concatenate(vs),
                                 np.concatenate(ws))


def out_reach_similarity(c: LocalClosure, cfg: SymmetrizationConfig,
                         h: Optional[HierarchyScores] = None
                         ) -> SimilarityAccumulator:
    """Pair similarity through common reachable successors."""
    if c.l != cfg.l:
        raise ValidationError(f"closure depth {c.l} does not match config depth {cfg.l}")
    R = c.out_csr()
    outer = _degree_discount(c.d_out_plus, cfg.alpha)
    inner = _degree_discount(c.d_in_plus, cfg.beta, cap=cfg.hub_cap)
    disc = None
    if h is not None:
        disc = neighbor_discount_data(R.indptr, R.indices, h, cfg.delta)
    return _co_reach(R, outer, inner, disc)


def in_reach_similarity(c: LocalClosure, cfg: SymmetrizationConfig,
                        h: Optional[HierarchyScores] = None
                        ) -> SimilarityAccumulator:
    """Pair similarity through common reaching predecessors (roles of the
    out/in degrees swapped relative to out_reach_similarity)."""
    if c.l != cfg.l:
        raise ValidationError(f"closure depth {c.l} does not match config depth {cfg.l}")
    R = c.in_csr()
    outer = _degree_discount(c.d_in_plus, cfg.beta)
    inner = _degree_discount(c.d_out_plus, cfg.alpha, cap=cfg.hub_cap)
    disc = None
    if h is not None:
        disc = neighbor_discount_data(R.indptr, R.indices, h, cfg.delta)
    return _co_reach(R, outer, inner, disc)


def _first_order_acc(g: DirectedGraph, alpha: float, beta: float,
                     use_weights: bool) -> SimilarityAccumulator:
    A = g.adj if use_weights else sp.csr_matrix(
        (np.ones(g.adj.nnz), g.adj.indices, g.adj.indptr), shape=(g.n, g.n))
    At = A.T.tocsr()
    At.sort_indices()
    d_out = np.asarray(A.sum(axis=1)).ravel()
    d_in = np.asarray(A.sum(axis=0)).ravel()
    b = _co_reach(A, _degree_discount(d_out, alpha), _degree_discount(d_in, beta))
    c = _co_reach(At, _degree_discount(d_in, beta), _degree_discount(d_out, alpha))
    return b.add(c)


def degree_discounted(g: DirectedGraph, alpha: float = 0.5, beta: float = 0.5
                      ) -> UndirectedWeightedGraph:
    """First-order baseline: reach similarity with reach sets replaced by the
    direct successor/predecessor lists.  Edge weights, when present, enter as
    weight products in the numerators and weighted degrees in the discounts."""
    acc = _first_order_acc(g, alpha, beta, use_weights=True)
    return _to_undirected(g, acc)


def bibliometric(g: DirectedGraph) -> UndirectedWeightedGraph:
    """Unnormalized baseline: |common successors| + |common predecessors|."""
    acc = _first_order_acc(g, 0.0, 0.0, use_weights=False)
    return _to_undirected(g, acc)


def _to_undirected(g: DirectedGraph, acc: SimilarityAccumulator,
                   epsilon: float = 0.0) -> UndirectedWeightedGraph:
    u, v, w = acc.u, acc.v, acc.w
    keep = w > epsilon
    if not keep.all():
        u, v, w = u[keep], v[keep], w[keep]
    return UndirectedWeightedGraph(g.n, g.labels, u, v, w)


def symmetrize(g: DirectedGraph, cfg: SymmetrizationConfig,
               h: Optional[HierarchyScores] = None) -> UndirectedWeightedGraph:
    """Full pipeline: similarity accumulation, optional hierarchy discounts,
    epsilon thresholding, optional top-t sparsification."""
    cfg.validate()
    use_h = cfg.hierarchy_mode != "none"
    if use_h:
        if cfg.method != "reach":
            raise ValidationError("hierarchy refinements require method 'reach'")
        if h is None:
            raise ValidationError("hierarchy_mode is "
                                  f"{cfg.hierarchy_mode!r} but no scores were given")
        if len(h) != g.n:
            missing = g.labels[len(h):] if len(h) < g.n else []
            raise ValidationError(
                "hierarchy scores must cover every node; missing: "
                + ", ".join(missing))

    if cfg.method == "bibliometric":
        acc = _first_order_acc(g, 0.0, 0.0, use_weights=False)
    elif cfg.method == "degree-discounted":
        acc = _first_order_acc(g, cfg.alpha, cfg.beta, use_weights=True)
    else:
        c = local_closure(g, cfg.l, threads=cfg.threads)
        hh = h if use_h else None
        acc = out_reach_similarity(c, cfg, hh).add(in_reach_similarity(c, cfg, hh))
        if hh is not None:
            acc = pair_hierarchy_discount(acc, hh, cfg.gamma)

    out = _to_undirected(g, acc, cfg.epsilon)
    del acc  # frees the pair arrays before top-t unless out shares them
    if cfg.top_t is not None:
        out = sparsify_top_t(out, cfg.top_t)
    return out


def sparsify_top_t(g: UndirectedWeightedGraph, t: int) -> UndirectedWeightedGraph:
    """Keep each edge iff it ranks in the top t by weight for either endpoint
    (union semantics); ties broken toward the smaller partner index."""
    if t < 1:
        raise ValidationError("top_t must be ≥ 1")
    m = len(g.w)
    if m == 0:
        return g
    # Symmetric adjacency U + U^T holding edge id + 1 (the sum would drop an
    # explicit 0); the halves never overlap.  The ids take the narrowest
    # dtype that holds m: U + U^T is this step's memory peak.  The tie rule
    # needs partners ascending within each row.
    ids = np.arange(1, m + 1, dtype=np.min_scalar_type(m))
    upper = SimilarityAccumulator(g.n, g.u, g.v, ids).to_matrix()
    sym = (upper + upper.T).tocsr()
    del upper
    sym.sort_indices()
    indptr, edge = sym.indptr, sym.data - 1
    del sym
    w = g.w[edge]
    keep = np.ones(len(edge), dtype=bool)
    for r in np.flatnonzero(np.diff(indptr) > t).tolist():
        row = w[indptr[r]:indptr[r + 1]]
        tau = np.partition(row, len(row) - t)[len(row) - t]  # t-th largest
        kept = row > tau
        ties = np.flatnonzero(row == tau)[:t - np.count_nonzero(kept)]
        kept[ties] = True  # the smallest partners among the ties
        keep[indptr[r]:indptr[r + 1]] = kept
    mask = np.zeros(m, dtype=bool)
    mask[edge[keep]] = True
    return UndirectedWeightedGraph(g.n, g.labels, g.u[mask], g.v[mask], g.w[mask])

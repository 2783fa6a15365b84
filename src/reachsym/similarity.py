"""Degree-discounted similarity over bounded reach sets.

The out-reach weight of a pair (i, j) sums 1 / d_in_plus(k)^beta over common
reachable successors k, normalized by d_out_plus(i)^alpha * d_out_plus(j)^alpha;
the in-reach weight mirrors it over common predecessors with alpha and beta
swapped.  The undirected result is the entrywise sum of the two.  Both are
evaluated as sparse matrix products over the closure, which performs the same
per-k summation at C speed while preserving sparsity.  The first-order
baselines are the same kernel over a depth-1 closure: bibliometric coupling
plus co-citation counts with alpha = beta = 0, and the degree-discounted
variant over the weighted adjacency, so depth-1 reach output is
byte-identical to the degree-discounted baseline on unweighted input.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .accumulator import SimilarityAccumulator
from .closure import LocalClosure, _check_depth, local_closure, weighted_closure
from .graph import DirectedGraph, ValidationError
from .hierarchy import HierarchyScores, neighbor_discount_data, pair_hierarchy_discount

METHODS = ("reach", "degree-discounted", "bibliometric")


@dataclass
class SymmetrizationConfig:
    method: str = "reach"
    l: float = 2                     # depth bound, integer >= 1 or math.inf
    alpha: float = 0.5               # out-degree discount exponent
    beta: float = 0.5                # in-degree discount exponent
    gamma: float = 1.0               # pair-level hierarchy exponent
    delta: float = 1.0               # common-neighbor hierarchy exponent
    epsilon: float = 0.0             # drop weights <= epsilon
    top_t: Optional[int] = None      # per-node strongest-edge cap
    hub_cap: Optional[int] = None    # reach only: skip common neighbors above
                                     # this closure degree

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        _check_depth(self.l)
        for name in ("alpha", "beta", "gamma", "delta", "epsilon"):
            val = getattr(self, name)
            if not math.isfinite(val) or val < 0:
                raise ValidationError(f"{name} must be finite and ≥ 0")
        if self.top_t is not None and self.top_t < 1:
            raise ValidationError("top_t must be ≥ 1")
        if self.hub_cap is not None:
            if self.method != "reach":
                raise ValidationError("hub_cap only applies to method 'reach'")
            if self.hub_cap < 1:
                raise ValidationError("hub_cap must be ≥ 1")


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


def _row_blocks(R: sp.csr_matrix) -> np.ndarray:
    """Row-block bounds for _co_reach, cut at equal cumulative product work.

    A row's work is the flop count of its product row: the summed column
    counts of its entries.  About sqrt(work / (0.4 nnz)) blocks balance the
    lower triangle that each extra block skips against the O(nnz) transpose
    it costs; on small inputs a block's fixed cost of scipy calls, about
    2^15 flops' worth, takes the place of the transpose.  A row heavier
    than one block's share gets a block to itself.
    """
    n = R.shape[0]
    cols = np.bincount(R.indices, minlength=R.shape[1])
    cum = np.r_[0, np.cumsum(cols[R.indices])][R.indptr]  # work of rows < i
    k = max(1, round(math.sqrt(cum[-1] / max(0.4 * R.nnz, 2 ** 15))))
    step = cum[-1] / k
    heavy = np.flatnonzero(np.diff(cum) > step)
    cuts = np.searchsorted(cum, step * np.arange(1, k))
    return np.unique(np.r_[0, cuts, heavy, heavy + 1, n])


def _co_reach(R: sp.csr_matrix, outer: np.ndarray, inner: np.ndarray,
              disc: Optional[np.ndarray] = None) -> SimilarityAccumulator:
    """Canonical pairs of P = diag(outer) Rd diag(inner) Rd^T diag(outer),
    where Rd is R with optional per-entry discount factors multiplied in.

    P is symmetric, so row block [r0, r1) (from _row_blocks) is multiplied
    only against rows r0: of the right factor and its strict upper triangle
    kept.  Every entry still sums its terms in full-row order, so the
    weights are bit-identical to those of a full product.
    """
    n = R.shape[0]
    rows = np.repeat(np.arange(n), np.diff(R.indptr))
    base = R.data * outer[rows]
    if disc is not None:
        base = base * disc
    left = sp.csr_matrix((base * inner[R.indices], R.indices, R.indptr),
                         shape=R.shape)
    right = sp.csr_matrix((base, R.indices, R.indptr), shape=R.shape)

    us, vs, ws = [], [], []
    bounds = _row_blocks(R)
    for r0, r1 in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        prod = left[r0:r1] @ right[r0:].T.tocsr()
        prod.sort_indices()
        block = prod.tocoo()
        keep = (block.col > block.row) & (block.data != 0.0)
        us.append(block.row[keep].astype(np.int64) + r0)
        vs.append(block.col[keep].astype(np.int64) + r0)
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
    R = c.out_mat
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
    R = c.in_mat
    outer = _degree_discount(c.d_in_plus, cfg.beta)
    inner = _degree_discount(c.d_out_plus, cfg.alpha, cap=cfg.hub_cap)
    disc = None
    if h is not None:
        disc = neighbor_discount_data(R.indptr, R.indices, h, cfg.delta)
    return _co_reach(R, outer, inner, disc)


def degree_discounted(g: DirectedGraph, alpha: float = 0.5, beta: float = 0.5
                      ) -> SimilarityAccumulator:
    """First-order baseline: reach similarity with reach sets replaced by the
    direct successor/predecessor lists.  Edge weights, when present, enter as
    weight products in the numerators and weighted degrees in the discounts."""
    return symmetrize(g, SymmetrizationConfig(method="degree-discounted",
                                              alpha=alpha, beta=beta))


def bibliometric(g: DirectedGraph) -> SimilarityAccumulator:
    """Unnormalized baseline: |common successors| + |common predecessors|."""
    return symmetrize(g, SymmetrizationConfig(method="bibliometric"))


def symmetrize(g: DirectedGraph, cfg: SymmetrizationConfig,
               h: Optional[HierarchyScores] = None) -> SimilarityAccumulator:
    """Full pipeline: similarity accumulation, hierarchy discounts when
    scores ``h`` are given, epsilon thresholding, optional top-t
    sparsification."""
    cfg.validate()
    if h is not None:
        if cfg.method != "reach":
            raise ValidationError("hierarchy refinements require method 'reach'")
        if len(h) != g.n:
            missing = g.labels[len(h):] if len(h) < g.n else []
            raise ValidationError(
                "hierarchy scores must cover every node; missing: "
                + ", ".join(missing))

    if cfg.method == "reach":
        c = local_closure(g, cfg.l)
    elif cfg.method == "bibliometric":
        cfg = replace(cfg, l=1, alpha=0.0, beta=0.0)
        c = local_closure(g, 1)
    else:
        cfg = replace(cfg, l=1)
        c = weighted_closure(g)
    # Extreme edge weights can overflow a discount (inf) or meet one (inf * 0
    # is NaN); the pair that gets such a weight is reported below instead.
    with np.errstate(over="ignore", invalid="ignore"):
        acc = out_reach_similarity(c, cfg, h).add(in_reach_similarity(c, cfg, h))
    if h is not None:
        acc = pair_hierarchy_discount(acc, h, cfg.gamma)

    # Checked before epsilon, whose `w > epsilon` would drop a NaN silently.
    if not np.isfinite(acc.w).all():
        k = np.isfinite(acc.w).argmin()  # the first non-finite pair
        a, b = g.labels[acc.u[k]], g.labels[acc.v[k]]
        raise ValidationError(f"weight of pair ({a!r}, {b!r}) is not finite")
    acc = acc.select(acc.w > cfg.epsilon)
    if cfg.top_t is not None:
        acc = sparsify_top_t(acc, cfg.top_t)
    return acc


def sparsify_top_t(pairs: SimilarityAccumulator, t: int) -> SimilarityAccumulator:
    """Keep each edge iff it ranks in the top t by weight for either endpoint
    (union semantics); ties broken toward the smaller partner index."""
    if t < 1:
        raise ValidationError("top_t must be ≥ 1")
    m = len(pairs.w)
    if m == 0:
        return pairs
    # Symmetric adjacency U + U^T holding edge id + 1 (the sum would drop an
    # explicit 0); the halves never overlap.  The ids take the narrowest
    # dtype that holds m: U + U^T is this step's memory peak.  The tie rule
    # needs partners ascending within each row.
    ids = np.arange(1, m + 1, dtype=np.min_scalar_type(m))
    upper = SimilarityAccumulator(pairs.n, pairs.u, pairs.v, ids).to_matrix()
    sym = (upper + upper.T).tocsr()
    del upper
    sym.sort_indices()
    indptr, edge = sym.indptr, sym.data - 1
    del sym
    w = pairs.w[edge]
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
    return pairs.select(mask)

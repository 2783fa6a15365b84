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

from .accumulator import SimilarityAccumulator, index_dtype
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
    lower triangle that each extra block skips against the O(nnz) pass over
    the rows below it that it costs; on small inputs a block's fixed cost of
    scipy calls, about 2^15 flops' worth, takes the place of that pass.  A
    row heavier than one block's share gets a block to itself.
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

    P is symmetric, so row block [r0, r1) (from _row_blocks) is computed
    only against rows r0:, as right[r0:] @ left[r0:r1]^T over a view of R's
    arrays; its CSC form holds the block's rows with sorted columns, and the
    strict upper triangle is kept.  Entry (i, j) sums right[j, k] * left[i, k]
    over ascending k: the terms of a full left @ right^T in the same order,
    and IEEE products commute, so the weights are bit-identical to it.
    """
    n = R.shape[0]
    base = R.data * np.repeat(outer, np.diff(R.indptr))
    if disc is not None:
        base = base * disc
    left = sp.csr_matrix((base * inner[R.indices], R.indices, R.indptr),
                         shape=R.shape)

    counts, vs, ws = [], [], []
    bounds = _row_blocks(R)
    for r0, r1 in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        p0 = R.indptr[r0]
        right = sp.csr_matrix((base[p0:], R.indices[p0:], R.indptr[r0:] - p0),
                              shape=(n - r0, n))
        block = (right @ left[r0:r1].T).tocsc()
        row = np.repeat(np.arange(r1 - r0, dtype=index_dtype(n)), np.diff(block.indptr))
        keep = (block.indices > row) & (block.data != 0.0)
        counts.append(np.bincount(row[keep], minlength=r1 - r0))
        vs.append(np.add(block.indices[keep], r0, dtype=row.dtype))
        ws.append(block.data[keep])
    if not vs:
        return SimilarityAccumulator.empty(n)
    # Blocks are row-major and each CSC column has sorted rows, so the joins
    # are in canonical (u, v) order.  Only the lists are held through them.
    del base, left
    indptr = np.r_[0, np.cumsum(np.concatenate(counts))]
    idx = index_dtype(max(n, int(indptr[-1])))
    v = np.concatenate(vs, dtype=idx)
    del vs
    return SimilarityAccumulator(n, indptr.astype(idx), v, np.concatenate(ws))


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
        a, b = g.labels[acc.rows(k, k + 1)[0]], g.labels[acc.v[k]]
        raise ValidationError(f"weight of pair ({a!r}, {b!r}) is not finite")
    acc = acc.select(acc.w > cfg.epsilon)
    if cfg.top_t is not None:
        acc = sparsify_top_t(acc, cfg.top_t)
    return acc


# sparsify_top_t works in chunks of m / 16 cells (threshold blocks) or pairs
# (keep slices), so that a chunk stays small beside the pair arrays, but of at
# least 2^14, so that a chunk's dozen numpy calls stay cheap, and at most this.
_TOP_T_CHUNK = 1 << 22


def sparsify_top_t(pairs: SimilarityAccumulator, t: int) -> SimilarityAccumulator:
    """Keep each edge iff it ranks in the top t by weight for either endpoint
    (union semantics); ties broken toward the smaller partner index.

    Node r's threshold tau[r] is the t-th largest weight among its partners
    (-inf for at most t).  An edge is kept when its weight exceeds tau at
    either end, and so are the first t - #{weight > tau[r]} partners of r,
    by index, whose weight equals tau[r].
    """
    if t < 1:
        raise ValidationError("top_t must be ≥ 1")
    m, n, w = len(pairs.w), pairs.n, pairs.w
    cells = min(_TOP_T_CHUNK, max(m // 16, 1 << 14))
    # Row r of the symmetric adjacency is column r of the upper triangle U
    # (from its CSC form) and row r of U, a range of the canonical pairs.
    lower = pairs.to_matrix().tocsc()
    uptr, cptr, below = pairs.indptr, lower.indptr, lower.data
    del lower
    deg = np.diff(uptr) + np.diff(cptr)
    heavy = np.flatnonzero(deg > t)
    if not len(heavy):
        return pairs
    heavy = heavy[np.argsort(deg[heavy], kind="stable")]
    tau = np.full(n, -np.inf)
    room = np.zeros(n, dtype=np.int64)  # places left for weights equal to tau
    # Rows of one degree class (deg in (2^(c-1), 2^c]) share blocks of at most
    # `cells` cells, each row padded with -inf to the block's largest degree.
    cls = np.frexp(deg[heavy] - 1)[1]
    bounds = np.flatnonzero(np.r_[True, cls[1:] != cls[:-1], True]).tolist()
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        step = max(1, cells >> int(cls[b0]))
        for c0 in range(b0, b1, step):
            rows = heavy[c0:min(c0 + step, b1)]
            width = int(deg[rows[-1]])
            block = np.full((len(rows), width), -np.inf)
            nlo = cptr[rows + 1] - cptr[rows]
            _place(block, below, cptr[rows], nlo, 0)
            _place(block, w, uptr[rows], uptr[rows + 1] - uptr[rows], nlo)
            block.partition(width - t, axis=1)
            tau[rows] = block[:, width - t]
            room[rows] = t - np.count_nonzero(block[:, width - t + 1:]
                                              > tau[rows, None], axis=1)
    del below, block

    keep = np.empty(m, dtype=bool)
    for s in range(0, m, cells):
        u, v, ws = pairs.rows(s, s + cells), pairs.v[s:s + cells], w[s:s + cells]
        tu, tv = tau[u], tau[v]
        np.logical_or(ws > tu, ws > tv, out=keep[s:s + cells])
        # In canonical order a row meets its ties by ascending partner: those
        # below it (as v) before those above it (as u).  So each row takes
        # its ties in (row, position) order while it has room.
        ev, eu = np.flatnonzero(ws == tv), np.flatnonzero(ws == tu)
        key = np.r_[v[ev], u[eu]].astype(np.int64) * len(ws) + np.r_[ev, eu]
        row, at = np.divmod(np.sort(key), len(ws))
        first = np.flatnonzero(np.diff(row, prepend=-1))
        count = np.diff(first, append=len(row))
        fits = np.arange(len(row)) - np.repeat(first, count) < room[row]
        keep[s + at[fits]] = True
        room[row[first]] -= count
    return pairs.select(keep)


def _place(block: np.ndarray, src: np.ndarray, starts: np.ndarray,
           lens: np.ndarray, col) -> None:
    """Copy src[starts[i]:starts[i] + lens[i]] into row i of ``block`` from
    column col (or col[i]) on."""
    skip = np.cumsum(lens) - lens  # values placed before row i
    j = np.arange(skip[-1] + lens[-1])
    width = block.shape[1]
    at = np.arange(0, block.size, width) + col - skip
    block.reshape(-1)[np.repeat(at, lens) + j] = src[np.repeat(starts - skip, lens) + j]

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
import mmap
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools
from numpy.lib.stride_tricks import sliding_window_view

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

    def validate(self, hierarchy: bool = False) -> None:
        """Raise ValidationError unless this config is valid, also with
        hierarchy scores when ``hierarchy`` is true."""
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
        if hierarchy and self.method != "reach":
            raise ValidationError("hierarchy refinements require method 'reach'")


def _degree_discount(deg: np.ndarray, exponent: float) -> np.ndarray:
    """deg^-exponent with zero-degree entries mapped to 0 (they can never
    contribute, so the 0^-x singularity is never evaluated)."""
    deg = np.asarray(deg, dtype=np.float64)
    out = np.zeros(len(deg))
    nz = deg > 0
    out[nz] = deg[nz] ** -exponent
    return out


def _row_blocks(R: sp.csr_matrix) -> np.ndarray:
    """Row-block bounds for _co_reach, cut at equal cumulative product work.

    A row's work is the flop count of its product row: the summed column
    counts of its entries.  A block costs about 0.4 nnz flops, mostly one
    scipy pass and one _block_bound pass over the rows below it (fitted at
    l = 2 for two scipy passes; 0.2 and 0.8 time alike since), and k blocks
    skip all but work (1 + 1/k) / 2 of the products, so k = sqrt(work /
    (2 · 0.4 nnz)) minimizes the sum.  On small inputs a block's fixed cost
    of kernel calls, about 2^15 flops' worth, takes their place.
    """
    n = R.shape[0]
    cols = np.bincount(R.indices, minlength=R.shape[1])
    cum = np.r_[0, np.cumsum(cols[R.indices])][R.indptr]  # work of rows < i
    k = max(1, round(math.sqrt(cum[-1] / max(0.8 * R.nnz, 2 ** 15))))
    cuts = np.searchsorted(cum, cum[-1] / k * np.arange(1, k))
    return np.unique(np.r_[0, cuts, n])


def _block_bound(R: sp.csr_matrix, r0: int, r1: int) -> int:
    """Upper bound on block [r0, r1)'s entries: Σ_j min(Σ_{k∈R[j]} |leftT[k]|, r1 - r0)."""
    p0 = R.indptr[r0]
    per_k = np.bincount(R.indices[p0:R.indptr[r1]], minlength=R.shape[1])
    cum = np.r_[0, np.cumsum(per_k[R.indices[p0:]])][R.indptr[r0:] - p0]
    return int(np.minimum(np.diff(cum), r1 - r0).sum())


def _co_reach(R: sp.csr_matrix, outer: np.ndarray, inner: np.ndarray,
              disc: Optional[np.ndarray] = None) -> SimilarityAccumulator:
    """Canonical pairs of P = diag(outer) Rd diag(inner) Rd^T diag(outer),
    where Rd is R with optional per-entry discount factors multiplied in.

    P is symmetric, so row block [r0, r1) (from _row_blocks) is computed
    only against rows r0:, as right[r0:] @ left[r0:r1]^T over views of R's
    arrays; only its first r1 - r0 rows, the block's own square, hold
    entries with j <= i.  Entry (i, j) sums right[j, k] * left[i, k] over
    ascending k: the terms of a full left @ right^T in the same order, and
    IEEE products commute, so the weights are bit-identical to it.  Each
    block runs scipy's csr_tocsc (leftT) and csr_matmat as ``@`` does, minus
    its counting pass, into one reused map sized by the largest _block_bound.
    """
    n = R.shape[0]
    base = R.data * np.repeat(outer, np.diff(R.indptr))
    if disc is not None:
        base = base * disc
    lw = base * inner[R.indices]  # left's entries

    bounds = _row_blocks(R).tolist()
    blocks = list(zip(bounds[:-1], bounds[1:]))
    top = max((_block_bound(R, *b) for b in blocks), default=0)
    if not top:
        return SimilarityAccumulator.empty(n)
    idx = index_dtype(max(n, top, R.nnz))  # one for all of a kernel's arrays
    Rp, Rj = R.indptr.astype(idx, copy=False), R.indices.astype(idx, copy=False)
    try:  # not np.empty: glibc would then keep later arrays on its heap
        buf = mmap.mmap(-1, top * (8 + idx.itemsize))
    except OSError as e:  # ENOMEM, where numpy raises MemoryError
        raise MemoryError(e) from e
    wx, wj = np.frombuffer(buf, np.float64, top), np.frombuffer(buf, idx, top, 8 * top)
    counts, vs, ws = [], [], []
    for r0, r1 in blocks:
        p0, p1, q, m = Rp[r0], Rp[r1], r1 - r0, n - r0
        tp, tj, tx = np.empty(n + 1, idx), np.empty(p1 - p0, idx), np.empty(p1 - p0)
        _sparsetools.csr_tocsc(q, n, Rp[r0:r1 + 1] - p0, Rj[p0:p1], lw[p0:p1], tp, tj, tx)
        ptr = np.empty(m + 1, idx)
        _sparsetools.csr_matmat(m, q, Rp[r0:] - p0, Rj[p0:], base[p0:],
                                tp, tj, tx, ptr, wj, wx)
        # The square's kept entries move up against the rows below, in place.
        h, nnz = ptr[q], ptr[m]
        keep = np.flatnonzero(wj[:h] < np.repeat(np.arange(q, dtype=idx),
                                                 np.diff(ptr[:q + 1])))
        o = h - len(keep)
        wx[o:h], wj[o:h] = wx[keep], wj[keep]
        ptr[:q + 1], ptr[q + 1:] = np.searchsorted(keep, ptr[:q + 1]), ptr[q + 1:] - o
        cp, ci, cx = np.empty(q + 1, idx), np.empty(nnz - o, idx), np.empty(nnz - o)
        _sparsetools.csr_tocsc(m, q, ptr, wj[o:nnz], wx[o:nnz], cp, ci, cx)  # has no exact 0
        counts.append(np.diff(cp))
        vs.append(np.add(ci, r0, dtype=index_dtype(n)))
        ws.append(cx)
    # Blocks are row-major and each CSC column has sorted rows, so the joins
    # are in canonical (u, v) order.  Only the lists are held through them.
    del base, lw, wx, wj, buf
    indptr = np.r_[0, np.cumsum(np.concatenate(counts))]
    idx = index_dtype(max(n, int(indptr[-1])))
    v = np.concatenate(vs, dtype=idx)
    del vs
    return SimilarityAccumulator(n, indptr.astype(idx), v, np.concatenate(ws))


def out_reach_similarity(c: LocalClosure, cfg: SymmetrizationConfig,
                         h: Optional[HierarchyScores] = None
                         ) -> SimilarityAccumulator:
    """Pair similarity through common reachable successors."""
    return _reach(c, cfg, h, c.out_mat, c.d_out_plus, cfg.alpha, c.d_in_plus, cfg.beta)


def in_reach_similarity(c: LocalClosure, cfg: SymmetrizationConfig,
                        h: Optional[HierarchyScores] = None
                        ) -> SimilarityAccumulator:
    """Pair similarity through common reaching predecessors (roles of the
    out/in degrees swapped relative to out_reach_similarity)."""
    return _reach(c, cfg, h, c.in_mat, c.d_in_plus, cfg.beta, c.d_out_plus, cfg.alpha)


def _reach(c: LocalClosure, cfg: SymmetrizationConfig,
           h: Optional[HierarchyScores], R: sp.csr_matrix, outer: np.ndarray,
           a: float, inner: np.ndarray, b: float) -> SimilarityAccumulator:
    """The body of both directions.  A hub-cap warning names their caller's
    line (stacklevel 3), so when both directions warn alike it prints once."""
    if c.l != cfg.l:
        raise ValidationError(f"closure depth {c.l} does not match config depth {cfg.l}")
    inner_disc = _degree_discount(inner, b)
    if cfg.hub_cap is not None:
        over = inner > cfg.hub_cap
        if over.any():
            warnings.warn(f"hub cap {cfg.hub_cap}: skipping {int(over.sum())} "
                          "common-neighbor node(s)", stacklevel=3)
            inner_disc[over] = 0.0
    return _co_reach(R, _degree_discount(outer, a), inner_disc,
                     None if h is None else
                     neighbor_discount_data(R.indptr, R.indices, h, cfg.delta))


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
    cfg.validate(hierarchy=h is not None)
    if h is not None and len(h) != g.n:
        raise ValidationError(
            f"one hierarchy score per node: {len(h)} scores for {g.n} nodes"
            if len(h) > g.n else "hierarchy scores must cover every node; "
            "missing: " + ", ".join(g.labels[len(h):]))

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
    # At 0 it is skipped: every weight is stored, so nonzero, and finite.
    acc = acc.select(acc.w > cfg.epsilon) if cfg.epsilon > 0 else acc
    if cfg.top_t is not None:
        acc = sparsify_top_t(acc, cfg.top_t)
    return acc


# sparsify_top_t works in chunks of m / 16 cells (threshold blocks) or pairs
# (cut and keep slices), so that a chunk stays small beside the pair arrays,
# but of at least 2^14, so that a chunk's dozen numpy calls stay cheap, and at
# most this.
_TOP_T_CHUNK = 1 << 22


def sparsify_top_t(pairs: SimilarityAccumulator, t: int) -> SimilarityAccumulator:
    """Keep each edge iff it ranks in the top t by weight for either endpoint
    (union semantics); ties broken toward the smaller partner index.

    Node r's threshold tau[r] is the t-th largest weight among its partners
    (-inf for at most t).  An edge is kept when its weight exceeds tau at
    either end, and so are the first t - #{weight > tau[r]} partners of r,
    by index, whose weight equals tau[r]: those up to partner last[r].
    The thresholds and ties are those of the pairs that _top_t_cut keeps,
    which holds every pair at or above tau at either end.
    """
    if t < 1:
        raise ValidationError("top_t must be ≥ 1")
    cells = min(_TOP_T_CHUNK, max(len(pairs) // 16, 1 << 14))
    pairs = _top_t_cut(pairs, t, cells)
    m, n, w = len(pairs.w), pairs.n, pairs.w
    # Row r of the symmetric adjacency is column r of the upper triangle U
    # (from its CSC form) and row r of U, a range of the canonical pairs.
    lower = pairs.to_matrix().tocsc()
    uptr, cptr, below, below_v = pairs.indptr, lower.indptr, lower.data, lower.indices
    del lower
    deg = np.diff(uptr) + np.diff(cptr)
    heavy = np.flatnonzero(deg > t)
    if not len(heavy):
        return pairs
    tau = np.full(n, -np.inf)
    last = np.full(n, n, dtype=pairs.v.dtype)

    for rows, width in _degree_blocks(heavy, deg, cells):
        # Each row's weights by ascending partner: those below it, then those
        # above it, from w at uptr - nlo (>= 0: r's lower pairs precede it).
        nlo = cptr[rows + 1] - cptr[rows]
        block = _windows(w, uptr[rows] - nlo, deg[rows], width)
        k = int(nlo.max())  # whole windows: only their first nlo cells are read
        np.copyto(block[:, :k], _windows(below, cptr[rows], np.full_like(nlo, k), k),
                  where=np.arange(k) < nlo[:, None])
        k = width - t
        top = np.partition(block, k, axis=1)
        tau[rows] = top[:, k]
        # Columns k on hold the t largest, room of them equal to tau.  A tie
        # left of column k means more ties than room: last[r] is then the
        # partner of the room-th tie in the block, which is in partner order.
        crowded = (top[:, :k] == tau[rows, None]).any(axis=1)
        room = np.count_nonzero(top[:, k:] == tau[rows, None], axis=1)[crowded]
        del top
        if crowded.any():
            ties = (block == tau[rows, None])[crowded]
            rows = rows[crowded]
            c = (np.cumsum(ties, axis=1, dtype=np.int32) == room[:, None]).argmax(axis=1)
            nlo = cptr[rows + 1] - cptr[rows]
            lo = c < nlo
            last[rows[lo]] = below_v[(cptr[rows] + c)[lo]]
            last[rows[~lo]] = pairs.v[(uptr[rows] + c - nlo)[~lo]]
        del block  # before the next one is filled
    del below, below_v

    keep = np.empty(m, dtype=bool)
    for s in range(0, m, cells):
        v, ws = pairs.v[s:s + cells], w[s:s + cells]
        tu, tv = pairs.rows(s, s + cells, tau), tau.take(v)
        np.logical_or(ws > tu, ws > tv, out=keep[s:s + cells])
        # A tie is kept up to the last partner of its end whose tie stays.
        eu, ev = np.flatnonzero(ws == tu), np.flatnonzero(ws == tv)
        keep[s + eu[v[eu] <= pairs.rows(s, s + cells, last)[eu]]] = True
        keep[s + ev[pairs.rows(s, s + cells)[ev] <= last.take(v[ev])]] = True
    return pairs.select(keep)


def _top_t_cut(pairs: SimilarityAccumulator, t: int,
               cells: int) -> SimilarityAccumulator:
    """The pairs whose weight is at least tau_up at either end, or all of
    them when that is over half.

    tau_up[r], the t-th largest weight in row r of the pairs (its partners
    above r; -inf for fewer than t), is at most tau[r].  A pair below it at
    both ends is below tau at both ends, so no node keeps it, and every pair
    at or above tau[r] stays: r's threshold and ties are unchanged.
    """
    uptr, w = pairs.indptr, pairs.w
    updeg = np.diff(uptr)
    wide = np.flatnonzero(updeg >= t)  # rows with a tau_up above -inf
    if not len(wide):
        return pairs

    tau_up = np.full(pairs.n, -np.inf)
    for rows, width in _degree_blocks(wide, updeg, cells):
        block = _windows(w, uptr[rows], updeg[rows], width)
        block.partition(width - t, axis=1)
        tau_up[rows] = block[:, -t]
        del block  # before the next one is filled
    cut = np.empty(len(w), dtype=bool)
    for s in range(0, len(w), cells):
        ws = w[s:s + cells]
        np.logical_or(ws >= pairs.rows(s, s + cells, tau_up),
                      ws >= tau_up.take(pairs.v[s:s + cells]), out=cut[s:s + cells])
    # The kept pairs' copy is held beside their transpose, about 24 bytes a
    # kept pair against 12 a pair for a transpose of them all; past half, the
    # pairs go on uncut.
    if np.count_nonzero(cut) > len(w) // 2:
        return pairs
    return pairs.select(cut)


def _degree_blocks(rows: np.ndarray, deg: np.ndarray, cells: int):
    """Yield (rows, width) over ``rows`` by ascending degree: rows of one
    degree class (deg in (2^(c-1), 2^c]) in groups of at most ``cells``
    cells, width the group's largest degree."""
    rows = rows[np.argsort(deg[rows], kind="stable")]
    cls = np.frexp(deg[rows] - 1)[1]
    bounds = np.flatnonzero(np.r_[True, cls[1:] != cls[:-1], True]).tolist()
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        step = max(1, cells >> int(cls[b0]))
        for c0 in range(b0, b1, step):
            part = rows[c0:min(c0 + step, b1)]
            yield part, int(deg[part[-1]])


def _windows(src: np.ndarray, starts: np.ndarray, lens: np.ndarray, width: int):
    """A fresh block whose row i is src[starts[i]:starts[i] + lens[i]], then
    -inf: a gather of strided windows over src, which is not copied."""
    end = len(src) - width  # the last start of a whole window
    block = sliding_window_view(src, width)[np.minimum(starts, end)]
    over = np.flatnonzero(starts > end)
    if len(over):  # from a copy of src's last width - 1 values
        tail = np.r_[src[end + 1:], np.empty(width)]
        block[over] = sliding_window_view(tail, width)[starts[over] - end - 1]
    lo = int(lens.min(initial=width))
    block[:, lo:][np.arange(lo, width) >= lens[:, None]] = -np.inf
    return block

import os
import tracemalloc

import numpy as np
import scipy.sparse as sp
from hypothesis import settings
from hypothesis import strategies as st

from reachsym import (ParseError, SimilarityAccumulator, ValidationError,
                      graph_from_pairs, pair_hierarchy_discount, sparsify_top_t)
from reachsym.accumulator import index_dtype
from reachsym.similarity import _degree_discount
from reference import dense_closure, dense_similarity


# HYPOTHESIS_PROFILE=ci draws the same examples on every run and prints the
# blob that replays a failure, so a red case in CI is the same case locally.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


@st.composite
def digraphs(draw, min_n=1, max_n=10, max_edges=30):
    n = draw(st.integers(min_n, max_n))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=max_edges))
    return graph_from_pairs(edges, n=n)


def traced_peak(fn, *args):
    """``fn(*args)`` and the tracemalloc peak, in bytes, of what the call
    allocated."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pair_set(n, u, v, w):
    """The pair set of ``n`` nodes holding the pairs (u[k], v[k]) with
    weights w[k], given in canonical order (u ascending, v ascending within
    each u); its rows are stored in ``v``'s dtype."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v)
    assert (np.diff(u) >= 0).all(), "pairs must be sorted by u"
    indptr = np.zeros(n + 1, dtype=v.dtype)
    np.cumsum(np.bincount(u, minlength=n), out=indptr[1:])
    return SimilarityAccumulator(n, indptr, v, np.asarray(w))


def random_pairs(n, draws, seed):
    """Canonical pairs of ``n`` nodes in the accumulator's index dtype, from
    ``draws`` uniform (u, v) draws (self-pairs, duplicates and u > v
    dropped), with uniform random weights."""
    rng = np.random.default_rng(seed)
    u, v = np.divmod(np.unique(rng.integers(0, n * n, size=draws)), n)
    keep = u < v
    idx = index_dtype(n)
    return pair_set(n, u[keep], v[keep].astype(idx),
                    rng.random(np.count_nonzero(keep)))


def random_digraph(rng, n, p):
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    us, vs = np.nonzero(mask)
    return graph_from_pairs(list(zip(us.tolist(), vs.tolist())), n=n)


def reach_by_matrix_powers(g, l):
    """Independent reachability oracle: entrywise-OR of A^1..A^l."""
    a = (g.adj.toarray() != 0).astype(np.int64)
    acc = np.zeros_like(a)
    power = np.eye(g.n, dtype=np.int64)
    step = 0
    prev = None
    while step < l:
        power = (power @ a > 0).astype(np.int64)
        acc = acc | power
        step += 1
        if prev is not None and (acc == prev).all():
            break
        prev = acc.copy()
    return acc.astype(bool)


@st.composite
def canonical_pairs(draw, max_n=12, max_pairs=40, max_weight=3):
    """(n, u, v, w): distinct canonical pairs u < v sorted by (u, v), with
    small integer weights so that ties are frequent."""
    n = draw(st.integers(2, max_n))
    raw = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                        max_size=max_pairs))
    pairs = sorted({(min(a, b), max(a, b)) for a, b in raw if a != b})
    w = draw(st.lists(st.integers(1, max_weight), min_size=len(pairs),
                      max_size=len(pairs)))
    u = np.array([p[0] for p in pairs], dtype=np.int64)
    v = np.array([p[1] for p in pairs], dtype=np.int64)
    return n, u, v, np.array(w, dtype=np.float64)


def sparsify_top_t_by_lexsort(g, t):
    """Reference top-t: one global sort by (node, -weight, partner), then the
    first t entries of each node's run; an edge survives if either endpoint
    keeps it."""
    m = len(g.w)
    node = np.concatenate([g.u, g.v])
    partner = np.concatenate([g.v, g.u])
    w = np.concatenate([g.w, g.w])
    eid = np.tile(np.arange(m), 2)
    order = np.lexsort((partner, -w, node))
    sn = node[order]
    starts = np.flatnonzero(np.r_[True, sn[1:] != sn[:-1]])
    rank = np.arange(2 * m) - np.repeat(starts, np.diff(np.r_[starts, 2 * m]))
    mask = np.zeros(m, dtype=bool)
    mask[eid[order[rank < t]]] = True
    return mask


@st.composite
def cyclic_digraphs(draw, max_n=12, max_edges=30):
    """Random digraph plus a directed cycle through nodes 0..k."""
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, n - 1))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=max_edges))
    edges += [(i, i + 1) for i in range(k)] + [(k, 0)]
    return graph_from_pairs(edges, n=n)


def load_edge_list_by_lines(stream, weighted=False):
    """Reference parser: one Python pass per line, a tuple-keyed edge dict
    and a COO-built CSR.  Returns (labels, adj, self_loops_dropped)."""
    index, labels, edges, loops = {}, [], {}, 0

    def intern(tok):
        i = index.get(tok)
        if i is None:
            i = len(labels)
            index[tok] = i
            labels.append(tok)
        return i

    for line_no, raw in enumerate(stream, 1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 2 or not parts[0] or not parts[1]:
            raise ParseError("expected `src<TAB>dst[<TAB>weight]`", line_no)
        if weighted:
            if len(parts) < 3:
                raise ValidationError(
                    f"line {line_no}: weighted input requires a weight column")
            try:
                w = float(parts[2])
            except ValueError:
                raise ParseError(f"non-numeric weight {parts[2]!r}", line_no) from None
            if not np.isfinite(w) or w <= 0:
                raise ValidationError(
                    f"line {line_no}: edge weight must be finite and > 0, got {parts[2]}")
        else:
            w = 1.0
        u = intern(parts[0])
        v = intern(parts[1])
        if u == v:
            loops += 1
            continue
        edges[(u, v)] = edges.get((u, v), 0.0) + w if weighted else 1.0
    n = len(labels)
    us = np.array([e[0] for e in edges], dtype=np.int64)
    vs = np.array([e[1] for e in edges], dtype=np.int64)
    ws = np.array(list(edges.values()), dtype=np.float64)
    adj = sp.csr_matrix((ws, (us, vs)), shape=(n, n))
    adj.sort_indices()
    return labels, adj, loops


def write_undirected_by_fstrings(pairs, labels, stream, precision=6):
    """Reference writer: one f-string per output line."""
    fmt = f"%.{precision}f"
    stream.writelines(f"{labels[a]}\t{labels[b]}\t{fmt % c}\n"
                      for a, b, c in zip(pairs.u.tolist(), pairs.v.tolist(),
                                         pairs.w.tolist()))


def pairs_from_matrix(mat, n):
    """Pair set from any sparse matrix: its strictly-upper entries, explicit
    zeros dropped, in canonical (u, v) order."""
    coo = sp.triu(mat, k=1).tocoo()
    keep = coo.data != 0.0
    u = coo.row[keep].astype(np.int64)
    v = coo.col[keep].astype(np.int64)
    w = coo.data[keep].astype(np.float64)
    order = np.lexsort((v, u))
    return pair_set(n, u[order], v[order], w[order])


def oracle_symmetrize(g, cfg, h=None):
    """Dense-oracle counterpart of ``symmetrize``: dense closure and
    similarity, then the same pair discount, epsilon and top-t steps."""
    closure = dense_closure(g, cfg.l)
    _, _, a_u = dense_similarity(closure, cfg.alpha, cfg.beta, h=h,
                                 delta=cfg.delta)
    acc = pairs_from_matrix(sp.csr_matrix(np.triu(a_u, 1)), g.n)
    if h is not None:
        acc = pair_hierarchy_discount(acc, h, cfg.gamma)
    keep = acc.w > cfg.epsilon
    out = pair_set(g.n, acc.u[keep], acc.v[keep], acc.w[keep])
    if cfg.top_t is not None:
        out = sparsify_top_t(out, cfg.top_t)
    return out


_CO_REACH_BLOCK = 4096


def co_reach_full_rows(R, outer, inner, disc=None):
    """Reference co-reach kernel: fixed 4096-row blocks, each multiplied
    against the whole right factor, then the strict upper triangle kept."""
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
    return pair_set(n, np.concatenate(us), np.concatenate(vs),
                    np.concatenate(ws))


def first_order_by_adjacency(g, alpha, beta, use_weights):
    """Reference first-order accumulator: the co-reach kernel run straight on
    the adjacency (unit entries unless ``use_weights``) and its transpose,
    with degrees summed from it, outside any closure."""
    A = g.adj if use_weights else sp.csr_matrix(
        (np.ones(g.adj.nnz), g.adj.indices, g.adj.indptr), shape=(g.n, g.n))
    At = A.T.tocsr()
    At.sort_indices()
    d_out = np.asarray(A.sum(axis=1)).ravel()
    d_in = np.asarray(A.sum(axis=0)).ravel()
    b = co_reach_full_rows(A, _degree_discount(d_out, alpha),
                           _degree_discount(d_in, beta))
    c = co_reach_full_rows(At, _degree_discount(d_in, beta),
                           _degree_discount(d_out, alpha))
    return b.add(c)

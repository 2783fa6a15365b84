import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st

from reachsym import (ParseError, SimilarityAccumulator, UndirectedWeightedGraph,
                      ValidationError, dense_closure, dense_similarity,
                      graph_from_pairs, pair_hierarchy_discount, sparsify_top_t)


@st.composite
def digraphs(draw, min_n=1, max_n=10, max_edges=30):
    n = draw(st.integers(min_n, max_n))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=max_edges))
    return graph_from_pairs(edges, n=n)


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


def write_undirected_by_fstrings(g, stream, precision=6):
    """Reference writer: one f-string per output line."""
    fmt = f"%.{precision}f"
    stream.writelines(f"{g.labels[a]}\t{g.labels[b]}\t{fmt % c}\n"
                      for a, b, c in zip(g.u.tolist(), g.v.tolist(), g.w.tolist()))


def oracle_symmetrize(g, cfg, h=None):
    """Dense-oracle counterpart of ``symmetrize``: dense closure and
    similarity, then the same pair discount, epsilon and top-t steps."""
    closure = dense_closure(g, cfg.l)
    hh = h if cfg.hierarchy_mode != "none" else None
    _, _, a_u = dense_similarity(closure, cfg.alpha, cfg.beta, h=hh,
                                 delta=cfg.delta)
    acc = SimilarityAccumulator.from_matrix(sp.csr_matrix(np.triu(a_u, 1)), g.n)
    if hh is not None:
        acc = pair_hierarchy_discount(acc, hh, cfg.gamma)
    keep = acc.w > cfg.epsilon
    out = UndirectedWeightedGraph(g.n, g.labels, acc.u[keep], acc.v[keep],
                                  acc.w[keep])
    if cfg.top_t is not None:
        out = sparsify_top_t(out, cfg.top_t)
    return out

import numpy as np
from hypothesis import strategies as st

from reachsym import graph_from_pairs


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

"""Directed graph data model, TSV edge-list I/O, and SCC condensation.

Node labels are arbitrary strings interned to dense integer indices in
first-appearance order.  The graph is immutable after construction and is
backed by a CSR adjacency matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from typing import IO, Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .accumulator import SimilarityAccumulator


class ValidationError(ValueError):
    """Input or configuration violates a documented contract."""


class ParseError(ValueError):
    """Malformed input line.  Carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class DirectedGraph:
    """Immutable sparse directed graph over a CSR adjacency matrix."""

    n: int
    labels: list[str]
    adj: sp.csr_matrix            # n x n, positive float weights (1.0 if unweighted)
    weighted: bool = False
    self_loops_dropped: int = 0

    def __post_init__(self):
        self.adj.sort_indices()

    @property
    def edge_count(self) -> int:
        return self.adj.nnz


def _build_graph(labels: list[str], u: np.ndarray, v: np.ndarray,
                 w: np.ndarray | None, weighted: bool) -> DirectedGraph:
    """Graph over ``labels`` from parallel edge arrays in input order.
    Self-loops are dropped and counted.  Duplicate edges collapse to unit
    weight when ``w`` is None, else to their weights summed in input order."""
    n = len(labels)
    keep = u != v
    u, v = u[keep], v[keep]
    w = None if w is None else w[keep]
    # return_inverse takes numpy's sorting path, many times faster than the
    # plain call for int64 keys.
    key, inv = np.unique(u * n + v, return_inverse=True)
    data = np.ones(len(key)) if w is None else \
        np.bincount(inv, weights=w, minlength=len(key))
    # The sorted keys are the (u, v)-ordered CSR entries.
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
    adj = sp.csr_matrix((data, key % n, indptr), shape=(n, n))
    return DirectedGraph(n, labels, adj, weighted=weighted,
                         self_loops_dropped=len(keep) - len(u))


def _line_error(parts: list[str], line_no: int, weighted: bool) -> None:
    """Raise the error of data line ``line_no``, split at tabs into ``parts``,
    if it has one."""
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


def load_edge_list(stream: Iterable[str], weighted: bool = False) -> DirectedGraph:
    """Parse a TSV edge list: ``src<TAB>dst[<TAB>weight]``, ``#`` comments.

    Nodes are interned in first-appearance order.  Duplicate directed edges
    collapse (weights summed when ``weighted``, unit otherwise); self-loops
    are dropped and counted.  A malformed line raises the error of the first
    such line, with its 1-based line number.
    """
    lines = list(map(str.rstrip, map(str.rstrip, stream, repeat("\n")),
                     repeat("\r")))
    is_data = np.fromiter(map(bool, lines), bool, len(lines))
    is_data &= ~np.fromiter(map(str.startswith, lines, repeat("#")), bool,
                            len(lines))
    data = list(compress(lines, is_data.tolist()))
    del lines
    # All data lines split at once: line i's fields are
    # tokens[starts[i]:starts[i] + tabs[i] + 1].
    tabs = np.fromiter(map(str.count, data, repeat("\t")), np.int64, len(data))
    starts = np.zeros(len(data), dtype=np.int64)
    np.cumsum(tabs[:-1] + 1, out=starts[1:])
    data = "\t".join(data)
    tokens = np.array(data.split("\t"), dtype=object)
    del data
    # Checks over all lines at once; only if one fails are the lines walked
    # in order, to raise the first line's error.
    ok = bool((tabs >= (2 if weighted else 1)).all())
    if ok:
        ends = tokens[(starts[:, None] + np.arange(2)).ravel()].tolist()
        ok = "" not in ends  # ends is src0, dst0, src1, dst1, ...
    w = None
    if ok and weighted:
        try:
            w = np.fromiter(map(float, tokens[starts + 2].tolist()), np.float64,
                            len(starts))
            ok = bool((np.isfinite(w) & (w > 0)).all())
        except ValueError:
            ok = False
    if not ok:
        line_nos = np.flatnonzero(is_data) + 1
        for s, t, line_no in zip(starts.tolist(), tabs.tolist(), line_nos.tolist()):
            _line_error(tokens[s:s + t + 1].tolist(), line_no, weighted)
    del tokens
    index: dict[str, int] = {}
    ids = np.fromiter([index.setdefault(t, len(index)) for t in ends],
                      np.int64, len(ends))
    del ends
    # Fresh copies of the labels: the interned tokens lie scattered among the
    # freed duplicates and would keep all of that memory resident.
    labels = "\t".join(index).split("\t") if index else []
    del index
    return _build_graph(labels, ids[0::2], ids[1::2], w, weighted)


def graph_from_pairs(pairs, n: int | None = None, weights=None) -> DirectedGraph:
    """Build a graph from integer (u, v) pairs; convenience for tests/scripts."""
    uv = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    if n is None:
        n = int(uv.max()) + 1 if len(uv) else 0
    if len(uv) and (uv.min() < 0 or uv.max() >= n):
        raise ValueError(f"pair index outside 0..{n - 1}")
    w = None if weights is None else np.asarray(weights, dtype=np.float64)
    return _build_graph([str(i) for i in range(n)], uv[:, 0], uv[:, 1], w,
                        weights is not None)


# Pairs formatted per `%`; the slice's temporaries stay well under the
# parser's memory peak.
_WRITE_CHUNK = 8_192


def write_undirected(pairs: SimilarityAccumulator, labels: list[str],
                     stream: IO[str], precision: int = 6) -> None:
    """Emit ``labelU<TAB>labelV<TAB>weight`` lines in canonical (u, v) order,
    where ``labels`` names the pairs' nodes.

    Output is byte-identical across runs and worker counts for equal inputs.
    """
    labels = np.array(labels, dtype=object)
    line = f"%s\t%s\t%.{precision}f\n"
    for s in range(0, len(pairs.w), _WRITE_CHUNK):
        w = pairs.w[s:s + _WRITE_CHUNK].tolist()
        items = [None] * (3 * len(w))
        items[0::3] = labels[pairs.u[s:s + _WRITE_CHUNK]].tolist()
        items[1::3] = labels[pairs.v[s:s + _WRITE_CHUNK]].tolist()
        items[2::3] = w
        stream.write((line * len(w)) % tuple(items))


def condensation(g: DirectedGraph) -> tuple[np.ndarray, sp.csr_matrix]:
    """SCC component map and the acyclic condensation DAG.

    Returns (comp, dag): ``comp[u]`` is the SCC id of node u (ids are
    contiguous), and row c of the boolean CSR ``dag`` holds the sorted
    distinct successor SCCs of c.
    """
    if g.n == 0:
        return np.empty(0, dtype=np.int64), sp.csr_matrix((0, 0), dtype=bool)
    ncomp, comp = connected_components(g.adj, directed=True, connection="strong")
    coo = g.adj.tocoo()
    cu = comp[coo.row]
    cv = comp[coo.col]
    keep = cu != cv
    dag = sp.csr_matrix((np.ones(int(keep.sum()), dtype=bool),
                         (cu[keep], cv[keep])), shape=(ncomp, ncomp))
    dag.sum_duplicates()
    return comp.astype(np.int64), dag

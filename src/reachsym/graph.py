"""Directed graph data model, TSV edge-list I/O, and SCC condensation.

Node labels are arbitrary strings interned to dense integer indices in
first-appearance order.  The graph is immutable after construction and is
backed by a CSR adjacency matrix, so it is safe to share across workers.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


class ValidationError(ValueError):
    """Input or configuration violates a documented contract."""


class ParseError(ValueError):
    """Malformed input line.  Carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class DirectedGraph:
    """Immutable sparse directed graph with forward and reverse adjacency."""

    n: int
    labels: list[str]
    adj: sp.csr_matrix            # n x n, positive float weights (1.0 if unweighted)
    weighted: bool = False
    self_loops_dropped: int = 0
    _rev: sp.csr_matrix = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.adj.sort_indices()

    @property
    def edge_count(self) -> int:
        return self.adj.nnz

    @property
    def rev(self) -> sp.csr_matrix:
        """Reverse adjacency (CSR of the transpose), built lazily."""
        if self._rev is None:
            rev = self.adj.T.tocsr()
            rev.sort_indices()
            object.__setattr__(self, "_rev", rev)
        return self._rev

    def out_neighbors(self, u: int) -> np.ndarray:
        a = self.adj
        return a.indices[a.indptr[u]:a.indptr[u + 1]]

    def in_neighbors(self, u: int) -> np.ndarray:
        r = self.rev
        return r.indices[r.indptr[u]:r.indptr[u + 1]]

    def reversed(self) -> "DirectedGraph":
        """Graph with every edge direction flipped (labels preserved)."""
        return DirectedGraph(self.n, self.labels, self.rev.copy(),
                             weighted=self.weighted,
                             self_loops_dropped=self.self_loops_dropped)


@dataclass
class UndirectedWeightedGraph:
    """Canonical undirected weighted edge set: u < v, sorted by (u, v), w > 0."""

    n: int
    labels: list[str]
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        return [(int(a), int(b), float(c)) for a, b, c in zip(self.u, self.v, self.w)]

    @property
    def edge_count(self) -> int:
        return len(self.w)

    def weight(self, a: int, b: int) -> float:
        """Weight of the unordered pair (a, b), 0.0 if absent."""
        if a == b:
            return 0.0
        if a > b:
            a, b = b, a
        lo = np.searchsorted(self.u, a, side="left")
        hi = np.searchsorted(self.u, a, side="right")
        k = lo + np.searchsorted(self.v[lo:hi], b, side="left")
        if k < hi and self.v[k] == b:
            return float(self.w[k])
        return 0.0

    def to_dense(self) -> np.ndarray:
        """Symmetric dense weight matrix (tests and small graphs only)."""
        m = np.zeros((self.n, self.n))
        m[self.u, self.v] = self.w
        m[self.v, self.u] = self.w
        return m


def _graph_from_edge_dict(labels, edges, weighted, loops) -> DirectedGraph:
    n = len(labels)
    if edges:
        us = np.fromiter((e[0] for e in edges), dtype=np.int64, count=len(edges))
        vs = np.fromiter((e[1] for e in edges), dtype=np.int64, count=len(edges))
        ws = np.fromiter(edges.values(), dtype=np.float64, count=len(edges))
    else:
        us = vs = np.empty(0, dtype=np.int64)
        ws = np.empty(0, dtype=np.float64)
    adj = sp.csr_matrix((ws, (us, vs)), shape=(n, n))
    adj.sort_indices()
    return DirectedGraph(n, list(labels), adj, weighted=weighted,
                         self_loops_dropped=loops)


def load_edge_list(stream: Iterable[str], weighted: bool = False) -> DirectedGraph:
    """Parse a TSV edge list: ``src<TAB>dst[<TAB>weight]``, ``#`` comments.

    Nodes are interned in first-appearance order.  Duplicate directed edges
    collapse (weights summed when ``weighted``, unit otherwise); self-loops
    are dropped and counted.
    """
    index: dict[str, int] = {}
    labels: list[str] = []
    edges: dict[tuple[int, int], float] = {}
    loops = 0

    def intern(tok: str) -> int:
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
        if weighted:
            edges[(u, v)] = edges.get((u, v), 0.0) + w
        else:
            edges[(u, v)] = 1.0

    return _graph_from_edge_dict(labels, edges, weighted, loops)


def graph_from_pairs(pairs, n: int | None = None, weights=None) -> DirectedGraph:
    """Build a graph from integer (u, v) pairs; convenience for tests/scripts."""
    pairs = list(pairs)
    if n is None:
        n = max((max(u, v) for u, v in pairs), default=-1) + 1
    edges: dict[tuple[int, int], float] = {}
    loops = 0
    for k, (u, v) in enumerate(pairs):
        if u == v:
            loops += 1
            continue
        w = 1.0 if weights is None else float(weights[k])
        if weights is None:
            edges[(u, v)] = 1.0
        else:
            edges[(u, v)] = edges.get((u, v), 0.0) + w
    labels = [str(i) for i in range(n)]
    return _graph_from_edge_dict(labels, edges, weights is not None, loops)


_WRITE_CHUNK = 65_536


def write_undirected(g: UndirectedWeightedGraph, stream: IO[str],
                     precision: int = 6) -> None:
    """Emit ``labelU<TAB>labelV<TAB>weight`` lines in canonical (u, v) order.

    Output is byte-identical across runs and worker counts for equal inputs.
    """
    labels = g.labels
    fmt = f"%.{precision}f"
    # Formatted in slices so no Python list the size of the output is built.
    for s in range(0, len(g.w), _WRITE_CHUNK):
        e = s + _WRITE_CHUNK
        stream.writelines(
            f"{labels[a]}\t{labels[b]}\t{fmt % c}\n"
            for a, b, c in zip(g.u[s:e].tolist(), g.v[s:e].tolist(),
                               g.w[s:e].tolist()))


def read_undirected(stream: Iterable[str]) -> list[tuple[str, str, float]]:
    """Read back a written undirected edge list as (labelU, labelV, weight)."""
    out = []
    for line_no, raw in enumerate(stream, 1):
        line = raw.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError("expected `u<TAB>v<TAB>weight`", line_no)
        out.append((parts[0], parts[1], float(parts[2])))
    return out


def condensation(g: DirectedGraph) -> tuple[np.ndarray, list[np.ndarray]]:
    """SCC component map and the acyclic condensation DAG.

    Returns (comp, dag_adj): ``comp[u]`` is the SCC id of node u (ids are
    contiguous), ``dag_adj[c]`` the sorted distinct successor SCCs of c.
    """
    if g.n == 0:
        return np.empty(0, dtype=np.int64), []
    ncomp, comp = connected_components(g.adj, directed=True, connection="strong")
    coo = g.adj.tocoo()
    cu = comp[coo.row]
    cv = comp[coo.col]
    keep = cu != cv
    dag_edges = np.unique(np.stack([cu[keep], cv[keep]], axis=1), axis=0) \
        if keep.any() else np.empty((0, 2), dtype=np.int64)
    dag_adj: list[np.ndarray] = [np.empty(0, dtype=np.int64) for _ in range(ncomp)]
    if len(dag_edges):
        starts = np.searchsorted(dag_edges[:, 0], np.arange(ncomp), side="left")
        ends = np.searchsorted(dag_edges[:, 0], np.arange(ncomp), side="right")
        for c in range(ncomp):
            dag_adj[c] = dag_edges[starts[c]:ends[c], 1].copy()
    return comp.astype(np.int64), dag_adj

"""Directed graph data model, TSV edge-list I/O, and SCC condensation.

Node labels are arbitrary strings interned to dense integer indices in
first-appearance order.  The graph is immutable after construction and is
backed by a CSR adjacency matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import IO

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


def load_edge_list(stream: IO[str], weighted: bool = False) -> DirectedGraph:
    """Parse a TSV edge list: ``src<TAB>dst[<TAB>weight]``, ``#`` comments.

    The text stream is read whole; lines split at ``\\n`` and lose their
    trailing ``\\r``s.  Nodes are interned in first-appearance order, labels
    compared byte for byte.  Duplicate directed edges collapse (weights summed
    when ``weighted``, unit otherwise); self-loops are dropped and counted.  A
    malformed line raises the error of the first such line, with its 1-based
    line number.
    """
    raw = stream.read().encode("utf-8", "surrogatepass") + b"\n"
    b = np.frombuffer(raw, dtype=np.uint8)
    # Non-empty line i is b[start[i]:end[i]], its trailing run of \r cut
    # off; blank lines, found byte by byte, get no entry.
    nl = np.r_[True, b == 10]  # nl[p]: byte p - 1 is a newline, or p is 0
    start = np.flatnonzero(nl[:-1] & ~nl[1:])
    end = np.flatnonzero(nl[1:] & ~nl[:-1])
    del nl
    cr = np.flatnonzero(b == 13)
    run_start = np.maximum.accumulate(np.where(np.diff(cr, prepend=-2) > 1,
                                               cr, 0))
    hit = np.flatnonzero(b[end - 1] == 13)
    end[hit] = run_start[np.searchsorted(cr, end[hit] - 1)]
    is_data = (end > start) & (b[start] != ord("#"))
    start, end = start[is_data], end[is_data]
    # Checks over all lines at once; only if one fails are the lines decoded
    # and walked in order, to raise the first line's error.
    tab = np.r_[np.flatnonzero(b == 9), len(b)]
    lo = np.searchsorted(tab, start)
    ok = bool((np.searchsorted(tab, end) - lo > weighted).all())
    if ok:  # fields 0 and 1 of each line, interleaved: src0, dst0, src1, ...
        fs = np.c_[start, tab[lo] + 1].ravel()
        fe = np.c_[tab[lo], np.minimum(tab[lo + 1], end)].ravel()
        ok = bool((fe > fs).all())
    w = None
    if ok and weighted:
        try:
            w = np.fromiter(map(float, _ranges(b, tab[lo + 1] + 1, np.minimum(
                tab[lo + 2], end))), np.float64, len(start))
            ok = bool((np.isfinite(w) & (w > 0)).all())
        except ValueError:
            ok = False
    if not ok:
        line_nos = np.searchsorted(np.flatnonzero(b == 10), start) + 1
        for line, line_no in zip(_ranges(b, start, end), line_nos.tolist()):
            _line_error(line.split("\t"), line_no, weighted)
    ids, firsts = _intern(raw, b, fs, fe - fs) if len(start) else (fs, fs)
    labels = _ranges(b, fs[firsts], fe[firsts])
    del raw, b, start, end, tab, lo, fs, fe  # not held while the CSR is built
    return _build_graph(labels, ids[0::2], ids[1::2], w, weighted)


# Tokens over this many bytes are interned by a dict: from about 48 bytes on
# it is faster than the padded table.
_TABLE_WIDTH = 40


def _intern(raw: bytes, b: np.ndarray, starts: np.ndarray,
            lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ids in first-appearance order of the tokens ``b[starts:starts + lens]``
    (``raw`` holds ``b``'s bytes), and each id's first token, from one sort
    of the tokens' NUL-padded bytes."""
    # Each token takes 2 or more input bytes: the table stays within 4x them.
    cap = 8 * min(_TABLE_WIDTH // 8, len(b) // (2 * len(lens)))
    wide = np.flatnonzero(lens > cap)
    width = -(-int(lens[lens <= cap].max(initial=1)) // 8) * 8
    keys = _pad_table(b, starts, lens, width).view(np.uint64)
    index: dict[bytes, int] = {}
    keys[wide] = 0
    keys[wide, 0] = [index.setdefault(raw[s:s + n], len(index)) for s, n
                     in zip(starts[wide].tolist(), lens[wide].tolist())]
    keys = keys.T
    if len(wide) or (b[starts + lens - 1] == 0).any():
        # Lengths tell "a" from "a\0", and a wide token from a short one.
        keys = np.vstack([keys, lens.astype(np.uint64)])
    order = np.lexsort(keys) if len(keys) > 1 else np.argsort(keys[0])
    sk = keys[:, order]
    new = np.r_[True, (sk[:, 1:] != sk[:, :-1]).any(axis=0)]
    firsts = np.minimum.reduceat(order, np.flatnonzero(new))
    rank = np.empty_like(firsts)
    rank[np.argsort(firsts)] = np.arange(len(firsts))
    ids = np.empty_like(order)
    ids[order] = rank[np.cumsum(new) - 1]
    return ids, np.sort(firsts)


def _ranges(b: np.ndarray, s: np.ndarray, e: np.ndarray) -> list[str]:
    """The texts ``b[s[i]:e[i]]`` of ascending ranges, each followed by a
    byte in no range."""
    mark = np.zeros(len(b) + 1, dtype=np.int8)
    mark[s] += 1
    mark[e + 1] -= 1
    out = b.copy()
    out[e] = ord("\n")
    text = out[np.cumsum(mark[:-1], dtype=np.int8).view(bool)].tobytes()
    return text.decode("utf-8", "surrogatepass").split("\n")[:-1]


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


# Pairs per written slice; its byte records stay well under the parser's
# memory peak.
_WRITE_CHUNK = 1 << 16
# _DIGIT_PAIRS[k] is "%02d" % k in ASCII, as one uint16.
_DIGIT_PAIRS = np.frombuffer("".join(map("{:02d}".format, range(100))).encode(),
                             dtype="<u2")


def write_undirected(pairs: SimilarityAccumulator, labels: list[str],
                     stream: IO[str], precision: int = 6) -> None:
    """Emit ``labelU<TAB>labelV<TAB>weight`` lines in canonical (u, v) order,
    where ``labels`` names the pairs' nodes; the weight is ``%.{precision}f``.

    Output is byte-identical across runs and worker counts for equal inputs.
    """
    w = np.asarray(pairs.w, dtype=np.float64)  # float32 would round as float32
    table = _label_table(labels) if len(w) else None
    names = None  # the labels as an object array, once a slice needs `%`
    for s in range(0, len(w), _WRITE_CHUNK):
        u = pairs.rows(s, s + _WRITE_CHUNK)
        v, ws = pairs.v[s:s + _WRITE_CHUNK], w[s:s + _WRITE_CHUNK]
        text = None if table is None else _format_records(table, u, v, ws,
                                                          precision)
        if text is None:
            names = np.array(labels, dtype=object) if names is None else names
            items = [None] * (3 * len(ws))
            items[0::3] = names[u].tolist()
            items[1::3] = names[v].tolist()
            items[2::3] = ws.tolist()
            text = (f"%s\t%s\t%.{precision}f\n" * len(ws)) % tuple(items)
        stream.write(text)


def _label_table(labels: list[str]) -> np.ndarray | None:
    """The UTF-8 labels as a NUL-padded ``S{width}`` array; None when a label
    contains NUL, the widest is over 64 bytes (``%`` is faster from there),
    or the table would be far larger than the labels' own bytes."""
    text = "\0".join(labels).encode("utf-8", "surrogatepass")
    buf = np.frombuffer(text, dtype=np.uint8)
    ends = np.r_[np.flatnonzero(buf == 0), len(buf)]
    starts = np.r_[0, ends[:-1] + 1]
    lens = ends - starts
    width = max(int(lens.max()), 1)
    if (len(ends) != len(labels) or width > 64
            or len(labels) * width > 4 * len(text)):
        return None
    return _pad_table(buf, starts, lens, width).view(f"S{width}").ravel()


def _pad_table(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray,
               width: int) -> np.ndarray:
    """Row i is ``buf[starts[i]:starts[i] + lens[i]]``, cut or NUL-padded to
    ``width`` bytes."""
    # Filled column by column: no index array per byte, which would raise
    # the run's peak memory.
    table = np.zeros((len(starts), width), dtype=np.uint8)
    short = int(lens.min())
    for j in range(width):
        has = slice(None) if j < short else np.flatnonzero(lens > j)
        table[has, j] = buf[starts[has] + j]
    return table


def _format_records(table: np.ndarray, u, v, w, precision: int) -> str | None:
    """The pairs' lines, as fixed-width byte records with NULs compressed out;
    None when over 3/4 of the weights need ``%`` (then ``%`` is faster).

    For 0 ≤ y = w·10^p < 2^30, y is within 2^-24 of the exact product, so
    rint(y) rounds as ``%`` does unless y is within 1e-6 of a boundary.  Other
    weights are formatted by ``%`` into their record's weight field."""
    m, p, width = len(w), precision, table.dtype.itemsize
    with np.errstate(over="ignore", invalid="ignore"):
        y = w * 10.0 ** p
        x = np.rint(y)
        fast = (~np.signbit(w) & (y < 2.0 ** 30)
                & (np.abs(np.abs(y - x) - 0.5) >= 1e-6))
    slow = np.flatnonzero(~fast)
    if 4 * len(slow) > 3 * m:
        return None
    slow_text = np.array(list(map(f"%.{p}f".__mod__, w[slow].tolist())),
                         dtype=np.bytes_)
    whole, frac = np.divmod(np.where(fast, x, 0.0).astype(np.int64), 10 ** p)
    n_int = len(str(int(whole.max())))
    field = max(n_int + p + (p > 0), slow_text.dtype.itemsize)
    # Record: u, tab, v, tab, the weight right-aligned in its field, newline.
    b = np.zeros((m, 2 * width + 3 + field), dtype=np.uint8)
    b[:, :width].view(table.dtype)[:, 0] = table[u]
    b[:, width + 1:2 * width + 1].view(table.dtype)[:, 0] = table[v]
    b[:, width] = b[:, 2 * width + 1] = ord("\t")
    b[:, -1] = ord("\n")
    if p:
        b[:, -2 - p] = ord(".")
    # Digits right to left, two per uint16 store: the fraction's, then the
    # integer part's, whose leading zeros are cleared back to NUL.
    for val, end, n in ((frac, b.shape[1] - 1, p),
                        (whole, b.shape[1] - 1 - p - (p > 0), n_int)):
        for k in range(n // 2):
            val, low = np.divmod(val, 100)
            b[:, end - 2 * k - 2:end - 2 * k].view("<u2")[:, 0] = _DIGIT_PAIRS[low]
        if n % 2:
            b[:, end - n] = val + ord("0")
    for k in range(1, n_int):
        b[whole < 10 ** k, end - k - 1] = 0
    b[:, -1 - field:-1].view(f"S{field}")[slow, 0] = slow_text
    flat = b.ravel()
    return flat[flat != 0].tobytes().decode("utf-8", "surrogatepass")


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

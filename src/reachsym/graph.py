"""Directed graph data model, TSV edge-list I/O, and the SCC pass.

Node labels are arbitrary strings interned to dense integer indices in
first-appearance order.  The graph is immutable after construction and is
backed by a CSR adjacency matrix.  ``_scan`` reads the lines of both TSV
readers: the edge list and ``hierarchy.load_hierarchy``'s scores.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterator

import numpy as np
import scipy.sparse as sp

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
    raw_labels: list[str] | bytes  # or, from the parser, UTF-8 each ended by \n
    adj: sp.csr_matrix            # n x n, positive float weights (1.0 if unweighted)
    self_loops_dropped: int = 0

    def __post_init__(self):
        self.adj.sort_indices()

    @property
    def edge_count(self) -> int:
        return self.adj.nnz

    @cached_property
    def labels(self) -> list[str]:
        """The node names as strings, decoded once from ``raw_labels``."""
        raw = self.raw_labels
        return (raw.decode("utf-8", "surrogatepass").split("\n")[:-1]
                if isinstance(raw, bytes) else raw)


def _build_graph(n: int, labels: list[str] | bytes, u: np.ndarray,
                 v: np.ndarray, w: np.ndarray | None) -> DirectedGraph:
    """Graph over ``n`` nodes from parallel edge arrays in input order.
    Self-loops are dropped and counted.  Duplicate edges collapse to unit
    weight when ``w`` is None, else to their weights summed in input order."""
    keep = u != v
    u, v = u[keep], v[keep]
    if w is None:  # a sort and an adjacent compare drop the duplicates
        key = np.sort(u * n + v)
        key = key[np.r_[True, key[1:] != key[:-1]]] if len(key) else key
        data = np.ones(len(key))
    else:  # the inverse sums each key's weights in input order
        key, inv = np.unique(u * n + v, return_inverse=True)
        data = np.bincount(inv, weights=w[keep], minlength=len(key))
    # The sorted keys are the (u, v)-ordered CSR entries.
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
    adj = sp.csr_matrix((data, key % n, indptr), shape=(n, n))
    return DirectedGraph(n, labels, adj, self_loops_dropped=len(keep) - len(u))


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


def _scan(stream: IO) -> tuple:
    """The line rule of both TSV readers: ``stream``, of text or UTF-8 bytes,
    is read whole; ``\\r\\n``, a lone ``\\r`` and ``\\n`` each end a line, as
    in text mode; blank and ``#`` lines hold no data.  Bytes that are not
    UTF-8 raise ParseError; a ``str`` is the caller's own text, not checked.

    Returns ``(raw, b, start, sep, first, last)``: the bytes, lines ended by
    ``\\n``, then 8 for ``_words``' last load; ``b``, them without the 8;
    each data line's start; every tab and data line end, in order; and the
    indices in ``sep`` of each line's first separator and of its end."""
    raw = stream.read()
    if text := isinstance(raw, str):
        raw = raw.encode("utf-8", "surrogatepass")
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not text and not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as e:
            name = getattr(stream, "name", "the stream")
            raise ParseError(f"invalid UTF-8 in {name}",
                             raw.count(b"\n", 0, e.start) + 1) from None
    raw += b"\n" + bytes(8)
    b = np.frombuffer(raw, dtype=np.uint8)[:-8]
    # Data line i starts at start[i].  Blank lines, found byte by byte, and
    # comment lines, dropped by their first byte, get no entry.
    nl = np.r_[True, b == 10]  # nl[p]: byte p - 1 is a newline, or p is 0
    start, sep = nl[:-1] > nl[1:], nl[1:] > nl[:-1]  # of non-blank lines
    del nl
    comments = raw[:1] == b"#" or b"\n#" in raw
    if comments:
        data = b[start] != ord("#")  # one flag per non-blank line
        start[start] = data
        sep[sep] = data
        del data
    start = np.flatnonzero(start)  # its mask is freed before sep's grows
    # Line i's fields lie between its start and sep[first[i]], then between
    # separators.  Without comment lines, whose tabs sit between two data
    # lines, its first separator is the one after line i - 1's end.
    sep |= b == 9
    sep = np.flatnonzero(sep)
    last = np.flatnonzero(b[sep] == 10)
    first = np.searchsorted(sep, start) if comments else np.r_[0, last + 1][:-1]
    return raw, b, start, sep, first, last


def _lines(raw, b, start, sep, first, last) -> Iterator[tuple[int, list[str]]]:
    """Each data line of a ``_scan``, in order: its number and its fields."""
    line_nos = np.searchsorted(np.flatnonzero(b == 10), start) + 1
    for s, e, n in zip(start.tolist(), sep[last].tolist(), line_nos.tolist()):
        yield n, raw[s:e].decode("utf-8", "surrogatepass").split("\t")


def load_edge_list(stream: IO, weighted: bool = False) -> DirectedGraph:
    """Parse a TSV edge list: ``src<TAB>dst[<TAB>weight]``, ``#`` comments.

    The stream, text or UTF-8 bytes, is read by ``_scan``'s line rule.  Nodes
    are interned in first-appearance order, labels compared byte for byte.
    Duplicate directed edges collapse (weights summed when ``weighted``, unit
    otherwise); self-loops are dropped and counted.  A malformed line raises
    the error of the first such line, with its 1-based number.
    """
    raw, b, start, sep, first, last = _scan(stream)
    # Checks over all lines at once; only if one fails are the lines walked
    # in order, to raise the first line's error.
    ok = bool((last - first > weighted).all())  # each line's tab count
    if ok:  # fields 0 and 1 of each line, interleaved: src0, dst0, src1, ...
        fs = np.empty(2 * len(start), dtype=np.int64)
        fe = np.empty_like(fs)
        fs[0::2], fe[0::2], fe[1::2] = start, sep[first], sep[first + 1]
        fs[1::2] = fe[0::2] + 1
        ok = bool((fe > fs).all())
    w = None
    if ok and weighted:
        try:
            w = np.fromiter(map(float, _ranges(b, sep[first + 1] + 1, sep[
                first + 2]).decode("utf-8", "surrogatepass").split("\n")),
                np.float64, len(start))
            ok = bool((np.isfinite(w) & (w > 0)).all())
        except ValueError:
            ok = False
    if not ok:
        for line_no, parts in _lines(raw, b, start, sep, first, last):
            _line_error(parts, line_no, weighted)
    ids, firsts = _intern(raw, b, fs, fe - fs) if len(start) else (fs, fs)
    labels = _ranges(b, fs[firsts], fe[firsts])
    del raw, b, start, sep, last, first, fs, fe  # not held while the CSR is built
    return _build_graph(len(firsts), labels, ids[0::2], ids[1::2], w)


# Tokens over this many bytes are interned by a dict: from about 48 bytes on
# it is faster than the word table.
_TABLE_WIDTH = 40
# _MASK[k] keeps the first k bytes of a little-endian 8-byte word.
_MASK = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _words(buf: bytes, starts: np.ndarray, lens: np.ndarray,
           width: int) -> np.ndarray:
    """Row j holds bytes 8j to 8j + 7 of each token ``buf[s:s + n]``, cut to
    ``width`` bytes and NUL past its end, as one little-endian word.  ``buf``
    ends in 8 bytes that no token reaches."""
    at = np.ndarray(len(buf) - 7, dtype="<u8", buffer=buf, strides=(1,))
    rows = np.empty((-(-width // 8), len(starts)), dtype="<u8")
    for j, row in enumerate(rows):
        # Not take, which copies `at`; word j > 0 of a short token may be past
        # it, word 0 never is.
        row[:] = at[np.minimum(starts + 8 * j, len(at) - 1) if j else starts]
        row &= _MASK.take(lens - 8 * j, mode="clip")
    return rows


def _intern(raw: bytes, b: np.ndarray, starts: np.ndarray,
            lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ids in first-appearance order of the tokens ``b[starts:starts + lens]``
    (``raw`` holds ``b``'s bytes and 8 more), and each id's first token, from
    one sort of the tokens' words."""
    # Each token takes 2 or more input bytes: the table stays within 4x them.
    cap = 8 * min(_TABLE_WIDTH // 8, len(b) // (2 * len(lens)))
    wide = np.flatnonzero(lens > cap)
    width = -(-int(lens[lens <= cap].max(initial=1)) // 8) * 8
    keys = _words(raw, starts, lens, width)
    index: dict[bytes, int] = {}
    keys[:, wide] = 0
    keys[0, wide] = [index.setdefault(raw[s:s + n], len(index)) for s, n
                     in zip(starts[wide].tolist(), lens[wide].tolist())]
    if len(wide) or (b[starts + lens - 1] == 0).any():
        # Lengths tell "a" from "a\0", and a wide token from a short one.
        keys = np.vstack([keys, lens.astype(np.uint64)])
    order = np.lexsort(keys) if len(keys) > 1 else np.argsort(keys[0])
    sk = keys[:, order]
    runs = np.flatnonzero(np.r_[True, (sk[:, 1:] != sk[:, :-1]).any(axis=0)])
    firsts = np.minimum.reduceat(order, runs)  # each run of equal tokens
    by_first = np.argsort(firsts)
    rank = np.empty_like(firsts)
    rank[by_first] = np.arange(len(firsts))
    ids = np.empty_like(order)
    ids[order] = np.repeat(rank, np.diff(runs, append=len(order)))
    return ids, firsts[by_first]


def _ranges(b: np.ndarray, s: np.ndarray, e: np.ndarray) -> bytes:
    """The ranges ``b[s[i]:e[i]]``, each followed by ``\\n``, gathered
    through one int64 index per byte."""
    ends = np.cumsum(e - s + 1)
    at = np.ones(ends[-1] if len(ends) else 0, dtype=np.int64)
    at[ends[:-1]] = s[1:] - e[:-1]  # the step from range i's last byte to i+1
    at[:1] = s[:1]
    out = b[np.cumsum(at, out=at)]
    out[ends - 1] = ord("\n")
    return out.tobytes()


def graph_from_pairs(pairs, n: int | None = None, weights=None) -> DirectedGraph:
    """Build a graph from integer (u, v) pairs, for the tests and gen_powerlaw.py."""
    uv = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    if n is None:
        n = int(uv.max()) + 1 if len(uv) else 0
    if len(uv) and (uv.min() < 0 or uv.max() >= n):
        raise ValueError(f"pair index outside 0..{n - 1}")
    w = None if weights is None else np.asarray(weights, dtype=np.float64)
    return _build_graph(n, [str(i) for i in range(n)], uv[:, 0], uv[:, 1], w)


# Pairs per written slice; its byte records stay well under the parser's
# memory peak.
_WRITE_CHUNK = 1 << 16
# _DIGITS[k][i] is "%0{k}d" % i in ASCII, as one little-endian k-byte word.
# The four-digit words join two pairs, the high one in the low bytes; that
# takes ~0.01 ms, formatting 10 000 strings ~3 ms of every import.
_DIGITS = {2: np.frombuffer("".join(map("{:02d}".format, range(100))).encode(),
                            dtype="<u2")}
_DIGITS[4] = (_DIGITS[2][:, None] | _DIGITS[2].astype("<u4") << 16).astype(
    "<u4").ravel()


def write_undirected(pairs: SimilarityAccumulator, labels: list[str] | bytes,
                     stream: IO[bytes], precision: int = 6) -> None:
    """Write ``labelU<TAB>labelV<TAB>weight`` lines in UTF-8 to a binary
    stream in canonical (u, v) order, where ``labels`` names the nodes as
    ``DirectedGraph.raw_labels`` does; the weight is ``%.{precision}f``.

    Output is byte-identical across runs for equal inputs.
    A label that holds a tab or a line end, or a label count other than
    ``pairs.n``, raises ValidationError before any byte is written.
    """
    raw = labels if isinstance(labels, bytes) else "".join(
        s + "\n" for s in labels).encode("utf-8", "surrogatepass")
    count = raw.count(b"\n")  # over len(labels) when a listed label holds \n
    if (b"\t" in raw or b"\r" in raw or count != pairs.n
            or not isinstance(labels, bytes) and count != len(labels)):
        names = raw.decode("utf-8", "surrogatepass").split("\n") \
            if isinstance(labels, bytes) else labels
        bad = next((s for s in names if "\t" in s or "\n" in s or "\r" in s), None)
        raise ValidationError(f"{count} labels for {pairs.n} nodes" if bad is None
                              else f"label {bad!r} holds a tab or a line end")
    w = np.asarray(pairs.w, dtype=np.float64)  # float32 would round as float32
    table = _label_table(raw) if len(w) else None
    names = None  # the labels as an object array, once a slice needs `%`
    for s in range(0, len(w), _WRITE_CHUNK):
        e = s + _WRITE_CHUNK
        v, ws = pairs.v[s:e], w[s:e]
        # u is sorted: each row's label is repeated, not gathered per pair.
        out = None if table is None else _format_records(
            pairs.rows(s, e, table), table[v], ws, precision)
        if out is None:
            if names is None:
                names = np.array(raw.decode("utf-8", "surrogatepass").split(
                    "\n")[:-1], dtype=object)
            items = [None] * (3 * len(ws))
            items[0::3] = pairs.rows(s, e, names).tolist()
            items[1::3] = names[v].tolist()
            items[2::3] = ws.tolist()
            out = ((f"%s\t%s\t%.{precision}f\n" * len(ws)) % tuple(items)).encode(
                "utf-8", "surrogatepass")
        stream.write(out)


def _label_table(buf: bytes) -> np.ndarray | None:
    """The labels, UTF-8 bytes each ended by ``\\n``, as a NUL-padded
    ``S{width}`` array; None when a label contains NUL, the widest is over 64
    bytes (``%`` is faster from there), or the table would be far larger than
    the labels' bytes."""
    ends = np.flatnonzero(np.frombuffer(buf, dtype=np.uint8) == 10)
    starts = np.r_[0, ends[:-1] + 1]
    lens = ends - starts
    width = max(int(lens.max()), 1)
    if b"\0" in buf or width > 64 or len(lens) * width > 4 * len(buf):
        return None
    rows = np.ascontiguousarray(_words(buf + bytes(8), starts, lens, width).T)
    return rows.view(np.uint8)[:, :width].copy().view(f"S{width}").ravel()


def _format_records(u, v, w, precision: int) -> bytes | None:
    """The lines of the pairs labelled ``u`` and ``v`` (rows of the label
    table), as fixed-width byte records with NULs dropped; None when over 3/4
    of the weights need ``%`` (then ``%`` is faster).

    For 0 ≤ y = w·10^p < 2^30, y is within 2^-24 of the exact product, so
    rint(y) rounds as ``%`` does unless y is within 1e-6 of a boundary.  Other
    weights are formatted by ``%`` into their record's weight field."""
    m, p, width = len(w), precision, u.dtype.itemsize
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
    b[:, :width].view(u.dtype)[:, 0] = u
    b[:, width + 1:2 * width + 1].view(v.dtype)[:, 0] = v
    b[:, width] = b[:, 2 * width + 1] = ord("\t")
    b[:, -1] = ord("\n")
    if p:
        b[:, -2 - p] = ord(".")
    # Digits right to left, four per uint32 store, then two, then one: the
    # fraction's, then the integer part's, whose leading zeros are cleared
    # back to NUL.
    for val, end, n in ((frac, b.shape[1] - 1, p),
                        (whole, b.shape[1] - 1 - p - (p > 0), n_int)):
        at = end  # just past the next digits to store
        for k in [4] * (n // 4) + [2] * (n % 4 // 2):
            val, low = np.divmod(val, 10 ** k)
            b[:, at - k:at].view(_DIGITS[k].dtype)[:, 0] = _DIGITS[k][low]
            at -= k
        if n % 2:
            b[:, at - 1] = val + ord("0")
    for k in range(1, n_int):
        b[whole < 10 ** k, end - k - 1] = 0
    b[:, -1 - field:-1].view(f"S{field}")[slow, 0] = slow_text
    return b.tobytes().translate(None, b"\0")


def _sccs(adj: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """``(comp, depth)``: each node's strongly connected component, numbered
    in topological order, and each component's longest-path depth from the
    components that have no predecessor.

    One iterative Tarjan pass (SIAM J. Comput. 1972) over the reversed graph.
    There a component completes only after every component it reaches, that
    is, after every component that reaches it in ``adj``: so components
    complete in topological order, and each one's depth is known when it
    completes.  Each node carries the largest "1 + depth of a completed
    component" seen from it and its DFS subtree within its own component;
    a non-root hands it to its DFS parent, a root's is its component's depth.
    So no edge is scanned twice.  As in Pearce (IPL 2016), one value per node
    holds its DFS index, then its lowlink, then ``n + 1 +`` its component id.
    """
    n = adj.shape[0]
    rev = adj.tocsc()  # column v holds v's predecessors: the reversed graph
    ptr, nbr = memoryview(rev.indptr), memoryview(rev.indices)
    del rev  # the views keep only the two index arrays
    rindex = [0] * n  # 0: unvisited; 1..n: component open; above n: done
    depth: list[int] = []
    base = n + 1
    stack: list[int] = []  # visited non-roots whose component is not done
    frames: list[tuple] = []  # the DFS path above the node being scanned
    index = 0
    for s in range(n):
        if rindex[s]:
            continue
        v, p, best = s, ptr[s], 0
        index += 1
        rindex[v] = low = index
        while True:
            end = ptr[v + 1]
            while p < end:
                w = nbr[p]
                p += 1
                r = rindex[w]
                if not r:  # descend into w
                    frames.append((v, p, low, best))
                    v, p, best = w, ptr[w], 0
                    index += 1
                    rindex[w] = low = index
                    end = ptr[w + 1]
                elif r > n:  # w's component is done
                    d = depth[r - base]
                    if d >= best:
                        best = d + 1
                elif r < low:
                    low = r
            if low == rindex[v]:  # v is a root: its component is done
                k = base + len(depth)
                depth.append(best)
                rindex[v] = k
                while stack and rindex[stack[-1]] >= low:
                    rindex[stack.pop()] = k
                if not frames:
                    break
                best += 1
                v, p, low, b = frames.pop()
            else:  # v's component holds its DFS parent
                rindex[v] = child = low
                stack.append(v)
                v, p, low, b = frames.pop()
                if child < low:
                    low = child
            if b > best:
                best = b
    comp = np.array(rindex, dtype=np.int64)
    comp -= base
    return comp, np.array(depth, dtype=np.int64)

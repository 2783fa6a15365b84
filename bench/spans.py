"""Spans around the program's layers, recorded from outside the program.

Each wrapped function is replaced at the module or class attribute that its
caller looks up at call time, so a traced invocation follows the production
path without reimplementing any of it.  Spans (id, parent id, name, start,
end, ru_maxrss at exit) are kept in memory; counts are read from the
returned objects and from the arguments, never from program internals.
"""
from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

# (span name, module, attribute path).  The module is the one whose attribute
# the caller resolves: ``cli`` calls its imported ``load_edge_list``,
# ``symmetrize`` calls ``similarity.local_closure`` and so on.
SPANS = [
    ("cli.main", "reachsym.cli", "main"),
    ("graph.load_edge_list", "reachsym.cli", "load_edge_list"),
    ("hierarchy.auto_hierarchy", "reachsym.cli", "auto_hierarchy"),
    ("similarity.symmetrize", "reachsym.cli", "symmetrize"),
    ("closure.local_closure", "reachsym.similarity", "local_closure"),
    ("similarity.out_reach_similarity", "reachsym.similarity", "out_reach_similarity"),
    ("similarity.in_reach_similarity", "reachsym.similarity", "in_reach_similarity"),
    ("hierarchy.neighbor_discount_data", "reachsym.similarity", "neighbor_discount_data"),
    ("accumulator.add", "reachsym.accumulator", "SimilarityAccumulator.add"),
    ("hierarchy.pair_hierarchy_discount", "reachsym.similarity", "pair_hierarchy_discount"),
    ("similarity.sparsify_top_t", "reachsym.similarity", "sparsify_top_t"),
    ("graph.write_undirected", "reachsym.cli", "write_undirected"),
]


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _size(obj) -> Optional[int]:
    w = getattr(obj, "w", None)
    return None if w is None else len(w)


def _pair_bound(d_out, d_in) -> int:
    d_out = np.asarray(d_out, dtype=np.int64)
    d_in = np.asarray(d_in, dtype=np.int64)
    return int((d_out * (d_out - 1) // 2).sum() + (d_in * (d_in - 1) // 2).sum())


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _next: int = 0

    def _add(self, key: str, value) -> None:
        if value is None:
            self.counts.setdefault(key, None)
        elif self.counts.get(key) is not None:
            self.counts[key] += value
        else:
            self.counts[key] = value

    def wrap(self, name: str, owner, attr: str,
             on_return: Optional[Callable] = None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(name)
            return

        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end, _rss_mb()))
            if on_return is not None:
                on_return(result, args)
            return result

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)

    # Counts, read from what each layer returns.

    def _graph(self, g, args) -> None:
        self._add("graph.nodes", getattr(g, "n", None))
        self._add("graph.edges", getattr(g, "edge_count", None))
        self._add("graph.self_loops_dropped", getattr(g, "self_loops_dropped", None))
        adj = getattr(g, "adj", None)
        if adj is not None:
            # Depth-1 closure degrees: the pair bound of the first-order path.
            self.counts["graph.pair_bound"] = _pair_bound(
                np.diff(adj.indptr), np.bincount(adj.indices, minlength=g.n))

    def _closure(self, c, args) -> None:
        d_out = getattr(c, "d_out_plus", None)
        d_in = getattr(c, "d_in_plus", None)
        if d_out is None or d_in is None:
            self._add("closure.nnz", None)
            self._add("closure.pair_bound", None)
            return
        self._add("closure.nnz", int(np.sum(d_out)))
        self._add("closure.pair_bound", _pair_bound(d_out, d_in))
        self._add("closure.sources", len(d_out))

    def _add_pairs(self, acc, args) -> None:
        self._add("accumulator.pairs", _size(acc))
        self._add("accumulator.input_pairs",
                  None if _size(args[0]) is None or _size(args[1]) is None
                  else _size(args[0]) + _size(args[1]))

    def _top_t(self, g, args) -> None:
        self._add("similarity.kept_pairs", _size(g))

    def _write(self, result, args) -> None:
        self._add("graph.written_pairs", _size(args[0]))

    def install(self) -> None:
        import importlib
        hooks = {
            "graph.load_edge_list": self._graph,
            "closure.local_closure": self._closure,
            "similarity.out_reach_similarity":
                lambda r, a: self._add("similarity.out_pairs", _size(r)),
            "similarity.in_reach_similarity":
                lambda r, a: self._add("similarity.in_pairs", _size(r)),
            "accumulator.add": self._add_pairs,
            "similarity.sparsify_top_t": self._top_t,
            "graph.write_undirected": self._write,
        }
        for name, module, path in SPANS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None:
                self.missing.append(name)
                continue
            self.wrap(name, owner, attr, hooks.get(name))


def span_metrics(spans: list, missing: list) -> dict:
    """Per span name: total seconds, self seconds, calls and the ru_maxrss
    high-water mark at its last exit (MB).  A span never entered reports
    zeros; a span whose function no longer exists reports null."""
    child_time: dict[int, float] = {}
    for sid, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, Optional[float]] = {}
    for name, _, _ in SPANS:
        if name in missing:
            for key in ("s", "self_s", "calls", "rss_hwm_mb"):
                out[f"{name}.{key}"] = None
            continue
        mine = [s for s in spans if s[2] == name]
        out[f"{name}.s"] = sum(s[4] - s[3] for s in mine)
        out[f"{name}.self_s"] = sum(s[4] - s[3] - child_time.get(s[0], 0.0)
                                    for s in mine)
        out[f"{name}.calls"] = len(mine)
        out[f"{name}.rss_hwm_mb"] = max((s[5] for s in mine), default=0.0)
    return out


def _ratio(a, b):
    if a is None or b is None:
        return None
    return a / b if b else 0.0


# The span whose return value or arguments each count is read from.
COUNT_SOURCE = {
    "graph.nodes": "graph.load_edge_list",
    "graph.edges": "graph.load_edge_list",
    "graph.self_loops_dropped": "graph.load_edge_list",
    "closure.nnz": "closure.local_closure",
    "closure.sources": "closure.local_closure",
    "similarity.out_pairs": "similarity.out_reach_similarity",
    "similarity.in_pairs": "similarity.in_reach_similarity",
    "accumulator.pairs": "accumulator.add",
    "accumulator.input_pairs": "accumulator.add",
    "similarity.kept_pairs": "similarity.sparsify_top_t",
    "graph.written_pairs": "graph.write_undirected",
}


def layer_metrics(spans: list, missing: list, counts: dict,
                  write_bytes: Optional[int]) -> dict:
    """Every per-layer metric of one traced invocation.

    A count whose layer was not entered is 0, and so is a rate or ratio over
    it; a count whose function or field no longer exists is null.
    """
    out = span_metrics(spans, missing)

    def count(key):
        if out[f"{COUNT_SOURCE[key]}.calls"] is None:
            return None
        return counts.get(key, 0)

    for key in ("graph.nodes", "graph.edges", "graph.self_loops_dropped",
                "closure.nnz", "similarity.out_pairs", "similarity.in_pairs",
                "accumulator.pairs", "similarity.kept_pairs"):
        out[key] = count(key)
    # Without a closure (first-order methods) the products run over the
    # adjacency, i.e. the depth-1 closure, so the bound comes from it.
    closure_calls = out["closure.local_closure.calls"]
    bound = (None if closure_calls is None else
             counts.get("closure.pair_bound") if closure_calls else
             counts.get("graph.pair_bound"))
    input_pairs = count("accumulator.input_pairs")
    out["closure.pair_bound"] = bound
    out["closure.sources_per_s"] = _ratio(count("closure.sources"),
                                          out["closure.local_closure.s"])
    out["similarity.product_yield"] = _ratio(input_pairs, bound)
    out["accumulator.merge_ratio"] = _ratio(out["accumulator.pairs"], input_pairs)
    out["similarity.keep_ratio"] = _ratio(count("graph.written_pairs"),
                                          out["accumulator.pairs"])
    out["graph.write_bytes"] = write_bytes
    out["graph.write_mb_per_s"] = _ratio(
        None if write_bytes is None else write_bytes / 1e6,
        out["graph.write_undirected.s"])
    return out

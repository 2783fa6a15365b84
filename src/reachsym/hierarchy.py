"""Per-node hierarchy scores and the two hierarchy-based similarity discounts.

Scores live in [0, 1].  Both discounts use the bounded form 1 / (1 + d)^e for
a score difference d: it equals 1 at d = 0, never exceeds 1, and has no
singularity.  The pair-level discount penalizes pairs far apart in the
hierarchy; the neighbor-level discount damps contributions from common
successors/predecessors far from both endpoints.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import IO

import numpy as np

from .accumulator import SimilarityAccumulator
from .graph import DirectedGraph, ParseError, ValidationError, _lines, _scan, _sccs


@dataclass
class HierarchyScores:
    """One score per node, normalized into [0, 1]."""

    score: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.score, dtype=np.float64)
        if not np.all(np.isfinite(s)):
            raise ValidationError("hierarchy scores must be finite")
        if len(s) and (s.min() < 0 or s.max() > 1):
            raise ValidationError("hierarchy scores must lie in [0, 1]")
        self.score = s

    def __len__(self) -> int:
        return len(self.score)


def _normalize(raw: np.ndarray) -> np.ndarray:
    if len(raw) == 0:
        return raw.astype(np.float64)
    lo, hi = raw.min(), raw.max()
    if hi == lo:
        # No hierarchy signal: all-zero scores make both discounts identity.
        return np.zeros(len(raw))
    if math.isfinite(float(hi) - float(lo)):
        return (raw - lo) / (hi - lo)
    half = raw / 2  # the range overflows a double; half of it cannot
    return (half - lo / 2) / (hi / 2 - lo / 2)


def auto_hierarchy(g: DirectedGraph) -> HierarchyScores:
    """Deterministic default scorer: SCC-condensation longest-path depth.

    Each SCC gets its longest-path distance from the DAG sources; nodes
    inherit their SCC's depth, normalized by the maximum depth.
    """
    comp, depth = _sccs(g.adj)
    return HierarchyScores(_normalize(depth[comp]))


def load_hierarchy(stream: IO, g: DirectedGraph) -> HierarchyScores:
    """Read ``label<TAB>raw_score`` lines and min-max normalize to [0, 1].

    The stream is read as ``load_edge_list`` reads one.  Unknown labels are
    warned about and skipped; a graph node with no score is an error.
    """
    index = {lab: i for i, lab in enumerate(g.labels)}
    raw = [math.nan] * g.n
    for line_no, parts in _lines(*_scan(stream)):
        if len(parts) != 2:
            raise ParseError("expected `label<TAB>score`", line_no)
        try:
            val = float(parts[1])
        except ValueError:
            raise ParseError(f"non-numeric score {parts[1]!r}", line_no) from None
        if not math.isfinite(val):
            raise ParseError(f"non-finite score {parts[1]!r}", line_no)
        i = index.get(parts[0])
        if i is None:
            warnings.warn(f"hierarchy file line {line_no}: unknown label "
                          f"{parts[0]!r} ignored", stacklevel=2)
            continue
        if not math.isnan(raw[i]):
            raise ParseError(f"duplicate score for label {parts[0]!r}", line_no)
        raw[i] = val
    missing = [lab for lab, val in zip(g.labels, raw) if math.isnan(val)]
    if missing:
        raise ValidationError(
            "hierarchy file missing scores for nodes: " + ", ".join(missing))
    return HierarchyScores(_normalize(np.array(raw)))


_SLICE = 1 << 15  # entries per gather of the column scores


def pair_hierarchy_discount(acc: SimilarityAccumulator, h: HierarchyScores,
                            gamma: float) -> SimilarityAccumulator:
    """Divide each pair weight by (1 + |h(u) - h(v)|)^gamma."""
    if gamma < 0:
        raise ValidationError("gamma must be ≥ 0")
    w = neighbor_discount_data(acc.indptr, acc.v, h, gamma)
    w *= acc.w
    return SimilarityAccumulator(acc.n, acc.indptr, acc.v, w).select(w != 0.0)


def neighbor_discount_data(indptr: np.ndarray, indices: np.ndarray,
                           h: HierarchyScores, e: float) -> np.ndarray:
    """The factor (1 + |h(row) - h(col)|)^-e for every entry of a CSR matrix,
    a pair set's rows or a reach matrix.  Common neighbor k of the pair
    (i, j) is damped by the product of the (i, k) and (j, k) factors."""
    d = np.repeat(h.score, np.diff(indptr))  # in place from here, same bits
    for s in range(0, len(d), _SLICE):
        x = d[s:s + _SLICE]
        x -= h.score[indices[s:s + _SLICE]]
        np.abs(x, out=x)
        x += 1.0
        x **= -e
    return d

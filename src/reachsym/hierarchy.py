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
from typing import Iterable

import numpy as np

from .accumulator import SimilarityAccumulator
from .graph import DirectedGraph, ParseError, ValidationError, condensation


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
    comp, dag = condensation(g)
    c = dag.shape[0]
    if c == 0:
        return HierarchyScores(np.empty(0, dtype=np.float64))
    indptr, indices = dag.indptr.tolist(), dag.indices.tolist()
    indeg = np.bincount(dag.indices, minlength=c).tolist()
    depth = [0] * c
    queue = [i for i in range(c) if indeg[i] == 0]
    while queue:
        s = queue.pop()
        d = depth[s] + 1
        for t in indices[indptr[s]:indptr[s + 1]]:
            if d > depth[t]:
                depth[t] = d
            indeg[t] -= 1
            if indeg[t] == 0:
                queue.append(t)
    return HierarchyScores(_normalize(np.array(depth, dtype=np.float64)[comp]))


def load_hierarchy(stream: Iterable[str], g: DirectedGraph) -> HierarchyScores:
    """Read ``label<TAB>raw_score`` lines and min-max normalize to [0, 1].

    Unknown labels are warned about and skipped; a graph node with no score
    is an error.
    """
    index = {lab: i for i, lab in enumerate(g.labels)}
    raw = np.full(g.n, np.nan)
    for line_no, line in enumerate(stream, 1):
        line = line.rstrip("\n").rstrip("\r")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError("expected `label<TAB>score`", line_no)
        try:
            val = float(parts[1])
        except ValueError:
            raise ParseError(f"non-numeric score {parts[1]!r}", line_no) from None
        if not np.isfinite(val):
            raise ParseError(f"non-finite score {parts[1]!r}", line_no)
        i = index.get(parts[0])
        if i is None:
            warnings.warn(f"hierarchy file line {line_no}: unknown label "
                          f"{parts[0]!r} ignored", stacklevel=2)
            continue
        if not np.isnan(raw[i]):
            raise ParseError(f"duplicate score for label {parts[0]!r}", line_no)
        raw[i] = val
    missing = [g.labels[i] for i in np.flatnonzero(np.isnan(raw))]
    if missing:
        raise ValidationError(
            "hierarchy file missing scores for nodes: " + ", ".join(missing))
    return HierarchyScores(_normalize(raw))


_SLICE = 1 << 15  # pairs per gather of the scores


def pair_hierarchy_discount(acc: SimilarityAccumulator, h: HierarchyScores,
                            gamma: float) -> SimilarityAccumulator:
    """Divide each pair weight by (1 + |h(u) - h(v)|)^gamma."""
    if gamma < 0:
        raise ValidationError("gamma must be ≥ 0")
    w = np.empty(len(acc))  # in place from here, the same operations and bits
    for s in range(0, len(w), _SLICE):
        w[s:s + _SLICE] = h.score[acc.rows(s, s + _SLICE)]
        w[s:s + _SLICE] -= h.score[acc.v[s:s + _SLICE]]
    np.abs(w, out=w)
    w += 1.0
    w **= -gamma
    w *= acc.w
    return SimilarityAccumulator(acc.n, acc.indptr, acc.v, w).select(w != 0.0)


def neighbor_discount_data(indptr: np.ndarray, indices: np.ndarray,
                           h: HierarchyScores, delta: float) -> np.ndarray:
    """The factor (1 + |h(i) - h(k)|)^-delta for every (i, k) position of a
    CSR reach matrix.  Common neighbor k of the pair (i, j) is damped by the
    product of the i-side and j-side factors."""
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    s = h.score
    return (1.0 + np.abs(s[rows] - s[indices])) ** -delta

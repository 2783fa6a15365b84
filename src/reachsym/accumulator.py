"""The weighted undirected pair set: canonical node pairs and their weights."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


def index_dtype(n: int) -> np.dtype:
    """Index dtype, scipy's rule: int32 while every index fits."""
    return np.dtype(np.int32 if n < 2 ** 31 else np.int64)


@dataclass
class SimilarityAccumulator:
    """Map from canonical pairs (u < v) of ``n`` nodes to their weight.

    The strictly upper triangle as CSR: row u's partners ``v`` and weights
    ``w`` are at ``indptr[u]:indptr[u + 1]``, in canonical (u, v) order.
    ``indptr`` and ``v`` are ``index_dtype(max(n, pairs))``; weights are
    nonnegative, exact zeros absent.  Node labels stay with the graph.
    """

    n: int
    indptr: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @classmethod
    def empty(cls, n: int) -> "SimilarityAccumulator":
        idx = index_dtype(n)
        return cls(n, np.zeros(n + 1, dtype=idx), np.empty(0, dtype=idx),
                   np.empty(0, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.w)

    def rows(self, s: int, e: int) -> np.ndarray:
        """The row u of each pair s..e-1, a fresh array in ``v``'s dtype."""
        e = min(e, len(self))
        r0 = np.searchsorted(self.indptr, s, side="right") - 1
        r1 = np.searchsorted(self.indptr, e, side="left")
        count = np.diff(np.clip(self.indptr[r0:r1 + 1], s, e))
        return np.repeat(np.arange(r0, r1, dtype=self.v.dtype), count)

    @property
    def u(self) -> np.ndarray:
        return self.rows(0, len(self))

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        return [(int(a), int(b), float(c)) for a, b, c in zip(self.u, self.v, self.w)]

    def get(self, a: int, b: int, default: float = 0.0) -> float:
        """Weight of the unordered pair (a, b), ``default`` if absent."""
        a, b = min(a, b), max(a, b)
        lo, hi = self.indptr[a], self.indptr[a + 1]
        k = lo + np.searchsorted(self.v[lo:hi], b)
        return float(self.w[k]) if a < b and k < hi and self.v[k] == b else default

    def to_dense(self) -> np.ndarray:
        """Symmetric dense weight matrix (tests and small graphs only)."""
        upper = self.to_matrix()
        return (upper + upper.T).toarray()

    def to_matrix(self) -> sp.csr_matrix:
        """The strictly upper-triangular CSR matrix, a view of the arrays."""
        return sp.csr_matrix((self.w, self.v, self.indptr), shape=(self.n, self.n))

    def add(self, other: "SimilarityAccumulator") -> "SimilarityAccumulator":
        """Entrywise sum; one addition per shared pair, by a sorted merge of
        the two canonical row sets (scipy drops a sum that is exactly 0)."""
        total = self.to_matrix() + other.to_matrix()
        return SimilarityAccumulator(self.n, total.indptr, total.indices, total.data)

    def select(self, keep: np.ndarray) -> "SimilarityAccumulator":
        """The pairs where the boolean mask ``keep`` is true.  When it keeps
        them all this is ``self``, so no pair array is copied."""
        if keep.all():
            return self
        kept = np.zeros(len(keep) + 1, dtype=self.indptr.dtype)
        np.cumsum(keep, out=kept[1:])  # kept pairs before each position
        return SimilarityAccumulator(self.n, kept[self.indptr], self.v[keep],
                                     self.w[keep])

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

    def rows(self, s: int, e: int, of: np.ndarray | None = None) -> np.ndarray:
        """The row u of each pair s..e-1, a fresh array in ``v``'s dtype, or
        of[u] when a per-node array ``of`` is given."""
        e = min(e, len(self))
        r0 = np.searchsorted(self.indptr, s, side="right") - 1
        r1 = np.searchsorted(self.indptr, e, side="left")
        count = np.diff(np.clip(self.indptr[r0:r1 + 1], s, e))
        if of is None:
            return np.repeat(np.arange(r0, r1, dtype=self.v.dtype), count)
        return np.repeat(of[r0:r1], count)

    @property
    def u(self) -> np.ndarray:
        return self.rows(0, len(self))

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
        kept = np.count_nonzero(keep)
        if kept == len(keep):
            return self
        if kept <= len(keep) // 2:
            # By index is faster than by mask, and its index array, 8 bytes a
            # kept pair, takes no more than the counts below, 4 bytes a pair.
            at = np.flatnonzero(keep)
            return SimilarityAccumulator(
                self.n, np.searchsorted(at, self.indptr).astype(self.indptr.dtype),
                self.v[at], self.w[at])
        before = np.zeros(len(keep) + 1, dtype=self.indptr.dtype)
        np.cumsum(keep, out=before[1:])  # kept pairs before each position
        return SimilarityAccumulator(self.n, before[self.indptr], self.v[keep],
                                     self.w[keep])

"""The weighted undirected pair set: canonical node pairs and their weights."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass
class SimilarityAccumulator:
    """Map from canonical pairs (u < v) of ``n`` nodes to their weight.

    Stored as parallel arrays sorted lexicographically by (u, v); weights are
    nonnegative and exact zeros are absent.  Backed by upper-triangular sparse
    matrices so pair volumes in the millions stay cheap.  Node labels stay
    with the ``DirectedGraph`` the pairs came from.
    """

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @classmethod
    def empty(cls, n: int) -> "SimilarityAccumulator":
        z = np.empty(0, dtype=np.int64)
        return cls(n, z, z.copy(), np.empty(0, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.w)

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        return [(int(a), int(b), float(c)) for a, b, c in zip(self.u, self.v, self.w)]

    def get(self, a: int, b: int, default: float = 0.0) -> float:
        """Weight of the unordered pair (a, b), ``default`` if absent."""
        if a == b:
            return default
        if a > b:
            a, b = b, a
        lo = np.searchsorted(self.u, a, side="left")
        hi = np.searchsorted(self.u, a, side="right")
        k = lo + np.searchsorted(self.v[lo:hi], b, side="left")
        if k < hi and self.v[k] == b:
            return float(self.w[k])
        return default

    def to_dense(self) -> np.ndarray:
        """Symmetric dense weight matrix (tests and small graphs only)."""
        m = np.zeros((self.n, self.n))
        m[self.u, self.v] = self.w
        m[self.v, self.u] = self.w
        return m

    def to_matrix(self) -> sp.csr_matrix:
        """Strictly upper-triangular CSR view of the pair weights, built
        straight from the canonical arrays (sorted indices, no duplicates)."""
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.u, minlength=self.n), out=indptr[1:])
        return sp.csr_matrix((self.w, self.v, indptr), shape=(self.n, self.n))

    def add(self, other: "SimilarityAccumulator") -> "SimilarityAccumulator":
        """Entrywise sum; one addition per shared pair, by a sorted merge of
        the two canonical row sets."""
        if self.n != other.n:
            raise ValueError("accumulator sizes differ")
        total = self.to_matrix() + other.to_matrix()
        total.eliminate_zeros()
        u = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(total.indptr))
        return SimilarityAccumulator(self.n, u, total.indices.astype(np.int64),
                                     total.data)

    def select(self, keep: np.ndarray) -> "SimilarityAccumulator":
        """The pairs where the boolean mask ``keep`` is true.  When it keeps
        them all this is ``self``, so no pair array is copied."""
        if keep.all():
            return self
        return SimilarityAccumulator(self.n, self.u[keep], self.v[keep],
                                     self.w[keep])

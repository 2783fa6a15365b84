"""Sparse symmetric similarity accumulator over canonical node pairs."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import CanonicalPairs


@dataclass
class SimilarityAccumulator(CanonicalPairs):
    """Map from canonical pairs (u < v) to accumulated weight.

    Stored as parallel arrays sorted lexicographically by (u, v); weights are
    nonnegative and exact zeros are absent.  Backed by upper-triangular sparse
    matrices so pair volumes in the millions stay cheap.
    """

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @classmethod
    def empty(cls, n: int) -> "SimilarityAccumulator":
        z = np.empty(0, dtype=np.int64)
        return cls(n, z, z.copy(), np.empty(0, dtype=np.float64))

    @classmethod
    def from_matrix(cls, mat: sp.spmatrix, n: int) -> "SimilarityAccumulator":
        """Build from any sparse matrix; strictly-upper entries are taken as
        the canonical pairs and explicit zeros dropped."""
        coo = sp.triu(mat, k=1).tocoo()
        keep = coo.data != 0.0
        u = coo.row[keep].astype(np.int64)
        v = coo.col[keep].astype(np.int64)
        w = coo.data[keep].astype(np.float64)
        order = np.lexsort((v, u))
        return cls(n, u[order], v[order], w[order])

    def __len__(self) -> int:
        return len(self.w)

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

    def scaled(self, factors: np.ndarray) -> "SimilarityAccumulator":
        """New accumulator with per-pair weights multiplied by ``factors``;
        it shares ``u`` and ``v`` with this one when no weight becomes 0."""
        w = self.w * factors
        keep = w != 0.0
        if keep.all():
            return SimilarityAccumulator(self.n, self.u, self.v, w)
        return SimilarityAccumulator(self.n, self.u[keep], self.v[keep], w[keep])

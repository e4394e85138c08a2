"""CSR sparse matrices and the sparse-dense product used for propagation.

Storage is plain CSR (row offsets, sorted column indices, values); the
actual multiply is delegated to scipy's sequential CSR kernel, which
accumulates each output row in index order, so results are deterministic
for a fixed build.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as _sp


class SparseMatrix:
    """Immutable CSR matrix."""

    def __init__(self, indptr, indices, data, shape):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.shape = (int(shape[0]), int(shape[1]))
        self._validate()
        self._scipy = _sp.csr_matrix(
            (self.data, self.indices, self.indptr), shape=self.shape
        )
        self._by_dtype = {np.dtype(np.float64): self._scipy}
        self._transpose = None

    def _validate(self):
        rows, cols = self.shape
        if self.indptr.shape != (rows + 1,):
            raise ValueError("indptr length must be rows + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be monotone")
        if self.indices.size != self.data.size:
            raise ValueError("indices and data length mismatch")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= cols
        ):
            raise ValueError("column index out of range")
        if self.indices.size > 1:
            # non-increasing steps are only allowed at row boundaries
            d = np.diff(self.indices)
            allowed = np.zeros(d.size, dtype=bool)
            bnd = self.indptr[1:-1]
            bnd = bnd[(bnd > 0) & (bnd <= d.size)]
            allowed[bnd - 1] = True
            if np.any((d <= 0) & ~allowed):
                raise ValueError("column indices must be strictly increasing per row")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("values must be finite")

    @classmethod
    def from_coo(cls, rows, cols, vals, shape):
        """Build CSR from coordinate triplets; duplicate entries are summed."""
        m = _sp.csr_matrix((vals, (rows, cols)), shape=shape)
        m.sum_duplicates()
        m.sort_indices()
        return cls(m.indptr, m.indices, m.data, shape)

    @classmethod
    def identity(cls, n):
        return cls(np.arange(n + 1), np.arange(n), np.ones(n), (n, n))

    @property
    def nnz(self):
        return int(self.indices.size)

    def transpose(self):
        if self._transpose is None:
            t = self._scipy.T.tocsr()
            t.sort_indices()
            self._transpose = SparseMatrix(
                t.indptr, t.indices, t.data, (self.shape[1], self.shape[0])
            )
            self._transpose._transpose = self
        return self._transpose

    @property
    def T(self):
        return self.transpose()

    def matmul(self, x):
        """Sparse @ dense with shape checking; preserves the dense dtype."""
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError("dense operand must be 2-D")
        if self.shape[1] != x.shape[0]:
            raise ValueError(
                f"shape mismatch: {self.shape} @ {x.shape}"
            )
        m = self._by_dtype.get(x.dtype)
        if m is None:
            m = _sp.csr_matrix(
                (self.data.astype(x.dtype), self.indices, self.indptr),
                shape=self.shape,
            )
            self._by_dtype[x.dtype] = m
        return m @ x

    def __matmul__(self, x):
        return self.matmul(x)

    def row_sums(self):
        return np.asarray(self._scipy.sum(axis=1)).ravel()

    def to_dense(self):
        return self._scipy.toarray()

    def __repr__(self):
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"

"""CSR sparse matrices and the sparse-dense product used for propagation.

A SparseMatrix is a checked, immutable shell over one scipy CSR matrix
(row offsets, sorted column indices, float64 values); the multiply is
scipy's sequential CSR kernel, which accumulates each output row in
index order, so results are deterministic for a fixed build.  T, the
transpose, is built on first use and kept: phase 2's training block
(training.RunContext.receptive_field) needs it, while the normalized
adjacency is its own transpose (graphs.normalize_adjacency).
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as _sp


class SparseMatrix:
    """Immutable CSR matrix; csr is the scipy matrix it wraps, for reading
    only."""

    def __init__(self, indptr, indices, data, shape):
        m = _sp.csr_matrix((np.asarray(data, dtype=np.float64), indices,
                            indptr), shape=shape)
        # scipy prunes entries past indptr[-1] instead of rejecting them
        if m.indptr[-1] != np.size(indices):
            raise ValueError("indptr must end at nnz")
        m.check_format(full_check=True)
        if not m.has_canonical_format:
            raise ValueError("column indices must be strictly increasing per row")
        if not np.isfinite(m.data).all():
            raise ValueError("values must be finite")
        self.csr = m
        self.shape = m.shape
        self._by_dtype = {np.dtype(np.float64): m}

    @classmethod
    def from_coo(cls, rows, cols, vals, shape):
        """Build CSR from coordinate triplets; duplicate entries are summed."""
        m = _sp.csr_matrix((vals, (rows, cols)), shape=shape)
        return cls(m.indptr, m.indices, m.data, shape)

    @property
    def indptr(self):
        return self.csr.indptr

    @property
    def indices(self):
        return self.csr.indices

    @property
    def data(self):
        return self.csr.data

    @property
    def nnz(self):
        return int(self.indices.size)

    @functools.cached_property
    def T(self):
        """The transpose, built on first use and kept."""
        t = self.csr.T.tocsr()
        return SparseMatrix(t.indptr, t.indices, t.data, t.shape)

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

    def row_sums(self):
        return np.asarray(self.csr.sum(axis=1)).ravel()

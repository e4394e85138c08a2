"""CSR sparse matrices, the sparse-dense product, its worker threads, and
the row blocks that bound the temporaries of work on n rows.

A SparseMatrix is a checked, immutable shell over one scipy CSR matrix
(row offsets, sorted column indices, float32 or float64 values); the
multiply is scipy's CSR kernel, which accumulates each output row in
index order; from PARALLEL_FLOOR multiply-adds each worker runs it
(without the GIL) on one row band, so the sums do not depend on the
worker count.  One copy of the values is held: astype gives them in
another dtype, sharing the index arrays and keeping the float64 row
sums, and a product with an operand of another dtype casts them for
that product only.  T, the transpose, is built on first use and kept:
phase 2's training block (training.RunContext.receptive_field) needs
it, while the normalized adjacency is its own transpose
(graphs.normalize_adjacency).
"""

from __future__ import annotations

import contextvars
import functools
import os

import numpy as np
import scipy.sparse as _sp
from scipy.sparse import _sparsetools

# multiply-adds (nnz x columns of a product; rows x width x H x heads of
# the training heads) from which work goes to the worker threads: every
# ppm6 product and head stays below it, an ER n=5e4 64-column one above
PARALLEL_FLOOR = 2**25
_pools = {}                 # pid -> its worker threads, made on first use
os.register_at_fork(after_in_child=_pools.clear)    # the child has none
# rows per block of the work whose temporaries are kept to a row block:
# ioutil.write_csv, subjective.dissonance_batch, the encoder layer's
# softplus, the evidence heads' dL/dz, and the dropout draws'
# raw words (a ppm6 array is one block); even, so a float32 draw's
# blocks take whole words
ROW_BLOCK = 2**13


def workers():
    """CPUs in this process's affinity mask (taskset -c 0 gives one)."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def row_blocks(n):
    """ROW_BLOCK-row slices (the last may be shorter) covering range(n)."""
    return [slice(lo, min(lo + ROW_BLOCK, n)) for lo in range(0, n, ROW_BLOCK)]


def parallel(calls, work):
    """[f() for f in calls]; from PARALLEL_FLOOR multiply-adds of work with
    two workers or more, on this process's pool, each call in a copy of
    the caller's context (so np.errstate holds).  The calls must draw no
    random numbers and not call parallel."""
    if work < PARALLEL_FLOOR or len(calls) < 2 or workers() < 2:
        return [f() for f in calls]
    pool = _pools.get(os.getpid())
    if pool is None:        # imported here: it costs a process 0.1 MB
        from concurrent.futures import ThreadPoolExecutor
        pool = _pools[os.getpid()] = ThreadPoolExecutor(workers())
    futures = [pool.submit(contextvars.copy_context().run, f) for f in calls]
    return [f.result() for f in futures]


class SparseMatrix:
    """Immutable CSR matrix; csr is the scipy matrix it wraps, for reading
    only.  Values that are not float32 are held as float64."""

    def __init__(self, indptr, indices, data, shape):
        data = np.asarray(data)
        if data.dtype != np.float32:
            data = data.astype(np.float64, copy=False)
        m = _sp.csr_matrix((data, indices, indptr), shape=shape)
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
        self._row_sums = None

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
    def dtype(self):
        return self.csr.dtype

    @property
    def nnz(self):
        return int(self.indices.size)

    def astype(self, dtype):
        """These entries with their values in dtype (self if they are):
        indptr and indices are shared, and row_sums stays this matrix's."""
        if np.dtype(dtype) == self.dtype:
            return self
        out = SparseMatrix(self.indptr, self.indices,
                           self.data.astype(dtype), self.shape)
        out._row_sums = self.row_sums()
        return out

    @functools.cached_property
    def T(self):
        """The transpose, built on first use and kept."""
        t = self.csr.T.tocsr()
        return SparseMatrix(t.indptr, t.indices, t.data, t.shape)

    def matmul(self, x):
        """Sparse @ dense with shape checking; preserves the dense dtype,
        which must be floating."""
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError("dense operand must be 2-D")
        if not np.issubdtype(x.dtype, np.floating):
            raise ValueError(f"dense operand must be floating, not {x.dtype}")
        if self.shape[1] != x.shape[0]:
            raise ValueError(f"shape mismatch: {self.shape} @ {x.shape}")
        m = self.csr if x.dtype == self.dtype else _sp.csr_matrix(
            (self.data.astype(x.dtype), self.indices, self.indptr),
            shape=self.shape)
        work = self.nnz * x.shape[1]
        if work < PARALLEL_FLOOR or workers() < 2:
            return m @ x
        # m @ x's own kernel on row bands of about equal nnz
        out = np.zeros((self.shape[0], x.shape[1]), dtype=x.dtype)
        xs, cuts = np.ravel(x), np.searchsorted(
            m.indptr, np.linspace(0, self.nnz, workers() + 1))
        cuts[[0, -1]] = 0, self.shape[0]

        def band(lo, hi):
            a = (m.indptr[lo:hi + 1], m.indices, m.data, xs, out[lo:hi].ravel())
            if x.shape[1] == 1:
                return _sparsetools.csr_matvec(hi - lo, x.shape[0], *a)
            return _sparsetools.csr_matvecs(hi - lo, *x.shape, *a)

        parallel([functools.partial(band, lo, hi)
                  for lo, hi in zip(cuts, cuts[1:]) if hi > lo], work)
        return out

    def row_sums(self):
        """The (rows,) float64 sums of the values, computed once and kept
        read-only; a matrix from astype has its source's."""
        if self._row_sums is None:
            m = self.csr.astype(np.float64, copy=False)
            self._row_sums = np.asarray(m.sum(axis=1)).ravel()
            self._row_sums.flags.writeable = False
        return self._row_sums

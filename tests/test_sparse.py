import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import _sparsetools

import oracles
from betagraph import sparse
from betagraph.sparse import SparseMatrix


def random_csr(rng, rows, cols, density=0.4):
    dense = rng.standard_normal((rows, cols))
    dense[rng.random((rows, cols)) > density] = 0.0
    return dense_to_csr(dense), dense


def dense_to_csr(dense):
    rows, cols = np.nonzero(dense)
    return oracles.sparse_from_coo(rows, cols, dense[rows, cols], dense.shape)


def identity(n):
    return SparseMatrix(np.arange(n + 1), np.arange(n), np.ones(n), (n, n))


def test_identity_times_anything():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 3))
    eye = identity(6)
    assert np.array_equal(eye.matmul(x), x)


def test_one_by_one():
    m = oracles.sparse_from_coo([0], [0], [2.0], (1, 1))
    assert m.matmul(np.array([[3.0]])) == np.array([[6.0]])


def test_random_5x5_vs_dense_oracle():
    rng = np.random.default_rng(3)
    m, dense = random_csr(rng, 5, 5)
    x = rng.standard_normal((5, 4))
    assert np.abs(m.matmul(x) - dense @ x).max() < 1e-12


@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 4),
       st.integers(0, 10_000))
@settings(max_examples=80)
def test_spmm_matches_dense_oracle(rows, cols, width, seed):
    rng = np.random.default_rng(seed)
    m, dense = random_csr(rng, rows, cols)
    x = rng.standard_normal((cols, width))
    assert np.abs(m.matmul(x) - dense @ x).max() < 1e-12


def test_shape_mismatch():
    m = identity(3)
    with pytest.raises(ValueError):
        m.matmul(np.zeros((4, 2)))


def test_validation_rejects_bad_indptr():
    with pytest.raises(ValueError):
        SparseMatrix(np.array([0, 2, 1]), np.array([0, 1]),
                     np.array([1.0, 1.0]), (2, 2))


def test_validation_rejects_unsorted_columns():
    with pytest.raises(ValueError):
        SparseMatrix(np.array([0, 2]), np.array([1, 0]),
                     np.array([1.0, 1.0]), (1, 2))


def test_validation_rejects_out_of_range_column():
    with pytest.raises(ValueError):
        SparseMatrix(np.array([0, 1]), np.array([5]),
                     np.array([1.0]), (1, 2))


def test_validation_rejects_entries_past_indptr_end():
    # scipy would silently drop the second entry
    with pytest.raises(ValueError, match="nnz"):
        SparseMatrix(np.array([0, 1]), np.array([0, 1]),
                     np.array([1.0, 1.0]), (1, 2))


def test_validation_rejects_nonzero_indptr_start():
    with pytest.raises(ValueError):
        SparseMatrix(np.array([1, 1]), np.array([0]), np.array([1.0]), (1, 2))


def test_validation_rejects_duplicate_column():
    with pytest.raises(ValueError, match="increasing"):
        SparseMatrix(np.array([0, 2]), np.array([1, 1]),
                     np.array([1.0, 1.0]), (1, 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validation_rejects_non_finite_value(bad):
    with pytest.raises(ValueError, match="finite"):
        SparseMatrix(np.array([0, 1]), np.array([0]), np.array([bad]), (1, 2))


def test_one_copy_of_the_arrays():
    m, _ = random_csr(np.random.default_rng(4), 5, 5)
    assert m.indptr is m.csr.indptr
    assert m.indices is m.csr.indices
    assert m.data is m.csr.data and m.data.dtype == np.float64


def test_empty_rows_allowed():
    m = SparseMatrix(np.array([0, 0, 1, 1]), np.array([2]),
                     np.array([4.0]), (3, 3))
    out = m.matmul(np.eye(3))
    assert out[1, 2] == 4.0
    assert out.sum() == 4.0


def test_dtype_preserved():
    m = identity(3)
    x32 = np.ones((3, 2), dtype=np.float32)
    assert m.matmul(x32).dtype == np.float32


def test_deterministic_product():
    rng = np.random.default_rng(9)
    m, _ = random_csr(rng, 50, 50, density=0.2)
    x = rng.standard_normal((50, 8))
    first = m.matmul(x)
    for _ in range(3):
        assert np.array_equal(m.matmul(x), first)


def test_row_sums():
    m = dense_to_csr(np.array([[1.0, 2.0], [0.0, 0.0]]))
    assert np.array_equal(m.row_sums(), np.array([3.0, 0.0]))


def rectangular_with_empty_lines():
    """A random 7 x 5 matrix with rows 1 and 4 and column 2 empty."""
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((7, 5))
    dense[rng.random((7, 5)) > 0.6] = 0.0
    dense[[1, 4]] = 0.0
    dense[:, 2] = 0.0
    return dense_to_csr(dense), rng


def test_transpose_is_built_once():
    m, _ = rectangular_with_empty_lines()
    assert m.T is m.T


def test_transpose_entries():
    m, _ = rectangular_with_empty_lines()
    assert m.T.shape == (5, 7)
    assert (m.T.csr != m.csr.T).nnz == 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_transpose_product_bit_equal_to_scipy(dtype):
    m, rng = rectangular_with_empty_lines()
    x = rng.standard_normal((7, 3)).astype(dtype)
    got = m.T.matmul(x)
    want = m.csr.T.tocsr().astype(dtype) @ x
    assert got.dtype == dtype
    assert got.tobytes() == want.tobytes()
    assert not got[2].any()                     # the empty column


def test_transpose_product_checks_the_shape():
    m, _ = rectangular_with_empty_lines()
    with pytest.raises(ValueError, match="shape mismatch"):
        m.T.matmul(np.zeros((5, 2)))


def test_astype_shares_the_indices_and_keeps_the_row_sums():
    m, _ = rectangular_with_empty_lines()
    sums = m.row_sums()
    m32 = m.astype(np.float32)
    assert m.astype(np.float64) is m and m32.astype(np.float32) is m32
    assert np.shares_memory(m32.indptr, m.indptr)
    assert np.shares_memory(m32.indices, m.indices)
    assert m32.dtype == np.float32
    assert m32.data.tobytes() == m.data.astype(np.float32).tobytes()
    assert m32.row_sums() is sums and sums.dtype == np.float64
    assert not sums.flags.writeable
    assert m32.T.dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_products_keep_no_copy_of_the_values(dtype):
    """An operand in the values' dtype multiplies the wrapped matrix; one
    in another dtype casts the values for that product only."""
    m, rng = rectangular_with_empty_lines()
    m32 = m.astype(np.float32)
    attributes = dict(vars(m32))
    x = rng.standard_normal((5, 3)).astype(dtype)
    got = m32.matmul(x)
    assert got.dtype == dtype
    assert got.tobytes() == (m32.csr.astype(dtype) @ x).tobytes()
    assert vars(m32) == attributes


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.bool_,
                                   np.complex128])
def test_non_floating_operand_is_rejected(dtype):
    """The values are cast to the operand's dtype, so an integer operand
    would multiply by zeros and a bool one return bools."""
    m = identity(3)
    with pytest.raises(ValueError, match=np.dtype(dtype).name):
        m.matmul(np.ones((3, 2), dtype=dtype))


# -- row bands over worker threads ---------------------------------------

class KernelSpy:
    """Stands in for scipy's _sparsetools in the sparse module and records
    the rows of each kernel call: scipy's own m @ x goes around it."""

    def __init__(self):
        self.rows = []

    def csr_matvec(self, n_row, *args):
        self.rows.append(n_row)
        return _sparsetools.csr_matvec(n_row, *args)

    def csr_matvecs(self, n_row, *args):
        self.rows.append(n_row)
        return _sparsetools.csr_matvecs(n_row, *args)


@pytest.fixture
def banded(monkeypatch):
    """Every product cut into three bands, whatever the CPU count."""
    spy = KernelSpy()
    monkeypatch.setattr(sparse, "PARALLEL_FLOOR", 0)
    monkeypatch.setattr(sparse, "workers", lambda: 3)
    monkeypatch.setattr(sparse, "_sparsetools", spy)
    return spy


def banded_matrix(rows, cols, empty=()):
    """A random rows x cols matrix, about 30% full, with the given rows
    empty and rows of 0 to cols entries, so bands differ in row count."""
    rng = np.random.default_rng(rows * 1000 + cols)
    dense = rng.standard_normal((rows, cols))
    dense[rng.random((rows, cols)) > rng.random((rows, 1)) * 0.6] = 0.0
    dense[list(empty)] = 0.0
    return dense_to_csr(dense), rng


def operand(rng, rows, width, dtype, layout):
    x = rng.standard_normal((rows, 2 * width)).astype(dtype)
    if layout == "sliced":
        return x[:, ::2]
    x = x[:, :width]
    return np.asfortranarray(x) if layout == "F" else np.ascontiguousarray(x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [1, 5, 16, 64])
@pytest.mark.parametrize("layout", ["C", "F", "sliced"])
def test_banded_product_bit_equal_to_scipy(banded, dtype, width, layout):
    m, rng = banded_matrix(90, 70, empty=(0, 1, 40, 89))
    x = operand(rng, 70, width, dtype, layout)
    got = m.matmul(x)
    want = m.csr.astype(dtype) @ x
    assert sum(banded.rows) == 90 and len(banded.rows) == 3
    assert got.dtype == dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_banded_product_of_the_transpose(banded, dtype):
    m, rng = banded_matrix(60, 80, empty=range(10, 30))
    x = rng.standard_normal((60, 16)).astype(dtype)
    want = m.csr.T.tocsr().astype(dtype) @ x
    assert m.T.matmul(x).tobytes() == want.tobytes()
    assert sum(banded.rows) == 80


@pytest.mark.parametrize("rows", [1, 2])
def test_fewer_rows_than_workers(banded, rows):
    m, rng = banded_matrix(rows, 6)
    x = rng.standard_normal((6, 5))
    assert m.matmul(x).tobytes() == (m.csr @ x).tobytes()
    assert sum(banded.rows) == rows


def test_empty_matrix_banded(banded):
    m = SparseMatrix(np.zeros(5, dtype=np.int64), np.zeros(0, np.int64),
                     np.zeros(0), (4, 3))
    out = m.matmul(np.ones((3, 2), dtype=np.float32))
    assert out.dtype == np.float32 and out.shape == (4, 2) and not out.any()


def test_banded_product_under_thread_switching(monkeypatch):
    """Eight bands, more than the CPUs, with the interpreter switching
    threads every microsecond: every product still equals scipy's."""
    monkeypatch.setattr(sparse, "PARALLEL_FLOOR", 0)
    monkeypatch.setattr(sparse, "workers", lambda: 8)
    m, rng = banded_matrix(300, 200, empty=range(100, 150))
    xs = [rng.standard_normal((200, 16)).astype(np.float32)
          for _ in range(20)]
    want = [(m.csr.astype(np.float32) @ x).tobytes() for x in xs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.monotonic()
        got = [m.matmul(x).tobytes() for x in xs]
        assert time.monotonic() - start < 60
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_small_products_stay_serial(monkeypatch):
    spy = KernelSpy()
    monkeypatch.setattr(sparse, "workers", lambda: 3)
    monkeypatch.setattr(sparse, "_sparsetools", spy)
    m, rng = banded_matrix(90, 70)
    x = rng.standard_normal((70, 64))
    assert m.nnz * 64 < sparse.PARALLEL_FLOOR
    assert m.matmul(x).tobytes() == (m.csr @ x).tobytes()
    assert spy.rows == []


def test_one_worker_runs_inline(monkeypatch):
    monkeypatch.setattr(sparse, "workers", lambda: 1)
    threads = sparse.parallel([threading.current_thread] * 3, float("inf"))
    assert threads == [threading.current_thread()] * 3


def test_errstate_reaches_the_workers(monkeypatch):
    """Each call runs in a copy of the caller's context, so np.errstate
    set around parallel holds in the worker threads."""
    monkeypatch.setattr(sparse, "workers", lambda: 3)
    ran_on = []

    def overflow():
        ran_on.append(threading.current_thread())
        return np.float32(3e38) * np.float32(10)

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            sparse.parallel([overflow] * 3, float("inf"))
    assert threading.main_thread() not in ran_on
    with np.errstate(over="ignore"):
        assert sparse.parallel([overflow] * 3, float("inf")) == \
            [np.float32(np.inf)] * 3


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_fork_after_the_pool_is_in_use(banded):
    """A child forked while the pool has threads drops it and makes its
    own: the parent's threads do not exist there, and a task queued on
    their pool may never run."""
    m, rng = banded_matrix(90, 70)
    x = rng.standard_normal((70, 16))
    want = (m.csr @ x).tobytes()
    assert m.matmul(x).tobytes() == want        # the pool is in use
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if os.getpid() not in sparse._pools and \
                m.matmul(x).tobytes() == want else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung on its parent's pool")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(status) == 0

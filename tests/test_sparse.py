import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betagraph.sparse import SparseMatrix


def random_csr(rng, rows, cols, density=0.4):
    dense = rng.standard_normal((rows, cols))
    dense[rng.random((rows, cols)) > density] = 0.0
    return dense_to_csr(dense), dense


def dense_to_csr(dense):
    rows, cols = np.nonzero(dense)
    return SparseMatrix.from_coo(rows, cols, dense[rows, cols], dense.shape)


def identity(n):
    return SparseMatrix(np.arange(n + 1), np.arange(n), np.ones(n), (n, n))


def test_identity_times_anything():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 3))
    eye = identity(6)
    assert np.array_equal(eye.matmul(x), x)


def test_one_by_one():
    m = SparseMatrix.from_coo([0], [0], [2.0], (1, 1))
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

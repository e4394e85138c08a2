import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from betagraph import autodiff as ad
from betagraph import sparse, special
from betagraph.rng import rng
import oracles
from oracles import grad_check, parameter
from test_special import edge_values, float_arrays


def numeric_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f()
        flat[i] = orig - eps
        down = f()
        flat[i] = orig
        gf[i] = (up - down) / (2 * eps)
    return g


def check_op(build, *shapes, seed=0, tol=1e-6):
    """Compare backward() against central differences for each input."""
    gen = rng(seed)
    params = [parameter(gen.uniform(0.3, 2.0, size=s)) for s in shapes]
    loss = build(*params)
    loss.backward()
    for p in params:
        def scalar():
            with ad.no_grad():
                return float(build(*params).data)
        num = numeric_grad(scalar, p.data)
        got = p.grad if p.grad is not None else np.zeros_like(p.data)
        assert np.abs(got - num).max() < tol, f"shape {p.data.shape}"


class TestBasicOps:
    def test_square_example(self):
        x = parameter(3.0)
        reports = grad_check(lambda: ad.mul(x, x), {"x": x})
        assert reports[0].analytic == pytest.approx(6.0)
        assert reports[0].numeric == pytest.approx(6.0, abs=1e-6)

    @settings(max_examples=300, deadline=None)
    @given(float_arrays())
    def test_relu_bit_equal_to_where_form(self, x):
        where = np.where(x > 0, x, 0.0).astype(x.dtype, copy=False)
        assert oracles.relu(ad.Tensor(x)).data.tobytes() == where.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_edge_values(self, dtype):
        x = ad.Tensor(edge_values(dtype), requires_grad=True)
        y = oracles.relu(x)
        where = np.where(x.data > 0, x.data, 0.0).astype(dtype)
        assert y.data.dtype == dtype
        assert y.data.tobytes() == where.tobytes()
        assert not np.signbit(y.data).any()
        for v in x.data:                       # 0-d: numpy's scalar loops
            assert not np.signbit(oracles.relu(ad.Tensor(v)).data)
        ad.tsum(y).backward()
        assert np.array_equal(x.grad, x.data > 0)

    def test_softplus_grad_is_sigmoid(self):
        x = parameter(0.0)
        reports = grad_check(lambda: oracles.softplus(x), {"x": x})
        assert reports[0].analytic == pytest.approx(0.5, abs=1e-12)

    def test_add_mul_broadcast(self):
        check_op(lambda a, b: ad.tsum(ad.mul(oracles.add(a, b), a)),
                 (3, 4), (4,))

    def test_sub_div(self):
        check_op(lambda a, b: ad.tsum(oracles.div(oracles.sub(a, b), b)),
                 (2, 3), (2, 3))

    def test_matmul(self):
        check_op(lambda a, b: ad.tsum(ad.matmul(a, b)), (3, 4), (4, 2))

    def test_mean_axis(self):
        check_op(lambda a: ad.tsum(oracles.tmean(a, axis=0)), (5, 3))

    def test_take_rows_and_cols(self):
        idx = np.array([2, 0, 2])
        check_op(lambda a: ad.tsum(ad.take_rows(a, idx)), (4, 3))
        check_op(lambda a: ad.tsum(oracles.cols(a, 1, 3)), (4, 5))

    def test_concat_axes(self):
        check_op(lambda a, b: ad.tsum(ad.mul(
            oracles.concat([a, b], axis=1), oracles.concat([a, b], axis=1))),
            (3, 2), (3, 4))
        check_op(lambda a, b: ad.tsum(oracles.concat([a, b], axis=0)),
                 (2, 3), (4, 3))

    def test_reshape_broadcast_rows(self):
        check_op(lambda a: ad.tsum(ad.reshape(a, (2, 6))), (3, 4))
        check_op(lambda a: ad.tsum(ad.mul(
            ad.matmul(np.ones((5, 1)), a), 2.0)), (1, 3))

    def test_nonlinearities(self):
        check_op(lambda a: ad.tsum(oracles.relu(oracles.sub(a, 1.0))),
                 (4, 4))
        check_op(lambda a: ad.tsum(oracles.softplus(a)), (3, 3))
        check_op(lambda a: ad.tsum(oracles.exp(a)), (2, 2))
        check_op(lambda a: ad.tsum(oracles.log(a)), (2, 2))
        check_op(lambda a: ad.tsum(oracles.sqrt(a)), (2, 2))

    def test_gamma_family(self):
        check_op(lambda a: ad.tsum(oracles.lgamma(a)), (3, 3), tol=1e-5)
        check_op(lambda a: ad.tsum(oracles.digamma(a)), (3, 3), tol=1e-5)

    def test_logsumexp(self):
        check_op(lambda a: ad.tsum(oracles.logsumexp(a, axis=1)), (4, 5))

    def test_spmm_grad(self):
        # spmm's gradient is adj @ g, so the matrix must be symmetric
        adj = oracles.sparse_from_coo([0, 0, 1, 1, 2, 2], [0, 2, 1, 2, 0, 1],
                                      [1.0, 2.0, 0.5, 3.0, 2.0, 3.0], (3, 3))
        check_op(lambda a: ad.tsum(oracles.spmm(adj, a)), (3, 4))


class TestColmeanExact:
    def test_permutation_invariance_exact(self):
        gen = rng(1)
        x = gen.standard_normal((40, 8))
        base = ad.colmean_exact(x)
        for seed in range(5):
            perm = rng(seed).permutation(40)
            out = ad.colmean_exact(x[perm])
            assert np.array_equal(out, base)

    def test_duplication_invariance_exact(self):
        gen = rng(2)
        x = gen.standard_normal((13, 4))
        doubled = np.repeat(x, 2, axis=0)
        a = ad.colmean_exact(x)
        b = ad.colmean_exact(doubled)
        assert np.array_equal(a, b)

    def test_gradient(self):
        check_op(lambda a: ad.tsum(oracles.colmean_exact(a)), (6, 3))

    @settings(max_examples=300, deadline=None)
    @given(m=st.sampled_from([1, 2, 3, 7, 15, 20, 63, 64, 200, 1023, 4096,
                              4097]),
           offset=st.sampled_from([-1, 0, 1]), position=st.floats(0, 1),
           heavy=st.booleans(), zeros=st.sampled_from([0.0, 0.3]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(m=7, offset=1, position=0.5, heavy=True, zeros=0.0, seed=0)
    @example(m=15, offset=1, position=0.5, heavy=True, zeros=0.0, seed=0)
    @example(m=63, offset=1, position=0.5, heavy=True, zeros=0.0, seed=0)
    def test_float32_columns_equal_fsum(self, m, offset, position, heavy,
                                        zeros, seed):
        """Float32 columns whose nonzero magnitudes span one binade below
        the fast path's bound 29 - m.bit_length(), exactly it, or one
        above, with subnormals, +-0 and all-zero columns: every mean has
        fsum's bits, and so does every column sum.  Heavy columns (values
        at the top of the span, then a quarter of odd-mantissa values at
        its bottom) round in float64 past the bound when m is just below
        a power of two, so a looser bound fails here."""
        span = max(0, 29 - m.bit_length() + offset)
        lo = -125 if heavy else -148                 # -148: subnormals
        emin = lo + round(position * (127 - span - lo))
        gen = rng(seed)
        cols = [spanned_column(gen, m, span, emin, heavy, zeros)
                for _ in range(3)]
        cols.append(np.where(gen.random(m) < 0.5, 0.0, -0.0))
        x = np.stack(cols, axis=1).astype(np.float32)
        assert ad.colmean_exact(x).tobytes() == fsum_means(x).tobytes()
        assert ad._fsum_columns(x).tobytes() == fsum_sums(x).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 30),
                                            st.integers(1, 4)),
                      elements=st.floats(-1e300, 1e300,
                                         allow_subnormal=True)))
    def test_float64_columns_equal_fsum(self, x):
        assert ad.colmean_exact(x).tobytes() == fsum_means(x).tobytes()
        assert ad._fsum_columns(x).tobytes() == fsum_sums(x).tobytes()

    @pytest.mark.parametrize("special", [np.inf, -np.inf, np.nan])
    def test_non_finite_columns_equal_fsum(self, special):
        x = rng(3).standard_normal((9, 3)).astype(np.float32)
        x[4, 1] = special
        got = ad.colmean_exact(x)
        assert got[[0, 2]].tobytes() == fsum_means(x)[[0, 2]].tobytes()
        assert np.array_equal(got[1], fsum_means(x)[1], equal_nan=True)

    def test_opposite_infinities_fail_as_fsum_does(self):
        x = np.array([[np.inf], [-np.inf]], dtype=np.float32)
        with pytest.raises(ValueError):
            ad.colmean_exact(x)


def spanned_column(gen, m, span, emin, heavy, zeros):
    """m float32 values whose nonzero magnitudes have np.frexp exponents
    emin to emin + span, both ends present (rounded to float32's grid
    below the normal range)."""
    if heavy:
        col = np.full(m, (2 ** 24 - 1) / 2 ** 24 * 2.0 ** (emin + span))
        small = min(m, max(2, m // 4))
        odd = 2 ** 23 + 1 + 2 * gen.integers(0, 2 ** 22, small)
        col[-small:] = np.ldexp(odd, emin - 24)
        return col * gen.choice([-1.0, 1.0])
    e = gen.integers(emin, emin + span + 1, m)
    e[0], e[-1] = emin + span, emin
    col = np.ldexp(gen.integers(2 ** 23, 2 ** 24, m) / 2 ** 24, e)
    col *= gen.choice([-1.0, 1.0], m)
    col[gen.random(m) < zeros] = 0.0
    return col


def fsum_sums(x):
    """Column sums by math.fsum, as float64."""
    return np.array([math.fsum(x[:, j].astype(np.float64))
                     for j in range(x.shape[1])])


def fsum_means(x):
    """Column means by math.fsum, in x's dtype: colmean_exact's reference."""
    return (fsum_sums(x) / x.shape[0]).astype(x.dtype)


class TestEngineMechanics:
    def test_no_grad_blocks_taping(self):
        x = parameter(np.ones(3))
        with ad.no_grad():
            y = ad.mul(x, 2.0)
        assert not y.requires_grad and y._parents == ()
        assert y._grads is None

    def test_grad_accumulates_on_reuse(self):
        x = parameter(2.0)
        y = oracles.add(ad.mul(x, x), ad.mul(x, 3.0))   # x^2 + 3x
        y.backward()
        assert x.grad == pytest.approx(7.0)

    def test_backward_requires_scalar(self):
        x = parameter(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ad.mul(x, 1.0).backward()

    def test_constants_stay_untaped(self):
        x = parameter(np.ones(3))
        y = ad.mul(oracles.add(x, np.array([1.0, 2.0, 3.0])), 0.5)
        assert len(y._parents) == 1

    def test_float32_graph_stays_float32(self):
        x = ad.Tensor(np.ones((3, 3), dtype=np.float32), requires_grad=True)
        y = oracles.softplus(ad.mul(oracles.add(x, 1.0), -2.0))
        assert y.data.dtype == np.float32
        ad.tsum(y).backward()
        assert x.grad.dtype == np.float32

    def test_backward_releases_the_tape(self):
        x = parameter(np.array([2.0, -1.0]))
        w = parameter(np.array([[1.0, 3.0], [0.5, -2.0]]))
        h = oracles.softplus(ad.matmul(ad.reshape(x, (1, 2)), w))
        loss = ad.tsum(oracles.add(ad.mul(h, h),
                                        ad.mul(x, 3.0)))
        interior = [t for t in ad._topo_order(loss) if t._parents]
        assert len(interior) == 7
        loss.backward()
        for t in interior:
            assert t._parents == () and t._grads is None
            assert t.grad is None or t is loss
        hx = special.softplus(x.data @ w.data)
        gz = 2.0 * hx * special.sigmoid(x.data @ w.data)
        assert np.allclose(x.grad, gz @ w.data.T + 3.0, rtol=1e-12)
        assert np.allclose(w.grad, np.outer(x.data, gz), rtol=1e-12)
        grads = x.grad.copy(), w.grad.copy()
        loss.backward()                   # nothing left to walk
        assert np.array_equal(x.grad, grads[0])
        assert np.array_equal(w.grad, grads[1])

    def test_fused_node_hands_out_each_gradient_once(self):
        a = parameter(np.array([1.0, 2.0]))
        b = ad.Tensor(np.array([3.0, 4.0]))
        c = parameter(np.array([5.0, 6.0]))
        calls = []

        def grads(g):
            calls.append(g)
            return g * 2.0, g * 4.0, g * 3.0     # b's is ignored

        out = ad.fused_node(a.data + b.data + c.data, (a, b, c), grads)
        assert out._parents == (a, b, c)
        loss = ad.tsum(out)
        assert b not in ad._topo_order(loss)
        loss.backward()
        assert len(calls) == 1
        assert b.grad is None
        assert np.array_equal(a.grad, [2.0, 2.0])
        assert np.array_equal(c.grad, [3.0, 3.0])

    def test_dropout_scaling_and_determinism(self):
        x = ad.Tensor(np.ones((2000, 4)))
        a = ad.dropout(x, 0.25, rng(3))
        b = ad.dropout(x, 0.25, rng(3))
        assert np.array_equal(a.data, b.data)
        assert abs(a.data.mean() - 1.0) < 0.05
        kept = a.data[a.data > 0]
        assert np.allclose(kept, 1.0 / 0.75)
        assert np.array_equal(ad.dropout(x, 0.0, rng(3)).data, x.data)


_DRAW = st.tuples(
    st.sampled_from([np.float32, np.float64]),
    st.one_of(st.sampled_from([0.2, 1 / 3, 0.9]),
              st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
              .filter(lambda r: np.float32(r) < 1)     # in float32 too
              .flatmap(lambda r: st.sampled_from([r, np.float64(r),
                                                  np.float32(r)]))),
    st.lists(st.integers(0, 7), max_size=3).map(tuple))


class TestDropoutKeep:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.lists(_DRAW, min_size=1,
                                                 max_size=8))
    def test_equals_float_draw(self, seed, draws):
        """Interleaved draws on one stream equal numpy's float draws
        compared with the rate, and leave the stream where those leave
        it."""
        got, want = rng(seed), rng(seed)
        for dtype, rate, shape in draws:
            keep = ad.dropout_keep(shape, dtype, rate, got)
            ref = oracles.dropout_mask(shape, dtype, rate, want) > 0
            assert keep.dtype == bool and keep.shape == ref.shape
            assert np.array_equal(keep, ref), (dtype, rate, shape)
        assert got.random(dtype=np.float32) == want.random(dtype=np.float32)
        assert got.random() == want.random()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3, 8193, 3), (2, 12289, 5),
                                       (24581, 1)])
    @pytest.mark.parametrize("buffered", [0, 1])
    @pytest.mark.parametrize("block", [sparse.ROW_BLOCK, 2])
    def test_blocks_equal_float_draw(self, dtype, shape, buffered, block,
                                     monkeypatch):
        """Shapes of 3 row blocks or more (thousands of 2-row blocks), the
        last one short, with odd unit counts and with or without a half
        that PCG64 keeps buffered on entry, give numpy's float draws
        compared with the rate and leave the stream where those leave
        it."""
        monkeypatch.setattr(sparse, "ROW_BLOCK", block)
        got, want = rng(11), rng(11)
        for gen in (got, want):
            gen.random(2 - buffered, dtype=np.float32)
        keep = ad.dropout_keep(shape, dtype, 0.3, got)
        ref = oracles.dropout_mask(shape, dtype, 0.3, want) > 0
        assert keep.shape == shape and np.array_equal(keep, ref)
        assert got.random(3, dtype=np.float32).tobytes() == \
            want.random(3, dtype=np.float32).tobytes()
        assert got.random() == want.random()

    def test_peak_is_the_keep_array_and_one_block(self):
        """Phase 2's draw at the bench's scale, (5, 36000, 64) float32,
        peaks at 1.18 keep arrays: the keep array and one block of raw
        words (5.0 with the whole draw's 46 MB of words at once)."""
        shape = (5, 36000, 64)
        gen = rng(0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            keep = ad.dropout_keep(shape, np.float32, 0.5, gen)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * keep.nbytes, peak / keep.nbytes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dropout_equals_float_draw_mask(self, dtype):
        x = ad.Tensor(rng(0).standard_normal((7, 5)).astype(dtype))
        got = ad.dropout(x, 0.3, rng(1)).data
        want = oracles.dropout(x, 0.3, rng(1)).data
        assert got.dtype == dtype and got.tobytes() == want.tobytes()


class TestAdam:
    def test_converges_on_quadratic(self):
        x = parameter(np.array([5.0, -3.0]))
        opt = ad.Adam({"x": x}, lr=0.1)
        for _ in range(300):
            loss = ad.tsum(ad.mul(x, x))
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert np.abs(x.data).max() < 1e-2

    def test_rejects_params_without_grad(self):
        """An optimizer holds only parameters its loss reads: one left
        without a gradient is an error, and no parameter moves."""
        x = parameter(np.ones(2))
        y = parameter(np.ones(2))
        opt = ad.Adam({"x": x, "y": y}, lr=0.5)
        loss = ad.tsum(ad.mul(x, x))
        opt.zero_grad()
        loss.backward()
        with pytest.raises(TypeError):
            opt.step()
        assert np.array_equal(x.data, np.ones(2))
        assert np.array_equal(y.data, np.ones(2))


class TestFlatAdam:
    def test_bit_equal_to_per_parameter_steps(self):
        gen = rng(4)
        shapes = [(3, 4), (4,), (2, 2), (5,)]
        dtypes = [np.float32, np.float32, np.float64, np.float32]
        flat = [ad.Tensor(gen.standard_normal(s).astype(dt), requires_grad=True)
                for s, dt in zip(shapes, dtypes)]
        ref = [ad.Tensor(p.data.copy(), requires_grad=True) for p in flat]
        opt = ad.Adam({str(i): p for i, p in enumerate(flat)}, lr=0.05)
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        for step in range(1, 8):
            for i, (p, q) in enumerate(zip(flat, ref)):
                g = gen.standard_normal(shapes[i]).astype(dtypes[i])
                p.grad, q.grad = g, g.copy()
            opt.step()
            oracles.adam_step(ref, 0.05, step, m, v)
            for p, q in zip(flat, ref):
                assert p.data.dtype == q.data.dtype
                assert p.data.tobytes() == q.data.tobytes()
            bounds = np.cumsum([0] + [int(np.prod(s)) for s in shapes])
            for i in range(len(shapes)):
                lo, hi = bounds[i], bounds[i + 1]
                assert opt.m[lo:hi].tobytes() == m[i].ravel().tobytes()
                assert opt.v[lo:hi].tobytes() == v[i].ravel().tobytes()

    def test_params_and_grads_stay_readable(self):
        x = parameter(np.ones(3))
        opt = ad.Adam({"x": x}, lr=0.1)
        ad.tsum(ad.mul(x, x)).backward()
        opt.step()
        assert opt.params == [x]
        assert np.array_equal(x.grad, [2.0, 2.0, 2.0])


class TestGradCheckContract:
    def test_epsilon_range_enforced(self):
        x = parameter(1.0)
        with pytest.raises(ValueError):
            grad_check(lambda: ad.mul(x, x), {"x": x}, epsilon=1e-8)

    def test_non_finite_loss_raises(self):
        x = parameter(0.0)
        with np.errstate(divide="ignore"):
            with pytest.raises(FloatingPointError):
                grad_check(lambda: oracles.log(x), {"x": x})

    def test_report_fields(self):
        x = parameter(np.array([1.0, 2.0]))
        reports = grad_check(lambda: ad.tsum(ad.mul(x, x)), {"x": x})
        r = reports[0]
        assert r.name == "x"
        assert r.analytic.shape == (2,)
        assert r.numeric.shape == (2,)
        assert r.max_rel_err < 1e-6


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_unbroadcast_consistency(seed):
    gen = rng(seed)
    a = parameter(gen.standard_normal((3, 1)))
    b = parameter(gen.standard_normal((1, 4)))
    loss = ad.tsum(ad.mul(oracles.add(a, b), oracles.sub(a, b)))
    loss.backward()
    assert a.grad.shape == (3, 1)
    assert b.grad.shape == (1, 4)
    num_a = numeric_grad(
        lambda: float((
            (a.data + b.data) * (a.data - b.data)).sum()), a.data)
    assert np.abs(a.grad - num_a).max() < 1e-6

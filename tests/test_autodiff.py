import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betagraph import autodiff as ad
from betagraph import special
from betagraph.rng import rng
from betagraph.sparse import SparseMatrix
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
        assert ad.relu(ad.Tensor(x)).data.tobytes() == where.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_edge_values(self, dtype):
        x = ad.Tensor(edge_values(dtype), requires_grad=True)
        y = ad.relu(x)
        where = np.where(x.data > 0, x.data, 0.0).astype(dtype)
        assert y.data.dtype == dtype
        assert y.data.tobytes() == where.tobytes()
        assert not np.signbit(y.data).any()
        for v in x.data:                       # 0-d: numpy's scalar loops
            assert not np.signbit(ad.relu(ad.Tensor(v)).data)
        ad.tsum(y).backward()
        assert np.array_equal(x.grad, x.data > 0)

    def test_softplus_grad_is_sigmoid(self):
        x = parameter(0.0)
        reports = grad_check(lambda: ad.softplus(x), {"x": x})
        assert reports[0].analytic == pytest.approx(0.5, abs=1e-12)

    def test_add_mul_broadcast(self):
        check_op(lambda a, b: ad.tsum(ad.mul(ad.add(a, b), a)), (3, 4), (4,))

    def test_sub_div(self):
        check_op(lambda a, b: ad.tsum(ad.div(ad.sub(a, b), b)), (2, 3), (2, 3))

    def test_matmul(self):
        check_op(lambda a, b: ad.tsum(ad.matmul(a, b)), (3, 4), (4, 2))

    def test_mean_axis(self):
        check_op(lambda a: ad.tsum(ad.tmean(a, axis=0)), (5, 3))

    def test_take_rows_and_cols(self):
        idx = np.array([2, 0, 2])
        check_op(lambda a: ad.tsum(ad.take_rows(a, idx)), (4, 3))
        check_op(lambda a: ad.tsum(ad.cols(a, 1, 3)), (4, 5))

    def test_concat_axes(self):
        check_op(lambda a, b: ad.tsum(ad.mul(ad.concat([a, b], axis=1),
                                             ad.concat([a, b], axis=1))),
                 (3, 2), (3, 4))
        check_op(lambda a, b: ad.tsum(ad.concat([a, b], axis=0)), (2, 3), (4, 3))

    def test_reshape_broadcast_rows(self):
        check_op(lambda a: ad.tsum(ad.reshape(a, (2, 6))), (3, 4))
        check_op(lambda a: ad.tsum(ad.mul(ad.matmul(np.ones((5, 1)), a), 2.0)),
                 (1, 3))

    def test_nonlinearities(self):
        check_op(lambda a: ad.tsum(ad.relu(ad.sub(a, 1.0))), (4, 4))
        check_op(lambda a: ad.tsum(ad.softplus(a)), (3, 3))
        check_op(lambda a: ad.tsum(ad.exp(a)), (2, 2))
        check_op(lambda a: ad.tsum(ad.log(a)), (2, 2))
        check_op(lambda a: ad.tsum(oracles.sqrt(a)), (2, 2))

    def test_gamma_family(self):
        check_op(lambda a: ad.tsum(oracles.lgamma(a)), (3, 3), tol=1e-5)
        check_op(lambda a: ad.tsum(ad.digamma(a)), (3, 3), tol=1e-5)

    def test_logsumexp(self):
        check_op(lambda a: ad.tsum(ad.logsumexp(a, axis=1)), (4, 5))

    def test_spmm_grad(self):
        # spmm's gradient is adj @ g, so the matrix must be symmetric
        adj = SparseMatrix.from_coo([0, 0, 1, 1, 2, 2], [0, 2, 1, 2, 0, 1],
                                    [1.0, 2.0, 0.5, 3.0, 2.0, 3.0], (3, 3))
        check_op(lambda a: ad.tsum(ad.spmm(adj, a)), (3, 4))


class TestColmeanExact:
    def test_permutation_invariance_exact(self):
        gen = rng(1)
        x = gen.standard_normal((40, 8))
        base = ad.colmean_exact(ad.Tensor(x)).data
        for seed in range(5):
            perm = rng(seed).permutation(40)
            out = ad.colmean_exact(ad.Tensor(x[perm])).data
            assert np.array_equal(out, base)

    def test_duplication_invariance_exact(self):
        gen = rng(2)
        x = gen.standard_normal((13, 4))
        doubled = np.repeat(x, 2, axis=0)
        a = ad.colmean_exact(ad.Tensor(x)).data
        b = ad.colmean_exact(ad.Tensor(doubled)).data
        assert np.array_equal(a, b)

    def test_gradient(self):
        check_op(lambda a: ad.tsum(ad.colmean_exact(a)), (6, 3))


class TestEngineMechanics:
    def test_no_grad_blocks_taping(self):
        x = parameter(np.ones(3))
        with ad.no_grad():
            y = ad.mul(x, 2.0)
        assert not y.requires_grad and y._vjps == ()

    def test_grad_accumulates_on_reuse(self):
        x = parameter(2.0)
        y = ad.add(ad.mul(x, x), ad.mul(x, 3.0))   # x^2 + 3x
        y.backward()
        assert x.grad == pytest.approx(7.0)

    def test_backward_requires_scalar(self):
        x = parameter(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ad.mul(x, 1.0).backward()

    def test_constants_stay_untaped(self):
        x = parameter(np.ones(3))
        y = ad.mul(ad.add(x, np.array([1.0, 2.0, 3.0])), 0.5)
        assert len(y._vjps) == 1

    def test_float32_graph_stays_float32(self):
        x = ad.Tensor(np.ones((3, 3), dtype=np.float32), requires_grad=True)
        y = ad.softplus(ad.mul(ad.add(x, 1.0), -2.0))
        assert y.data.dtype == np.float32
        ad.tsum(y).backward()
        assert x.grad.dtype == np.float32

    def test_backward_releases_the_tape(self):
        x = parameter(np.array([2.0, -1.0]))
        w = parameter(np.array([[1.0, 3.0], [0.5, -2.0]]))
        h = ad.softplus(ad.matmul(ad.reshape(x, (1, 2)), w))
        loss = ad.tsum(ad.add(ad.mul(h, h), ad.mul(x, 3.0)))
        interior = [t for t in ad._topo_order(loss) if t._vjps]
        assert len(interior) == 7
        loss.backward()
        for t in interior:
            assert t._vjps == ()
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
            return g * 2.0, None, g * 3.0

        out = ad.fused_node(a.data + b.data + c.data, (a, b, c), grads)
        assert [p for p, _ in out._vjps] == [a, c]
        ad.tsum(out).backward()
        assert len(calls) == 1
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

    def test_skips_params_without_grad(self):
        x = parameter(np.ones(2))
        y = parameter(np.ones(2))
        opt = ad.Adam({"x": x, "y": y}, lr=0.5)
        loss = ad.tsum(ad.mul(x, x))
        opt.zero_grad()
        loss.backward()
        opt.step()
        assert np.array_equal(y.data, np.ones(2))
        assert not np.array_equal(x.data, np.ones(2))


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
            # the second parameter has no gradient on odd steps, the last
            # one never: both must keep their data and moments
            for i, (p, q) in enumerate(zip(flat, ref)):
                g = gen.standard_normal(shapes[i]).astype(dtypes[i])
                missing = i == 3 or (i == 1 and step % 2)
                p.grad = None if missing else g
                q.grad = None if missing else g.copy()
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
        assert not opt.m[bounds[3]:].any() and not opt.v[bounds[3]:].any()

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
                grad_check(lambda: ad.log(x), {"x": x})

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
    loss = ad.tsum(ad.mul(ad.add(a, b), ad.sub(a, b)))
    loss.backward()
    assert a.grad.shape == (3, 1)
    assert b.grad.shape == (1, 4)
    num_a = numeric_grad(
        lambda: float((
            (a.data + b.data) * (a.data - b.data)).sum()), a.data)
    assert np.abs(a.grad - num_a).max() < 1e-6

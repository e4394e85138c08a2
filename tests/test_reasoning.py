import contextlib
import math

import numpy as np
import pytest
from scipy.special import gammaln, psi

from betagraph import autodiff as ad
from betagraph import graphs
from betagraph import reasoning as rs
from betagraph import sparse
from betagraph.rng import rng
from betagraph.training import TrainConfig, init_model
from conftest import context_of
from oracles import grad_check
import oracles
from test_acceptance import beta_kl_quadrature, disjunction

# KL(Beta(2,2) || Beta(1,1)) from a high-precision quadrature of the
# defining integral (logit substitution, tanh-sinh)
KL_22_11 = 0.125092802561388


def make_embedding(gen, m, d):
    return ad.Tensor(gen.uniform(0.3, 5.0, size=(m, 2 * d)))


def unit_params(d=4, dim=6, seed=0):
    return rs.init_disjunction(rng(seed), d, dim, np.float64)


class TestEncoder:
    def test_outputs_strictly_positive(self, tiny_graph):
        cfg = TrainConfig(seed=1, dtype="float64", hidden_dim=6, embed_dim=4,
                          reasoning_dim=6, ood_classes=(2,))
        split = graphs.make_split(tiny_graph, (2,), seed=0)
        ctx = context_of(tiny_graph, split, cfg)
        state = init_model(tiny_graph.feature_dim, ctx.class_count, cfg)
        out = rs.encode(ctx.adj, ctx.propagated_x, state.encoder,
                        training=True)
        assert (out.data > 0).all()

    def test_identical_rows_on_edgeless_graph(self):
        g = graphs.build_graph(np.zeros((0, 2)), np.tile([1.0, 2.0], (5, 1)),
                               np.zeros(5), 1)
        cfg = TrainConfig(seed=2, dtype="float64", hidden_dim=6, embed_dim=4,
                          reasoning_dim=6)
        adj = graphs.normalize_adjacency(g)
        enc = rs.init_encoder(rng(3), 2, 6, 4, np.float64)
        px = oracles.spmm(adj, ad.Tensor(g.features))
        out = rs.encode(adj, px, enc, training=False)
        assert np.abs(out.data - out.data[0]).max() == 0.0

    def test_deterministic(self, tiny_graph):
        cfg = TrainConfig(seed=1, dtype="float64", hidden_dim=6, embed_dim=4,
                          reasoning_dim=6, ood_classes=(2,))
        split = graphs.make_split(tiny_graph, (2,), seed=0)
        ctx = context_of(tiny_graph, split, cfg)
        outs = []
        for _ in range(2):
            state = init_model(tiny_graph.feature_dim, ctx.class_count, cfg)
            outs.append(rs.encode(ctx.adj, ctx.propagated_x, state.encoder,
                                  training=False).data)
        assert np.array_equal(outs[0], outs[1])


class TestDisjunction:
    def test_permutation_invariance_exact(self):
        gen = rng(4)
        params = unit_params()
        x = make_embedding(gen, 12, 4)
        base = disjunction(x, params)
        for seed in range(4):
            perm = rng(seed).permutation(12)
            out = disjunction(ad.Tensor(x.data[perm]), params)
            assert np.array_equal(out.data, base.data)

    def test_duplication_invariance_exact(self):
        gen = rng(5)
        params = unit_params()
        x = make_embedding(gen, 7, 4)
        doubled = ad.Tensor(np.repeat(x.data, 2, axis=0))
        a = disjunction(x, params)
        b = disjunction(doubled, params)
        assert np.array_equal(a.data, b.data)

    def test_single_element_valid(self):
        params = unit_params()
        out = disjunction(make_embedding(rng(6), 1, 4), params)
        assert out.data.shape == (1, 8)
        assert (out.data > 0).all()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            disjunction(ad.Tensor(np.zeros((0, 8))), unit_params())


class TestNegation:
    def test_reciprocal_example(self):
        n = oracles.negation(ad.Tensor(np.array([[2.0, 0.5]])))
        assert n.data[0, 0] == 0.5
        assert n.data[0, 1] == 2.0

    def test_unit_fixed_point(self):
        n = oracles.negation(ad.Tensor(np.ones((1, 6))))
        assert np.array_equal(n.data, np.ones((1, 6)))

    def test_involution_within_1e12(self):
        gen = rng(8)
        e = make_embedding(gen, 10, 4)
        back = oracles.negation(oracles.negation(e))
        assert np.abs(back.data - e.data).max() < 1e-12

    def test_positivity_preserved(self):
        gen = rng(9)
        n = oracles.negation(ad.Tensor(gen.uniform(1e-4, 1e4, (50, 8))))
        assert (n.data > 0).all()


class TestClassEmbeddings:
    def test_label_permutation_permutes_classes(self):
        gen = rng(10)
        params = unit_params()
        emb = make_embedding(gen, 20, 4)
        idx = [np.arange(0, 7), np.arange(7, 13), np.arange(13, 20)]
        base = rs.build_class_embeddings(emb, idx, params).data
        perm = rs.build_class_embeddings(emb, [idx[2], idx[0], idx[1]],
                                         params).data
        assert np.array_equal(perm[:-1], base[[2, 0, 1]])
        # union over a set is order-free, so the novel region is identical
        assert np.array_equal(perm[-1], base[-1])

    def test_novel_is_exact_negation_of_known(self):
        gen = rng(11)
        params = unit_params()
        emb = make_embedding(gen, 10, 4)
        idx = [np.arange(5), np.arange(5, 10)]
        regions = rs.build_class_embeddings(emb, idx, params)
        known = oracles.build_class_embeddings(emb, idx, params).known
        assert np.array_equal(regions.data[-1:], 1.0 / known.data)

    def test_single_class(self):
        gen = rng(12)
        params = unit_params()
        ce = rs.build_class_embeddings(make_embedding(gen, 4, 4),
                                       [np.arange(4)], params)
        assert ce.data.shape == (2, 8)

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            rs.build_class_embeddings(make_embedding(rng(13), 4, 4),
                                      [np.arange(4), np.array([])],
                                      unit_params())


class TestDist:
    def mk(self, a, b):
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        return ad.Tensor(np.concatenate([a, b], axis=1))

    def test_self_distance_zero(self):
        e = self.mk([1.7, 0.4, 2.2], [0.9, 3.0, 1.1])
        assert abs(rs.beta_kl(e, e).data).max() < 1e-9

    def test_reference_value_vs_quadrature(self):
        n = self.mk([2.0], [2.0])
        c = self.mk([1.0], [1.0])
        assert float(rs.beta_kl(n, c).data[0]) == pytest.approx(KL_22_11, abs=1e-9)

    def test_reference_value_rounded(self):
        n = self.mk([2.0], [2.0])
        c = self.mk([1.0], [1.0])
        assert float(rs.beta_kl(n, c).data[0]) == pytest.approx(0.12508, abs=5e-5)

    def test_asymmetric(self):
        a = self.mk([2.0, 3.0], [1.0, 0.5])
        b = self.mk([0.7, 1.2], [2.5, 4.0])
        assert float(rs.beta_kl(a, b).data[0]) != pytest.approx(
            float(rs.beta_kl(b, a).data[0]), abs=1e-6)

    def test_sums_over_dimensions(self):
        a = self.mk([2.0, 2.0], [2.0, 2.0])
        b = self.mk([1.0, 1.0], [1.0, 1.0])
        assert float(rs.beta_kl(a, b).data[0]) == pytest.approx(2 * KL_22_11, abs=1e-9)

    def test_nonnegative_on_random_pairs(self):
        gen = rng(14)
        a = ad.Tensor(gen.uniform(0.2, 20.0, (10_000, 6)))
        b = ad.Tensor(gen.uniform(0.2, 20.0, (10_000, 6)))
        vals = rs.beta_kl(a, b).data
        assert vals.min() > -1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rs.beta_kl(self.mk([1.0], [1.0]), self.mk([1.0, 2.0], [1.0, 2.0]))
        odd = ad.Tensor(np.ones((1, 3)))
        with pytest.raises(ValueError, match="alpha .. beta"):
            rs.beta_kl(odd, odd)

    @pytest.mark.parametrize("alpha", [1e2, 1e4, 1e6, 1e8, 1e10])
    def test_float32_against_concentrated_region(self, alpha):
        """float32 KL to a class region alpha = beta up to 1e10, where
        the EMB_EPS floor lets the novel region 1/alpha sit, against the
        mpmath quadrature of the defining integral.

        The error is that of float32 rounding of the terms: at most
        3 eps32 times the sum of their magnitudes (1.2 measured over
        1800 random nodes in [1e-3, 30]^2).  Relative to the KL itself
        it reaches 1.2e-4, for a node concentrated near 1/2 like the
        region, where the KL is a small difference of terms of order
        alpha; elsewhere it stays below 1e-5.
        """
        nodes = np.array([[0.05, 0.05], [0.5, 3.0], [2.0, 2.0], [7.0, 1.2],
                          [30.0, 30.0], [1e-3, 25.0]], dtype=np.float32)
        region = np.full((1, 1, 2), alpha, dtype=np.float32)
        got = rs.beta_kl(ad.Tensor(nodes[:, None, :]),
                         ad.Tensor(region)).data[:, 0]
        assert got.dtype == np.float32
        eps = np.finfo(np.float32).eps
        for (a, b), kl in zip(nodes.astype(np.float64), got):
            want = beta_kl_quadrature(a, b, alpha, alpha)
            s = a + b
            scale = (2 * abs(gammaln(alpha)) + abs(gammaln(2 * alpha))
                     + abs(gammaln(a)) + abs(gammaln(b)) + abs(gammaln(s))
                     + abs((a - alpha) * psi(a)) + abs((b - alpha) * psi(b))
                     + abs((2 * alpha - s) * psi(s)))
            err = abs(float(kl) - want)
            assert err <= 3 * eps * scale, (a, b)
            assert err <= (2.5e-4 if a == b == 30.0 else 1e-5) * want, (a, b)

    def test_dist_matrix_matches_loops(self):
        gen = rng(15)
        nodes = make_embedding(gen, 5, 3)
        classes = make_embedding(gen, 4, 3)
        dm = rs.dist_matrix(nodes, classes).data
        for i in range(5):
            for j in range(4):
                ni = ad.Tensor(nodes.data[i:i + 1])
                cj = ad.Tensor(classes.data[j:j + 1])
                assert dm[i, j] == pytest.approx(
                    float(rs.beta_kl(ni, cj).data[0]), rel=1e-12)


def ones_class_embeddings(k, d):
    return ad.Tensor(np.ones((k + 1, 2 * d)))


class TestBetaLoss:
    def test_all_distances_at_margin(self):
        # every region identical to the node and gamma = 0: the margin sits
        # exactly at each distance, so BL = ln2 * (1 + #neg/K) = 2 ln 2
        emb = ad.Tensor(np.ones((1, 4)))
        ce = ones_class_embeddings(2, 2)
        loss = rs.beta_loss(emb, np.array([0]), ce, gamma=0.0,
                            include_novel=True)
        assert float(loss.data) == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_saturated_margin_positive_term(self):
        # K=1 with no novel negative isolates the positive term
        emb = ad.Tensor(np.ones((1, 4)))
        ce = ones_class_embeddings(1, 2)
        loss = rs.beta_loss(emb, np.array([0]), ce, gamma=55.0,
                            include_novel=False)
        assert 0 < float(loss.data) < 1e-20

    def test_monotone_in_own_class_distance(self):
        # with a single class and no other regions, the loss reduces to the
        # positive margin term, strictly increasing in Dist(N, C_y)
        ce = ones_class_embeddings(1, 2)
        losses = []
        for a in (1.0, 2.0, 4.0, 8.0):
            emb = ad.Tensor(np.array([[a, a, 1.0, 1.0]]))
            losses.append(float(rs.beta_loss(emb, np.array([0]), ce, 3.0,
                                             include_novel=False).data))
        assert all(x < y for x, y in zip(losses, losses[1:]))

    def test_novel_region_counts_as_negative(self):
        emb = ad.Tensor(np.ones((1, 4)))
        ce = ones_class_embeddings(2, 2)
        with_nov = rs.beta_loss(emb, np.array([0]), ce, 1.0, include_novel=True)
        without = rs.beta_loss(emb, np.array([0]), ce, 1.0, include_novel=False)
        assert float(with_nov.data) > float(without.data)

    def test_gradients_flow_to_disjunction(self):
        gen = rng(17)
        params = unit_params(d=2)
        rows = ad.Tensor(gen.uniform(0.5, 2.0, (6, 4)), requires_grad=True)
        ce = rs.build_class_embeddings(rows, [np.arange(3), np.arange(3, 6)],
                                       params)
        loss = rs.beta_loss(rows, np.array([0, 0, 0, 1, 1, 1]), ce, 15.0)
        loss.backward()
        assert params.h1_w.grad is not None
        assert np.abs(params.h1_w.grad).max() > 0
        assert rows.grad is not None


class TestFusedRegionsAndMargin:
    """The class regions and the margin loss are one tape node each, whose
    values and gradients equal the per-op composition's bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("include_novel", [True, False])
    def test_bit_equal_to_per_op_composition(self, dtype, include_novel):
        gen = rng(30)
        n, d, k = 40, 4, 3
        emb = ad.Tensor(gen.uniform(0.3, 4.0, (n, 2 * d)).astype(dtype),
                        requires_grad=True)
        disj = rs.init_disjunction(gen, d, 6, dtype)
        for t in disj.tensors().values():          # off their initial values
            t.data = (t.data + gen.normal(0, 0.3, t.data.shape)).astype(dtype)
        idx = np.array_split(gen.permutation(n), k)
        labels = np.empty(n, dtype=np.int64)
        for c, rows in enumerate(idx):
            labels[rows] = c
        tensors = {**disj.tensors(), "emb": emb}
        runs = []
        for fused in (True, False):
            for t in tensors.values():
                t.grad = None
            if fused:
                ce = rs.build_class_embeddings(emb, idx, disj)
                loss = rs.beta_loss(emb, labels, ce, 5.0,
                                    include_novel=include_novel)
                regions = ce.data
            else:
                ce = oracles.build_class_embeddings(emb, idx, disj)
                loss = oracles.beta_loss(emb, labels, ce, 5.0,
                                         include_novel=include_novel)
                regions = ce.fused()
            loss.backward()
            runs.append([loss.data, regions,
                         *(t.grad for t in tensors.values())])
        # without the novel row the VJP skips the union, as the tape does,
        # so the gradients keep the tape's zero signs too
        for name, got, want in zip(["loss", "regions", *tensors], *runs):
            check = assert_same_bits if name in ("loss", "regions") or \
                not include_novel else assert_equal_values
            check(got, want, name)

    def test_grad_check(self):
        gen = rng(32)
        emb = ad.Tensor(gen.uniform(0.5, 3.0, (8, 4)), requires_grad=True)
        disj = rs.init_disjunction(gen, 2, 3, np.float64)
        labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        idx = [np.flatnonzero(labels == c) for c in (0, 1)]

        def loss_fn():
            ce = rs.build_class_embeddings(emb, idx, disj)
            return rs.beta_loss(emb, labels, ce, 4.0)

        reports = grad_check(loss_fn, {**disj.tensors(), "emb": emb})
        assert max(r.max_rel_err for r in reports) < 1e-6

    def test_one_tape_node_each(self):
        gen = rng(33)
        emb = ad.Tensor(gen.uniform(0.3, 4.0, (6, 4)), requires_grad=True)
        disj = unit_params(d=2)
        ce = rs.build_class_embeddings(emb, [np.arange(3), np.arange(3, 6)],
                                       disj)
        assert [id(p) for p in ce._parents] == \
            [id(emb), *map(id, disj.tensors().values())]
        loss = rs.beta_loss(emb, np.array([0, 0, 0, 1, 1, 1]), ce, 15.0)
        (dists,) = loss._parents
        assert dists._parents[1]._parents[0] is ce           # reshape


def layer_setup(dtype, seed=0, n=60, width=6):
    """A (n, width) layer input that requires grad, batch-norm parameters
    off their initial values, and random running statistics."""
    gen = rng(seed)
    z = ad.Tensor((3.0 * gen.standard_normal((n, width))).astype(dtype),
                  requires_grad=True)
    bn = rs.init_encoder(gen, width, width, 2, dtype).bn1
    bn.gamma.data = gen.uniform(0.5, 2.0, width).astype(dtype)
    bn.beta.data = gen.standard_normal(width).astype(dtype)
    bn.running_mean = gen.standard_normal(width)
    bn.running_var = gen.uniform(0.5, 2.0, width)
    weights = gen.standard_normal((n, width)).astype(dtype)
    return z, bn, weights


def assert_same_bits(got, want, what):
    assert got.dtype == want.dtype, what
    assert got.tobytes() == want.tobytes(), what


def assert_equal_values(got, want, what):
    """Equal values, as np.array_equal has it: +0 and -0 count as equal.
    A fused VJP may add an exact zero where the tape added none, which
    turns a -0 into +0; nothing downstream tells them apart (Adam's
    moments and step read -0 as +0)."""
    assert got.dtype == want.dtype, what
    assert np.array_equal(got, want), what


def assert_grads_agree(got, want, what):
    """Closed-form gradients against the per-op composition's: within
    1e-12 (float64) or 1e-5 (float32) of the largest reference entry."""
    assert got.dtype == want.dtype, what
    tol = 1e-12 if want.dtype == np.float64 else 1e-5
    err = np.abs(got - want).max()
    assert err <= tol * np.abs(want).max(), (what, err)


class TestFusedEncoderLayer:
    @pytest.mark.parametrize("dtype,upstream", [(np.float32, np.float64),
                                                (np.float64, np.float32)])
    def test_upstream_of_another_dtype_is_an_error(self, dtype, upstream):
        """The VJP forms dL/dy in the softplus derivative's buffer: an
        upstream gradient in another dtype than the layer's is a
        ValueError naming both, not a silent rounding."""
        z, bn, _ = layer_setup(dtype)
        out = rs.encoder_layer(z, bn, training=True, dropout_rate=0.4,
                               generator=rng(4))
        loss = ad.fused_node(out.data.sum(), (out,), lambda _: (
            np.ones(out.data.shape, upstream),))
        with pytest.raises(ValueError, match=(
                f"upstream gradient is {np.dtype(upstream)}, the layer "
                f"{np.dtype(dtype)}")):
            loss.backward()
        assert z.grad is None and bn.gamma.grad is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("floor", [0.0, rs.EMB_EPS])
    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    def test_bit_equal_to_per_op_composition(self, dtype, training, floor,
                                             dropout):
        """Values and running statistics equal the per-op composition bit
        for bit; the closed-form gradients agree with its gradients."""
        z, bn, weights = layer_setup(dtype)
        runs = []
        for layer in (rs.encoder_layer, oracles.encoder_layer):
            stats = bn.running_mean.copy(), bn.running_var.copy()
            for t in (z, bn.gamma, bn.beta):
                t.grad = None
            out = layer(z, bn, training=training, floor=floor,
                        dropout_rate=dropout, generator=rng(5))
            ad.tsum(ad.mul(out, weights)).backward()
            runs.append((out.data, z.grad, bn.gamma.grad, bn.beta.grad,
                         bn.running_mean, bn.running_var))
            bn.running_mean, bn.running_var = stats
        names = ("forward", "z grad", "gamma grad", "beta grad",
                 "running mean", "running var")
        for name, got, want in zip(names, *runs):
            check = assert_grads_agree if "grad" in name else assert_same_bits
            check(got, want, name)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("z_grad", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weight_bit_equal_to_the_layer_over_the_product(
            self, dtype, training, z_grad):
        """encoder_layer(z, weight=w) equals encoder_layer(matmul(z, w))
        bit for bit, though its node keeps neither z @ w nor a gradient
        of it and its VJP forms z @ w again: values, running statistics
        and every gradient, z's too where it requires grad."""
        x, bn, weights = layer_setup(dtype, seed=3, n=80, width=6)
        w_data = rng(4).standard_normal((5, 6)).astype(dtype)
        z_data = x.data[:, :5].copy()
        stats = bn.running_mean.copy(), bn.running_var.copy()
        runs = []
        for fused in (True, False):
            z = ad.Tensor(z_data, requires_grad=z_grad)
            w = ad.Tensor(w_data, requires_grad=True)
            bn.gamma.grad = bn.beta.grad = None
            bn.running_mean, bn.running_var = (a.copy() for a in stats)
            kw = dict(training=training, dropout_rate=0.4, generator=rng(5))
            out = rs.encoder_layer(z, bn, weight=w, **kw) if fused else \
                rs.encoder_layer(oracles.matmul(z, w), bn, **kw)
            assert len(ad._topo_order(out)) == (4 if fused else 5) + z_grad
            ad.tsum(ad.mul(out, weights)).backward()
            runs.append((out.data, bn.running_mean, bn.running_var, w.grad,
                         z.grad, bn.gamma.grad, bn.beta.grad))
        for name, got, want in zip(("forward", "running mean",
                                    "running var", "w grad", "z grad",
                                    "gamma grad", "beta grad"), *runs):
            if name == "z grad" and not z_grad:
                assert got is None and want is None
            else:
                assert_same_bits(got, want, name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inference_mode_bit_equal(self, dtype):
        z, bn, weights = layer_setup(dtype, seed=1)
        runs = []
        for layer in (rs.encoder_layer, oracles.encoder_layer):
            for t in (z, bn.gamma, bn.beta):
                t.grad = None
            out = layer(z, bn, training=False, floor=rs.EMB_EPS)
            ad.tsum(ad.mul(out, weights)).backward()
            runs.append((out.data, z.grad, bn.gamma.grad, bn.beta.grad))
        (out, *grads), (want_out, *want_grads) = runs
        assert_same_bits(out, want_out, "inference layer")
        for got, want in zip(grads, want_grads):
            assert_grads_agree(got, want, "inference layer")

    @pytest.mark.parametrize("offset", [-1, 1])
    @pytest.mark.parametrize("taped", [False, True])
    def test_row_blocks_equal_one_pass(self, monkeypatch, offset, taped):
        """One row off a block edge, the layer's softplus in row blocks
        equals one whole-array pass bit for bit: the values and, taped,
        the gradients, which read its derivative."""
        n = sparse.ROW_BLOCK + offset
        z, bn, weights = layer_setup(np.float32, seed=2, n=n, width=4)
        z.data[::5] *= 40.0                 # exp(-|y|) underflows
        runs = []
        for block in (sparse.ROW_BLOCK, n):
            monkeypatch.setattr(sparse, "ROW_BLOCK", block)
            z.grad = bn.gamma.grad = bn.beta.grad = None
            with contextlib.nullcontext() if taped else ad.no_grad():
                out = rs.encoder_layer(z, bn, training=False,
                                       floor=rs.EMB_EPS)
            if taped:
                ad.tsum(ad.mul(out, weights)).backward()
            runs.append((out.data, z.grad, bn.gamma.grad, bn.beta.grad))
        for name, got, want in zip(("forward", "z grad", "gamma grad",
                                    "beta grad"), *runs):
            if taped or name == "forward":
                assert_same_bits(got, want, name)

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_encode_bit_equal_to_per_op(self, tiny_graph, dropout):
        cfg = TrainConfig(seed=1, dtype="float32", hidden_dim=6, embed_dim=4,
                          reasoning_dim=6, ood_classes=(2,))
        split = graphs.make_split(tiny_graph, (2,), seed=0)
        ctx = context_of(tiny_graph, split, cfg)
        state = init_model(tiny_graph.feature_dim, ctx.class_count, cfg)
        params = state.encoder.tensors()
        runs = []
        for encode in (rs.encode, oracles.encode):
            for t in params.values():
                t.grad = None
            out = encode(ctx.adj, ctx.propagated_x, state.encoder,
                         training=True, dropout_rate=dropout,
                         generator=rng(2))
            ad.tsum(ad.mul(out, out)).backward()
            runs.append([out.data] + [t.grad for t in params.values()])
        (out, *grads), (want_out, *want_grads) = runs
        assert_same_bits(out, want_out, "forward")
        for name, got, want in zip(params, grads, want_grads):
            assert_grads_agree(got, want, name)

    def test_encode_rows_equal_gather(self, tiny_graph):
        """encode(rows=idx) equals take_rows(encode(), idx) bit for bit,
        values and gradients, repeated rows included."""
        cfg = TrainConfig(seed=1, dtype="float32", hidden_dim=6, embed_dim=4,
                          reasoning_dim=6, ood_classes=(2,))
        split = graphs.make_split(tiny_graph, (2,), seed=0)
        ctx = context_of(tiny_graph, split, cfg)
        state = init_model(tiny_graph.feature_dim, ctx.class_count, cfg)
        params = state.encoder.tensors()
        idx = np.array([3, 0, 3, 7])
        runs = []
        for gather in (True, False):
            for t in params.values():
                t.grad = None
            out = rs.encode(ctx.adj, ctx.propagated_x, state.encoder,
                            training=True, dropout_rate=0.5,
                            generator=rng(2), rows=None if gather else idx)
            if gather:
                out = ad.take_rows(out, idx)
            ad.tsum(ad.mul(out, out)).backward()
            runs.append([out.data] + [t.grad for t in params.values()])
        for name, got, want in zip(["forward", *params], *runs):
            assert_same_bits(got, want, name)

    @pytest.mark.parametrize("training", [True, False])
    def test_grad_check(self, training):
        z, bn, weights = layer_setup(np.float64, n=12, width=3)

        def loss_fn():
            # a fresh generator per call: the same dropout mask every probe
            out = rs.encoder_layer(z, bn, training=training, floor=rs.EMB_EPS,
                                   dropout_rate=0.3 if training else 0.0,
                                   generator=rng(4))
            return ad.tsum(ad.mul(out, weights))

        params = {"z": z, "gamma": bn.gamma, "beta": bn.beta}
        worst = max(r.max_rel_err for r in grad_check(loss_fn, params))
        assert worst < 1e-6

    def test_one_tape_node_per_layer(self):
        z, bn, _ = layer_setup(np.float64)
        out = rs.encoder_layer(z, bn, training=True, floor=rs.EMB_EPS,
                               dropout_rate=0.2, generator=rng(0))
        assert [id(p) for p in out._parents] == \
            [id(z), id(bn.gamma), id(bn.beta)]

    def test_propagation_keeps_no_product(self, tiny_graph):
        """Layer 2's adj @ (h1 @ w2) is one node over h1 and w2: the
        (n, H) product h1 @ w2 is not a tape parent."""
        adj = graphs.normalize_adjacency(tiny_graph)
        gen = rng(3)
        h = ad.Tensor(gen.standard_normal((tiny_graph.n, 5)),
                      requires_grad=True)
        w = ad.Tensor(gen.standard_normal((5, 4)), requires_grad=True)
        out = rs.propagate(adj, h, w)
        assert [id(p) for p in out._parents] == [id(h), id(w)]


class TestFusedBetaKL:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m,c,d", [(80, 5, 32), (7, 4, 3), (1, 3, 2),
                                       (5, 1, 4)])
    def test_dist_matrix_bit_equal_to_per_op(self, dtype, m, c, d):
        gen = rng(m + c + d)
        nodes = ad.Tensor(gen.uniform(0.05, 30.0, (m, 2 * d)).astype(dtype),
                          requires_grad=True)
        classes = ad.Tensor(gen.uniform(0.05, 30.0, (c, 2 * d)).astype(dtype),
                            requires_grad=True)
        weights = gen.standard_normal((m, c)).astype(dtype)
        runs = []
        for dist in (rs.dist_matrix, oracles.dist_matrix):
            nodes.grad = classes.grad = None
            out = dist(nodes, classes)
            # a margin term like beta_loss's, so the upstream gradient varies
            loss = oracles.add(ad.tsum(ad.mul(out, weights)),
                               ad.tsum(oracles.softplus(
                                   oracles.sub(3.0, out))))
            loss.backward()
            runs.append((out.data, nodes.grad, classes.grad))
        (out, *grads), (want_out, *want_grads) = runs
        assert_same_bits(out, want_out, "forward")
        for name, got, want in zip(("nodes", "classes"), grads, want_grads):
            assert_grads_agree(got, want, name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_elementwise_beta_kl_bit_equal(self, dtype):
        gen = rng(21)
        a = ad.Tensor(gen.uniform(0.2, 20.0, (50, 6)).astype(dtype),
                      requires_grad=True)
        b = ad.Tensor(gen.uniform(0.2, 20.0, (1, 6)).astype(dtype),
                      requires_grad=True)
        runs = []
        for kl in (rs.beta_kl, oracles.beta_kl):
            a.grad = b.grad = None
            out = kl(a, b)
            ad.tsum(ad.mul(out, out)).backward()
            runs.append((out.data, a.grad, b.grad))
        (out, *grads), (want_out, *want_grads) = runs
        assert_same_bits(out, want_out, "beta_kl")
        for got, want in zip(grads, want_grads):
            assert_grads_agree(got, want, "beta_kl")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_at_the_float32_edges(self, dtype):
        """Node rows at the EMB_EPS floor against the novel region's
        1/alpha = 1/EMB_EPS: float64 agrees with the per-op composition,
        float32 stays finite, and the count of its subnormal gradient
        entries is reported."""
        eps = rs.EMB_EPS
        nodes = ad.Tensor(np.array([[eps, eps, eps, eps],
                                    [eps, 1.0, eps, 2.0],
                                    [1e-6, 30.0, 0.5, eps]], dtype=dtype),
                          requires_grad=True)
        classes = ad.Tensor(np.array([[1 / eps] * 4, [1.0, 1.0, 1.0, 1.0],
                                      [eps, 1 / eps, 3.0, eps]], dtype=dtype),
                            requires_grad=True)
        weights = rng(24).standard_normal((3, 3)).astype(dtype)
        runs = []
        for dist in (rs.dist_matrix, oracles.dist_matrix):
            nodes.grad = classes.grad = None
            ad.tsum(ad.mul(dist(nodes, classes), weights)).backward()
            runs.append((nodes.grad, classes.grad))
        grads = runs[0]
        if dtype == np.float64:
            for got, want in zip(*runs):
                assert_grads_agree(got, want, "edge gradients")
            return
        tiny = np.finfo(dtype).tiny
        subnormal = sum(int(((g != 0) & (np.abs(g) < tiny)).sum())
                        for g in grads)
        detail = (f"float32 edge gradients: {subnormal} subnormal of "
                  f"{sum(g.size for g in grads)}, max |grad| "
                  f"{max(np.abs(g).max() for g in grads):.3g}")
        print(detail)
        assert all(np.isfinite(g).all() for g in grads), detail

    def test_grad_check(self):
        gen = rng(22)
        nodes = ad.Tensor(gen.uniform(0.3, 5.0, (4, 6)), requires_grad=True)
        classes = ad.Tensor(gen.uniform(0.3, 5.0, (3, 6)), requires_grad=True)
        weights = gen.standard_normal((4, 3))

        def loss_fn():
            return ad.tsum(ad.mul(rs.dist_matrix(nodes, classes),
                                            weights))

        reports = grad_check(loss_fn, {"nodes": nodes, "classes": classes})
        assert max(r.max_rel_err for r in reports) < 1e-6

    def test_one_tape_node(self):
        gen = rng(23)
        nodes = ad.Tensor(gen.uniform(0.3, 5.0, (4, 6)), requires_grad=True)
        classes = ad.Tensor(gen.uniform(0.3, 5.0, (3, 6)), requires_grad=True)
        out = rs.dist_matrix(nodes, classes)
        reshaped = list(out._parents)
        assert len(reshaped) == 2
        assert [p._parents[0] for p in reshaped] == [nodes, classes]

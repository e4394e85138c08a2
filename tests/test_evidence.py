import numpy as np
import pytest

from betagraph import autodiff as ad
from betagraph import evidence as ev
from betagraph import graphs
from betagraph import reasoning as rs
from betagraph.rng import rng
from betagraph.special import digamma, softplus
from oracles import grad_check


def small_setup(seed=0, n=12, d=3, k=3, hidden=5):
    gen = rng(seed)
    g = graphs.gen_erdos_renyi(n, 0.3, 4, seed=seed, class_count=k)
    adj = graphs.normalize_adjacency(g)
    emb = ad.Tensor(gen.uniform(0.3, 4.0, size=(n, 2 * d)))
    params = rs.init_disjunction(gen, d, 6, np.float64)
    idx = np.array_split(np.arange(n), k)
    ce = rs.build_class_embeddings(emb, idx, params)
    heads = ev.init_evidence_heads(gen, d, hidden, k, np.float64)
    # randomize output layers (init_head zeroes them for training stability)
    for h in heads.per_class + [heads.novel]:
        h.w2.data = gen.standard_normal(h.w2.data.shape)
        h.b2.data = gen.standard_normal(h.b2.data.shape)
    return g, adj, emb, ce, heads


def evidence_forward(adj, emb, class_embs, heads, *, propagate=True, **kw):
    """ev.evidence_forward over the node embeddings emb, propagated first
    (a taped adj @ emb) when propagate is on."""
    prop = ad.spmm(adj, emb) if propagate else emb
    return ev.evidence_forward(adj, prop, class_embs, heads,
                               propagate=propagate, **kw)


def context_features(node_embs_2d, class_emb):
    """Rows [alpha_i || beta_i || alpha_C || beta_C]: the explicit input of
    one head, the class part repeated on every node row."""
    n = node_embs_2d.data.shape[0]
    cls_row = ad.matmul(np.ones((n, 1)), class_emb)
    return ad.concat([node_embs_2d, cls_row], axis=1)


def per_op_forward(adj, node_embs_2d, class_embs, params, *, training=False,
                   dropout_rate=0.0, generator=None, propagate=True,
                   learned_prior=True):
    """The evidence heads composed op by op (about ten tape nodes per head):
    the reference the fused head node must reproduce bit for bit."""
    n = node_embs_2d.data.shape[0]
    k = class_embs.class_count
    dtype = node_embs_2d.data.dtype
    if propagate:
        prop = ad.spmm(adj, node_embs_2d)
        row_scale = adj.row_sums().astype(dtype).reshape(n, 1)
    else:
        prop = node_embs_2d
        row_scale = np.ones((n, 1), dtype=dtype)
    d2 = node_embs_2d.data.shape[1]

    def head_out(head, cls_row):
        w_node = ad.take_rows(head.w1, np.arange(0, d2))
        w_cls = ad.take_rows(head.w1, np.arange(d2, 2 * d2))
        shift = ad.matmul(cls_row, w_cls)
        z = ad.add(ad.matmul(prop, w_node), ad.mul(ad.Tensor(row_scale), shift))
        h = ad.relu(ad.add(z, head.b1))
        if training and dropout_rate > 0.0:
            h = ad.dropout(h, dropout_rate, generator)
        return ad.matmul(h, head.w2)

    heads = list(params.per_class)
    regions = [ad.take_rows(class_embs.per_class, [i]) for i in range(k)]
    if learned_prior:
        heads.append(params.novel)
        regions.append(class_embs.novel)
    stacked = ad.concat([head_out(h, r) for h, r in zip(heads, regions)],
                        axis=1)
    if propagate:
        stacked = ad.spmm(adj, stacked)
    stacked = ad.add(stacked, ad.concat([head.b2 for head in heads], axis=0))
    evidence = ad.softplus(ad.cols(stacked, 0, k))
    if learned_prior:
        prior = ad.add(ad.softplus(ad.cols(stacked, k, k + 1)), ev.PRIOR_EPS)
    else:
        prior = ad.Tensor(np.full((n, 1), float(k), dtype=dtype))
    return ev.NodeOpinionBatch(evidence=evidence, prior_weight=prior,
                               base_rates=np.full(k, 1.0 / k))


def grad_setup(dtype, seed=0, n=40, d=3, k=3, hidden=6):
    """small_setup with grad-requiring node embeddings and disjunction
    parameters (so the class regions require grad too) in the given dtype."""
    gen = rng(seed)
    g = graphs.gen_erdos_renyi(n, 0.2, 4, seed=seed, class_count=k)
    adj = graphs.normalize_adjacency(g)
    emb = ad.Tensor(gen.uniform(0.3, 4.0, size=(n, 2 * d)).astype(dtype),
                    requires_grad=True)
    disj = rs.init_disjunction(gen, d, 6, dtype)
    heads = ev.init_evidence_heads(gen, d, hidden, k, dtype)
    for h in heads.per_class + [heads.novel]:
        for t in (h.b1, h.w2, h.b2):      # init zeroes these
            t.data = gen.standard_normal(t.data.shape).astype(dtype)
    idx = np.array_split(np.arange(n), k)
    labels = np.repeat(np.arange(k), [len(i) for i in idx])
    return adj, emb, disj, idx, heads, labels


class TestFusedHeads:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    @pytest.mark.parametrize("propagate", [True, False])
    @pytest.mark.parametrize("learned_prior", [True, False])
    def test_bit_equal_to_per_op_composition(self, dtype, dropout, propagate,
                                             learned_prior):
        adj, emb, disj, idx, heads, labels = grad_setup(dtype)
        tensors = {**heads.tensors(), **disj.tensors(), "emb": emb}
        runs = []
        for forward in (evidence_forward, per_op_forward):
            for t in tensors.values():
                t.grad = None
            ce = rs.build_class_embeddings(emb, idx, disj)
            batch = forward(adj, emb, ce, heads, training=True,
                            dropout_rate=dropout, generator=rng(7),
                            propagate=propagate, learned_prior=learned_prior)
            loss = ev.dirichlet_loss(batch, labels, np.arange(labels.size))
            loss.backward()
            runs.append((batch, {name: t.grad for name, t in tensors.items()}))
        (fused, fused_grads), (ref, ref_grads) = runs
        assert fused.evidence.data.dtype == dtype
        assert fused.evidence.data.tobytes() == ref.evidence.data.tobytes()
        assert fused.prior_weight.data.tobytes() == \
            ref.prior_weight.data.tobytes()
        for name, ref_grad in ref_grads.items():
            got = fused_grads[name]
            if ref_grad is None:
                assert got is None, name
                continue
            assert got.dtype == ref_grad.dtype, name
            assert np.array_equal(got, ref_grad), name

    def test_grad_check_with_dropout(self):
        adj, emb, disj, idx, heads, labels = grad_setup(np.float64, n=15,
                                                        hidden=4)

        def loss_fn():
            # a fresh generator per call: the same dropout mask every probe
            ce = rs.build_class_embeddings(emb, idx, disj)
            batch = evidence_forward(adj, emb, ce, heads, training=True,
                                        dropout_rate=0.5, generator=rng(3))
            return ev.dirichlet_loss(batch, labels, np.arange(labels.size))

        params = {**heads.tensors(), "emb": emb,
                  "disjunction.h2_w": disj.h2_w}
        worst = max(r.max_rel_err for r in grad_check(loss_fn, params))
        assert worst < 1e-6

    def test_one_tape_node_per_head(self):
        adj, emb, disj, idx, heads, labels = grad_setup(np.float64)
        ce = rs.build_class_embeddings(emb, idx, disj)
        batch = evidence_forward(adj, emb, ce, heads)
        stacked = batch.evidence._vjps[0][0]._vjps[0][0]     # cols <- add
        concat = stacked._vjps[0][0]._vjps[0][0]             # add <- spmm
        parents = [p for p, _ in concat._vjps]
        assert len(parents) == 4                               # K + 1 heads
        for p, head in zip(parents, heads.per_class + [heads.novel]):
            assert {id(q) for q, _ in p._vjps} >= {id(head.w1), id(head.b1),
                                                    id(head.w2)}


class TestContextFeatures:
    def test_shape_1x4(self):
        emb = ad.Tensor(np.array([[2.0, 3.0]]))
        cls = ad.Tensor(np.array([[5.0, 7.0]]))
        out = context_features(emb, cls)
        assert out.data.shape == (1, 4)
        assert np.array_equal(out.data, np.array([[2.0, 3.0, 5.0, 7.0]]))

    def test_identical_nodes_identical_rows(self):
        emb = ad.Tensor(np.tile([1.0, 2.0], (4, 1)))
        cls = ad.Tensor(np.array([[3.0, 4.0]]))
        out = context_features(emb, cls).data
        assert np.abs(out - out[0]).max() == 0.0

    def test_class_change_touches_only_class_columns(self):
        emb = ad.Tensor(np.random.default_rng(0).uniform(1, 2, (5, 4)))
        c1 = ad.Tensor(np.array([[1.0, 1.0, 1.0, 1.0]]))
        c2 = ad.Tensor(np.array([[9.0, 9.0, 9.0, 9.0]]))
        a = context_features(emb, c1).data
        b = context_features(emb, c2).data
        assert np.array_equal(a[:, :4], b[:, :4])
        assert not np.array_equal(a[:, 4:], b[:, 4:])


class TestEvidenceForward:
    def test_shapes(self):
        g, adj, emb, ce, heads = small_setup()
        batch = evidence_forward(adj, emb, ce, heads)
        assert batch.evidence.data.shape == (g.n, 3)
        assert batch.prior_weight.data.shape == (g.n, 1)
        assert batch.base_rates == pytest.approx(np.full(3, 1 / 3))

    def test_nonnegative_over_random_params(self):
        gen = rng(1)
        g, adj, emb, ce, heads = small_setup(seed=1)
        for trial in range(40):
            for h in heads.per_class + [heads.novel]:
                for t in (h.w1, h.b1, h.w2, h.b2):
                    t.data = gen.standard_normal(t.data.shape) * 3.0
            batch = evidence_forward(adj, emb, ce, heads)
            assert (batch.evidence.data >= 0).all()
            assert (batch.prior_weight.data > 0).all()

    def test_zero_weights_give_bias_evidence(self):
        g, adj, emb, ce, heads = small_setup(seed=2)
        for h in heads.per_class + [heads.novel]:
            h.w1.data[:] = 0.0
            h.b1.data[:] = 0.0
            h.w2.data[:] = 0.0
        for i, h in enumerate(heads.per_class):
            h.b2.data[:] = float(i)
        heads.novel.b2.data[:] = 2.5
        batch = evidence_forward(adj, emb, ce, heads)
        for i in range(3):
            assert batch.evidence.data[:, i] == pytest.approx(
                softplus(float(i)), abs=1e-12)
        assert batch.prior_weight.data == pytest.approx(
            softplus(2.5) + ev.PRIOR_EPS, abs=1e-12)

    def test_factored_path_matches_explicit_concat(self):
        """The batched/factored forward must equal running each head on the
        explicit context-feature matrix."""
        g, adj, emb, ce, heads = small_setup(seed=3)
        batch = evidence_forward(adj, emb, ce, heads, propagate=True,
                                    learned_prior=True)
        regions = [ad.take_rows(ce.per_class, [i])
                   for i in range(3)] + [ce.novel]
        outs = []
        for head, region in zip(heads.per_class + [heads.novel], regions):
            xk = context_features(emb, region)
            z1 = ad.add(ad.matmul(ad.spmm(adj, xk), head.w1), head.b1)
            h = ad.relu(z1)
            z2 = ad.add(ad.spmm(adj, ad.matmul(h, head.w2)), head.b2)
            outs.append(z2.data)
        explicit = np.concatenate(outs, axis=1)
        e_expl = softplus(explicit[:, :3])
        w_expl = softplus(explicit[:, 3:]) + ev.PRIOR_EPS
        assert np.abs(batch.evidence.data - e_expl).max() < 1e-9
        assert np.abs(batch.prior_weight.data - w_expl).max() < 1e-9

    def test_mlp_mode_ignores_graph(self):
        g, adj, emb, ce, heads = small_setup(seed=4)
        a = evidence_forward(adj, emb, ce, heads, propagate=False)
        eye = graphs.normalize_adjacency(
            graphs.build_graph(np.zeros((0, 2)), np.zeros((g.n, 1)),
                               np.zeros(g.n), 1))
        b = evidence_forward(eye, emb, ce, heads, propagate=False)
        assert np.array_equal(a.evidence.data, b.evidence.data)

    def test_fixed_prior_mode(self):
        g, adj, emb, ce, heads = small_setup(seed=5)
        batch = evidence_forward(adj, emb, ce, heads, learned_prior=False)
        assert np.all(batch.prior_weight.data == 3.0)


class TestScore:
    def mk_batch(self, e, w, k=2):
        e = np.atleast_2d(np.asarray(e, dtype=float))
        w = np.full((e.shape[0], 1), float(w))
        return ev.NodeOpinionBatch(evidence=ad.Tensor(e),
                                   prior_weight=ad.Tensor(w),
                                   base_rates=np.full(k, 1.0 / k))

    def test_zero_evidence(self):
        sb = ev.score(self.mk_batch([0.0, 0.0], 2.0))
        assert sb.vacuity[0] == 1.0
        assert sb.dissonance[0] == 0.0
        assert sb.probability[0] == pytest.approx([0.5, 0.5])
        assert sb.prediction[0] == 0            # lowest-index tie break

    def test_balanced_evidence(self):
        sb = ev.score(self.mk_batch([2.0, 2.0], 2.0))
        assert sb.vacuity[0] == pytest.approx(1 / 3)
        assert sb.dissonance[0] == pytest.approx(2 / 3)

    def test_one_sided(self):
        sb = ev.score(self.mk_batch([4.0, 0.0], 2.0))
        assert sb.prediction[0] == 0
        assert sb.probability[0] == pytest.approx([5 / 6, 1 / 6])

    def test_belief_plus_vacuity_one(self):
        gen = rng(6)
        e = gen.uniform(0, 8, (200, 4))
        w = gen.uniform(0.2, 5, (200, 1))
        batch = ev.NodeOpinionBatch(evidence=ad.Tensor(e),
                                    prior_weight=ad.Tensor(w),
                                    base_rates=np.full(4, 0.25))
        sb = ev.score(batch)
        s = e.sum(axis=1) + w.ravel()
        total = (e / s[:, None]).sum(axis=1) + sb.vacuity
        assert np.abs(total - 1.0).max() < 1e-9

    def test_prediction_scale_invariant(self):
        gen = rng(7)
        e = gen.uniform(0, 5, (50, 3))
        w = gen.uniform(0.5, 2, (50, 1))
        base = ev.score(ev.NodeOpinionBatch(ad.Tensor(e), ad.Tensor(w),
                                            np.full(3, 1 / 3)))
        scaled = ev.score(ev.NodeOpinionBatch(ad.Tensor(7.3 * e),
                                              ad.Tensor(7.3 * w),
                                              np.full(3, 1 / 3)))
        assert np.array_equal(base.prediction, scaled.prediction)


class TestDirichletLoss:
    def test_closed_form_example(self):
        # e=(1,1), W=2, uniform rates, true class 0: psi(4) - psi(2) = 5/6
        batch = ev.NodeOpinionBatch(
            evidence=ad.Tensor(np.array([[1.0, 1.0]])),
            prior_weight=ad.Tensor(np.array([[2.0]])),
            base_rates=np.array([0.5, 0.5]))
        loss = ev.dirichlet_loss(batch, np.array([0]), np.array([0]))
        assert float(loss.data) == pytest.approx(5 / 6, abs=1e-10)
        assert float(loss.data) == pytest.approx(
            digamma(4.0) - digamma(2.0), abs=1e-12)

    def test_vanishes_when_all_mass_on_true_class(self):
        batch = ev.NodeOpinionBatch(
            evidence=ad.Tensor(np.array([[500.0, 0.0]])),
            prior_weight=ad.Tensor(np.array([[1e-6]])),
            base_rates=np.array([0.5, 0.5]))
        loss = ev.dirichlet_loss(batch, np.array([0]), np.array([0]))
        assert 0 < float(loss.data) < 1e-2

    def test_nonnegative(self):
        gen = rng(8)
        e = gen.uniform(0, 10, (100, 3))
        w = gen.uniform(0.1, 4, (100, 1))
        batch = ev.NodeOpinionBatch(ad.Tensor(e), ad.Tensor(w),
                                    np.full(3, 1 / 3))
        labels = gen.integers(0, 3, 100)
        loss = ev.dirichlet_loss(batch, labels, np.arange(100))
        assert float(loss.data) >= 0

    def test_mask_isolation(self):
        gen = rng(9)
        e = gen.uniform(0.5, 5, (20, 3))
        w = gen.uniform(0.5, 2, (20, 1))
        labels = gen.integers(0, 3, 20)
        mask = np.arange(10)
        base = ev.dirichlet_loss(
            ev.NodeOpinionBatch(ad.Tensor(e), ad.Tensor(w), np.full(3, 1 / 3)),
            labels, mask)
        e2 = e.copy()
        e2[15:] *= 100.0                        # outside the mask
        pert = ev.dirichlet_loss(
            ev.NodeOpinionBatch(ad.Tensor(e2), ad.Tensor(w), np.full(3, 1 / 3)),
            labels, mask)
        assert float(base.data) == float(pert.data)

    def test_monotone_in_true_class_evidence(self):
        def loss_at(ey):
            batch = ev.NodeOpinionBatch(
                evidence=ad.Tensor(np.array([[ey, 1.0]])),
                prior_weight=ad.Tensor(np.array([[2.0]])),
                base_rates=np.array([0.5, 0.5]))
            return float(ev.dirichlet_loss(batch, np.array([0]),
                                           np.array([0])).data)
        values = [loss_at(e) for e in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestDirectEvidence:
    def test_shapes_and_fixed_prior(self):
        g = graphs.gen_erdos_renyi(15, 0.3, 4, seed=3, class_count=3)
        adj = graphs.normalize_adjacency(g)
        params = ev.init_direct_head(rng(0), 4, 6, 3, np.float64)
        px = ad.spmm(adj, ad.Tensor(g.features))
        batch = ev.direct_evidence_forward(adj, px, params, 3)
        assert batch.evidence.data.shape == (15, 3)
        assert np.all(batch.prior_weight.data == 3.0)
        assert (batch.evidence.data >= 0).all()

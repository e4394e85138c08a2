import numpy as np
import pytest

from betagraph import autodiff as ad
from betagraph import evidence as ev
from betagraph import graphs
from betagraph import reasoning as rs
from betagraph.rng import rng
from betagraph.special import digamma, softplus


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


def context_features(node_embs_2d, class_emb):
    """Rows [alpha_i || beta_i || alpha_C || beta_C]: the explicit input of
    one head, the class part repeated on every node row."""
    n = node_embs_2d.data.shape[0]
    cls_row = ad.matmul(np.ones((n, 1)), class_emb)
    return ad.concat([node_embs_2d, cls_row], axis=1)


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
        batch = ev.evidence_forward(adj, emb, ce, heads)
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
            batch = ev.evidence_forward(adj, emb, ce, heads)
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
        batch = ev.evidence_forward(adj, emb, ce, heads)
        for i in range(3):
            assert batch.evidence.data[:, i] == pytest.approx(
                softplus(float(i)), abs=1e-12)
        assert batch.prior_weight.data == pytest.approx(
            softplus(2.5) + ev.PRIOR_EPS, abs=1e-12)

    def test_factored_path_matches_explicit_concat(self):
        """The batched/factored forward must equal running each head on the
        explicit context-feature matrix."""
        g, adj, emb, ce, heads = small_setup(seed=3)
        batch = ev.evidence_forward(adj, emb, ce, heads, propagate=True,
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
        a = ev.evidence_forward(adj, emb, ce, heads, propagate=False)
        eye = graphs.normalize_adjacency(
            graphs.build_graph(np.zeros((0, 2)), np.zeros((g.n, 1)),
                               np.zeros(g.n), 1))
        b = ev.evidence_forward(eye, emb, ce, heads, propagate=False)
        assert np.array_equal(a.evidence.data, b.evidence.data)

    def test_fixed_prior_mode(self):
        g, adj, emb, ce, heads = small_setup(seed=5)
        batch = ev.evidence_forward(adj, emb, ce, heads, learned_prior=False)
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
        x = ad.Tensor(g.features)
        batch = ev.direct_evidence_forward(adj, x, params, 3)
        assert batch.evidence.data.shape == (15, 3)
        assert np.all(batch.prior_weight.data == 3.0)
        assert (batch.evidence.data >= 0).all()

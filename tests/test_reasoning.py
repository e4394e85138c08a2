import math

import numpy as np
import pytest

from betagraph import autodiff as ad
from betagraph import graphs
from betagraph import reasoning as rs
from betagraph.rng import rng
from betagraph.training import TrainConfig, build_context, init_model

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
        ctx = build_context(tiny_graph, split, cfg)
        state = init_model(tiny_graph.feature_dim, ctx.class_count, cfg)
        out = rs.encode(ctx.adj, ctx.x, state.encoder, training=True,
                        update_running=False, propagated_x=ctx.propagated_x)
        assert (out.data > 0).all()

    def test_identical_rows_on_edgeless_graph(self):
        g = graphs.build_graph(np.zeros((0, 2)), np.tile([1.0, 2.0], (5, 1)),
                               np.zeros(5), 1)
        cfg = TrainConfig(seed=2, dtype="float64", hidden_dim=6, embed_dim=4,
                          reasoning_dim=6)
        adj = graphs.normalize_adjacency(g)
        enc = rs.init_encoder(rng(3), 2, 6, 4, np.float64)
        x = ad.Tensor(g.features)
        out = rs.encode(adj, x, enc, training=False, update_running=False)
        assert np.abs(out.data - out.data[0]).max() == 0.0

    def test_deterministic(self, tiny_graph):
        cfg = TrainConfig(seed=1, dtype="float64", hidden_dim=6, embed_dim=4,
                          reasoning_dim=6, ood_classes=(2,))
        split = graphs.make_split(tiny_graph, (2,), seed=0)
        ctx = build_context(tiny_graph, split, cfg)
        outs = []
        for _ in range(2):
            state = init_model(tiny_graph.feature_dim, ctx.class_count, cfg)
            outs.append(rs.encode(ctx.adj, ctx.x, state.encoder,
                                  training=False, update_running=False).data)
        assert np.array_equal(outs[0], outs[1])


class TestDisjunction:
    def test_permutation_invariance_exact(self):
        gen = rng(4)
        params = unit_params()
        x = make_embedding(gen, 12, 4)
        base = rs.disjunction(x, params)
        for seed in range(4):
            perm = rng(seed).permutation(12)
            out = rs.disjunction(ad.Tensor(x.data[perm]), params)
            assert np.array_equal(out.data, base.data)

    def test_duplication_invariance_exact(self):
        gen = rng(5)
        params = unit_params()
        x = make_embedding(gen, 7, 4)
        doubled = ad.Tensor(np.repeat(x.data, 2, axis=0))
        a = rs.disjunction(x, params)
        b = rs.disjunction(doubled, params)
        assert np.array_equal(a.data, b.data)

    def test_single_element_valid(self):
        params = unit_params()
        out = rs.disjunction(make_embedding(rng(6), 1, 4), params)
        assert out.data.shape == (1, 8)
        assert (out.data > 0).all()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rs.disjunction(ad.Tensor(np.zeros((0, 8))), unit_params())


class TestNegation:
    def test_reciprocal_example(self):
        n = rs.negation(ad.Tensor(np.array([[2.0, 0.5]])))
        assert n.data[0, 0] == 0.5
        assert n.data[0, 1] == 2.0

    def test_unit_fixed_point(self):
        n = rs.negation(ad.Tensor(np.ones((1, 6))))
        assert np.array_equal(n.data, np.ones((1, 6)))

    def test_involution_within_1e12(self):
        gen = rng(8)
        e = make_embedding(gen, 10, 4)
        back = rs.negation(rs.negation(e))
        assert np.abs(back.data - e.data).max() < 1e-12

    def test_positivity_preserved(self):
        gen = rng(9)
        n = rs.negation(ad.Tensor(gen.uniform(1e-4, 1e4, (50, 8))))
        assert (n.data > 0).all()


class TestClassEmbeddings:
    def test_label_permutation_permutes_classes(self):
        gen = rng(10)
        params = unit_params()
        emb = make_embedding(gen, 20, 4)
        idx = [np.arange(0, 7), np.arange(7, 13), np.arange(13, 20)]
        base = rs.build_class_embeddings(emb, idx, params)
        perm = rs.build_class_embeddings(emb, [idx[2], idx[0], idx[1]], params)
        assert np.array_equal(perm.per_class.data,
                              base.per_class.data[[2, 0, 1]])
        # union over a set is order-free, so the novel region is identical
        assert np.array_equal(perm.novel.data, base.novel.data)

    def test_novel_is_exact_negation_of_known(self):
        gen = rng(11)
        params = unit_params()
        emb = make_embedding(gen, 10, 4)
        ce = rs.build_class_embeddings(emb, [np.arange(5), np.arange(5, 10)],
                                       params)
        assert np.array_equal(ce.novel.data, 1.0 / ce.known.data)

    def test_single_class(self):
        gen = rng(12)
        params = unit_params()
        ce = rs.build_class_embeddings(make_embedding(gen, 4, 4),
                                       [np.arange(4)], params)
        assert ce.class_count == 1

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
    ones = lambda r: ad.Tensor(np.ones((r, 2 * d)))
    return rs.ClassEmbeddings(per_class=ones(k), known=ones(1), novel=ones(1))


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

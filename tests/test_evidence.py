import threading

import numpy as np
import pytest

from betagraph import autodiff as ad
from betagraph import evidence as ev
from betagraph import graphs, sparse
from betagraph import reasoning as rs
from betagraph.rng import rng
from betagraph.special import digamma, softplus
import oracles
from oracles import grad_check


def small_setup(seed=0, n=12, d=3, k=3, hidden=5):
    gen = rng(seed)
    g = graphs.gen_erdos_renyi(n, 0.3, 4, seed=seed, class_count=k)
    adj = graphs.normalize_adjacency(g)
    emb = gen.uniform(0.3, 4.0, size=(n, 2 * d))
    params = rs.init_disjunction(gen, d, 6, np.float64)
    idx = np.array_split(np.arange(n), k)
    ce = rs.build_class_embeddings(ad.Tensor(emb), idx, params).data
    heads = ev.init_evidence_heads(gen, d, hidden, k, np.float64)
    # randomize output layers (init_head zeroes them for training stability)
    for h in heads.per_class + [heads.novel]:
        h.w2.data = gen.standard_normal(h.w2.data.shape)
        h.b2.data = gen.standard_normal(h.b2.data.shape)
    return g, adj, emb, ce, heads


def evidence_forward(adj, emb, regions, heads, *, propagate=True,
                     dropout_rate=0.0, generator=None, learned_prior=True):
    """ev.evidence_forward over every row of the node embeddings emb,
    propagated first when propagate is on, as scoring calls it."""
    kw = dict(dropout_rate=dropout_rate, generator=generator,
              learned_prior=learned_prior)
    if not propagate:
        return ev.evidence_forward(None, emb, np.ones((emb.shape[0], 1),
                                                      dtype=emb.dtype),
                                   regions, heads, **kw)
    scale = adj.row_sums().astype(emb.dtype).reshape(-1, 1)
    return ev.evidence_forward(adj, adj.matmul(emb), scale, regions, heads,
                               **kw)


def context_features(node_embs_2d, class_emb):
    """Rows [alpha_i || beta_i || alpha_C || beta_C]: the explicit input of
    one head, the class part repeated on every node row."""
    n = node_embs_2d.data.shape[0]
    cls_row = oracles.matmul(np.ones((n, 1)), class_emb)
    return oracles.concat([node_embs_2d, cls_row], axis=1)


def opinions(e, w):
    """A NodeOpinionBatch over evidence e and prior weights w."""
    return ev.NodeOpinionBatch(ad.Tensor(np.hstack([e, w])))


def taken(batch, rows):
    """batch's opinions of the given rows, in their order."""
    return ev.NodeOpinionBatch(ad.take_rows(batch.opinions, rows))


def grad_setup(dtype, seed=0, n=40, d=3, k=3, hidden=6):
    """small_setup in the given dtype, with random head biases and output
    weights: the frozen node embeddings and class regions (arrays), the
    heads and the nodes' labels."""
    gen = rng(seed)
    g = graphs.gen_erdos_renyi(n, 0.2, 4, seed=seed, class_count=k)
    adj = graphs.normalize_adjacency(g)
    emb = gen.uniform(0.3, 4.0, size=(n, 2 * d)).astype(dtype)
    disj = rs.init_disjunction(gen, d, 6, dtype)
    heads = ev.init_evidence_heads(gen, d, hidden, k, dtype)
    for h in heads.per_class + [heads.novel]:
        for t in (h.b1, h.w2, h.b2):      # init zeroes these
            t.data = gen.standard_normal(t.data.shape).astype(dtype)
    idx = np.array_split(np.arange(n), k)
    labels = np.repeat(np.arange(k), [len(i) for i in idx])
    regions = rs.build_class_embeddings(ad.Tensor(emb), idx, disj).data
    return adj, emb, regions, heads, labels


class TestFusedHeads:
    @pytest.mark.parametrize("dtype,upstream", [(np.float32, np.float64),
                                                (np.float64, np.float32)])
    def test_upstream_of_another_dtype_is_an_error(self, dtype, upstream):
        """The VJP writes dL/dz into the heads' own buffers: an upstream
        gradient in another dtype than the opinions' is a ValueError
        naming both, not a silent rounding, and no head gets a gradient."""
        adj, emb, regions, heads, _ = grad_setup(dtype)
        op = evidence_forward(adj, emb, regions, heads, dropout_rate=0.4,
                              generator=rng(7), learned_prior=True).opinions
        loss = ad.fused_node(op.data.sum(), (op,), lambda _: (
            np.ones(op.data.shape, upstream),))
        with pytest.raises(ValueError, match=(
                f"upstream gradient is {np.dtype(upstream)}, the opinions "
                f"{np.dtype(dtype)}")):
            loss.backward()
        assert all(t.grad is None for t in heads.tensors().values())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    @pytest.mark.parametrize("propagate", [True, False])
    @pytest.mark.parametrize("learned_prior", [True, False])
    def test_bit_equal_to_per_op_composition(self, dtype, dropout, propagate,
                                             learned_prior):
        """Heads (each drawing its keep array as it starts), assembly and
        Dirichlet loss, on every row and on rows taken with ad.take_rows,
        against the per-op composition with a draw per head from the same
        seed: equal opinions and loss bit for bit, equal gradients."""
        adj, emb, regions, heads, labels = grad_setup(dtype)
        tensors = heads.tensors()
        for rows in (np.arange(labels.size), None):
            runs = []
            for fused in (True, False):
                for t in tensors.values():
                    t.grad = None
                kw = dict(dropout_rate=dropout, generator=rng(7),
                          learned_prior=learned_prior)
                want = labels if rows is None else labels[rows]
                if fused:
                    batch = evidence_forward(adj, emb, regions, heads,
                                             propagate=propagate, **kw)
                    if rows is not None:
                        batch = taken(batch, rows)
                    loss = ev.dirichlet_loss(batch, want)
                    values = batch.opinions.data
                else:
                    n = emb.shape[0]
                    scale = adj.row_sums().astype(dtype).reshape(-1, 1) \
                        if propagate else np.ones((n, 1), dtype=dtype)
                    batch = oracles.evidence_forward(
                        adj if propagate else None,
                        adj.matmul(emb) if propagate else emb, scale,
                        regions, heads, **kw)
                    if rows is not None:
                        batch = oracles.Opinions(
                            ad.take_rows(batch.evidence, rows),
                            ad.take_rows(batch.prior_weight, rows),
                            batch.base_rates)
                    loss = oracles.dirichlet_loss(batch, want)
                    values = batch.fused()
                loss.backward()
                runs.append((values, loss.data,
                             {name: t.grad for name, t in tensors.items()}))
            (fused, fused_loss, fused_grads), (ref, ref_loss, ref_grads) = runs
            assert fused.dtype == dtype
            assert fused.tobytes() == ref.tobytes()
            assert fused_loss.tobytes() == ref_loss.tobytes()
            for name, ref_grad in ref_grads.items():
                got = fused_grads[name]
                if ref_grad is None:
                    assert got is None, name
                    continue
                assert got.dtype == ref_grad.dtype, name
                assert np.array_equal(got, ref_grad), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("learned_prior", [True, False])
    def test_concurrent_heads_equal_sequential(self, dtype, learned_prior,
                                               monkeypatch):
        """Above the work floor, training runs the heads' VJPs in the
        worker threads: the same opinions, loss and gradients bit for bit
        as one after another.  The heads' forward, whose dropout draws
        come one head at a time, runs on the caller in training and in
        scoring."""
        adj, emb, regions, heads, labels = grad_setup(dtype)
        tensors = heads.tensors()
        head = ev._head
        off_main = []

        def spied(*args):
            off_main.append(threading.current_thread()
                            is not threading.main_thread())
            out, vjp = head(*args)

            def spied_vjp(g):
                off_main.append(threading.current_thread()
                                is not threading.main_thread())
                return vjp(g)
            return out, spied_vjp

        monkeypatch.setattr(ev, "_head", spied)
        monkeypatch.setattr(sparse, "workers", lambda: 3)
        runs = []
        for floor in (float("inf"), 0):
            monkeypatch.setattr(sparse, "PARALLEL_FLOOR", floor)
            off_main.clear()
            for t in tensors.values():
                t.grad = None
            batch = evidence_forward(adj, emb, regions, heads,
                                     dropout_rate=0.4, generator=rng(7),
                                     learned_prior=learned_prior)
            loss = ev.dirichlet_loss(batch, labels)
            loss.backward()
            runs.append([batch.opinions.data, loss.data,
                         *(t.grad for t in tensors.values()
                           if t.grad is not None)])
            assert off_main == [False] * (3 + learned_prior) \
                + [floor == 0] * (3 + learned_prior)
        for sequential, concurrent in zip(*runs, strict=True):
            assert sequential.dtype == concurrent.dtype
            assert sequential.tobytes() == concurrent.tobytes()
        off_main.clear()
        with ad.no_grad():
            scored = evidence_forward(adj, emb, regions, heads,
                                      learned_prior=learned_prior)
        assert off_main == [False] * (3 + learned_prior)
        assert scored.opinions.data.shape == runs[0][0].shape

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("propagate", [True, False])
    @pytest.mark.parametrize("block", [sparse.ROW_BLOCK, 8])
    def test_bit_equal_with_signed_zero_upstream(self, dtype, propagate,
                                                 block, monkeypatch):
        """An upstream gradient with an all +0 and an all -0 column gives
        the per-op composition's gradients bit for bit, signs of zero
        included, with dL/dz formed in the hidden activation's buffer a
        row block at a time (one block of 40 rows, or five of 8)."""
        monkeypatch.setattr(sparse, "ROW_BLOCK", block)
        adj, emb, regions, heads, labels = grad_setup(dtype)
        tensors = heads.tensors()
        weights = rng(2).standard_normal((labels.size, 4)).astype(dtype)
        weights[:, 1], weights[:, 3] = 0.0, -0.0
        grads = []
        for fused in (True, False):
            for t in tensors.values():
                t.grad = None
            kw = dict(dropout_rate=0.4, generator=rng(7), learned_prior=True)
            if fused:
                batch = evidence_forward(adj, emb, regions, heads,
                                         propagate=propagate, **kw)
                loss = ad.tsum(ad.mul(batch.opinions, weights))
            else:
                n = emb.shape[0]
                scale = adj.row_sums().astype(dtype).reshape(-1, 1) \
                    if propagate else np.ones((n, 1), dtype=dtype)
                batch = oracles.evidence_forward(
                    adj if propagate else None,
                    adj.matmul(emb) if propagate else emb, scale,
                    regions, heads, **kw)
                loss = oracles.add(
                    ad.tsum(ad.mul(batch.evidence, weights[:, :3])),
                    ad.tsum(ad.mul(batch.prior_weight, weights[:, 3:])))
            loss.backward()
            grads.append({name: t.grad for name, t in tensors.items()})
        for name, want in grads[1].items():
            got = grads[0][name]
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name

    def test_grad_check_with_dropout(self):
        adj, emb, regions, heads, labels = grad_setup(np.float64, n=15,
                                                      hidden=4)

        def loss_fn():
            # a fresh generator per call: the same dropout mask every probe
            batch = evidence_forward(adj, emb, regions, heads,
                                     dropout_rate=0.5, generator=rng(3))
            return ev.dirichlet_loss(batch, labels)

        worst = max(r.max_rel_err
                    for r in grad_check(loss_fn, heads.tensors()))
        assert worst < 1e-6

    def test_one_tape_node_over_the_heads(self):
        """The opinions are one node over every head's w1, b1, w2 and b2,
        the frozen embeddings and regions being arrays, and the loss one
        node over the opinions."""
        adj, emb, regions, heads, labels = grad_setup(np.float64)
        batch = evidence_forward(adj, emb, regions, heads)
        loss = ev.dirichlet_loss(batch, labels)
        assert list(loss._parents) == [batch.opinions]
        assert [id(p) for p in batch.opinions._parents] == \
            [id(t) for t in heads.tensors().values()]


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
        assert batch.evidence.shape == (g.n, 3)
        assert batch.prior_weight.shape == (g.n, 1)
        assert batch.base_rates == pytest.approx(np.full(3, 1 / 3))

    def test_nonnegative_over_random_params(self):
        gen = rng(1)
        g, adj, emb, ce, heads = small_setup(seed=1)
        for trial in range(40):
            for h in heads.per_class + [heads.novel]:
                for t in (h.w1, h.b1, h.w2, h.b2):
                    t.data = gen.standard_normal(t.data.shape) * 3.0
            batch = evidence_forward(adj, emb, ce, heads)
            assert (batch.evidence >= 0).all()
            assert (batch.prior_weight > 0).all()

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
            assert batch.evidence[:, i] == pytest.approx(
                softplus(float(i)), abs=1e-12)
        assert batch.prior_weight == pytest.approx(
            softplus(2.5) + ev.PRIOR_EPS, abs=1e-12)

    def test_factored_path_matches_explicit_concat(self):
        """The batched/factored forward must equal running each head on the
        explicit context-feature matrix."""
        g, adj, emb, ce, heads = small_setup(seed=3)
        batch = evidence_forward(adj, emb, ce, heads, propagate=True,
                                    learned_prior=True)
        outs = []
        for i, head in enumerate(heads.per_class + [heads.novel]):
            xk = context_features(ad.Tensor(emb), ce[[i]])
            z1 = oracles.add(oracles.matmul(oracles.spmm(adj, xk), head.w1),
                             head.b1)
            h = oracles.relu(z1)
            z2 = oracles.add(oracles.spmm(adj, oracles.matmul(h, head.w2)),
                             head.b2)
            outs.append(z2.data)
        explicit = np.concatenate(outs, axis=1)
        e_expl = softplus(explicit[:, :3])
        w_expl = softplus(explicit[:, 3:]) + ev.PRIOR_EPS
        assert np.abs(batch.evidence - e_expl).max() < 1e-9
        assert np.abs(batch.prior_weight - w_expl).max() < 1e-9

    def test_mlp_mode_ignores_graph(self):
        g, adj, emb, ce, heads = small_setup(seed=4)
        a = evidence_forward(adj, emb, ce, heads, propagate=False)
        eye = graphs.normalize_adjacency(
            graphs.build_graph(np.zeros((0, 2)), np.zeros((g.n, 1)),
                               np.zeros(g.n), 1))
        b = evidence_forward(eye, emb, ce, heads, propagate=False)
        assert np.array_equal(a.evidence, b.evidence)

    def test_fixed_prior_mode(self):
        g, adj, emb, ce, heads = small_setup(seed=5)
        batch = evidence_forward(adj, emb, ce, heads, learned_prior=False)
        assert np.all(batch.prior_weight == 3.0)


class TestScore:
    def mk_batch(self, e, w):
        e = np.atleast_2d(np.asarray(e, dtype=float))
        w = np.full((e.shape[0], 1), float(w))
        return opinions(e, w)

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
        batch = opinions(e, w)
        sb = ev.score(batch)
        s = e.sum(axis=1) + w.ravel()
        total = (e / s[:, None]).sum(axis=1) + sb.vacuity
        assert np.abs(total - 1.0).max() < 1e-9

    def test_prediction_scale_invariant(self):
        gen = rng(7)
        e = gen.uniform(0, 5, (50, 3))
        w = gen.uniform(0.5, 2, (50, 1))
        base = ev.score(opinions(e, w))
        scaled = ev.score(opinions(7.3 * e, 7.3 * w))
        assert np.array_equal(base.prediction, scaled.prediction)


class TestDirichletLoss:
    def test_closed_form_example(self):
        # e=(1,1), W=2, uniform rates, true class 0: psi(4) - psi(2) = 5/6
        batch = opinions(np.array([[1.0, 1.0]]), np.array([[2.0]]))
        loss = ev.dirichlet_loss(batch, np.array([0]))
        assert float(loss.data) == pytest.approx(5 / 6, abs=1e-10)
        assert float(loss.data) == pytest.approx(
            digamma(4.0) - digamma(2.0), abs=1e-12)

    def test_vanishes_when_all_mass_on_true_class(self):
        batch = opinions(np.array([[500.0, 0.0]]), np.array([[1e-6]]))
        loss = ev.dirichlet_loss(batch, np.array([0]))
        assert 0 < float(loss.data) < 1e-2

    def test_nonnegative(self):
        gen = rng(8)
        e = gen.uniform(0, 10, (100, 3))
        w = gen.uniform(0.1, 4, (100, 1))
        batch = opinions(e, w)
        labels = gen.integers(0, 3, 100)
        loss = ev.dirichlet_loss(batch, labels)
        assert float(loss.data) >= 0

    def test_mask_isolation(self):
        gen = rng(9)
        e = gen.uniform(0.5, 5, (20, 3))
        w = gen.uniform(0.5, 2, (20, 1))
        labels = gen.integers(0, 3, 20)
        mask = np.arange(10)
        base = ev.dirichlet_loss(taken(opinions(e, w), mask), labels[mask])
        e2 = e.copy()
        e2[15:] *= 100.0                        # outside the mask
        pert = ev.dirichlet_loss(taken(opinions(e2, w), mask), labels[mask])
        assert float(base.data) == float(pert.data)

    def test_monotone_in_true_class_evidence(self):
        def loss_at(ey):
            batch = opinions(np.array([[ey, 1.0]]), np.array([[2.0]]))
            return float(ev.dirichlet_loss(batch, np.array([0])).data)
        values = [loss_at(e) for e in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestDirectEvidence:
    def test_shapes_and_fixed_prior(self):
        g = graphs.gen_erdos_renyi(15, 0.3, 4, seed=3, class_count=3)
        adj = graphs.normalize_adjacency(g)
        params = ev.init_direct_head(rng(0), 4, 6, 3, np.float64)
        px = oracles.spmm(adj, ad.Tensor(g.features))
        batch = ev.direct_evidence_forward(adj, px, params)
        assert batch.evidence.shape == (15, 3)
        assert np.all(batch.prior_weight == 3.0)
        assert (batch.evidence >= 0).all()


def direct_setup(dtype, seed=0, n=30, features=5, hidden=7, k=3):
    """An ER graph's normalized adjacency in dtype, its propagated
    features as a constant tensor, and a direct head with random biases
    (init zeroes them)."""
    g = graphs.gen_erdos_renyi(n, 0.2, features, seed=seed, class_count=k)
    adj = graphs.normalize_adjacency(g).astype(np.dtype(dtype))
    px = ad.Tensor(adj.matmul(g.features.astype(dtype)))
    params = ev.init_direct_head(rng(seed), features, hidden, k, dtype)
    gen = rng(seed + 1)
    for t in (params.b1, params.b2):
        t.data = gen.standard_normal(t.data.shape).astype(dtype)
    return adj, px, params


UNSORTED_ROWS = np.array([17, 4, 29, 4, 0, 11])
ROWS = pytest.mark.parametrize("rows", [None, UNSORTED_ROWS],
                               ids=["all", "unsorted"])


class TestFusedDirectHead:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @ROWS
    def test_bit_equal_to_per_op_composition(self, dtype, dropout, rows):
        """Logits, and the gradients of w1, b1, w2 and b2 under a signed
        upstream, equal the per-op composition's (float dropout draws from
        the same seed, take_rows for the rows) bit for bit."""
        adj, px, params = direct_setup(dtype)
        tensors = params.tensors("direct")
        runs = []
        for logits_of in (ev.direct_logits, oracles.direct_logits):
            for t in tensors.values():
                t.grad = None
            out = logits_of(adj, px, params, dropout_rate=dropout,
                            generator=rng(7), rows=rows)
            weights = rng(8).standard_normal(out.data.shape).astype(dtype)
            ad.tsum(ad.mul(out, weights)).backward()
            runs.append([out.data, *(t.grad for t in tensors.values())])
        assert runs[0][0].shape == (30 if rows is None else rows.size, 3)
        for fused, ref in zip(*runs, strict=True):
            assert fused.dtype == ref.dtype == dtype
            assert fused.tobytes() == ref.tobytes()

    def test_one_tape_node_over_the_parameters(self):
        adj, px, params = direct_setup(np.float64)
        out = ev.direct_logits(adj, px, params, dropout_rate=0.5,
                               generator=rng(7), rows=UNSORTED_ROWS)
        assert list(out._parents) == [params.w1, params.b1,
                                      params.w2, params.b2]

    @ROWS
    def test_grad_check(self, rows):
        adj, px, params = direct_setup(np.float64)
        weights = rng(8).standard_normal((30 if rows is None else rows.size,
                                          3))

        def loss_fn():
            # a fresh generator per call: the same dropout mask every probe
            out = ev.direct_logits(adj, px, params, dropout_rate=0.5,
                                   generator=rng(3), rows=rows)
            return ad.tsum(ad.mul(out, weights))

        worst = max(r.max_rel_err
                    for r in grad_check(loss_fn, params.tensors("direct")))
        assert worst < 1e-6

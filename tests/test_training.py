import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracles
from betagraph import autodiff as ad
from betagraph import evidence as ev
from betagraph import evaluation as evl
from betagraph import graphs
from betagraph import reasoning as rs
from betagraph import training as tr
from betagraph.evaluation import evaluate
from conftest import context_of, quick_config


def train(graph, split, config):
    """train_alternating on a context built for graph and split."""
    return tr.train_alternating(context_of(graph, split, config),
                                config)


def report(state, ctx):
    """The evaluation report of the model's scores on ctx."""
    return evaluate(tr.forward_scores(state, ctx), ctx,
                    seed=state.config.seed)


def buffer_hashes(state):
    return {name: hashlib.sha256(t.data.tobytes()).hexdigest()
            for name, t in state.all_tensors().items()}


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = tr.TrainConfig()
        assert cfg.rounds == 5 and cfg.epochs_p1 == 200

    @pytest.mark.parametrize("bad", [
        dict(lr_p1=0.0), dict(lr_p2=-1.0), dict(dropout_p1=1.0),
        dict(gamma=0.0), dict(rounds=0), dict(dtype="float16"),
        dict(epochs_p1=-1), dict(epochs_p2=-3), dict(hidden_dim=0),
        dict(embed_dim=-2), dict(reasoning_dim=0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            tr.TrainConfig(**bad)

    @pytest.mark.parametrize("field,value", [
        ("seed", 1.5), ("seed", -1), ("rounds", True), ("epochs_p1", 1.5),
        ("hidden_dim", 2.5), ("embed_dim", "4"), ("lr_p1", float("nan")),
        ("lr_p2", float("inf")), ("gamma", float("inf")), ("gamma", True),
        ("dropout_p2", float("nan")), ("reasoning_dim", 1.5),
        ("epochs_p2", 2.0), ("dropout_p1", -0.1),
        ("use_beta_reasoning", "yes"), ("context_propagation", 0),
        ("dtype", "float16"), ("dtype", 32), ("ood_classes", (-1,)),
        ("lr_p1", "0.01"), ("rounds", 0), ("ood_classes", (1.5,)),
        ("ood_classes", 3), ("learned_prior", 1),
    ])
    def test_rejects_bad_field(self, field, value):
        with pytest.raises((TypeError, ValueError), match=field):
            tr.TrainConfig(**{field: value})

    def test_accepts_ints_for_real_fields(self):
        cfg = tr.TrainConfig(gamma=55, lr_p1=1, ood_classes=[np.int64(3)],
                             seed=np.int64(4))
        assert cfg.gamma == 55 and cfg.seed == 4

    def test_zero_epochs_allowed(self):
        assert tr.TrainConfig(epochs_p1=0, epochs_p2=0).epochs_p1 == 0

    def test_split_from_config_fields(self, small_ppm):
        cfg = tr.TrainConfig(seed=5, ood_classes=(3,))
        want = graphs.make_split(small_ppm, (3,), seed=5)
        assert cfg.split(small_ppm).to_json() == want.to_json()
        other = graphs.make_split(small_ppm, (3,), seed=6)
        assert replace(cfg, seed=6).split(small_ppm).to_json() == \
            other.to_json()

    def test_protocol_splits_leave_out_its_own_classes(self, monkeypatch,
                                                        small_ppm):
        from betagraph import evaluation
        seen = []

        def fake_train(ctx, config):
            seen.append((ctx.split.ood_classes, ctx.split.seed, config.seed))
            return tr.ModelState(config=config, class_count=3,
                                 feature_dim=8), []

        monkeypatch.setattr(evaluation, "train_alternating", fake_train)
        monkeypatch.setattr(evaluation, "forward_scores", lambda *a: None)
        monkeypatch.setattr(evaluation, "evaluate",
                            lambda *a, **k: evaluation.EvalReport(0, 1.0, 0.0,
                                                                  0.0))
        evaluation.run_protocol(small_ppm, [3], quick_config(ood_classes=()),
                                seeds=[4, 7])
        assert seen == [((3,), 4, 4), ((3,), 7, 7)]

    def test_variant_presets(self):
        base = quick_config()
        a = tr.variant_config(base, "a")
        assert not a.use_beta_reasoning and not a.learned_prior
        d = tr.variant_config(base, "d")
        assert d.use_beta_reasoning and not d.learned_prior
        assert d.context_propagation
        e = tr.variant_config(base, "e")
        assert e == base
        no_at = tr.variant_config(base, "no_at")
        assert no_at.rounds == 1
        assert no_at.epochs_p1 == base.epochs_p1 * base.rounds
        with pytest.raises(ValueError):
            tr.variant_config(base, "z")


class TestPhases:
    def test_zero_epochs_identity(self, small_ppm, small_split):
        cfg = quick_config()
        ctx = context_of(small_ppm, small_split, cfg)
        state = tr.init_model(small_ppm.feature_dim, ctx.class_count, cfg)
        before = buffer_hashes(state)
        tr.train_phase1(state, ctx, 0)
        tr.train_phase2(state, ctx, 0, tr.phase2_forward(state, ctx))
        assert buffer_hashes(state) == before

    def test_phase1_only_touches_reasoning_params(self, small_ppm, small_split):
        cfg = quick_config()
        ctx = context_of(small_ppm, small_split, cfg)
        state = tr.init_model(small_ppm.feature_dim, ctx.class_count, cfg)
        before = buffer_hashes(state)
        tr.train_phase1(state, ctx, 3)
        after = buffer_hashes(state)
        for name in state.phase2_tensors():
            assert after[name] == before[name], name
        changed = [n for n in state.phase1_tensors() if after[n] != before[n]]
        assert changed

    def test_phase2_only_touches_heads(self, small_ppm, small_split):
        cfg = quick_config()
        ctx = context_of(small_ppm, small_split, cfg)
        state = tr.init_model(small_ppm.feature_dim, ctx.class_count, cfg)
        tr.train_phase1(state, ctx, 3)
        before = buffer_hashes(state)
        tr.train_phase2(state, ctx, 3, tr.phase2_forward(state, ctx))
        after = buffer_hashes(state)
        for name in state.phase1_tensors():
            assert after[name] == before[name], name
        changed = [n for n in state.phase2_tensors() if after[n] != before[n]]
        assert changed

    @pytest.mark.parametrize("variant", ["a", "b", "c", "d", "e",
                                         "baseline"])
    def test_every_held_parameter_gets_a_gradient(
            self, small_ppm, small_split, variant, monkeypatch):
        """One epoch of each phase, for every ablation variant and for the
        baseline, gives a gradient to every parameter its optimizer holds:
        without learned_prior (b, d), phase 2's leaves out head_nov."""
        step, held, missing = ad.Adam.step, [], []

        def checked(opt):
            held.extend(opt.names)
            missing.extend(name for name, p in zip(opt.names, opt.params)
                           if p.grad is None)
            step(opt)

        monkeypatch.setattr(ad.Adam, "step", checked)
        cfg = quick_config()
        if variant == "baseline":
            evl.train_baseline(context_of(small_ppm, small_split, cfg),
                               epochs=1)
        else:
            cfg = tr.variant_config(cfg, variant)
            ctx = context_of(small_ppm, small_split, cfg)
            state = tr.init_model(small_ppm.feature_dim, ctx.class_count, cfg)
            tr.train_phase1(state, ctx, 1)
            tr.train_phase2(state, ctx, 1, tr.phase2_forward(state, ctx))
        assert held and missing == []

    def test_losses_descend(self, small_ppm, small_split):
        cfg = quick_config()
        ctx = context_of(small_ppm, small_split, cfg)
        state = tr.init_model(small_ppm.feature_dim, ctx.class_count, cfg)
        first_bl = tr.train_phase1(state, ctx, 1)
        later_bl = tr.train_phase1(state, ctx, 60)
        assert later_bl < first_bl
        forward = tr.phase2_forward(state, ctx)
        first_dl = tr.train_phase2(state, ctx, 1, forward)
        later_dl = tr.train_phase2(state, ctx, 60, forward)
        assert later_dl < first_dl

    @pytest.mark.parametrize("learned_prior", [True, False])
    def test_phase1_bit_equal_to_per_op_reference(self, small_ppm, small_split,
                                                  learned_prior):
        """The fused class regions and margin loss over the gathered
        training rows, and the flat Adam step, reproduce phase 1 with the
        per-op regions and loss over per-class gathers and per-parameter
        Adam, over the same encode and dist_matrix."""
        cfg = quick_config(learned_prior=learned_prior, dropout_p1=0.3)
        ctx = context_of(small_ppm, small_split, cfg)
        state = tr.init_model(small_ppm.feature_dim, ctx.class_count, cfg)
        ref = tr.init_model(small_ppm.feature_dim, ctx.class_count, cfg)
        tr.train_phase1(state, ctx, 3)

        params = list(ref.phase1_tensors().values())
        m = [np.zeros(p.data.shape) for p in params]
        v = [np.zeros(p.data.shape) for p in params]
        train_labels = ctx.labels[ctx.split.train]
        for epoch in range(3):
            emb = rs.encode(ctx.adj, ctx.propagated_x, ref.encoder,
                            training=True, dropout_rate=cfg.dropout_p1,
                            generator=ref.rng_p1)
            class_idx = [ctx.split.train[rows] for rows in ctx.class_rows]
            regions = oracles.build_class_embeddings(emb, class_idx,
                                                     ref.disjunction)
            loss = oracles.beta_loss(ad.take_rows(emb, ctx.split.train),
                                     train_labels, regions, cfg.gamma,
                                     include_novel=learned_prior)
            for p in params:
                p.grad = None
            loss.backward()
            oracles.adam_step(params, cfg.lr_p1, epoch + 1, m, v)

        def arrays(s):
            return {**{name: t.data for name, t in s.phase1_tensors().items()},
                    **s.running_stats()}

        got = arrays(state)
        for name, want in arrays(ref).items():
            assert got[name].dtype == want.dtype, name
            assert got[name].tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("context_propagation", [True, False])
    @pytest.mark.parametrize("learned_prior", [True, False])
    def test_phase2_bit_equal_to_per_op_reference(
            self, small_ppm, small_split, context_propagation, learned_prior):
        """Phase 2 on the receptive rows, each head drawing its keep array
        as it starts, reproduces the per-op heads, assembly and loss with
        a draw per head from the same stream, and per-parameter Adam."""
        cfg = quick_config(learned_prior=learned_prior, dropout_p2=0.2,
                           context_propagation=context_propagation)
        ctx = context_of(small_ppm, small_split, cfg)
        state = tr.init_model(small_ppm.feature_dim, ctx.class_count, cfg)
        ref = tr.init_model(small_ppm.feature_dim, ctx.class_count, cfg)
        train = ctx.split.train
        last = tr.train_phase2(state, ctx, 3, tr.phase2_forward(state, ctx))

        with ad.no_grad():
            emb = rs.encode(ctx.adj, ctx.propagated_x, ref.encoder)
            regions = oracles.build_class_embeddings(
                ad.take_rows(emb, train), ctx.class_rows,
                ref.disjunction).fused()
        if context_propagation:
            rows, block = ctx.receptive_field()
            scale = ctx.adj.row_sums().astype(np.float32).reshape(-1, 1)
            prop, scale = ctx.adj.matmul(emb.data)[rows], scale[rows]
        else:
            block, prop = None, emb.data[train]
            scale = np.ones((train.size, 1), dtype=np.float32)
        params = list(ref.heads.tensors().values())
        m = [np.zeros(p.data.shape) for p in params]
        v = [np.zeros(p.data.shape) for p in params]
        for epoch in range(3):
            batch = oracles.evidence_forward(
                block, prop, scale, regions, ref.heads,
                dropout_rate=cfg.dropout_p2, generator=ref.rng_p2,
                learned_prior=learned_prior)
            loss = oracles.dirichlet_loss(batch, ctx.labels[train])
            for p in params:
                p.grad = None
            loss.backward()
            oracles.adam_step(params, cfg.lr_p2, epoch + 1, m, v)

        assert last == float(loss.data)
        got = state.heads.tensors()
        for name, want in ref.heads.tensors().items():
            assert got[name].data.tobytes() == want.data.tobytes(), name

    def test_tape_size_per_epoch(self, monkeypatch):
        """Tensors built per epoch on ppm6 with the reference model: the
        fused class regions and margin loss leave 9 per phase-1 epoch (80
        with those steps op by op); the heads with their assembly, and the
        Dirichlet loss, one node each, leave 2 per phase-2 epoch (28 op by
        op, 7 with a node per head over the frozen inputs)."""
        graph = graphs.zscore_features(graphs.gen_ppm6())
        cfg = tr.TrainConfig(seed=0, ood_classes=graphs.PPM6_OOD_CLASSES)
        ctx = context_of(graph, cfg.split(graph), cfg)
        state = tr.init_model(graph.feature_dim, ctx.class_count, cfg)
        forward = tr.phase2_forward(state, ctx)
        built = count_calls(monkeypatch, ad.Tensor, "__init__")
        tr.train_phase1(state, ctx, 3)
        phase1 = len(built) / 3
        tr.train_phase2(state, ctx, 3, forward)
        phase2 = (len(built) - 3 * phase1) / 3
        assert phase1 <= 20 and phase2 <= 3, (phase1, phase2)

    def test_direct_head_tape_size_per_epoch(self, monkeypatch):
        """Variant a's phase 2 on ppm6 builds at most 3 tensors per epoch:
        the direct head, its opinions and the Dirichlet loss, one node
        each (10 with the head op by op)."""
        graph = graphs.zscore_features(graphs.gen_ppm6())
        cfg = tr.variant_config(tr.TrainConfig(
            seed=0, ood_classes=graphs.PPM6_OOD_CLASSES), "a")
        ctx = context_of(graph, cfg.split(graph), cfg)
        state = tr.init_model(graph.feature_dim, ctx.class_count, cfg)
        forward = tr.phase2_forward(state, ctx)
        built = count_calls(monkeypatch, ad.Tensor, "__init__")
        tr.train_phase2(state, ctx, 3, forward)
        assert len(built) / 3 <= 3, len(built) / 3

    def test_phase1_peak_heap_bounded(self):
        """Three phase-1 epochs on n=2e4 nodes at H=2d=64 keep the traced
        heap peak under 6.0 (n, H) float32 arrays; it reads 4.9, against
        6.3 while layer 1's node kept px @ w1 and each VJP's upstream was
        held through it, 7.3 while backward held each node through its
        own VJP and the encoder layer's VJP made dL/dy a new array, 11.4
        while the tape kept layer 2's full output, a float32 dropout mask
        and every walked node, and 42 for a tape that outlived its
        backward, with per-op encoder layers."""
        n = 20_000
        g = graphs.zscore_features(
            graphs.gen_erdos_renyi(n, 4e-4, 16, seed=0, class_count=6))
        split = graphs.make_split(g, (4, 5), seed=0)
        cfg = tr.TrainConfig(seed=0, ood_classes=(4, 5), hidden_dim=64,
                             embed_dim=32, reasoning_dim=64, dtype="float32")
        ctx = context_of(g, split, cfg)
        state = tr.init_model(g.feature_dim, ctx.class_count, cfg)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tr.train_phase1(state, ctx, 3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        arrays = peak / (n * 64 * 4)
        assert arrays < 6.0, f"phase-1 heap peak {arrays:.1f} (n, H) arrays"

    def test_phase2_peak_heap_bounded(self):
        """Three phase-2 epochs on n=2e4 nodes at H=64 with five heads keep
        the traced heap peak under 4.25 (n, H) float32 arrays: backward
        holds one per head, the hidden activation in which the head's VJP
        forms dL/dz, and each head draws its own keep array as it starts;
        it reads 3.6 (3.4 before the first epoch split the embeddings into
        their rows R and the rest: the whole array was made before tracing
        started, so tracemalloc counts the two parts but not its freeing;
        3.85 with one keep array for all heads, 4.0 with the dropout words
        drawn at once and dL/dz made whole in each VJP).
        Heads that kept their float32 dropout mask and bool relu mask as
        well peaked at 13.8."""
        n = 20_000
        g = graphs.zscore_features(
            graphs.gen_erdos_renyi(n, 4e-4, 16, seed=0, class_count=6))
        split = graphs.make_split(g, (4, 5), seed=0)
        cfg = tr.TrainConfig(seed=0, ood_classes=(4, 5), hidden_dim=64,
                             embed_dim=32, reasoning_dim=64, dtype="float32")
        ctx = context_of(g, split, cfg)
        state = tr.init_model(g.feature_dim, ctx.class_count, cfg)
        forward = tr.phase2_forward(state, ctx)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tr.train_phase2(state, ctx, 3, forward)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        arrays = peak / (n * 64 * 4)
        assert arrays < 4.25, f"phase-2 heap peak {arrays:.1f} (n, H) arrays"

    def test_divergence_detected(self, small_ppm, small_split):
        cfg = quick_config(lr_p1=1e18, epochs_p1=60)
        ctx = context_of(small_ppm, small_split, cfg)
        state = tr.init_model(small_ppm.feature_dim, ctx.class_count, cfg)
        state.round = 3
        with np.errstate(all="ignore"):
            with pytest.raises(tr.TrainingDivergence,
                               match=r"phase 1, round 3, epoch \d+"):
                tr.train_phase1(state, ctx, 60)

    def test_phase2_divergence_named(self, small_ppm, small_split):
        cfg = quick_config(lr_p2=1e18)
        ctx = context_of(small_ppm, small_split, cfg)
        state = tr.init_model(small_ppm.feature_dim, ctx.class_count, cfg)
        state.round = 3
        forward = tr.phase2_forward(state, ctx)
        with np.errstate(all="ignore"):
            with pytest.raises(tr.TrainingDivergence,
                               match=r"phase 2, round 3, epoch \d+"):
                tr.train_phase2(state, ctx, 60, forward)


class TestFit:
    def test_one_step_per_epoch_returns_last_loss(self):
        w = oracles.parameter([3.0, -2.0])
        opt = ad.Adam({"w": w}, lr=0.1)
        seen = []

        def loss():
            out = ad.tsum(ad.mul(w, w))
            seen.append(float(out.data))
            return out

        assert tr.fit(opt, 4, loss, 1, 0) == seen[-1]
        assert len(seen) == 4 and opt.t == 4 and seen[-1] < seen[0]
        assert np.isnan(tr.fit(opt, 0, loss, 1, 0)) and opt.t == 4

    @pytest.mark.parametrize("error", [ValueError, FloatingPointError])
    def test_numerical_error_names_phase_round_epoch(self, error):
        w = oracles.parameter([1.0])
        calls = []

        def loss():
            calls.append(1)
            if len(calls) == 3:
                raise error("domain")
            return ad.tsum(w)

        with pytest.raises(tr.TrainingDivergence,
                           match="phase 2, round 1, epoch 2: domain"):
            tr.fit(ad.Adam({"w": w}, lr=0.1), 5, loss, 2, 1)

    def test_non_finite_loss_stops_before_the_step(self):
        w = oracles.parameter([1.0])
        opt = ad.Adam({"w": w}, lr=0.1)
        with pytest.raises(tr.TrainingDivergence,
                           match="non-finite loss in phase 1, round 0, "
                                 "epoch 0"):
            tr.fit(opt, 3, lambda: ad.tsum(ad.mul(w, np.inf)), 1, 0)
        assert opt.t == 0 and w.data[0] == 1.0

    def test_non_finite_parameter_after_step_named(self):
        """A finite loss whose float32 step overflows a parameter stops the
        loop at that epoch, naming the parameter by its optimiser name."""
        w = ad.Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        b = ad.Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
        opt = ad.Adam({"head0.w1": w, "head0.w2": b}, lr=1e300)
        losses = []

        def loss():
            out = oracles.add(ad.tsum(ad.mul(w, 0.0)),
                              ad.tsum(b))
            losses.append(float(out.data))
            return out

        with np.errstate(over="ignore"):
            with pytest.raises(tr.TrainingDivergence,
                               match="non-finite parameter head0.w2 after "
                                     "the step in phase 2, round 4, epoch 0"):
                tr.fit(opt, 3, loss, 2, 4)
        assert losses == [1.0] and opt.t == 1
        assert np.isfinite(w.data).all() and np.isinf(b.data).all()


def count_calls(monkeypatch, owner, name, keep=lambda *a, **k: True):
    """Wrap owner.name; returns the list of calls that pass `keep`."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        if keep(*args, **kwargs):
            calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestSharedWork:
    def test_round_encodes_frozen_model_once(self, monkeypatch, small_ppm,
                                             small_split):
        """Phase 2 and the validation after it score one frozen forward."""
        frozen = count_calls(monkeypatch, tr.rs, "encode",
                             lambda *a, training=False, **k: not training)
        train(small_ppm, small_split,
              quick_config(rounds=2, epochs_p1=2, epochs_p2=2))
        assert len(frozen) == 2

    def test_direct_head_propagates_features_once(self, monkeypatch,
                                                  small_ppm, small_split):
        """Two products by the adjacency per direct-head epoch: the output
        propagation and its VJP (the adjacency is symmetric, so backward
        multiplies by it too); the features come from ctx.propagated_x."""
        cfg = tr.variant_config(quick_config(), "a")
        ctx = context_of(small_ppm, small_split, cfg)
        state = tr.init_model(small_ppm.feature_dim, ctx.class_count, cfg)
        forward = tr.phase2_forward(state, ctx)
        calls = count_calls(monkeypatch, type(ctx.adj), "matmul",
                            lambda m, x: m is ctx.adj)
        tr.train_phase2(state, ctx, 1, forward)
        one = len(calls)
        tr.train_phase2(state, ctx, 4, forward)
        assert one == 2 and len(calls) - one == 8


def receptive_setup(graph, context_propagation, learned_prior):
    """A float64, dropout-free model on graph with random head parameters
    (init zeroes the output layers), and the context of its split."""
    cfg = tr.TrainConfig(dtype="float64", dropout_p2=0.0, ood_classes=(),
                         hidden_dim=8, embed_dim=4, reasoning_dim=8,
                         context_propagation=context_propagation,
                         learned_prior=learned_prior)
    ctx = context_of(graph, cfg.split(graph), cfg)
    state = tr.init_model(graph.feature_dim, ctx.class_count, cfg)
    gen = np.random.default_rng(5)
    for t in state.heads.tensors().values():
        t.data = gen.standard_normal(t.data.shape)
    return state, ctx


@pytest.fixture(scope="module", params=["ppm6", "er_isolated"])
def receptive_graph(request):
    if request.param == "ppm6":
        return graphs.zscore_features(graphs.gen_ppm6())
    g = graphs.gen_erdos_renyi(200, 0.006, 6, seed=3, class_count=3)
    assert (np.diff(g.adjacency.indptr) == 0).sum() > 20   # isolated nodes
    return g


class TestReceptiveField:
    """Phase 2 trains the heads on the rows its loss reads; the loss and
    its gradients are those of the full-graph forward."""

    @pytest.mark.parametrize("context_propagation", [True, False])
    @pytest.mark.parametrize("learned_prior", [True, False])
    def test_restricted_loss_equals_full_graph_loss(
            self, receptive_graph, context_propagation, learned_prior):
        state, ctx = receptive_setup(receptive_graph, context_propagation,
                                     learned_prior)
        forward = tr.phase2_forward(state, ctx)
        ce, prop = tr.frozen_reasoning(state, ctx)
        adj = ctx.adj if context_propagation else None
        scale = ctx.adj.row_sums().reshape(-1, 1) if context_propagation \
            else np.ones((prop.shape[0], 1))
        train = ctx.split.train
        params = state.heads.tensors()
        runs = []
        for loss_fn in (
                lambda: ev.dirichlet_loss(ev.NodeOpinionBatch(ad.take_rows(
                    ev.evidence_forward(
                        adj, prop, scale, ce, state.heads, dropout_rate=0.0,
                        generator=None, learned_prior=learned_prior).opinions,
                    train)), ctx.labels[train]),
                lambda: ev.dirichlet_loss(forward(True),
                                          ctx.labels[ctx.split.train])):
            for t in params.values():
                t.grad = None
            loss = loss_fn()
            loss.backward()
            runs.append((float(loss.data),
                         {name: t.grad for name, t in params.items()}))
        (full, full_grads), (restricted, grads) = runs
        assert abs(restricted - full) <= 1e-12 * abs(full)
        for name, ref in full_grads.items():
            if not learned_prior and name.startswith("head_nov"):
                assert ref is None and grads[name] is None, name
                continue
            assert np.abs(grads[name] - ref).max() <= \
                1e-12 * np.abs(ref).max(), name

    def test_block_reads_the_training_rows(self, receptive_graph):
        state, ctx = receptive_setup(receptive_graph, True, True)
        rows, block = ctx.receptive_field()
        train = ctx.split.train
        assert np.isin(train, rows).all()
        assert np.array_equal(rows, np.unique(rows))
        assert np.array_equal(rows, np.flatnonzero(
            np.asarray(abs(ctx.adj.csr[train]).sum(axis=0)).ravel()))
        assert (block.csr != ctx.adj.csr[train][:, rows]).nnz == 0
        assert block.T.shape == block.shape[::-1]
        assert (block.T.csr != block.csr.T).nnz == 0
        assert ctx.receptive_field() is ctx.receptive_field()

    def test_scoring_does_not_build_the_block(self, receptive_graph):
        state, ctx = receptive_setup(receptive_graph, True, True)
        tr.forward_scores(state, ctx)
        assert ctx._receptive is None


class TestAlternating:
    def test_single_round(self, small_ppm, small_split):
        state, history = train(small_ppm, small_split, quick_config(rounds=1))
        assert len(history) == 1
        assert state.best_round == 0

    def test_deterministic_history(self, small_ppm, small_split):
        cfg = quick_config(epochs_p1=10, epochs_p2=10)
        _, h1 = train(small_ppm, small_split, cfg)
        _, h2 = train(small_ppm, small_split, cfg)
        assert h1 == h2

    def test_best_snapshot_attains_max_score(self, small_ppm, small_split):
        cfg = quick_config(epochs_p1=10, epochs_p2=10, rounds=3)
        state, history = train(small_ppm, small_split, cfg)
        best = max(h["selection_score"] for h in history)
        assert state.best_score == best
        assert history[state.best_round]["selection_score"] == best

    def test_restored_snapshot_reproduces_validation(self, small_ppm,
                                                     small_split):
        cfg = quick_config(epochs_p1=10, epochs_p2=10, rounds=3)
        ctx = context_of(small_ppm, small_split, cfg)
        state, history = tr.train_alternating(ctx, cfg)
        acc, rc, roc = tr.validation_metrics(state, ctx,
                                             tr.phase2_forward(state, ctx))
        score = tr.selection_score(acc, roc, rc)
        assert score == pytest.approx(state.best_score, abs=1e-9)

    def test_divergence_carries_finished_rounds(self, monkeypatch, small_ppm,
                                                small_split):
        cfg = quick_config(rounds=3, epochs_p1=2, epochs_p2=2)
        _, full = train(small_ppm, small_split, cfg)
        original = tr.train_phase1

        def phase1(state, ctx, epochs):
            if state.round == 2:
                raise tr.TrainingDivergence("forced in round 2")
            return original(state, ctx, epochs)

        monkeypatch.setattr(tr, "train_phase1", phase1)
        with pytest.raises(tr.TrainingDivergence) as info:
            train(small_ppm, small_split, cfg)
        assert info.value.history == full[:2]

    def test_context_dtype_must_match_config(self, small_ppm, small_split):
        ctx = context_of(small_ppm, small_split,
                         quick_config(dtype="float64"))
        with pytest.raises(ValueError, match="float64, config dtype is "
                                             "float32"):
            tr.train_alternating(ctx, quick_config())

    def test_direct_variant_trains(self, small_ppm, small_split):
        cfg = tr.variant_config(quick_config(epochs_p2=40), "a")
        ctx = context_of(small_ppm, small_split, cfg)
        state, history = tr.train_alternating(ctx, cfg)
        assert state.direct is not None
        assert np.isnan(history[0]["bl_loss"])
        rep = report(state, ctx)
        assert rep.acc > 0.5


class TestSelectionScore:
    def test_perfect_model(self):
        assert tr.selection_score(1.0, 1.0, 0.0) == 2.0

    def test_arith_example(self):
        assert tr.selection_score(0.9, 0.95, 0.02) == pytest.approx(1.65)

    def test_monotone_in_each_metric(self):
        base = tr.selection_score(0.8, 0.8, 0.1)
        assert tr.selection_score(0.9, 0.8, 0.1) > base
        assert tr.selection_score(0.8, 0.9, 0.1) > base
        assert tr.selection_score(0.8, 0.8, 0.05) > base

    def test_missing_ood_drops_term(self):
        assert tr.selection_score(1.0, None, 0.0) == 1.0


class TestCheckpoint:
    def test_roundtrip_preserves_scores(self, tmp_path, small_ppm, small_split):
        cfg = quick_config(epochs_p1=10, epochs_p2=10)
        ctx = context_of(small_ppm, small_split, cfg)
        state, _ = tr.train_alternating(ctx, cfg)
        rep = report(state, ctx)
        path = tmp_path / "ckpt.npz"
        tr.save_checkpoint(path, state)
        loaded, meta = tr.load_checkpoint(path)
        rep2 = report(loaded, ctx)
        assert rep2.acc == rep.acc
        assert rep2.aurc == rep.aurc
        assert rep2.auroc == rep.auroc
        assert meta["config"]["gamma"] == cfg.gamma

    @pytest.fixture
    def saved(self, tmp_path, small_ppm, small_split):
        cfg = quick_config(epochs_p1=2, epochs_p2=2, rounds=1)
        state, _ = train(small_ppm, small_split, cfg)
        path = tmp_path / "ckpt.npz"
        tr.save_checkpoint(path, state)
        with np.load(path) as zf:
            return path, {k: zf[k] for k in zf.files}

    @staticmethod
    def rewrite(path, arrays):
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    def test_failed_save_keeps_the_previous_checkpoint(self, saved,
                                                       monkeypatch):
        """np.savez failing part way through a save over an existing
        checkpoint leaves that file's bytes and no temp file."""
        path, _ = saved
        before = path.read_bytes()
        state = tr.init_model(5, 2, quick_config())

        def failing_savez(file, **arrays):
            file.write(b"PK\x03\x04 partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", failing_savez)
        with pytest.raises(OSError, match="disk full"):
            tr.save_checkpoint(path, state)
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_truncated_file_named(self, saved):
        path, _ = saved
        payload = path.read_bytes()
        path.write_bytes(payload[:len(payload) // 2])
        with pytest.raises(ValueError, match="cannot read checkpoint .*ckpt"):
            tr.load_checkpoint(path)

    def test_missing_running_stats_named(self, saved):
        path, arrays = saved
        del arrays["encoder.bn2.running_var"]
        self.rewrite(path, arrays)
        with pytest.raises(ValueError, match="encoder.bn2.running_var"):
            tr.load_checkpoint(path)

    def test_bad_meta_json_named(self, saved):
        path, arrays = saved
        arrays["__meta__"] = np.frombuffer(b'{"version": 1,', dtype=np.uint8)
        self.rewrite(path, arrays)
        with pytest.raises(ValueError, match="bad __meta__"):
            tr.load_checkpoint(path)

    def test_meta_missing_field_named(self, saved):
        path, arrays = saved
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        del meta["feature_dim"]
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                           dtype=np.uint8)
        self.rewrite(path, arrays)
        with pytest.raises(ValueError, match="feature_dim"):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize("field,value", [
        ("adam_beta2", 0.99), ("adam_eps", 1e-6), ("sel_weight_aurc", 5.0),
        ("normalize_features", 1), ("normalize_features", False),
        ("split_ratios", [2, 1, 7]), ("ood_val_fraction", 0.5),
    ])
    def test_retired_field_other_value_named(self, saved, field, value):
        path, arrays = saved
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        meta["config"][field] = value
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                           dtype=np.uint8)
        self.rewrite(path, arrays)
        with pytest.raises(ValueError, match=f"bad __meta__: {field}"):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize("variant", ["a", "b", "e"])
    @pytest.mark.parametrize("class_count", [1, 4])
    def test_parameter_shapes_match_the_model(self, variant, class_count):
        cfg = tr.variant_config(quick_config(embed_dim=3), variant)
        state = tr.init_model(5, class_count, cfg)
        want = {name: a.shape for name, a in state.snapshot().items()}
        assert dict(tr.parameter_shapes(5, class_count, cfg)) == want

    @pytest.mark.parametrize("field,value,match", [
        ("feature_dim", 10**12, "'encoder.w1' has shape"),
        ("class_count", 10**15, "missing tensor 'head3.w1'"),
        ("feature_dim", 8.0, "bad __meta__: feature_dim must be an integer"),
        ("class_count", True, "bad __meta__: class_count must be an integer"),
        ("class_count", [3], "bad __meta__: class_count must be an integer"),
        ("feature_dim", 0, "bad __meta__: feature_dim must be >= 1"),
    ])
    def test_meta_sizes_checked_before_allocation(self, monkeypatch, saved,
                                                  field, value, match):
        path, arrays = saved
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        meta[field] = value
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                           dtype=np.uint8)
        self.rewrite(path, arrays)
        monkeypatch.setattr(tr, "init_model", None)     # must not be reached
        with pytest.raises(ValueError, match=match):
            tr.load_checkpoint(path)

    def test_string_dtype_tensor_named(self, saved):
        path, arrays = saved
        arrays["disjunction.h1_b"] = arrays["disjunction.h1_b"].astype(str)
        self.rewrite(path, arrays)
        with pytest.raises(ValueError,
                           match="'disjunction.h1_b' has dtype <U"):
            tr.load_checkpoint(path)

    def test_shape_mismatch_rejected(self, saved):
        path, arrays = saved
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        meta["feature_dim"] = 3
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                           dtype=np.uint8)
        self.rewrite(path, arrays)
        with pytest.raises(ValueError, match="shape"):
            tr.load_checkpoint(path)


class TestPreparedGraph:
    """The contexts of one graph share its PreparedGraph: the normalized
    adjacency in the model dtype, with float64 row sums, and adj @ x."""

    def test_contexts_share_it(self, small_ppm):
        cfg = quick_config()
        prepared = tr.prepare_graph(small_ppm, cfg.np_dtype)
        contexts = [tr.build_context(prepared, graphs.make_split(
            prepared, (3,), seed=s), cfg) for s in (0, 1)]
        for ctx in contexts:
            assert ctx.adj is prepared.adj
            assert ctx.propagated_x is prepared.propagated_x
        assert contexts[0].split.train.tolist() != \
            contexts[1].split.train.tolist()
        with pytest.raises(ValueError, match="float32"):
            tr.build_context(prepared, contexts[0].split,
                             quick_config(dtype="float64"))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_equals_the_float64_adjacency_cast(self, small_ppm, dtype):
        cfg = quick_config(dtype=dtype)
        prepared = tr.prepare_graph(small_ppm, cfg.np_dtype)
        adj = graphs.normalize_adjacency(small_ppm)
        assert prepared.adj.dtype == cfg.np_dtype
        assert prepared.adj.data.tobytes() == \
            adj.data.astype(dtype).tobytes()
        assert prepared.adj.row_sums().tobytes() == adj.row_sums().tobytes()
        want = adj.csr.astype(dtype) @ small_ppm.features.astype(dtype)
        assert prepared.propagated_x.data.tobytes() == want.tobytes()
        assert (prepared.n, prepared.class_count, prepared.feature_dim) == \
            (small_ppm.n, small_ppm.class_count, small_ppm.feature_dim)
        assert prepared.labels is small_ppm.labels

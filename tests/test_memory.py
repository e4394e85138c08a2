"""The live set: which n-row arrays a command holds, measured without the
host's allocator.

numpy reports its buffers to tracemalloc, so a tracemalloc peak counts
the arrays alive at once, whatever glibc does with the freed pages.
Peaks are in units of one (n, H) float32 array on an ER graph of n=2e4
with the bench's model widths (H = 2d = 64).
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from betagraph import autodiff as ad
from betagraph import cli, graphs
from betagraph import evidence as ev
from betagraph import reasoning as rs
from betagraph import training as tr
from betagraph.ioutil import write_csv

import oracles
from conftest import context_of
from test_cli import PPM_ARGS, TRAIN_FLAGS

N, H = 20_000, 64
UNIT = N * H * 4


@pytest.fixture(scope="module")
def er_model():
    g = graphs.zscore_features(graphs.gen_erdos_renyi(N, 5e-4, 16, 0,
                                                      class_count=6))
    cfg = tr.TrainConfig(seed=0, ood_classes=(4, 5), dtype="float32",
                         hidden_dim=H, embed_dim=H // 2, reasoning_dim=64)
    ctx = context_of(g, cfg.split(g), cfg)
    state = tr.init_model(g.feature_dim, ctx.class_count, cfg)
    tr.train_phase1(state, ctx, 1)          # Adam's moments exist
    return state, ctx


def peak_units(fn):
    """fn()'s tracemalloc peak over what was traced before it, in units."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    del result
    return peak / UNIT


def test_load_and_prepare_peak(tmp_path):
    """load_dataset builds the adjacency from one sort of int64 keys and
    normalize_adjacency inserts the diagonal into its CSR arrays, with no
    COO round trip: loading, z-scoring and preparing the graph peaks at
    1.95 units (3.18 through COO)."""
    graphs.save_dataset(graphs.gen_erdos_renyi(N, 5e-4, 16, 0, class_count=6),
                        str(tmp_path))
    assert peak_units(lambda: tr.prepare_graph(graphs.zscore_features(
        graphs.load_dataset(str(tmp_path))), np.float32)) < 2.25


def test_inference_encode_holds_two_arrays(er_model):
    """Each untaped layer writes its softplus in place, exp(-|y|) a row
    block at a time, and h1 goes once multiplied by w2: z and z - mean
    and a block in a layer, or h1 @ w2 and adj @ that, are the most alive
    at once (2.41 units; 3.0 with whole-array exp(-|y|) and h1 kept
    through the sparse product)."""
    state, ctx = er_model

    def encode():
        with ad.no_grad():
            return rs.encode(ctx.adj, ctx.propagated_x, state.encoder)

    assert peak_units(encode) < 2.5


def test_scoring_peak(er_model):
    """Scoring holds the heads' input and one head's z, whose shift and
    relu run over z in row blocks, and dissonance takes its (rows, K, K)
    temporaries a block at a time (2.50 units; 3.43 with whole arrays)."""
    state, ctx = er_model
    assert peak_units(lambda: tr.forward_scores(state, ctx)) < 2.75


def test_phase1_epoch_peak(er_model):
    """Layer 2 normalizes, softplusses and back-propagates the training
    rows only: an epoch peaks in layer 1's backward, with z1, its softplus
    derivative and keep array on the tape and the VJP's dh1, gy, xhat and
    gy * xhat (7.25 units)."""
    state, ctx = er_model
    assert peak_units(lambda: tr.train_phase1(state, ctx, 1)) < 7.5


def test_head_vjp_peak():
    """One evidence head's VJP at (R, H) forms dL/dz a row block at a time
    in the hidden activation's buffer, which nothing reads after it: it
    allocates 0.12 (R, H) arrays, mostly one block of h > 0 (1.26 with
    dL/dz and h > 0 whole)."""
    gen = np.random.default_rng(0)
    prop = gen.standard_normal((N, H)).astype(np.float32)
    head = ev.init_head(gen, 2 * H, H, np.float32)
    for t in (head.b1, head.w2):
        t.data = gen.standard_normal(t.data.shape).astype(np.float32)
    scale = ad.dropout_scale(0.5, np.float32)
    keep = ad.dropout_keep((N, H), np.float32, 0.5, gen)
    _, vjp = ev._head(prop, prop[:1], np.ones((N, 1), np.float32), head,
                      keep, scale)
    g = gen.standard_normal((N, 1)).astype(np.float32)
    assert peak_units(lambda: vjp(g)) < 0.5


def test_write_csv_peak(tmp_path):
    """write_csv formats and writes a table laid out as scores.csv (node
    ids, predictions and six float32 columns, a third of whose cells take
    repr's path) a row block at a time: 1.32 units, against 3.20 for
    the whole table at once."""
    gen = np.random.default_rng(0)
    floats = (10.0 ** gen.uniform(-6, 0, (6, N))).astype(np.float32)
    columns = [np.arange(N), gen.integers(0, 4, N), *floats]
    assert peak_units(lambda: write_csv(tmp_path / "scores.csv", ["c"] * 8,
                                        columns)) < 1.75


@pytest.mark.parametrize("rows", ["unsorted", "first", "last", "repeated"])
def test_rows_only_layer_bit_equal_to_full(rows):
    """encoder_layer(rows=r) equals take_rows of the full-n layer bit for
    bit: values, running statistics and every gradient, signs of zero
    included (a zero and a -0 upstream column), while its node keeps
    arrays of the read rows only."""
    gen = np.random.default_rng(3)
    n, width = 20_000, 8
    idx = {"unsorted": gen.permutation(n)[:300],
           "first": np.r_[0, gen.choice(np.arange(1, n), 99, replace=False)],
           "last": np.r_[gen.choice(n - 1, 99, replace=False), n - 1],
           "repeated": np.array([5, 0, 5, n - 1, 17, 5])}[rows]
    z_data = gen.standard_normal((n, width)).astype(np.float32)
    weights = gen.standard_normal((idx.size, width)).astype(np.float32)
    weights[:, 0], weights[:, 1] = 0.0, -0.0
    runs = []
    for restricted in (True, False):
        z = ad.Tensor(z_data.copy(), requires_grad=True)
        bn = rs.BatchNormParams(
            gamma=ad.Tensor(np.linspace(0.5, 1.5, width, dtype=np.float32),
                            requires_grad=True),
            beta=ad.Tensor(np.linspace(-0.2, 0.3, width, dtype=np.float32),
                           requires_grad=True),
            running_mean=np.zeros(width), running_var=np.ones(width))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            if restricted:
                out = rs.encoder_layer(z, bn, training=True,
                                       floor=rs.EMB_EPS, rows=idx)
            else:
                out = ad.take_rows(rs.encoder_layer(
                    z, bn, training=True, floor=rs.EMB_EPS), idx)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        ad.tsum(ad.mul(out, weights)).backward()
        runs.append((out.data, bn.running_mean, bn.running_var, z.grad,
                     bn.gamma.grad, bn.beta.grad))
        if restricted:
            assert kept < 0.25 * n * width * 4
    for name, got, want in zip(("forward", "running mean", "running var",
                                "z grad", "gamma grad", "beta grad"), *runs):
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def test_commands_let_go_of_the_raw_graph(tmp_path, monkeypatch):
    """Once train and eval have their context, neither reaches the raw
    adjacency, the raw features or the float64 normalized values."""
    data = str(tmp_path / "ppm")
    assert cli.main(PPM_ARGS + ["--out", data]) == 0
    refs = {}
    zscore, normalize = graphs.zscore_features, tr.normalize_adjacency

    def watched_zscore(graph):
        out = zscore(graph)
        refs.update(adjacency=weakref.ref(out.adjacency),
                    adjacency_values=weakref.ref(out.adjacency.data),
                    features=weakref.ref(out.features))
        return out

    def watched_normalize(graph):
        out = normalize(graph)
        assert out.data.dtype == np.float64
        refs.update(normalized=weakref.ref(out),
                    normalized_values=weakref.ref(out.data))
        return out

    def released(fn):
        def call(*args, **kwargs):
            gc.collect()
            assert {k: r() is None for k, r in refs.items()} == \
                dict.fromkeys(refs, True)
            checked.append(fn.__name__)
            return fn(*args, **kwargs)
        return call

    checked = []
    monkeypatch.setattr(graphs, "zscore_features", watched_zscore)
    monkeypatch.setattr(tr, "normalize_adjacency", watched_normalize)
    monkeypatch.setattr(cli, "train_alternating",
                        released(cli.train_alternating))
    monkeypatch.setattr(cli, "forward_scores", released(cli.forward_scores))
    run = tmp_path / "run"
    assert cli.main(["train", data, "--out", str(run)] + TRAIN_FLAGS) == 0
    assert cli.main(["eval", data, "--checkpoint", str(run / "checkpoint.npz"),
                     "--out", str(tmp_path / "eval")]) == 0
    assert checked == ["train_alternating", "forward_scores"]
    assert len(refs) == 5

"""Two-phase alternating training with validation-driven model selection.

Phase 1 fits the encoder and the disjunction operator with the margin
loss over Beta-KL distances; phase 2 freezes them, rebuilds the class
regions, and fits the evidence heads with the Dirichlet cross-entropy.
Alternating the phases R times refines both sides; after every round the
model is scored on validation as

    acc + auroc - 10 * aurc

and the best-scoring snapshot is returned.  One loop, fit, runs the
epochs of both phases and of the evaluation baseline.
Phase 2's epochs run the evidence heads only on the rows R that the
loss's rows of adj @ heads read, the training nodes and their
neighbours: the same loss.  Validation and scoring run the full graph.

Everything is full batch and deterministic: parameter init and the two
dropout streams are independent substreams of the config seed.  The
caller builds one RunContext per split (build_context) and passes it to
train_alternating, forward_scores and the evaluation functions.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import evidence as ev
from . import reasoning as rs
from .autodiff import Adam, Tensor, no_grad
from .graphs import (Graph, SplitSpec, make_split, normalize_adjacency,
                     remap_labels)
from .metrics import accuracy, aurc, auroc
from .rng import substream
from .sparse import SparseMatrix


class TrainingDivergence(RuntimeError):
    """Raised when training fails numerically; the message names the
    phase, round and epoch.  train_alternating sets history to the
    rounds it finished."""
    history = ()


def _integer(name, value):
    """value if it is an integer (bools are not), else TypeError naming
    the field."""
    if isinstance(value, (bool, np.bool_)) or \
            not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _real(name, value):
    """value if it is a finite real number (bools are not), else
    TypeError or ValueError naming the field."""
    if isinstance(value, (bool, np.bool_)) or \
            not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass
class TrainConfig:
    # canonical per-phase hyperparameters
    lr_p1: float = 0.01
    dropout_p1: float = 0.2
    gamma: float = 55.0
    lr_p2: float = 0.01
    dropout_p2: float = 0.2
    # schedule
    epochs_p1: int = 200
    epochs_p2: int = 200
    rounds: int = 5
    seed: int = 0
    # architecture
    hidden_dim: int = 64
    embed_dim: int = 32
    reasoning_dim: int = 64
    dtype: str = "float32"
    # ablation switches
    use_beta_reasoning: bool = True      # encoder + disjunction + phase 1
    learned_prior: bool = True           # per-node W from the novel head
    context_propagation: bool = True     # graph propagation inside heads
    # held-out classes of the leave-out split (see split)
    ood_classes: tuple = ()

    def __post_init__(self):
        for name, low in (("epochs_p1", 0), ("epochs_p2", 0), ("rounds", 1),
                          ("seed", 0), ("hidden_dim", 1), ("embed_dim", 1),
                          ("reasoning_dim", 1)):
            if _integer(name, getattr(self, name)) < low:
                raise ValueError(f"{name} must be >= {low}")
        for name in ("lr_p1", "lr_p2", "gamma"):
            if _real(name, getattr(self, name)) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("dropout_p1", "dropout_p2"):
            if not 0 <= _real(name, getattr(self, name)) < 1:
                raise ValueError(f"{name} must lie in [0, 1)")
        for name in ("use_beta_reasoning", "learned_prior",
                     "context_propagation"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise TypeError(f"{name} must be true or false")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be float32 or float64")
        if not isinstance(self.ood_classes, (tuple, list)):
            raise TypeError("ood_classes must be a list of class ids")
        for c in self.ood_classes:
            if _integer("ood_classes", c) < 0:
                raise ValueError("ood_classes must be >= 0")
        # lists from config files and JSON metadata are held as tuples
        self.ood_classes = tuple(self.ood_classes)

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)

    def split(self, graph: Graph) -> SplitSpec:
        """The leave-out split of graph under this config's OOD classes,
        drawn with its seed."""
        return make_split(graph, self.ood_classes, seed=self.seed)


# ablation variants: presets over the three switches; "no_at" folds the
# alternation into a single long round
VARIANTS = {
    "a": dict(use_beta_reasoning=False, learned_prior=False,
              context_propagation=True),
    "b": dict(learned_prior=False, context_propagation=False),
    "c": dict(context_propagation=False),
    "d": dict(learned_prior=False),
    "e": dict(),
}


def variant_config(base: TrainConfig, name: str) -> TrainConfig:
    if name == "no_at":
        return replace(base, rounds=1,
                       epochs_p1=base.epochs_p1 * base.rounds,
                       epochs_p2=base.epochs_p2 * base.rounds)
    if name not in VARIANTS:
        raise ValueError(f"unknown variant '{name}'")
    return replace(base, **VARIANTS[name])


@dataclass
class RunContext:
    """Everything about a (graph, split) pair that training, scoring,
    curves and the baseline share; build_context makes it once per split.
    Features enter the model only as propagated_x, in the config's dtype;
    class regions are built from the training rows, gathered in
    split.train order."""
    split: SplitSpec
    adj: object                     # normalized adjacency, symmetric
    propagated_x: Tensor            # adj @ features, constant
    labels: np.ndarray              # remapped: ID classes 0..K-1, OOD -1
    class_count: int
    class_rows: list                # positions in split.train per class
    _receptive: tuple = field(default=None, repr=False, compare=False)

    def receptive_field(self):
        """(R, block, block_t): the sorted columns R that adj's training
        rows touch (the training nodes, by their self-loops, and their
        neighbours), adj[train][:, R] and its transpose.  Built on first
        use and kept; scoring never uses them."""
        if self._receptive is None:
            a = self.adj.csr[self.split.train]
            rows = np.unique(a.indices)
            block = SparseMatrix(a.indptr, np.searchsorted(rows, a.indices),
                                 a.data, (a.shape[0], rows.size))
            t = block.csr.T.tocsr()
            self._receptive = rows, block, SparseMatrix(t.indptr, t.indices,
                                                        t.data, t.shape)
        return self._receptive


def build_context(graph: Graph, split: SplitSpec, config: TrainConfig) -> RunContext:
    adj = normalize_adjacency(graph)
    labels = remap_labels(graph, split)
    k = len(split.id_classes)
    px = Tensor(adj.matmul(graph.features.astype(config.np_dtype)))
    train_labels = labels[split.train]
    class_rows = [np.flatnonzero(train_labels == c) for c in range(k)]
    for c, rows in enumerate(class_rows):
        if rows.size == 0:
            raise ValueError(f"class {split.id_classes[c]} has no training nodes")
    return RunContext(split=split, adj=adj, propagated_x=px,
                      labels=labels, class_count=k, class_rows=class_rows)


@dataclass
class ModelState:
    config: TrainConfig
    class_count: int
    feature_dim: int
    encoder: rs.EncoderParams = None
    disjunction: rs.DisjunctionParams = None
    heads: ev.EvidenceHeadParams = None
    direct: ev.DirectHeadParams = None
    opt_p1: Adam = None
    opt_p2: Adam = None
    rng_p1: object = None
    rng_p2: object = None
    round: int = 0
    best_score: float = None
    best_round: int = None
    best_params: dict = None

    def phase1_tensors(self) -> dict:
        if self.encoder is None:
            return {}
        return {**self.encoder.tensors(), **self.disjunction.tensors()}

    def phase2_tensors(self) -> dict:
        if self.direct is not None:
            return self.direct.tensors()
        return self.heads.tensors()

    def all_tensors(self) -> dict:
        return {**self.phase1_tensors(), **self.phase2_tensors()}

    def running_stats(self) -> dict:
        if self.encoder is None:
            return {}
        enc = self.encoder
        return {f"encoder.{name}.running_{s}": getattr(bn, f"running_{s}")
                for name, bn in (("bn1", enc.bn1), ("bn2", enc.bn2))
                for s in ("mean", "var")}

    def snapshot(self) -> dict:
        snap = {name: t.data.copy() for name, t in self.all_tensors().items()}
        snap.update({name: arr.copy() for name, arr in self.running_stats().items()})
        return snap

    def load_snapshot(self, snap: dict):
        for name, t in self.all_tensors().items():
            t.data = snap[name].astype(t.data.dtype)
        for name, arr in self.running_stats().items():
            arr[...] = snap[name]


def init_model(feature_dim: int, class_count: int, config: TrainConfig) -> ModelState:
    gen = substream(config.seed, 0)
    dtype = config.np_dtype
    state = ModelState(config=config, class_count=class_count,
                       feature_dim=feature_dim)
    if config.use_beta_reasoning:
        state.encoder = rs.init_encoder(gen, feature_dim, config.hidden_dim,
                                        config.embed_dim, dtype)
        state.disjunction = rs.init_disjunction(gen, config.embed_dim,
                                                config.reasoning_dim, dtype)
        state.heads = ev.init_evidence_heads(gen, config.embed_dim,
                                             config.hidden_dim, class_count,
                                             dtype)
    else:
        state.direct = ev.init_direct_head(gen, feature_dim, config.hidden_dim,
                                           class_count, dtype)
    state.opt_p1 = Adam(state.phase1_tensors(), lr=config.lr_p1)
    state.opt_p2 = Adam(state.phase2_tensors(), lr=config.lr_p2)
    state.rng_p1 = substream(config.seed, 1)
    state.rng_p2 = substream(config.seed, 2)
    return state


def parameter_shapes(feature_dim, class_count, config: TrainConfig):
    """(name, shape) of every array in a snapshot of the model init_model
    builds, allocating none.  Lazy, so a check that stops at the first
    name a checkpoint lacks ends however large class_count is."""
    h, e, r = config.hidden_dim, 2 * config.embed_dim, config.reasoning_dim
    if not config.use_beta_reasoning:
        yield from {"direct.w1": (feature_dim, h), "direct.b1": (h,),
                    "direct.w2": (h, class_count),
                    "direct.b2": (class_count,)}.items()
        return
    yield from {"encoder.w1": (feature_dim, h), "encoder.w2": (h, e),
                "disjunction.h1_w": (e, r), "disjunction.h1_b": (r,),
                "disjunction.h2_w": (r, e), "disjunction.h2_b": (e,),
                "disjunction.w": (r,), "disjunction.bias": (r,)}.items()
    for bn, width in (("bn1", h), ("bn2", e)):
        for part in ("gamma", "beta", "running_mean", "running_var"):
            yield f"encoder.{bn}.{part}", (width,)
    for k in itertools.chain(["_nov"], range(class_count)):
        yield from {f"head{k}.w1": (2 * e, h), f"head{k}.b1": (h,),
                    f"head{k}.w2": (h, 1), f"head{k}.b2": (1,)}.items()


def fit(opt: Adam, epochs: int, loss_fn, phase, rnd) -> float:
    """epochs full-batch Adam steps on the scalar Tensor loss_fn() builds;
    returns the last loss (nan without epochs).

    A non-finite loss, a parameter left non-finite by a step, or a
    ValueError or FloatingPointError inside an epoch raises
    TrainingDivergence naming phase, round and epoch (and the parameter).
    """
    last = float("nan")
    for epoch in range(epochs):
        where = f"phase {phase}, round {rnd}, epoch {epoch}"
        try:
            loss = loss_fn()
            if not np.isfinite(loss.data).all():
                raise TrainingDivergence(f"non-finite loss in {where}")
            opt.zero_grad()
            loss.backward()
            opt.step()
            for name, p in zip(opt.names, opt.params):
                if not np.isfinite(p.data).all():
                    raise TrainingDivergence(
                        f"non-finite parameter {name} after the step in "
                        f"{where}")
        except (ValueError, FloatingPointError) as exc:
            raise TrainingDivergence(
                f"numerical failure in {where}: {exc}") from exc
        last = float(loss.data)
    return last


def train_phase1(state: ModelState, ctx: RunContext, epochs: int) -> float:
    """Margin-loss epochs over the training nodes; returns the final loss.

    Only encoder and disjunction parameters change.
    """
    if not state.config.use_beta_reasoning:
        return float("nan")
    cfg = state.config
    train_labels = ctx.labels[ctx.split.train]

    def loss():
        train_emb = rs.encode(ctx.adj, ctx.propagated_x, state.encoder,
                              training=True, dropout_rate=cfg.dropout_p1,
                              generator=state.rng_p1, rows=ctx.split.train)
        class_embs = rs.build_class_embeddings(train_emb, ctx.class_rows,
                                               state.disjunction)
        return rs.beta_loss(train_emb, train_labels, class_embs, cfg.gamma,
                            include_novel=cfg.learned_prior)

    return fit(state.opt_p1, epochs, loss, 1, state.round)


def frozen_reasoning(state: ModelState, ctx: RunContext):
    """Inference-mode class regions and the node embeddings the heads
    read (propagated once when context propagation is on), detached for
    phase 2 / evaluation."""
    with no_grad():
        emb = rs.encode(ctx.adj, ctx.propagated_x, state.encoder,
                        training=False)
        class_embs = rs.build_class_embeddings(
            ad.take_rows(emb, ctx.split.train), ctx.class_rows,
            state.disjunction)
        if state.config.context_propagation:
            emb = ad.spmm(ctx.adj, emb)
    return class_embs, emb


def phase2_forward(state: ModelState, ctx: RunContext):
    """training -> NodeOpinionBatch for the model's evidence heads, the
    direct head or the Beta heads over class regions frozen here, once:
    every node's opinions, or in training the training nodes', in
    split.train order, with the Beta heads run on the rows R those read
    (RunContext.receptive_field)."""
    cfg, train = state.config, ctx.split.train
    if state.direct is not None:
        return lambda training: ev.direct_evidence_forward(
            ctx.adj, ctx.propagated_x, state.direct, ctx.class_count,
            training=training, dropout_rate=cfg.dropout_p2,
            generator=state.rng_p2, rows=train if training else None)
    class_embs, prop = frozen_reasoning(state, ctx)
    heads = functools.partial(
        ev.evidence_forward, class_embs=class_embs, params=state.heads,
        dropout_rate=cfg.dropout_p2, generator=state.rng_p2,
        propagate=cfg.context_propagation, learned_prior=cfg.learned_prior)
    scale = ctx.adj.row_sums().astype(prop.data.dtype).reshape(-1, 1)

    @functools.cache
    def receptive():                    # on the round's first training epoch
        if not cfg.context_propagation:
            return dict(adj=None, prop=Tensor(prop.data[train]))
        rows, block, block_t = ctx.receptive_field()
        return dict(adj=block, prop=Tensor(prop.data[rows]),
                    row_scale=scale[rows], adj_t=block_t)

    return lambda training: heads(**receptive(), training=True) if training \
        else heads(ctx.adj, prop, row_scale=scale)


def train_phase2(state: ModelState, ctx: RunContext, epochs: int,
                 forward) -> float:
    """Dirichlet-loss epochs for the evidence heads through forward, a
    phase2_forward result; reasoning parameters stay frozen."""
    train_labels = ctx.labels[ctx.split.train]
    return fit(state.opt_p2, epochs,
               lambda: ev.dirichlet_loss(forward(True), train_labels),
               2, state.round)


def forward_scores(state: ModelState, ctx: RunContext,
                   forward=None) -> ev.ScoreBatch:
    """Inference-mode scores for every node, from forward (a
    phase2_forward result) when given."""
    if forward is None:
        forward = phase2_forward(state, ctx)
    with no_grad():
        batch = forward(False)
    return ev.score(batch)


def selection_score(acc, roc, rc) -> float:
    """acc + auroc - 10*aurc; the auroc term is dropped when no
    validation OOD nodes exist."""
    score = acc - 10.0 * rc
    if roc is not None:
        score += roc
    return float(score)


def validation_metrics(state: ModelState, ctx: RunContext, forward):
    split = ctx.split
    sb = forward_scores(state, ctx, forward)
    correct = sb.prediction[split.val] == ctx.labels[split.val]
    acc = accuracy(sb.prediction[split.val], ctx.labels[split.val])
    rc = aurc(-sb.dissonance[split.val], correct)
    roc = None
    if split.ood_val.size:
        roc = auroc(sb.vacuity[split.ood_val], sb.vacuity[split.val])
    return acc, rc, roc


def train_alternating(ctx: RunContext, config: TrainConfig):
    """Run R alternating rounds on ctx, score each on validation, and
    return the model restored to its best snapshot plus the per-round
    history.  ctx must hold its features in config's dtype."""
    px = ctx.propagated_x.data
    if px.dtype != config.np_dtype:
        raise ValueError(f"context features are {px.dtype}, config dtype "
                         f"is {config.dtype}")
    state = init_model(px.shape[1], ctx.class_count, config)
    history = []
    try:
        for r in range(config.rounds):
            state.round = r
            bl = train_phase1(state, ctx, config.epochs_p1)
            # phase 2 and validation share one frozen encoder pass
            forward = phase2_forward(state, ctx)
            dl = train_phase2(state, ctx, config.epochs_p2, forward)
            acc, rc, roc = validation_metrics(state, ctx, forward)
            score = selection_score(acc, roc, rc)
            history.append({"round": r, "bl_loss": bl, "dl_loss": dl,
                            "val_acc": acc, "val_aurc": rc,
                            "val_auroc": float("nan") if roc is None else roc,
                            "selection_score": score})
            if state.best_score is None or score > state.best_score:
                state.best_score = score
                state.best_round = r
                state.best_params = state.snapshot()
    except TrainingDivergence as exc:
        exc.history = history
        raise
    state.load_snapshot(state.best_params)
    return state, history


# -- checkpoint container -------------------------------------------------

CHECKPOINT_VERSION = 1
# config fields older checkpoints record, each with the one value this
# version supports: features are always z-scored, Adam runs with its
# defaults, selection uses acc + auroc - 10 * aurc and splits follow
# graphs.SPLIT_RATIOS (a list, as JSON holds it) and OOD_VAL_FRACTION
RETIRED_FIELDS = {"normalize_features": True, "adam_beta1": 0.9,
                  "adam_beta2": 0.999, "adam_eps": 1e-8,
                  "sel_weight_acc": 1.0, "sel_weight_auroc": 1.0,
                  "sel_weight_aurc": 10.0, "split_ratios": [1, 1, 8],
                  "ood_val_fraction": 0.2}


def save_checkpoint(path, state: ModelState, extra_meta=None):
    """Single .npz holding every tensor by name plus a JSON meta entry."""
    arrays = state.snapshot()
    meta = {"version": CHECKPOINT_VERSION, "config": asdict(state.config),
            "class_count": state.class_count,
            "feature_dim": state.feature_dim,
            "best_round": state.best_round, "best_score": state.best_score}
    if extra_meta:
        meta.update(extra_meta)
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path):
    """Returns (ModelState with loaded parameters, meta dict).

    A file that is not a complete checkpoint, holds a tensor its meta
    does not declare, or holds a non-finite value, raises ValueError
    naming the path and the cause.
    """
    try:
        with np.load(path) as zf:
            arrays = {name: zf[name] for name in zf.files}
    except Exception as exc:
        # zipfile, zlib and numpy's header parser each fail their own way
        # on damaged bytes
        raise ValueError(f"cannot read checkpoint {path}: {exc}") from None
    try:
        meta = json.loads(bytes(arrays.pop("__meta__")).decode("utf-8"))
        if not isinstance(meta, dict):
            raise ValueError("not a JSON object")
        if not isinstance(meta.get("config"), dict):
            raise ValueError("config is not a JSON object")
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported version {meta['version']}")
        cfg_dict = dict(meta["config"])
        for name, only in RETIRED_FIELDS.items():
            value = cfg_dict.pop(name, only)
            # 1 == True in Python, but a switch must be the boolean
            if value != only or \
                    isinstance(value, bool) != isinstance(only, bool):
                raise ValueError(f"{name} is {value!r}; this version "
                                 f"supports only {only!r}")
        config = TrainConfig(**cfg_dict)
        dims = meta["feature_dim"], meta["class_count"]
        for name, value in zip(("feature_dim", "class_count"), dims):
            if _integer(name, value) < 1:
                raise ValueError(f"{name} must be >= 1")
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        cause = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"checkpoint {path} has bad __meta__: {cause}") \
            from None
    # every tensor is checked before the model is allocated
    expected = set()
    for name, shape in parameter_shapes(*dims, config):
        expected.add(name)
        arr = arrays.get(name)
        if arr is None:
            raise ValueError(f"checkpoint {path} is missing tensor '{name}'")
        if arr.dtype.kind != "f":
            raise ValueError(f"checkpoint {path} tensor '{name}' has dtype "
                             f"{arr.dtype}, not a float type")
        if arr.shape != shape:
            raise ValueError(f"checkpoint {path} tensor '{name}' has shape "
                             f"{arr.shape}, model expects {shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"checkpoint {path} tensor '{name}' holds a "
                             "non-finite value")
    extra = sorted(arrays.keys() - expected)
    if extra:
        raise ValueError(f"checkpoint {path} holds tensor '{extra[0]}', which "
                         "its __meta__ does not declare")
    state = init_model(*dims, config)
    state.best_round = meta.get("best_round")
    state.best_score = meta.get("best_score")
    state.load_snapshot(arrays)
    return state, meta

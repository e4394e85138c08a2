"""Two-phase alternating training with validation-driven model selection.

Phase 1 fits the encoder and the disjunction operator with the margin
loss over Beta-KL distances; phase 2 freezes them, rebuilds the class
regions, and fits the evidence heads with the Dirichlet cross-entropy.
Alternating the phases R times refines both sides; after every round the
model is scored on validation as

    acc + auroc - 10 * aurc

and the best-scoring snapshot is returned.  One loop, fit, runs the
epochs of both phases and of the evaluation baseline.

Everything is full batch and deterministic: parameter init and the two
dropout streams are independent substreams of the config seed.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autodiff as ad
from . import evidence as ev
from . import reasoning as rs
from .autodiff import Adam, Tensor, no_grad
from .graphs import (Graph, SplitSpec, make_split, normalize_adjacency,
                     remap_labels)
from .metrics import accuracy, aurc, auroc
from .rng import substream


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
    # split construction (see split)
    ood_classes: tuple = ()
    split_ratios: tuple = (1, 1, 8)
    ood_val_fraction: float = 0.2

    def __post_init__(self):
        for name, low in (("epochs_p1", 0), ("epochs_p2", 0), ("rounds", 1),
                          ("seed", 0), ("hidden_dim", 1), ("embed_dim", 1),
                          ("reasoning_dim", 1)):
            if _integer(name, getattr(self, name)) < low:
                raise ValueError(f"{name} must be >= {low}")
        for name in ("lr_p1", "lr_p2", "gamma"):
            if _real(name, getattr(self, name)) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("dropout_p1", "dropout_p2", "ood_val_fraction"):
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
        ratios = self.split_ratios
        if not isinstance(ratios, (tuple, list)) or len(ratios) != 3:
            raise TypeError("split_ratios must be three numbers")
        if any(_real("split_ratios", r) <= 0 for r in ratios):
            raise ValueError("split_ratios must be positive")
        # lists from config files and JSON metadata are held as tuples
        self.ood_classes = tuple(self.ood_classes)
        self.split_ratios = tuple(ratios)

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)

    def split(self, graph: Graph, seed=None) -> SplitSpec:
        """The leave-out split of graph under this config's OOD classes,
        ratios and OOD validation fraction, drawn with seed (by default
        the config's)."""
        return make_split(graph, self.ood_classes, ratios=self.split_ratios,
                          ood_val_fraction=self.ood_val_fraction,
                          seed=self.seed if seed is None else seed)


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
    """Everything about a (graph, split) pair the loops reuse."""
    graph: Graph
    split: SplitSpec
    adj: object                     # normalized adjacency
    x: Tensor                       # (n, F) features, constant
    propagated_x: Tensor            # adj @ x, constant
    labels: np.ndarray              # remapped: ID classes 0..K-1, OOD -1
    class_count: int
    class_train_idx: list           # train node ids per remapped class


def build_context(graph: Graph, split: SplitSpec, config: TrainConfig) -> RunContext:
    adj = normalize_adjacency(graph)
    labels = remap_labels(graph, split)
    k = len(split.id_classes)
    x = Tensor(graph.features.astype(config.np_dtype))
    with no_grad():
        px = ad.spmm(adj, x)
    class_train_idx = [split.train[labels[split.train] == c]
                       for c in range(k)]
    for c, idx in enumerate(class_train_idx):
        if idx.size == 0:
            raise ValueError(f"class {split.id_classes[c]} has no training nodes")
    return RunContext(graph=graph, split=split, adj=adj, x=x,
                      propagated_x=px, labels=labels, class_count=k,
                      class_train_idx=class_train_idx)


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
        out = {}
        if self.encoder is not None:
            out.update(self.encoder.tensors())
            out.update(self.disjunction.tensors())
        return out

    def phase2_tensors(self) -> dict:
        if self.direct is not None:
            return self.direct.tensors()
        return self.heads.tensors()

    def all_tensors(self) -> dict:
        return {**self.phase1_tensors(), **self.phase2_tensors()}

    def running_stats(self) -> dict:
        if self.encoder is None:
            return {}
        return {
            "encoder.bn1.running_mean": self.encoder.bn1.running_mean,
            "encoder.bn1.running_var": self.encoder.bn1.running_var,
            "encoder.bn2.running_mean": self.encoder.bn2.running_mean,
            "encoder.bn2.running_var": self.encoder.bn2.running_var,
        }

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
    state.opt_p1 = Adam(state.phase1_tensors().values(), lr=config.lr_p1)
    state.opt_p2 = Adam(state.phase2_tensors().values(), lr=config.lr_p2)
    state.rng_p1 = substream(config.seed, 1)
    state.rng_p2 = substream(config.seed, 2)
    return state


def fit(opt: Adam, epochs: int, loss_fn, phase, rnd) -> float:
    """epochs full-batch Adam steps on the scalar Tensor loss_fn() builds;
    returns the last loss (nan without epochs).

    A non-finite loss, or a ValueError or FloatingPointError inside an
    epoch, raises TrainingDivergence naming phase, round and epoch.
    """
    last = float("nan")
    for epoch in range(epochs):
        try:
            loss = loss_fn()
            if not np.isfinite(loss.data).all():
                raise TrainingDivergence(
                    f"non-finite loss in phase {phase}, round {rnd}, "
                    f"epoch {epoch}")
            opt.zero_grad()
            loss.backward()
            opt.step()
        except (ValueError, FloatingPointError) as exc:
            raise TrainingDivergence(
                f"numerical failure in phase {phase}, round {rnd}, "
                f"epoch {epoch}: {exc}") from exc
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
    # class regions come from the gathered training rows: one (m, 2d)
    # gather per epoch instead of one per class out of (n, 2d)
    class_rows = [np.flatnonzero(train_labels == c)
                  for c in range(ctx.class_count)]

    def loss():
        emb = rs.encode(ctx.adj, ctx.x, state.encoder, training=True,
                        dropout_rate=cfg.dropout_p1, generator=state.rng_p1,
                        propagated_x=ctx.propagated_x)
        train_emb = ad.take_rows(emb, ctx.split.train)
        del emb         # the tape holds it until backward, no longer
        class_embs = rs.build_class_embeddings(train_emb, class_rows,
                                               state.disjunction)
        return rs.beta_loss(train_emb, train_labels, class_embs, cfg.gamma,
                            include_novel=cfg.learned_prior)

    return fit(state.opt_p1, epochs, loss, 1, state.round)


def frozen_reasoning(state: ModelState, ctx: RunContext):
    """Inference-mode node embeddings, class regions, and the propagated
    embedding matrix, all detached for phase 2 / evaluation."""
    with no_grad():
        emb = rs.encode(ctx.adj, ctx.x, state.encoder, training=False,
                        update_running=False, propagated_x=ctx.propagated_x)
        class_embs = rs.build_class_embeddings(emb, ctx.class_train_idx,
                                               state.disjunction)
        prop = ad.spmm(ctx.adj, emb) if state.config.context_propagation else None
    return emb, class_embs, prop


def _phase2_forward(state: ModelState, ctx: RunContext):
    """training -> NodeOpinionBatch for the model's evidence heads, the
    direct head or the Beta heads over class regions frozen here, once."""
    cfg = state.config
    if state.direct is not None:
        return lambda training: ev.direct_evidence_forward(
            ctx.adj, ctx.propagated_x, state.direct, ctx.class_count,
            training=training, dropout_rate=cfg.dropout_p2,
            generator=state.rng_p2)
    emb, class_embs, prop = frozen_reasoning(state, ctx)
    return lambda training: ev.evidence_forward(
        ctx.adj, emb, class_embs, state.heads, training=training,
        dropout_rate=cfg.dropout_p2, generator=state.rng_p2,
        propagate=cfg.context_propagation, learned_prior=cfg.learned_prior,
        propagated_nodes=prop)


def train_phase2(state: ModelState, ctx: RunContext, epochs: int,
                 forward=None) -> float:
    """Dirichlet-loss epochs for the evidence heads; reasoning parameters
    stay frozen.  forward is a _phase2_forward result to reuse; without
    one the class regions are rebuilt once at entry."""
    if epochs == 0:
        return float("nan")
    forward = forward or _phase2_forward(state, ctx)
    return fit(state.opt_p2, epochs,
               lambda: ev.dirichlet_loss(forward(True), ctx.labels,
                                         ctx.split.train),
               2, state.round)


def forward_scores(state: ModelState, ctx: RunContext,
                   forward=None) -> ev.ScoreBatch:
    """Inference-mode scores for every node, from forward (a
    _phase2_forward result) when given."""
    if forward is None:
        forward = _phase2_forward(state, ctx)
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


def validation_metrics(state: ModelState, ctx: RunContext, forward=None):
    split = ctx.split
    sb = forward_scores(state, ctx, forward)
    correct = sb.prediction[split.val] == ctx.labels[split.val]
    acc = accuracy(sb.prediction[split.val], ctx.labels[split.val])
    rc = aurc(-sb.dissonance[split.val], correct)
    roc = None
    if split.ood_val.size:
        roc = auroc(sb.vacuity[split.ood_val], sb.vacuity[split.val])
    return acc, rc, roc


def train_alternating(graph: Graph, split: SplitSpec, config: TrainConfig,
                      ctx: RunContext = None):
    """Run R alternating rounds, score each on validation, and return the
    model restored to its best snapshot plus the per-round history."""
    ctx = ctx or build_context(graph, split, config)
    state = init_model(graph.feature_dim, ctx.class_count, config)
    history = []
    try:
        for r in range(config.rounds):
            state.round = r
            bl = train_phase1(state, ctx, config.epochs_p1)
            # phase 2 and validation share one frozen encoder pass
            forward = _phase2_forward(state, ctx)
            dl = train_phase2(state, ctx, config.epochs_p2, forward)
            acc, rc, roc = validation_metrics(state, ctx, forward)
            score = selection_score(acc, roc, rc)
            history.append({
                "round": r,
                "bl_loss": bl,
                "dl_loss": dl,
                "val_acc": acc,
                "val_aurc": rc,
                "val_auroc": float("nan") if roc is None else roc,
                "selection_score": score,
            })
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
# defaults and selection uses acc + auroc - 10 * aurc
RETIRED_FIELDS = {"normalize_features": True, "adam_beta1": 0.9,
                  "adam_beta2": 0.999, "adam_eps": 1e-8,
                  "sel_weight_acc": 1.0, "sel_weight_auroc": 1.0,
                  "sel_weight_aurc": 10.0}


def save_checkpoint(path, state: ModelState, extra_meta=None):
    """Single .npz holding every tensor by name plus a JSON meta entry."""
    arrays = {name: t.data for name, t in state.all_tensors().items()}
    arrays.update(state.running_stats())
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(state.config),
        "class_count": state.class_count,
        "feature_dim": state.feature_dim,
        "best_round": state.best_round,
        "best_score": state.best_score,
        "dtypes": {name: str(a.dtype) for name, a in arrays.items()},
        "shapes": {name: list(a.shape) for name, a in arrays.items()},
    }
    if extra_meta:
        meta.update(extra_meta)
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path):
    """Returns (ModelState with loaded parameters, meta dict).

    A file that is not a complete checkpoint, or holds a non-finite
    value, raises ValueError naming the path and the cause.
    """
    try:
        with np.load(path) as zf:
            arrays = {name: zf[name] for name in zf.files}
    except (zipfile.BadZipFile, EOFError, TypeError, ValueError) as exc:
        raise ValueError(f"cannot read checkpoint {path}: {exc}") from None
    try:
        meta = json.loads(bytes(arrays.pop("__meta__")).decode("utf-8"))
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
        state = init_model(meta["feature_dim"], meta["class_count"], config)
    except (KeyError, TypeError, ValueError) as exc:
        cause = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"checkpoint {path} has bad __meta__: {cause}") \
            from None
    state.best_round = meta.get("best_round")
    state.best_score = meta.get("best_score")
    expected = {name: t.data for name, t in state.all_tensors().items()}
    expected.update(state.running_stats())
    for name, ref in expected.items():
        if name not in arrays:
            raise ValueError(f"checkpoint {path} is missing tensor '{name}'")
        if arrays[name].shape != ref.shape:
            raise ValueError(
                f"checkpoint tensor '{name}' has shape "
                f"{arrays[name].shape}, model expects {ref.shape}"
            )
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"checkpoint {path} tensor '{name}' holds a "
                             "non-finite value")
    state.load_snapshot(arrays)
    return state, meta

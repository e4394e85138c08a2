"""Report assembly for the three tasks, multi-seed protocol, baselines.

Task conventions:

  IDC   accuracy of predictions on the in-distribution test nodes;
  MD    risk-coverage area with confidence = -dissonance (primary), plus
        AUROC/AUPR where positives are the misclassified test nodes
        scored by dissonance;
  OODD  FPR95 / AUROC / AUPR with the vacuity score, in-distribution test
        nodes against held-out-class test nodes.

Everything here reads a training.RunContext built once per split:
evaluate and curves score forward_scores output on its test partitions,
and the baseline trains on its features in its dtype.  protocol_run is
one protocol seed (split -> context -> train -> score -> evaluate);
run_protocol prepares the graph once (training.PreparedGraph) and
repeats it over a seed list, aggregating mean and standard deviation per
metric, the usual report-five-runs convention.
The direct head's graph network, trained with plain cross entropy
(evidence.direct_logits and cross_entropy, one tape node each), provides
MaxLogit and Energy comparison scores.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import evidence as ev
from . import metrics as mt
from .autodiff import Adam, Tensor, no_grad
from .graphs import Graph, SplitSpec
from .rng import substream
from .evidence import ScoreBatch
from .training import (PreparedGraph, RunContext, TrainConfig,
                       build_context, fit, forward_scores, prepare_graph,
                       train_alternating)


@dataclass
class EvalReport:
    seed: int
    acc: float
    aurc: float
    aurc_x1000: float
    fpr95: float = None
    auroc: float = None
    aupr: float = None
    md_auroc: float = None
    md_aupr: float = None
    wall_clock: float = None
    config_hash: str = None
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        """The fields in order, then the extras."""
        out = asdict(self)
        out.update(out.pop("extras"))
        return out


METRIC_FIELDS = ("acc", "aurc", "aurc_x1000", "fpr95", "auroc", "aupr",
                 "md_auroc", "md_aupr")


def evaluate(scores: ScoreBatch, ctx: RunContext, *, seed,
             config_hash=None) -> EvalReport:
    """Report the three tasks of forward_scores output on the context's
    test partitions; the caller sets wall_clock."""
    sb, split, labels = scores, ctx.split, ctx.labels
    test = split.test
    correct = sb.prediction[test] == labels[test]
    acc = mt.accuracy(sb.prediction[test], labels[test])
    rc = mt.aurc(-sb.dissonance[test], correct)

    report = EvalReport(seed=seed, acc=acc, aurc=rc, aurc_x1000=1000.0 * rc,
                        config_hash=config_hash)
    if np.any(correct) and np.any(~correct):
        report.md_auroc = mt.auroc(sb.dissonance[test][~correct],
                                   sb.dissonance[test][correct])
        report.md_aupr = mt.aupr(sb.dissonance[test][~correct],
                                 sb.dissonance[test][correct])
    if split.has_ood:
        vac_id = sb.vacuity[test]
        vac_ood = sb.vacuity[split.ood_test]
        report.fpr95 = mt.fpr_at_tpr(vac_id, vac_ood)
        report.auroc = mt.auroc(vac_ood, vac_id)
        report.aupr = mt.aupr(vac_ood, vac_id)
    return report


def aggregate(reports) -> dict:
    """Mean and std per metric over per-seed reports (absent values skipped)."""
    out = {"seeds": [r.seed for r in reports], "runs": len(reports)}
    for name in METRIC_FIELDS:
        vals = [getattr(r, name) for r in reports if getattr(r, name) is not None]
        arr = np.asarray(vals, dtype=np.float64)
        out[f"{name}_mean"] = float(arr.mean()) if vals else None
        out[f"{name}_std"] = float(arr.std()) if vals else None
    return out


def protocol_run(graph: PreparedGraph, config: TrainConfig,
                 chash) -> EvalReport:
    """One protocol run on graph (prepared in config's dtype) under
    config, whose seed draws the split and seeds training.  wall_clock
    covers context, training and scoring; the best round and its
    selection score ride along as extras."""
    split = config.split(graph)
    t0 = time.perf_counter()
    ctx = build_context(graph, split, config)
    state, _ = train_alternating(ctx, config)
    rep = evaluate(forward_scores(state, ctx), ctx, seed=config.seed,
                   config_hash=chash)
    rep.wall_clock = time.perf_counter() - t0
    rep.extras["best_round"] = state.best_round
    rep.extras["selection_score"] = state.best_score
    return rep


def run_protocol(graph: Graph, ood_classes, config: TrainConfig, seeds,
                 progress=None):
    """protocol_run per seed on graph, prepared once, each leaving out
    ood_classes; returns (reports, aggregate)."""
    reports = []
    chash = config_hash(config)
    graph = prepare_graph(graph, config.np_dtype)
    for s in seeds:
        cfg = replace(config, ood_classes=tuple(ood_classes), seed=int(s))
        rep = protocol_run(graph, cfg, chash)
        reports.append(rep)
        if progress is not None:
            progress(rep)
    return reports, aggregate(reports)


def config_hash(config: TrainConfig) -> str:
    """Stable digest of a config (seed excluded: it names the run, not
    the experiment)."""
    payload = {k: v for k, v in asdict(config).items() if k != "seed"}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def curves(scores: ScoreBatch, ctx: RunContext):
    """Plot-ready risk-coverage and ROC curves of forward_scores output on
    the context's test partitions."""
    split = ctx.split
    test = split.test
    correct = scores.prediction[test] == ctx.labels[test]
    coverage, risk = mt.risk_coverage_curve(-scores.dissonance[test], correct)
    out = {"risk_coverage": (coverage, risk)}
    if split.has_ood:
        out["roc"] = mt.roc_curve(scores.vacuity[split.ood_test],
                                  scores.vacuity[test])
    return out


def node_scores_table(scores: ScoreBatch, split: SplitSpec):
    """Header and columns of the per-node rows: node_id, prediction,
    dissonance, vacuity, p_0..p_{K-1}.

    Predictions are reported as original dataset class ids.
    """
    preds = np.asarray(split.id_classes, dtype=np.int64)[scores.prediction]
    k = scores.probability.shape[1]
    header = ["node_id", "prediction", "dissonance", "vacuity"] + \
        [f"p_{i}" for i in range(k)]
    return header, [np.arange(preds.size), preds, scores.dissonance,
                    scores.vacuity, *scores.probability.T]


# -- plain cross-entropy classifier for MaxLogit / Energy -------------------

def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the rows of logits, labelled in order by labels, of
    logsumexp(row) - row[label], the logsumexp with the usual max shift.
    One tape node, whose VJP replays the per-op composition's
    (tests/oracles.py) expressions: with t the mean's gradient,
    t / sum(exp) * exp from the logsumexp plus -t * onehot from the
    picked logit."""
    x = logits.data
    onehot = np.zeros_like(x)
    onehot[np.arange(x.shape[0]), labels] = 1.0
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=1, keepdims=True)
    lse = (np.log(s) + m).reshape(-1)

    def grads(upstream):
        t = upstream.pop() / x.shape[0]
        return ((t / s) * e + -t * onehot,)

    return ad.fused_node((lse - (x * onehot).sum(axis=1)).mean(), (logits,),
                         grads)


def train_baseline(ctx: RunContext, *, lr=0.01, epochs=200, seed=0):
    """The direct head's graph network (64 hidden units, dropout 0.5, the
    context's dtype) trained with cross_entropy on the split's training
    nodes, two tape nodes per epoch; returns (its parameters, logits over
    all nodes)."""
    adj, px, train = ctx.adj, ctx.propagated_x, ctx.split.train
    model = ev.init_direct_head(substream(seed, 10), px.data.shape[1], 64,
                                ctx.class_count, px.data.dtype)
    drop = substream(seed, 11)

    def loss():
        return cross_entropy(ev.direct_logits(
            adj, px, model, dropout_rate=0.5, generator=drop, rows=train),
            ctx.labels[train])

    fit(Adam(model.tensors("direct"), lr=lr), epochs, loss, "baseline", 0)
    with no_grad():
        logits = ev.direct_logits(adj, px, model)
    return model, logits.data


def baseline_report(ctx: RunContext, seed=0, epochs=200) -> dict:
    """OODD metrics for the MaxLogit and Energy scores of the plain
    classifier (markers for the uncertainty-based pipeline to beat)."""
    _, logits = train_baseline(ctx, seed=seed, epochs=epochs)
    maxlogit, energy = mt.baseline_scores(logits)
    labels_pred = logits.argmax(axis=1)
    labels, split = ctx.labels, ctx.split
    test = split.test
    correct = labels_pred[test] == labels[test]
    out = {"acc": mt.accuracy(labels_pred[test], labels[test])}
    for name, score in (("maxlogit", maxlogit), ("energy", energy)):
        out[f"{name}_md_aurc"] = mt.aurc(-score[test], correct)
        if split.has_ood:
            out[f"{name}_fpr95"] = mt.fpr_at_tpr(score[test],
                                                 score[split.ood_test])
            out[f"{name}_auroc"] = mt.auroc(score[split.ood_test], score[test])
            out[f"{name}_aupr"] = mt.aupr(score[split.ood_test], score[test])
    return out

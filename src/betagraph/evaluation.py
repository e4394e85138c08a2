"""Report assembly for the three tasks, multi-seed protocol, baselines.

Task conventions:

  IDC   accuracy of predictions on the in-distribution test nodes;
  MD    risk-coverage area with confidence = -dissonance (primary), plus
        AUROC/AUPR where positives are the misclassified test nodes
        scored by dissonance;
  OODD  FPR95 / AUROC / AUPR with the vacuity score, in-distribution test
        nodes against held-out-class test nodes.

run_protocol repeats split -> train -> evaluate over a seed list and
aggregates mean and standard deviation per metric, mirroring the usual
report-five-runs convention.  The direct head's graph network, trained
with plain cross entropy, provides MaxLogit and Energy comparison scores.
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
from .autodiff import Adam, no_grad
from .graphs import Graph, SplitSpec, remap_labels
from .rng import substream
from .evidence import ScoreBatch
from .training import (ModelState, RunContext, TrainConfig, build_context,
                       fit, forward_scores, train_alternating)


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


def evaluate(state: ModelState, graph: Graph, split: SplitSpec,
             ctx: RunContext = None, seed=None, config_hash=None,
             scores=None) -> EvalReport:
    """Score a trained model on its split's test partitions.

    scores: forward_scores(state, ctx) when the caller already has them.
    """
    t0 = time.perf_counter()
    ctx = ctx or build_context(graph, split, state.config)
    sb = forward_scores(state, ctx) if scores is None else scores
    test = split.test
    labels = ctx.labels
    correct = sb.prediction[test] == labels[test]
    acc = mt.accuracy(sb.prediction[test], labels[test])
    rc = mt.aurc(-sb.dissonance[test], correct)

    report = EvalReport(
        seed=state.config.seed if seed is None else seed,
        acc=acc, aurc=rc, aurc_x1000=1000.0 * rc,
        config_hash=config_hash,
    )
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
    report.wall_clock = time.perf_counter() - t0
    return report


def aggregate(reports) -> dict:
    """Mean and std per metric over per-seed reports (absent values skipped)."""
    out = {"seeds": [r.seed for r in reports], "runs": len(reports)}
    for name in METRIC_FIELDS:
        vals = [getattr(r, name) for r in reports if getattr(r, name) is not None]
        if not vals:
            out[f"{name}_mean"] = None
            out[f"{name}_std"] = None
            continue
        arr = np.asarray(vals, dtype=np.float64)
        out[f"{name}_mean"] = float(arr.mean())
        out[f"{name}_std"] = float(arr.std())
    return out


def run_protocol(graph: Graph, ood_classes, config: TrainConfig, seeds,
                 progress=None):
    """split -> train -> evaluate per seed; returns (reports, aggregate).

    Each seed drives both the split construction, which leaves out
    ood_classes, and the training run.
    """
    reports = []
    chash = config_hash(config)
    for s in seeds:
        cfg = replace(config, ood_classes=tuple(ood_classes), seed=int(s))
        split = cfg.split(graph)
        t0 = time.perf_counter()
        state, _ = train_alternating(graph, split, cfg)
        rep = evaluate(state, graph, split, seed=int(s), config_hash=chash)
        rep.wall_clock = time.perf_counter() - t0
        rep.extras["best_round"] = state.best_round
        rep.extras["selection_score"] = state.best_score
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


def curves(scores: ScoreBatch, ctx: RunContext, split: SplitSpec):
    """Plot-ready risk-coverage and ROC curves from forward_scores output."""
    test = split.test
    correct = scores.prediction[test] == ctx.labels[test]
    coverage, risk = mt.risk_coverage_curve(-scores.dissonance[test], correct)
    out = {"risk_coverage": (coverage, risk)}
    if split.has_ood:
        out["roc"] = mt.roc_curve(scores.vacuity[split.ood_test],
                                  scores.vacuity[test])
    return out


def repr_column(values):
    """CSV cells of a float array: repr of each value, the round-trip form."""
    return map(repr, values.tolist())


def csv_lines(columns):
    """CSV lines of a table given as columns of string cells."""
    return list(map(",".join, zip(*columns)))


def node_scores_table(scores: ScoreBatch, split: SplitSpec):
    """Header and CSV lines of the per-node rows: node_id, prediction,
    dissonance, vacuity, p_0..p_{K-1}.

    Predictions are reported as original dataset class ids.
    """
    id_classes = np.asarray(split.id_classes, dtype=np.int64)
    preds = id_classes[scores.prediction]
    k = scores.probability.shape[1]
    header = ["node_id", "prediction", "dissonance", "vacuity"] + \
        [f"p_{i}" for i in range(k)]
    columns = [map(str, range(preds.size)), map(str, preds.tolist()),
               repr_column(scores.dissonance), repr_column(scores.vacuity)]
    columns += [repr_column(col) for col in scores.probability.T]
    return header, csv_lines(columns)


# -- plain cross-entropy classifier for MaxLogit / Energy -------------------

def train_baseline(graph: Graph, split: SplitSpec, *, lr=0.01, epochs=200,
                   seed=0):
    """The direct head's graph network (float32, 64 hidden units, dropout
    0.5) trained with cross entropy on the split's training nodes; returns
    (its parameters, logits over all nodes)."""
    ctx = build_context(graph, split, TrainConfig())
    adj, px, k = ctx.adj, ctx.propagated_x, ctx.class_count
    dt = px.data.dtype
    model = ev.init_direct_head(substream(seed, 10), graph.feature_dim,
                                64, k, dt)
    drop = substream(seed, 11)
    train_idx = split.train
    onehot = np.zeros((train_idx.size, k), dtype=dt)
    onehot[np.arange(train_idx.size), ctx.labels[train_idx]] = 1.0

    def loss():
        logits = ad.take_rows(ev.direct_logits(
            adj, px, model, training=True, dropout_rate=0.5,
            generator=drop), train_idx)
        lse = ad.logsumexp(logits, axis=1)
        picked = ad.tsum(ad.mul(logits, onehot), axis=1)
        return ad.tmean(ad.sub(lse, picked))

    fit(Adam(model.tensors(), lr=lr), epochs, loss, "baseline", 0)
    with no_grad():
        logits = ev.direct_logits(adj, px, model)
    return model, logits.data


def baseline_report(graph: Graph, split: SplitSpec, seed=0, epochs=200) -> dict:
    """OODD metrics for the MaxLogit and Energy scores of the plain
    classifier (markers for the uncertainty-based pipeline to beat)."""
    _, logits = train_baseline(graph, split, seed=seed, epochs=epochs)
    maxlogit, energy = mt.baseline_scores(logits)
    labels_pred = logits.argmax(axis=1)
    labels = remap_labels(graph, split)
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

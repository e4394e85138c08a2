"""Selective-classification and OOD-detection metrics.

Conventions (shared by every consumer):

  * anomaly-style scores are oriented so that HIGHER means more
    OOD / more uncertain;
  * auroc(pos, neg) is the Mann-Whitney statistic
    P(score_pos > score_neg) + 0.5 P(equal);
  * fpr_at_tpr treats the in-distribution samples as the positives that
    are detected by a LOW score, picks the smallest cutoff whose ID
    acceptance rate reaches the target, and reports the fraction of OOD
    samples at or below it;
  * aurc sorts by confidence descending (ties by original index), takes
    risk(i) = errors among the i most confident over i, and averages over
    all prefixes.

The ranking metrics cost O(n log n): one stable sort of the pooled
scores, then cumulative counts of positives and negatives.  Equal
scores form one tie group and share one threshold, so roc_curve, aupr
and auroc read this sweep only at the last index of each group (every
sample scoring >= the group's value is counted).  auroc is the
trapezoid area under the sweep in counts, which is the Mann-Whitney U;
aupr adds its trapezoids left to right, in threshold order.

Each metric has a brute-force oracle twin in the test suite.
"""

from __future__ import annotations

import numpy as np


def accuracy(predictions, labels) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.size == 0:
        raise ValueError("accuracy over an empty selection")
    return float(np.mean(predictions == labels))


def aurc(confidence, correct) -> float:
    """Mean risk over confidence-ranked prefixes (lower is better)."""
    if np.size(confidence) == 0:
        raise ValueError("aurc needs at least one sample")
    return float(risk_coverage_curve(confidence, correct)[1].mean())


def risk_coverage_curve(confidence, correct):
    """(coverage, risk) points for every prefix, plot-ready."""
    confidence = np.asarray(confidence, dtype=np.float64)
    correct = np.asarray(correct, dtype=bool)
    n = confidence.size
    order = np.argsort(-confidence, kind="stable")
    errors = ~correct[order]
    coverage = np.arange(1, n + 1) / n
    risk = np.cumsum(errors) / np.arange(1, n + 1)
    return coverage, risk


def _group_ends(sx):
    """Last index of each run of equal values in a sorted array."""
    if sx.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.append(np.flatnonzero(sx[1:] != sx[:-1]), sx.size - 1)


def _descending_counts(scores_pos, scores_neg):
    """(tp, fp): positives and negatives scoring >= t, for every distinct
    score t in descending order."""
    scores = np.concatenate([scores_pos, scores_neg])
    order = np.argsort(scores, kind="stable")[::-1]
    is_pos = order < scores_pos.size
    ends = _group_ends(scores[order])
    tp = np.cumsum(is_pos)[ends]
    fp = np.cumsum(~is_pos)[ends]
    return tp, fp


def auroc(scores_pos, scores_neg) -> float:
    scores_pos = np.asarray(scores_pos, dtype=np.float64)
    scores_neg = np.asarray(scores_neg, dtype=np.float64)
    if scores_pos.size == 0 or scores_neg.size == 0:
        raise ValueError("auroc needs samples on both sides")
    tp, fp = _descending_counts(scores_pos, scores_neg)
    # each group's trapezoid, doubled: the negatives it adds times the
    # positives before it plus those after it, integer counts, so the
    # sum is exact in any order and U = twice_u / 2 is exact too
    twice_u = np.diff(fp, prepend=0) @ (tp + np.append(0, tp[:-1]))
    return float(twice_u / 2 / (scores_pos.size * scores_neg.size))


def roc_curve(scores_pos, scores_neg):
    """(fpr, tpr) over all thresholds, descending, with the (0,0) endpoint."""
    scores_pos = np.asarray(scores_pos, dtype=np.float64)
    scores_neg = np.asarray(scores_neg, dtype=np.float64)
    tp, fp = _descending_counts(scores_pos, scores_neg)
    fpr = np.concatenate([[0.0], fp / scores_neg.size])
    tpr = np.concatenate([[0.0], tp / scores_pos.size])
    return fpr, tpr


def fpr_at_tpr(scores_id, scores_ood, tpr_target=0.95) -> float:
    """Fraction of OOD on the ID side of the smallest cutoff accepting
    >= tpr_target of the ID samples (ID accepted when score <= cutoff)."""
    scores_id = np.asarray(scores_id, dtype=np.float64)
    scores_ood = np.asarray(scores_ood, dtype=np.float64)
    if scores_id.size == 0 or scores_ood.size == 0:
        raise ValueError("fpr_at_tpr needs samples on both sides")
    k = int(np.ceil(tpr_target * scores_id.size))
    cutoff = np.sort(scores_id)[k - 1]
    return float(np.mean(scores_ood <= cutoff))


def aupr(scores_pos, scores_neg) -> float:
    """Area under precision-recall by trapezoid over all thresholds."""
    scores_pos = np.asarray(scores_pos, dtype=np.float64)
    scores_neg = np.asarray(scores_neg, dtype=np.float64)
    if scores_pos.size == 0 or scores_neg.size == 0:
        raise ValueError("aupr needs samples on both sides")
    tp, fp = _descending_counts(scores_pos, scores_neg)
    recalls = np.concatenate([[0.0], tp / scores_pos.size])
    precisions = tp / (tp + fp)
    precisions = np.concatenate([precisions[:1], precisions])  # at recall 0
    terms = (recalls[1:] - recalls[:-1]) * 0.5 * \
        (precisions[1:] + precisions[:-1])
    # cumsum adds left to right like a loop; np.sum would pair terms up
    return float(np.cumsum(terms)[-1])


def baseline_scores(logits):
    """Post-hoc OOD scores from classifier logits (higher = more OOD).

    maxlogit = -max_k z_k; energy = -log sum_k e^{z_k}.
    """
    logits = np.asarray(logits, dtype=np.float64)
    maxlogit = -logits.max(axis=-1)
    m = logits.max(axis=-1, keepdims=True)
    energy = -(np.log(np.exp(logits - m).sum(axis=-1)) + m.ravel())
    return maxlogit, energy

"""Metric implementations against brute-force oracles.

The oracles recompute each metric from its definition with no shared
code: pairwise enumeration for auroc, per-prefix recounts for aurc, and
exhaustive threshold sweeps for fpr95/aupr/roc_curve.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betagraph import metrics as mt


# -- independent oracles -------------------------------------------------

def auroc_oracle(pos, neg):
    wins = ties = 0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1
            elif p == q:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def aurc_oracle(confidence, correct):
    order = np.argsort(-np.asarray(confidence), kind="stable")
    risks = []
    for i in range(1, len(order) + 1):
        top = order[:i]
        risks.append(np.mean([not correct[j] for j in top]))
    return float(np.mean(risks))


def fpr_oracle(scores_id, scores_ood, tpr_target=0.95):
    candidates = np.unique(np.concatenate([scores_id, scores_ood]))
    for c in np.sort(candidates):
        tpr = np.mean(scores_id <= c)
        if tpr >= tpr_target:
            return float(np.mean(scores_ood <= c))
    return 1.0


def aupr_oracle(pos, neg):
    thresholds = np.unique(np.concatenate([pos, neg]))[::-1]
    pts = []
    for t in thresholds:
        tp = np.sum(pos >= t)
        fp = np.sum(neg >= t)
        pts.append((tp / len(pos), tp / (tp + fp)))
    recalls = [0.0] + [r for r, _ in pts]
    precs = [pts[0][1]] + [p for _, p in pts]
    return float(sum((recalls[i] - recalls[i - 1])
                     * 0.5 * (precs[i] + precs[i - 1])
                     for i in range(1, len(recalls))))


def roc_oracle(pos, neg):
    fpr, tpr = [0.0], [0.0]
    for t in sorted(set(pos) | set(neg), reverse=True):
        tpr.append(sum(1 for p in pos if p >= t) / len(pos))
        fpr.append(sum(1 for q in neg if q >= t) / len(neg))
    return np.asarray(fpr), np.asarray(tpr)


def random_instance(rng, allow_ties=True):
    n_p = int(rng.integers(1, 33))
    n_n = int(rng.integers(1, 33))
    if allow_ties and rng.random() < 0.5:
        pool = rng.integers(0, 8, size=n_p + n_n).astype(float)
    else:
        pool = rng.standard_normal(n_p + n_n)
    return pool[:n_p], pool[n_p:]


# -- accuracy ------------------------------------------------------------

class TestAccuracy:
    def test_all_correct(self):
        assert mt.accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_half(self):
        assert mt.accuracy([1, 0], [1, 1]) == 0.5

    def test_mask(self):
        preds = np.array([1, 0, 1, 0])
        labels = np.array([1, 1, 1, 1])
        assert mt.accuracy(preds, labels, mask=np.array([0, 2])) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mt.accuracy(np.array([]), np.array([]))

    def test_matches_bruteforce_count(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            preds = rng.integers(0, 3, n)
            labels = rng.integers(0, 3, n)
            assert mt.accuracy(preds, labels) == \
                sum(int(p == l) for p, l in zip(preds, labels)) / n


# -- aurc ------------------------------------------------------------------

class TestAurc:
    def test_all_correct_is_zero(self):
        assert mt.aurc([0.5, 0.9, 0.1], [True, True, True]) == 0.0

    def test_two_sample_example(self):
        assert mt.aurc([0.9, 0.8], [True, False]) == pytest.approx(0.25)

    def test_matches_oracle_on_200_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 65))
            conf = rng.standard_normal(n)
            if rng.random() < 0.4:
                conf = rng.integers(0, 5, n).astype(float)
            correct = rng.random(n) < 0.7
            assert mt.aurc(conf, correct) == pytest.approx(
                aurc_oracle(conf, correct), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        conf = rng.standard_normal(40)
        correct = rng.random(40) < 0.6
        base = mt.aurc(conf, correct)
        assert mt.aurc(3 * conf + 7, correct) == pytest.approx(base, abs=1e-12)
        assert mt.aurc(np.exp(conf), correct) == pytest.approx(base, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        conf = rng.standard_normal(30)
        correct = rng.random(30) < 0.5
        base = mt.aurc(conf, correct)
        perm = rng.permutation(30)
        assert mt.aurc(conf[perm], correct[perm]) == pytest.approx(base, abs=1e-12)

    def test_risk_coverage_curve(self):
        cov, risk = mt.risk_coverage_curve([0.9, 0.8], [True, False])
        assert np.array_equal(cov, [0.5, 1.0])
        assert np.array_equal(risk, [0.0, 0.5])


# -- auroc ----------------------------------------------------------------

class TestAuroc:
    def test_perfect_separation(self):
        assert mt.auroc([0.8, 0.9], [0.1, 0.2]) == 1.0

    def test_pairwise_example(self):
        assert mt.auroc([0.5, 0.9], [0.1, 0.8]) == pytest.approx(0.75)

    def test_identical_multisets(self):
        assert mt.auroc([0.3, 0.7], [0.3, 0.7]) == 0.5

    def test_exactly_matches_pairwise_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            pos, neg = random_instance(rng)
            assert mt.auroc(pos, neg) == auroc_oracle(pos, neg)

    def test_complement_identity_tie_free(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pos, neg = random_instance(rng, allow_ties=False)
            assert mt.auroc(pos, neg) + mt.auroc(neg, pos) == \
                pytest.approx(1.0, abs=1e-12)

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            mt.auroc([], [0.1])


# -- fpr at tpr -------------------------------------------------------------

class TestFprAtTpr:
    def test_perfectly_separated(self):
        assert mt.fpr_at_tpr([0.1, 0.2, 0.3], [0.9, 1.1]) == 0.0

    def test_all_identical_degenerate(self):
        assert mt.fpr_at_tpr([1.0, 1.0], [1.0, 1.0, 1.0]) == 1.0

    def test_matches_sweep_oracle_on_200_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            sid, sod = random_instance(rng)
            assert mt.fpr_at_tpr(sid, sod) == pytest.approx(
                fpr_oracle(sid, sod), abs=1e-12)

    def test_other_targets(self):
        # cutoff for 50% acceptance of 0..99 is 49; one of two OOD is below
        sid = np.arange(100, dtype=float)
        sod = np.array([48.5, 200.0])
        assert mt.fpr_at_tpr(sid, sod, tpr_target=0.5) == 0.5


# -- aupr -------------------------------------------------------------------

class TestAupr:
    def test_perfect_separation(self):
        assert mt.aupr([2.0, 3.0], [0.0, 1.0]) == 1.0

    def test_random_scores_approach_positive_fraction(self):
        rng = np.random.default_rng(7)
        pos = rng.standard_normal(2000)
        neg = rng.standard_normal(8000)
        assert mt.aupr(pos, neg) == pytest.approx(0.2, abs=0.05)

    def test_matches_sweep_oracle_on_200_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            pos, neg = random_instance(rng)
            assert mt.aupr(pos, neg) == pytest.approx(
                aupr_oracle(pos, neg), abs=1e-12)

    def test_exactly_matches_sweep_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            pos, neg = random_instance(rng)
            assert mt.aupr(pos, neg) == aupr_oracle(pos, neg)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        pos, neg = rng.standard_normal(30), rng.standard_normal(20)
        base = mt.aupr(pos, neg)
        assert mt.aupr(rng.permutation(pos), rng.permutation(neg)) == \
            pytest.approx(base, abs=1e-12)


# -- roc curve ---------------------------------------------------------------

class TestRocCurve:
    def test_two_by_two_example(self):
        fpr, tpr = mt.roc_curve([0.9, 0.5], [0.8, 0.1])
        assert np.array_equal(fpr, [0.0, 0.0, 0.5, 0.5, 1.0])
        assert np.array_equal(tpr, [0.0, 0.5, 0.5, 1.0, 1.0])

    def test_tie_across_sides_is_one_step(self):
        fpr, tpr = mt.roc_curve([0.5, 0.2], [0.5])
        assert np.array_equal(fpr, [0.0, 1.0, 1.0])
        assert np.array_equal(tpr, [0.0, 0.5, 1.0])

    def test_exactly_matches_sweep_oracle_on_200_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            pos, neg = random_instance(rng)
            fpr, tpr = mt.roc_curve(pos, neg)
            fpr_o, tpr_o = roc_oracle(pos, neg)
            assert np.array_equal(fpr, fpr_o) and np.array_equal(tpr, tpr_o)


# -- post-hoc baseline scores -------------------------------------------------

class TestBaselineScores:
    def test_confident_logits_less_ood(self):
        ml, en = mt.baseline_scores(np.array([[10.0, 0.0, 0.0],
                                              [1.0, 0.0, 0.0]]))
        assert ml[0] < ml[1]
        assert en[0] < en[1]

    def test_uniform_logits_energy(self):
        k = 4
        ml, en = mt.baseline_scores(np.zeros((1, k)))
        assert en[0] == pytest.approx(-np.log(k))

    def test_energy_shift_identity(self):
        rng = np.random.default_rng(10)
        z = rng.standard_normal((20, 5))
        _, e0 = mt.baseline_scores(z)
        _, e1 = mt.baseline_scores(z + 3.0)
        assert e1 == pytest.approx(e0 - 3.0, abs=1e-12)

    def test_overflow_safe(self):
        _, en = mt.baseline_scores(np.array([[1000.0, 999.0]]))
        assert np.isfinite(en).all()


@given(st.lists(st.floats(min_value=-50, max_value=50,
                          allow_nan=False), min_size=1, max_size=20),
       st.lists(st.floats(min_value=-50, max_value=50,
                          allow_nan=False), min_size=1, max_size=20))
@settings(max_examples=60)
def test_auroc_bounds_property(pos, neg):
    v = mt.auroc(pos, neg)
    assert 0.0 <= v <= 1.0

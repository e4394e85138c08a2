import json

import numpy as np
import pytest

from betagraph import evaluation as evl
from betagraph import graphs
from betagraph import training as tr
from betagraph.ioutil import write_csv
from conftest import quick_config


@pytest.fixture(scope="module")
def trained(small_ppm_module):
    g, split = small_ppm_module
    cfg = quick_config(epochs_p1=25, epochs_p2=25, rounds=2)
    ctx = tr.build_context(g, split, cfg)
    state, _ = tr.train_alternating(ctx, cfg)
    return g, ctx, state


def report(state, ctx):
    return evl.evaluate(tr.forward_scores(state, ctx), ctx,
                        seed=state.config.seed)


@pytest.fixture(scope="module")
def small_ppm_module():
    g = graphs.zscore_features(
        graphs.gen_planted_partition(4, 40, 0.15, 0.01, 8, 3.0, seed=11))
    return g, graphs.make_split(g, ood_classes=(3,), seed=2)


class TestEvaluate:
    def test_fields_present_and_in_range(self, trained):
        g, ctx, state = trained
        rep = report(state, ctx)
        assert 0 <= rep.acc <= 1
        assert 0 <= rep.aurc <= 1
        assert rep.aurc_x1000 == pytest.approx(1000 * rep.aurc)
        assert 0 <= rep.fpr95 <= 1
        assert 0 <= rep.auroc <= 1
        assert 0 <= rep.aupr <= 1

    def test_no_ood_split_reports_absent(self, small_ppm_module):
        g, _ = small_ppm_module
        split = graphs.make_split(g, (), seed=1)
        cfg = quick_config(ood_classes=(), epochs_p1=5, epochs_p2=5, rounds=1)
        ctx = tr.build_context(g, split, cfg)
        state, _ = tr.train_alternating(ctx, cfg)
        rep = report(state, ctx)
        assert rep.fpr95 is None and rep.auroc is None and rep.aupr is None
        assert rep.acc >= 0

    def test_json_serializable(self, trained):
        g, ctx, state = trained
        text = json.dumps(report(state, ctx).to_dict())
        assert '"acc"' in text


class TestAggregate:
    def test_mean_std_match_hand_computation(self):
        reports = [evl.EvalReport(seed=s, acc=a, aurc=r, aurc_x1000=1000 * r,
                                  fpr95=f, auroc=u, aupr=p)
                   for s, (a, r, f, u, p) in enumerate([
                       (0.9, 0.02, 0.1, 0.95, 0.9),
                       (0.8, 0.04, 0.2, 0.85, 0.8),
                       (1.0, 0.00, 0.0, 1.00, 1.0)])]
        agg = evl.aggregate(reports)
        accs = np.array([0.9, 0.8, 1.0])
        assert agg["acc_mean"] == pytest.approx(accs.mean())
        assert agg["acc_std"] == pytest.approx(accs.std())
        rocs = np.array([0.95, 0.85, 1.0])
        assert agg["auroc_mean"] == pytest.approx(rocs.mean())
        assert agg["runs"] == 3

    def test_single_seed_zero_std(self):
        rep = evl.EvalReport(seed=0, acc=0.9, aurc=0.01, aurc_x1000=10.0,
                             fpr95=0.1, auroc=0.9, aupr=0.9)
        agg = evl.aggregate([rep])
        assert agg["acc_std"] == 0.0
        assert agg["auroc_std"] == 0.0

    def test_absent_metrics_skipped(self):
        rep = evl.EvalReport(seed=0, acc=0.9, aurc=0.01, aurc_x1000=10.0)
        agg = evl.aggregate([rep])
        assert agg["fpr95_mean"] is None


class TestRunProtocol:
    def test_two_seed_protocol(self, small_ppm_module):
        g, _ = small_ppm_module
        cfg = quick_config(epochs_p1=10, epochs_p2=10, rounds=1)
        reports, agg = evl.run_protocol(g, (3,), cfg, seeds=[0, 1])
        assert len(reports) == 2
        assert reports[0].seed == 0 and reports[1].seed == 1
        assert agg["runs"] == 2
        assert all(r.wall_clock > 0 for r in reports)
        vals = [r.acc for r in reports]
        assert agg["acc_mean"] == pytest.approx(np.mean(vals))
        assert agg["acc_std"] == pytest.approx(np.std(vals))


class TestCurvesAndScores:
    def test_curves_shapes(self, trained):
        g, ctx, state = trained
        split = ctx.split
        cv = evl.curves(tr.forward_scores(state, ctx), ctx)
        coverage, risk = cv["risk_coverage"]
        assert coverage.size == split.test.size
        assert risk.size == coverage.size
        fpr, tpr = cv["roc"]
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0
        assert np.all(np.diff(fpr) >= 0) and np.all(np.diff(tpr) >= 0)

    def test_node_scores_table(self, trained, tmp_path):
        g, ctx, state = trained
        path = tmp_path / "scores.csv"
        write_csv(path, *evl.node_scores_table(tr.forward_scores(state, ctx),
                                               ctx.split))
        header, *lines = path.read_text().splitlines()
        header = header.split(",")
        rows = [line.split(",") for line in lines]
        assert header[:4] == ["node_id", "prediction", "dissonance", "vacuity"]
        assert header[4:] == ["p_0", "p_1", "p_2"]
        assert len(rows) == g.n
        # predictions reported in original label space (class 3 never predicted)
        preds = {int(r[1]) for r in rows}
        assert preds <= {0, 1, 2}
        probs = np.array([[float(v) for v in r[4:]] for r in rows])
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-5


class TestSharedScores:
    def test_passed_scores_give_the_same_report(self, trained):
        """Scores on the shared context report as on a rebuilt one."""
        g, ctx, state = trained
        sb = tr.forward_scores(state, ctx)
        again = tr.build_context(g, ctx.split, state.config)
        fresh = report(state, again).to_dict()
        shared = evl.evaluate(sb, ctx, seed=state.config.seed).to_dict()
        fresh.pop("wall_clock")
        shared.pop("wall_clock")
        assert shared == fresh


class TestBaselines:
    def test_baseline_report_fields(self, small_ppm_module):
        g, split = small_ppm_module
        ctx = tr.build_context(g, split, tr.TrainConfig())
        out = evl.baseline_report(ctx, seed=0, epochs=80)
        for key in ("acc", "maxlogit_auroc", "energy_auroc", "maxlogit_fpr95",
                    "energy_fpr95", "maxlogit_aupr", "energy_aupr"):
            assert key in out
        assert out["acc"] > 0.5
        assert 0 <= out["energy_auroc"] <= 1

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_baseline_trains_in_context_dtype(self, small_ppm_module, dtype):
        g, split = small_ppm_module
        ctx = tr.build_context(g, split, tr.TrainConfig(dtype=dtype))
        model, logits = evl.train_baseline(ctx, epochs=2)
        assert logits.dtype == dtype and model.w1.data.dtype == dtype

    def test_baseline_divergence_named(self, small_ppm_module):
        g, split = small_ppm_module
        ctx = tr.build_context(g, split, tr.TrainConfig())
        with np.errstate(all="ignore"):
            with pytest.raises(tr.TrainingDivergence,
                               match=r"phase baseline, round 0, epoch \d+"):
                evl.train_baseline(ctx, lr=1e30, epochs=20)

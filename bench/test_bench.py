"""Tests of the benchmark's own code: span arithmetic, absent targets, and
a toy-size run of every workload through the same code path as the
benchmark (run_workload), untraced and traced."""

import dataclasses
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer, layer_metrics, layer_table  # noqa: E402


def _benchmark_names(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[section]}


# -- span arithmetic ----------------------------------------------------------

def _tree():
    """cli [0, 10] > phase1 [1, 7] (2 epochs) > backward [2, 6] > lgamma
    [3, 4] and lgamma [4.5, 5]; cli > sha256_dir [8, 9] > sha256_file
    [8.2, 8.7]; a second, recursive backward inside the first one."""
    return [
        Span("cli", 0.0, 10.0, -1, 0, 0),
        Span("training.train_phase1", 1.0, 7.0, 0, 2, 300),
        Span("autodiff.backward", 2.0, 6.0, 1, 0, 0),
        Span("special.lgamma", 3.0, 4.0, 2, 50, 0),
        Span("special.lgamma", 4.5, 5.0, 2, 30, 0),
        Span("autodiff.backward", 5.2, 5.6, 2, 0, 0),
        Span("ioutil.sha256_dir", 8.0, 9.0, 0, 0, 0),
        Span("ioutil.sha256_file", 8.2, 8.7, 6, 0, 0),
    ]


def test_self_time_subtracts_direct_children():
    table = layer_table(_tree())
    assert table["cli"]["self"] == pytest.approx(10 - 6 - 1)
    assert table["training.train_phase1"]["self"] == pytest.approx(6 - 4)
    # 4 - (1 + 0.5 + 0.4) for the outer call plus 0.4 for the inner one
    assert table["autodiff.backward"]["self"] == pytest.approx(2.1 + 0.4)
    assert table["special.lgamma"]["self"] == pytest.approx(1.5)
    assert table["special.lgamma"]["calls"] == 2
    assert table["special.lgamma"]["work"] == 80


def test_inclusive_time_counts_recursion_once():
    table = layer_table(_tree())
    assert table["autodiff.backward"]["incl"] == pytest.approx(4.0)
    assert table["autodiff.backward"]["calls"] == 2


def test_layer_metrics_from_tree():
    m = layer_metrics(_tree())
    assert m["training.phase1_epoch_ms"] == pytest.approx(6000 / 2)
    assert m["autodiff.tensors_p1_epoch"] == pytest.approx(150)
    assert m["autodiff.backward.self_ms"] == pytest.approx(2500)
    assert m["special.lgamma.elements"] == 80
    assert m["ioutil.sha256.self_ms"] == pytest.approx(1000)
    assert m["cli.self_ms"] == pytest.approx(3000)
    assert m["trace.coverage"] == pytest.approx(0.7)
    # layers the tree never reached read 0
    assert m["metrics.aupr.self_ms"] == 0
    assert m["training.phase2_epoch_ms"] == 0


# -- installation -------------------------------------------------------------

def test_absent_targets_are_reported_not_raised():
    from betagraph import metrics, training

    original = metrics.auroc
    targets = (
        ("metrics", "auroc", "metrics.auroc", None),
        ("metrics", "no_such_metric", "metrics.no_such_metric", None),
        ("no_such_module", "f", "no_such_module.f", None),
        ("autodiff", "NoSuchClass.step", "autodiff.x", None),
        ("autodiff", "Adam.no_such_method", "autodiff.y", None),
    )
    tracer = Tracer(targets=targets, counted=("autodiff", "Tensor.nope"))
    with tracer:
        assert tracer.absent == ["metrics.no_such_metric", "no_such_module.f",
                                 "autodiff.NoSuchClass.step",
                                 "autodiff.Adam.no_such_method",
                                 "autodiff.Tensor.nope"]
        assert metrics.auroc is not original
        # the name imported into training is wrapped as well
        assert training.auroc is metrics.auroc
        assert metrics.auroc([2.0], [1.0]) == 1.0
    assert metrics.auroc is original and training.auroc is original
    assert [s.label for s in tracer.spans] == ["metrics.auroc"]


def test_every_default_target_exists():
    with Tracer() as tracer:
        assert tracer.absent == []


def test_methods_and_counter_are_restored():
    from betagraph import autodiff

    backward = autodiff.Tensor.__dict__["backward"]
    init = autodiff.Tensor.__dict__["__init__"]
    with Tracer() as tracer:
        x = autodiff.Tensor([1.0, 2.0], requires_grad=True)
        autodiff.tsum(autodiff.mul(x, x)).backward()
    assert autodiff.Tensor.__dict__["backward"] is backward
    assert autodiff.Tensor.__dict__["__init__"] is init
    assert tracer.tensors >= 3
    assert [s.label for s in tracer.spans] == ["autodiff.backward"]
    assert list(x.grad) == [2.0, 4.0]


# -- toy-size workloads -------------------------------------------------------

def _toy(name):
    return dataclasses.replace(harness.WORKLOADS[name], er_nodes=400,
                               er_density=0.02, rounds=1, epochs_p1=2,
                               epochs_p2=2, setup_repeats=2)


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_toy_workload_untraced(tmp_path, name):
    result, details = harness.run_workload(_toy(name), seed=3, seconds=0,
                                           trace=False,
                                           work_dir=str(tmp_path / name),
                                           log=lambda msg: None)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == _benchmark_names("end_to_end")
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert all(math.isfinite(v) and v >= 0 for v in values.values())
    assert all(values[k] > 0 for k in ("setup_s", "command_s", "peak_rss_mb"))
    # the peak is the measured command's own, read in its child process
    assert values["peak_rss_mb"] == details["peak_rss_mb"][0]
    # one measured command: set-up ran twice, plus setup_between before it
    assert len(details["setup_s"]) == 2 + _toy(name).setup_between
    assert details["inputs"]["n"] == (1200 if name.startswith("ppm6") else 400)


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_toy_workload_traced(tmp_path, name):
    result, details = harness.run_workload(_toy(name), seed=3, seconds=0,
                                           trace=True,
                                           work_dir=str(tmp_path / name),
                                           log=lambda msg: None)
    # the traced run reproduced the untraced outputs, else a command failed
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == _benchmark_names("per_layer")
    assert result["metrics"]["trace.absent_targets"]["value"] == 0
    assert 0 < result["metrics"]["trace.coverage"]["value"] <= 1
    assert len(details["traced_s"]) == 1
    with open(tmp_path / name / "spans.csv") as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "label,start,end,parent,work,tensors" and len(rows) > 1


def test_failed_check_counts_and_yields_no_timing(tmp_path, monkeypatch):
    def broken(paths):
        raise harness.CheckFailed("injected")

    monkeypatch.setattr(harness, "check_eval_outputs", broken)
    result, details = harness.run_workload(_toy("er-eval"), seed=3, seconds=0,
                                           trace=False,
                                           work_dir=str(tmp_path / "w"),
                                           log=lambda msg: None)
    assert not result["correct"]
    assert result["failed"] == 1
    assert details["command_s"] == []
    assert result["metrics"] == {}


def test_span_wrapper_passes_exceptions_through():
    def boom(x):
        raise ValueError(x)

    tracer = Tracer(targets=())
    wrapped = tracer._span_wrapper("boom", boom, tracing._elements)
    with pytest.raises(ValueError):
        wrapped([1, 2, 3])
    assert tracer.spans[0].label == "boom" and tracer.spans[0].work == 3
    assert tracer._stack == []
    assert tracer.absent == []


def test_unreadable_work_count_is_reported_not_raised():
    # _epochs reads args[2]: a target called with fewer arguments than it
    # expects stands for a signature that changed under the tracer
    tracer = Tracer(targets=())
    wrapped = tracer._span_wrapper("training.train_phase1", lambda x: x + 1,
                                   tracing._epochs)
    assert wrapped(1) == 2 and wrapped(2) == 3
    assert [s.work for s in tracer.spans] == [0, 0]
    assert tracer.absent == ["training.train_phase1 (work count)"]

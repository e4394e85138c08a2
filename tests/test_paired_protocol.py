"""The statistics of scripts/paired_protocol.py on fixed differences (the
protocol runs themselves take half an hour and are not run here)."""

import importlib.util
import os
import time

import numpy as np
import pytest

from conftest import REPO_ROOT


@pytest.fixture(scope="module")
def tool():
    path = os.path.join(REPO_ROOT, "scripts", "paired_protocol.py")
    spec = importlib.util.spec_from_file_location("paired_protocol", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sign_test_counts_nonzero_differences(tool):
    # 15 of 20 up: two-sided exact p = 2 * sum_{k>=15} C(20, k) / 2^20
    _, _, _, p = tool.paired_stats([0.01] * 15 + [-0.02] * 5)
    assert p == pytest.approx(2 * 21700 / 2 ** 20, rel=1e-12)
    # zeros drop out: 3 up and 2 down of 5
    _, _, _, p = tool.paired_stats([0.0] * 15 + [1.0] * 3 + [-1.0] * 2)
    assert p == 1.0
    assert tool.paired_stats(np.zeros(20)) == (0.0, 0.0, 0.0, 1.0)


def test_bootstrap_interval(tool):
    diff = np.arange(20.0)
    mean, lo, hi, _ = tool.paired_stats(diff)
    assert mean == 9.5
    assert tool.paired_stats(diff)[:3] == (mean, lo, hi)  # fixed generator
    # about the normal interval, 1.96 standard errors either side
    half = 1.96 * diff.std() / np.sqrt(diff.size)
    assert lo < mean < hi
    assert abs((hi - lo) / 2 - half) < 0.1 * half
    assert tool.paired_stats([0.25] * 20)[1:3] == (0.25, 0.25)


def test_verdict(tool):
    reference = tool.paired_stats([0.01, -0.03] * 10)     # mean -0.01
    centred = tool.paired_stats([0.005, -0.004] * 10)
    shifted = tool.paired_stats([0.001] * 18 + [-0.001] * 2)
    large = tool.paired_stats([0.05, -0.01] * 10)       # mean 0.02
    assert tool.passes(centred, reference)
    assert centred[3] > 0.05 and shifted[3] < 0.05
    assert not tool.passes(shifted, reference)          # p <= 0.05
    assert not tool.passes(large, reference)            # beyond the reference


def test_statistics_are_quick(tool):
    """The CPU seconds of the statistics themselves, not the wall time,
    which also counts the host's other work."""
    t0 = time.process_time()
    for seed in range(10):
        tool.paired_stats(np.random.default_rng(seed).standard_normal(20))
    assert time.process_time() - t0 < 0.5


def test_takes_two_checkout_roots(tool, monkeypatch):
    monkeypatch.setattr(tool.sys, "argv", ["paired_protocol.py", "--seeds"])
    with pytest.raises(SystemExit, match="Usage"):
        tool.main()

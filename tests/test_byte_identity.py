"""The comparison of scripts/byte_identity.py on small run trees (the
runs themselves take minutes and are not made here)."""

import importlib.util
import json
import os

import numpy as np
import pytest

from conftest import REPO_ROOT


@pytest.fixture(scope="module")
def tool():
    path = os.path.join(REPO_ROOT, "scripts", "byte_identity.py")
    spec = importlib.util.spec_from_file_location("byte_identity", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(root, *, wall_clock=1.0, w=None, manifest="a"):
    """A run tree like one seed's: a checkpoint, a history, a report and
    a manifest."""
    run = root / "seed0" / "ppm6" / "train"
    run.mkdir(parents=True)
    w = np.linspace(0.1, 1.0, 6, dtype=np.float32) if w is None else w
    meta = np.frombuffer(b'{"version": 1}', dtype=np.uint8)
    np.savez(run / "checkpoint.npz", w=w, __meta__=meta)
    (run / "history.csv").write_text("round,bl_loss\n0,0.5\n")
    (run / "report.json").write_text(json.dumps(
        {"per_seed": [{"acc": 0.9, "wall_clock": wall_clock}]}))
    (run / "manifest.json").write_text(manifest)
    return root


def test_equal_trees_ignore_wall_clock_and_manifests(tool, tmp_path):
    base = write_run(tmp_path / "base")
    head = write_run(tmp_path / "head", wall_clock=7.5, manifest="b")
    results = tool.compare(base, head)
    assert [rel for rel, _ in results] == [
        os.path.join("seed0", "ppm6", "train", f)
        for f in ("checkpoint.npz", "history.csv", "report.json")]
    assert all(diff is None for _, diff in results)


def test_one_ulp_in_a_tensor_is_caught(tool, tmp_path):
    w = np.linspace(0.1, 1.0, 6, dtype=np.float32)
    bumped = w.copy()
    bumped[3] = np.nextafter(bumped[3], np.float32(2))
    base = write_run(tmp_path / "base", w=w)
    head = write_run(tmp_path / "head", w=bumped)
    diffs = {os.path.basename(rel): diff
             for rel, diff in tool.compare(base, head)}
    assert diffs["checkpoint.npz"] == "tensor w differs"
    assert diffs["history.csv"] is None and diffs["report.json"] is None


def test_reports_and_missing_files_differ(tool, tmp_path):
    base = write_run(tmp_path / "base")
    head = write_run(tmp_path / "head")
    run = head / "seed0" / "ppm6" / "train"
    (run / "report.json").write_text(json.dumps(
        {"per_seed": [{"acc": 0.8, "wall_clock": 1.0}]}))
    (run / "extra.csv").write_text("x\n")
    diffs = {os.path.basename(rel): diff
             for rel, diff in tool.compare(base, head)}
    assert diffs["report.json"] == "report differs beyond wall_clock"
    assert diffs["extra.csv"] == "only in HEAD"

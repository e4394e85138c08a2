"""The scripts under scripts/ parse their arguments: --help prints usage
and exits 0, an unknown flag exits 2, and neither writes anything."""

import json
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

SCRIPTS = ("make_ppm6.py", "run_ppm6_experiment.py", "scale_sweep.py")


@pytest.mark.parametrize("script", SCRIPTS)
@pytest.mark.parametrize("flag,code", [("--help", 0), ("--no-such-flag", 2)])
def test_arguments_are_parsed(tmp_path, script, flag, code):
    path = os.path.join(REPO_ROOT, "scripts", script)
    # a script that ignored its flags would write a dataset or run the
    # 5-seed protocol, which takes minutes
    done = subprocess.run([sys.executable, path, flag], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stderr
    usage = done.stdout if code == 0 else done.stderr
    assert usage.startswith(f"usage: {script}")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("held", ["run", "base", "head"])
def test_byte_identity_refuses_a_used_work_directory(tmp_path, held):
    """byte_identity.py --work DIR exits 2 before running anything when
    DIR already holds run, base or head (renaming a run onto one of them
    would fail only after the BASE side's minutes)."""
    work = tmp_path / "work"
    (work / held).mkdir(parents=True)
    path = os.path.join(REPO_ROOT, "scripts", "byte_identity.py")
    done = subprocess.run([sys.executable, path, str(tmp_path / "no_base"),
                           str(tmp_path / "no_head"), "--work", str(work)],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 2, done.stderr
    assert f"--work {work} already holds {held}" in done.stderr
    assert sorted(os.listdir(work)) == [held]
    assert os.listdir(work / held) == []


def test_scale_sweep_writes_every_point(tmp_path):
    """scale_sweep.py runs betagraph scale once per n at mean degree 20
    and writes each point's row, with its peak memory, to one JSON."""
    path = os.path.join(REPO_ROOT, "scripts", "scale_sweep.py")
    out = tmp_path / "sweep.json"
    done = subprocess.run([sys.executable, path, str(out), "--nodes", "300",
                           "200"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text())
    points = result["points"]
    assert [p["nodes"] for p in points] == [200, 300]
    for p in points:
        assert p["status"] == "ok" and p["peak_rss_mb"] > 0
        assert p["density"] == pytest.approx(20 / (p["nodes"] - 1))
    assert result["kib_per_node_between_largest"] is not None
    assert result["environment"]["numpy"]
    assert os.listdir(tmp_path) == ["sweep.json"]

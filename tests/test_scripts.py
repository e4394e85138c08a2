"""The scripts under scripts/ parse their arguments: --help prints usage
and exits 0, an unknown flag exits 2, and neither writes anything."""

import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

SCRIPTS = ("make_ppm6.py", "run_ppm6_experiment.py")


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

"""cli.tune_allocator: training stops faulting its heap back in after every
epoch, importing the library leaves the allocator alone, and the helper is
a no-op without glibc's mallopt."""

import ctypes
import os
import subprocess
import sys

import pytest

from betagraph import cli, sparse

# minor-fault bytes allowed over 10 ppm6 epochs; with glibc's dynamic
# thresholds the freed tape is trimmed and faulted back in, about 3.6 MB
# per epoch
FAULT_BUDGET = 4 * 2**20

# Ten bench-model ppm6 epochs after three of warm-up, in a fresh process:
# glibc's dynamic thresholds follow the process's allocation history, so
# in the test process they depend on the tests that ran before.
FAULT_PROBE = """
import resource
from betagraph import cli, graphs
from betagraph import training as tr
if not cli.tune_allocator():
    raise SystemExit(3)
g = graphs.zscore_features(graphs.gen_ppm6())
cfg = tr.TrainConfig(seed=0, ood_classes=graphs.PPM6_OOD_CLASSES,
                     dtype="float32", hidden_dim=64, embed_dim=32,
                     reasoning_dim=64)
ctx = tr.build_context(g, cfg.split(g), cfg)
state = tr.init_model(g.feature_dim, ctx.class_count, cfg)

def epochs(k):
    tr.train_phase1(state, ctx, k)
    tr.train_phase2(state, ctx, k, tr.phase2_forward(state, ctx))

epochs(3)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
epochs(5)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults, faults * resource.getpagesize())
"""


def run_probe(script):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)


def test_epochs_reuse_freed_heap():
    probe = run_probe(FAULT_PROBE)
    if probe.returncode == 3:
        pytest.skip("glibc mallopt is not available")
    assert probe.returncode == 0, probe.stderr
    faults, faulted = map(int, probe.stdout.split())
    assert faulted < FAULT_BUDGET, \
        f"{faults} minor faults ({faulted / 2**20:.1f} MiB) over 10 epochs"


# Peak RSS, in KiB, of three phase-2 epochs on an ER graph of n=2e4 whose
# heads run in the worker threads, pinned to one CPU when PIN is set.
# Measured on 2 vCPUs: 134.3 MB pinned, 138.7 MB on two workers, and
# 186 MB on two workers without the one-arena cap, as each worker thread
# otherwise keeps freed memory in an arena of its own.
ARENA_PROBE = """
import os, resource
from betagraph import cli, graphs, sparse
from betagraph import training as tr
if not cli.tune_allocator():
    raise SystemExit(3)
if PIN:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
g = graphs.zscore_features(graphs.gen_erdos_renyi(20000, 1.5e-3, 16, 0,
                                                  class_count=6))
cfg = tr.TrainConfig(seed=0, ood_classes=(4, 5), dtype="float32",
                     hidden_dim=64, embed_dim=32, reasoning_dim=64)
ctx = tr.build_context(g, cfg.split(g), cfg)
state = tr.init_model(g.feature_dim, ctx.class_count, cfg)
tr.train_phase2(state, ctx, 3, tr.phase2_forward(state, ctx))
print(sparse.workers(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
ARENA_BUDGET_KIB = 8 * 1024


@pytest.mark.skipif(sparse.workers() < 2, reason="needs two CPUs")
def test_worker_threads_reuse_the_main_heap():
    peaks = {}
    for pin in (True, False):
        probe = run_probe(f"PIN = {pin}" + ARENA_PROBE)
        if probe.returncode == 3:
            pytest.skip("glibc mallopt is not available")
        assert probe.returncode == 0, probe.stderr
        workers, peaks[pin] = map(int, probe.stdout.split())
        assert workers == 1 if pin else workers >= 2
    assert peaks[False] - peaks[True] < ARENA_BUDGET_KIB, \
        f"peak RSS {peaks[True] / 1024:.1f} MB on one CPU, " \
        f"{peaks[False] / 1024:.1f} MB on {workers}"


IMPORT_PROBE = """
import sys
looked_up = []
sys.addaudithook(lambda event, args: looked_up.append(args[1])
                 if event == "ctypes.dlsym" else None)
import betagraph, betagraph.cli
print("mallopt" in looked_up, end=" ")
betagraph.cli.tune_allocator()
print("mallopt" in looked_up)
"""


def test_import_does_not_tune_allocator():
    """Importing betagraph and betagraph.cli looks up no mallopt; the
    helper itself does (where glibc is present), so the probe sees it."""
    probe = run_probe(IMPORT_PROBE)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == ["False", str(cli.tune_allocator())]


def test_silent_without_mallopt(monkeypatch, capsys):
    class NoMallopt:
        def __init__(self, name):
            pass

    monkeypatch.setattr(ctypes, "CDLL", NoMallopt)
    assert cli.tune_allocator() is False

    def unloadable(name):
        raise OSError("no such library")

    monkeypatch.setattr(ctypes, "CDLL", unloadable)
    assert cli.tune_allocator() is False
    assert capsys.readouterr() == ("", "")

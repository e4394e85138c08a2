#!/usr/bin/env python3
"""Byte identity: do two checkouts write the same outputs?

Usage: python scripts/byte_identity.py BASE HEAD [--seeds 0 1] [--work DIR]

BASE and HEAD are checkout roots (each with src/betagraph).  For each
seed, each checkout runs these betagraph commands, every one in a child
process with PYTHONPATH=<root>/src and BLAS on one thread:

  - the frozen ppm6 graph: synth, train (2 rounds of 60+60 epochs,
    float32, H=64, d=32, D=64, OOD classes 4 5), eval --with-baselines,
    and eval --seeds S S+1 (the checkpoint's seed S, then a protocol
    run that retrains for S+1 on the same graph);
  - the same model in float64 on ppm6 (its dropout draws take the
    float64 path): train (1 round of 20+20 epochs) and eval;
  - the bench's ER graph (n=5e4, p=4e-4, 6 classes, 16 features, the
    seed as graph seed): synth, train (1 round of 2+2 epochs), eval;
  - ablate --variants a b c d e on ppm6 (2 rounds of 20+20 epochs).

Both checkouts run in the same directory, one after the other, so the
paths a checkpoint records agree.  Then every file one of them wrote
is compared with its twin, except manifest.json (times and hashes of
its inputs): a checkpoint tensor by tensor by name (dtype, shape and
bytes) with its __meta__, report.json as JSON less wall_clock, and
every other file byte for byte.  One line per file; exit 1 on any
difference.  Last comes each command's peak resident memory in both
checkouts, as os.wait4 reports it for the child.  It takes a few
minutes on two cores.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WIDTHS = ["--hidden-dim", "64", "--embed-dim", "32", "--reasoning-dim", "64",
          "--ood-classes", "4", "5"]
MODEL = ["--dtype", "float32", *WIDTHS]
PPM6 = ["synth", "ppm", "--blocks", "6", "--nodes-per-block", "200",
        "--p-in", "0.05", "--p-out", "0.002", "--feature-dim", "16",
        "--separation", "3.0", "--seed", "60601", "--out", "ppm6/data"]
SKIPPED = ("manifest.json",)


def commands(seed):
    """The betagraph argument lists of one seed, run in order."""
    s = str(seed)

    def train(graph, rounds, epochs, dtype="float32", out="train"):
        return ["train", f"{graph}/data", "--out", f"{graph}/{out}",
                "--seed", s, "--rounds", str(rounds), "--epochs-p1",
                str(epochs), "--epochs-p2", str(epochs), "--dtype", dtype,
                *WIDTHS]

    def evaluate(graph, *extra, out="eval", trained="train"):
        return ["eval", f"{graph}/data", "--checkpoint",
                f"{graph}/{trained}/checkpoint.npz", "--split",
                f"{graph}/{trained}/split.json", "--out", f"{graph}/{out}",
                *extra]

    return [PPM6, train("ppm6", 2, 60), evaluate("ppm6", "--with-baselines"),
            evaluate("ppm6", "--seeds", s, str(seed + 1), out="eval_seeds"),
            train("ppm6", 1, 20, "float64", out="train64"),
            evaluate("ppm6", out="eval64", trained="train64"),
            ["synth", "er", "--nodes", "50000", "--density", "0.0004",
             "--classes", "6", "--feature-dim", "16", "--seed", s,
             "--out", "er/data"],
            train("er", 1, 2), evaluate("er"),
            ["ablate", "ppm6/data", "--variants", "a", "b", "c", "d", "e",
             "--out", "ablate", "--seed", s, "--rounds", "2",
             "--epochs-p1", "20", "--epochs-p2", "20", *MODEL]]


def run(root, seeds, run_dir):
    """Run every command of every seed; returns the peak resident memory
    of each child in MB, by (seed, command index)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               **{name: "1" for name in ONE_THREAD})
    peaks = {}
    for seed in seeds:
        cwd = os.path.join(run_dir, f"seed{seed}")
        os.makedirs(cwd)
        for i, argv in enumerate(commands(seed)):
            cmd = [sys.executable, "-m", "betagraph", *argv]
            child = subprocess.Popen(cmd, cwd=cwd, env=env,
                                     stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
            if child.returncode:
                raise subprocess.CalledProcessError(child.returncode, cmd)
            peaks[seed, i] = usage.ru_maxrss / 1024     # KiB on Linux
    return peaks


def _without_wall_clock(value):
    if isinstance(value, dict):
        return {k: _without_wall_clock(v) for k, v in value.items()
                if k != "wall_clock"}
    if isinstance(value, list):
        return [_without_wall_clock(v) for v in value]
    return value


def _npz_difference(a, b):
    with np.load(a) as za, np.load(b) as zb:
        if sorted(za.files) != sorted(zb.files):
            odd = sorted(set(za.files) ^ set(zb.files))
            return f"tensor names differ: {odd}"
        for name in sorted(za.files):
            x, y = za[name], zb[name]
            if x.dtype != y.dtype or x.shape != y.shape or \
                    x.tobytes() != y.tobytes():
                return f"tensor {name} differs"
    return None


def file_difference(a, b):
    """None when the files at a and b count as equal, else what differs."""
    if a.endswith(".npz"):
        return _npz_difference(a, b)
    if os.path.basename(a) == "report.json":
        with open(a) as fa, open(b) as fb:
            same = _without_wall_clock(json.load(fa)) == \
                _without_wall_clock(json.load(fb))
        return None if same else "report differs beyond wall_clock"
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return None if fa.read() == fb.read() else "bytes differ"


def compare(base_dir, head_dir):
    """(relative path, difference or None) for every file either tree
    holds, manifest.json excepted, in sorted order."""
    def files(root):
        return {os.path.relpath(os.path.join(d, f), root)
                for d, _, names in os.walk(root) for f in names
                if f not in SKIPPED}

    base, head = files(base_dir), files(head_dir)
    out = []
    for rel in sorted(base | head):
        if rel not in base or rel not in head:
            out.append((rel, "only in " + ("HEAD" if rel in head else "BASE")))
        else:
            out.append((rel, file_difference(os.path.join(base_dir, rel),
                                             os.path.join(head_dir, rel))))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--work", help="scratch directory (default: a "
                        "temporary one, removed afterwards)")
    args = parser.parse_args(argv)
    work = args.work or tempfile.mkdtemp(prefix="byte_identity_")
    run_dir = os.path.join(work, "run")
    peaks = {}
    try:
        for label, root in (("base", args.base), ("head", args.head)):
            peaks[label] = run(os.path.abspath(root), args.seeds, run_dir)
            os.rename(run_dir, os.path.join(work, label))
        results = compare(os.path.join(work, "base"),
                          os.path.join(work, "head"))
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    for rel, diff in results:
        print(f"{'equal ' if diff is None else 'DIFFER'}  {rel}"
              + ("" if diff is None else f"  ({diff})"))
    print("peak RSS MB (base -> head):")
    for (seed, i), base in peaks["base"].items():
        argv = commands(seed)[i]
        where = argv[argv.index("--out") + 1]
        print(f"  seed {seed} {argv[0]:6s} {where:16s} {base:7.1f} -> "
              f"{peaks['head'][seed, i]:7.1f}")
    return 1 if any(diff is not None for _, diff in results) else 0


if __name__ == "__main__":
    sys.exit(main())

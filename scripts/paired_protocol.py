#!/usr/bin/env python3
"""Paired-seed envelope: does a change move the ppm6 protocol's metrics
by more than rounding does?

Usage: python scripts/paired_protocol.py BASE HEAD

BASE and HEAD are checkout roots (each with src/betagraph).  The script
runs criterion 6's protocol -- run_protocol on z-scored ppm6 with
TrainConfig(seed=0, ood_classes=PPM6_OOD_CLASSES) -- over seeds 0-19,
three times, each in its own process with PYTHONPATH=<root>/src and
BLAS on one thread: BASE in float32, HEAD in float32, and HEAD in
float64.  HEAD float64 - HEAD float32 is the reference scale: the
spread between two numerically equivalent runs of the same code.

For each of acc, auroc, fpr95 and aurc it prints the mean paired
difference HEAD - BASE, a bootstrap 95% interval of that mean, the
exact two-sided sign-test p over the nonzero differences, the same
three numbers for the reference, and a verdict.  A change passes a
metric when its differences are centred on zero (p > 0.05) and their
mean is no larger in magnitude than the reference's.  It takes about
half an hour on two cores.
"""

import json
import os
import subprocess
import sys

import numpy as np
from scipy.stats import binomtest

SEEDS = tuple(range(20))
METRICS = ("acc", "auroc", "fpr95", "aurc")
BOOTSTRAP_DRAWS = 10_000
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def protocol(dtype):
    """Print one JSON list of per-seed metrics for the betagraph on
    PYTHONPATH (runs in the child process)."""
    from betagraph import graphs
    from betagraph.evaluation import run_protocol
    from betagraph.training import TrainConfig

    graph = graphs.zscore_features(graphs.gen_ppm6())
    config = TrainConfig(seed=0, ood_classes=graphs.PPM6_OOD_CLASSES,
                         dtype=dtype)
    reports, _ = run_protocol(graph, graphs.PPM6_OOD_CLASSES, config,
                              seeds=SEEDS)
    print(json.dumps([{m: getattr(r, m) for m in METRICS} for r in reports]))


def start(root, dtype):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               **{name: "1" for name in ONE_THREAD})
    code = (f"import runpy; runpy.run_path({os.path.abspath(__file__)!r})"
            f"['protocol']({dtype!r})")
    return subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.PIPE, text=True)


def finish(proc):
    out, _ = proc.communicate()
    if proc.returncode:
        raise SystemExit(f"protocol run failed with exit {proc.returncode}")
    runs = json.loads(out.strip().splitlines()[-1])
    return {m: np.array([r[m] for r in runs]) for m in METRICS}


def paired_stats(diff):
    """(mean, bootstrap 2.5%, bootstrap 97.5%, sign-test p) of paired
    differences."""
    diff = np.asarray(diff, dtype=np.float64)
    draws = np.random.default_rng(0).integers(
        0, diff.size, (BOOTSTRAP_DRAWS, diff.size))
    lo, hi = np.percentile(diff[draws].mean(axis=1), [2.5, 97.5])
    nonzero = diff[diff != 0]
    p = (binomtest(int((nonzero > 0).sum()), nonzero.size).pvalue
         if nonzero.size else 1.0)
    return float(diff.mean()), float(lo), float(hi), float(p)


def passes(change, reference):
    """The envelope rule on two paired_stats results."""
    return change[3] > 0.05 and abs(change[0]) <= abs(reference[0])


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__.split("\n\n")[1])
    base, head = sys.argv[1:]
    procs = [start(base, "float32"), start(head, "float32"),
             start(head, "float64")]
    base32, head32, head64 = (finish(p) for p in procs)
    print(f"{len(SEEDS)} paired seeds; change = HEAD - BASE (float32), "
          "reference = HEAD float64 - HEAD float32")
    print("| metric | change mean | change 95% CI | change p "
          "| reference mean | reference 95% CI | reference p | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    ok = True
    for m in METRICS:
        change = paired_stats(head32[m] - base32[m])
        reference = paired_stats(head64[m] - head32[m])
        verdict = passes(change, reference)
        ok &= verdict
        cells = [f"{s[0]:+.2e} | [{s[1]:+.2e}, {s[2]:+.2e}] | {s[3]:.3f}"
                 for s in (change, reference)]
        print(f"| {m} | {cells[0]} | {cells[1]} | "
              f"{'pass' if verdict else 'FAIL'} |")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

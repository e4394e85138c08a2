#!/usr/bin/env python3
"""Per-node cost at scale: `betagraph scale` over ER graphs of mean degree 20.

Usage: python scripts/scale_sweep.py OUT.json [--nodes N ...]

For each n (default 1e4, 5e4, 1e5, 2e5, 5e5, 1e6), runs
`betagraph scale --nodes n --densities 20/(n-1)` with the bench's model
(float32, H=64, d=32, D=64, 16 features, 4 classes, so five heads),
1 round of 2+2 epochs, seed 0, in a child process with
PYTHONPATH=<this checkout>/src and BLAS on one thread.  scale trains each point in a forked child and
reads that child's peak resident memory with os.wait4.  OUT.json gets
every point's row of timings.csv, the settings, the environment from
scale's manifest.json, and the memory per node between the two largest
points that finished.  Points run one at a time, largest last; the
n=1e6 point peaks near 2 GB.
"""

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NODES = (10_000, 50_000, 100_000, 200_000, 500_000, 1_000_000)
MEAN_DEGREE = 20
# scale trains without OOD classes, so its default 4 classes give the
# bench model's K+1 = 5 heads
FLAGS = ["--feature-dim", "16", "--classes", "4", "--seed", "0",
         "--epochs-p1", "2", "--epochs-p2", "2", "--dtype", "float32",
         "--hidden-dim", "64", "--embed-dim", "32", "--reasoning-dim", "64"]


def run_point(n, work):
    """The timings.csv row and manifest of one scale run at n nodes."""
    out = os.path.join(work, str(n))
    argv = [sys.executable, "-m", "betagraph", "scale", "--nodes", str(n),
            "--densities", repr(MEAN_DEGREE / (n - 1)), *FLAGS, "--out", out]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    subprocess.run(argv, env=env, check=True)
    with open(os.path.join(out, "timings.csv")) as fh:
        (row,) = csv.DictReader(fh)
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    for key in ("nodes", "edges"):
        row[key] = int(row[key]) if row[key] else None
    for key in ("density", "seconds", "peak_rss_mb"):
        row[key] = float(row[key]) if row[key] else None
    return row, manifest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--nodes", type=int, nargs="+", default=NODES)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        points, environment = [], None
        for n in sorted(args.nodes):
            row, manifest = run_point(n, work)
            points.append(row)
            environment = environment or manifest["environment"]
    ok = [p for p in points if p["status"] == "ok"]
    per_node = None
    if len(ok) >= 2:
        a, b = ok[-2], ok[-1]
        per_node = (b["peak_rss_mb"] - a["peak_rss_mb"]) * 1024 / (
            b["nodes"] - a["nodes"])
    result = {
        "command": "betagraph scale, one run per n, density "
                   f"{MEAN_DEGREE}/(n-1), flags: " + " ".join(FLAGS),
        "measures": "seconds: train_alternating on the point's graph; "
                    "peak_rss_mb: os.wait4's ru_maxrss of the forked child "
                    "that generated the graph and trained on it",
        "points": points,
        "kib_per_node_between_largest": per_node,
        "environment": environment,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for p in points:
        print(f"n={p['nodes']}: {p['status']}, {p['seconds']} s, "
              f"peak {p['peak_rss_mb']} MB")
    if per_node is not None:
        print(f"{per_node:.2f} KiB per node between the two largest points")
    return 0


if __name__ == "__main__":
    sys.exit(main())

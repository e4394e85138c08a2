#!/usr/bin/env python3
"""Run one betagraph benchmark workload and print its result.

    python3 bench/run.py --workload ppm6-train --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20

Run from anywhere: the library is imported from src/ of the checkout
holding this file, and all files are written under .bench_work/ there.
The last stdout line is the JSON result; earlier lines give each metric
with its unit and the inputs/environment manifest.  See README.md.
"""

import os
import sys

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _log(message):
    print(message, file=sys.stderr, flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "betagraph", "__init__.py")):
        _log(f"error: no betagraph sources under {SRC}")
        return 2
    sys.path.insert(0, SRC)
    import betagraph
    if not os.path.abspath(betagraph.__file__).startswith(SRC + os.sep):
        _log(f"error: betagraph imported from {betagraph.__file__}, not {SRC}")
        return 2

    import harness
    if args.workload == "all":
        return run_all(harness.WORKLOADS, args)
    spec = harness.WORKLOADS.get(args.workload)
    if spec is None:
        _log(f"error: unknown workload {args.workload!r}; choose from "
             + ", ".join(harness.WORKLOADS))
        return 2

    environment = harness.describe_environment(ROOT)
    work_dir = os.path.join(ROOT, ".bench_work", spec.name)
    result, details = harness.run_workload(spec, args.seed, args.seconds,
                                           bool(args.trace), work_dir, log=_log)

    for name, m in result["metrics"].items():
        print(f"{spec.name} {name} {m['value']!r} {m['unit']}")
    print(f"{spec.name} fail_ratio {result['failed']}/{result['attempted']}")
    manifest = {"result": result, "environment": environment, **details}
    print("manifest " + json.dumps({"inputs": details["inputs"],
                                    "report": details.get("report"),
                                    "environment": environment}))
    results_dir = os.path.join(ROOT, ".bench_work", "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{spec.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w") as fh:
        json.dump(manifest, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if result["metrics"] else 1


def run_all(workloads, args):
    """Each workload in its own process, one after the other; the last line
    sums their results, metric names prefixed with the workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            _log(f"error: workload {name} exited with {proc.returncode}")
            return 1
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}/{metric}": value for metric, value
                                 in result["metrics"].items()})
    print(json.dumps(total), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)

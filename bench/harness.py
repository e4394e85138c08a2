"""Workloads, timing and output checks of the betagraph benchmark.

Every operation is one `betagraph` command (synth, train or eval) run
in-process through `betagraph.cli.main`, exactly as a user would type
it.  See README.md next to this file for the workloads, the metrics and
the layer -> end-to-end map.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass

import numpy as np

from tracing import Span, Tracer, layer_metrics, self_time_shares

# `betagraph synth ppm` flags of the frozen ppm6 reference dataset
PPM6_SYNTH = ["ppm", "--blocks", "6", "--nodes-per-block", "200",
              "--p-in", "0.05", "--p-out", "0.002", "--feature-dim", "16",
              "--separation", "3.0", "--seed", "60601"]
# held-out classes of both graphs; the ER graph has 6 round-robin classes
OOD_CLASSES = ("4", "5")
ER_CLASSES = 6
FEATURE_DIM = 16
# the reference model: float32, H=64, d=32, D=64
MODEL_FLAGS = ("--dtype", "float32", "--hidden-dim", "64", "--embed-dim", "32",
               "--reasoning-dim", "64")


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str              # "ppm6" or "er"
    setup: tuple            # commands of one set-up repetition
    command: str            # the measured command, repeated for the seconds
    final: tuple            # commands run once after the measurement
    rounds: int
    epochs_p1: int
    epochs_p2: int
    setup_repeats: int      # set-up repetitions before the measurement
    # set-up repetitions before every measured command, so the set-up
    # samples spread over the whole run instead of its first seconds, whose
    # host speed would otherwise set the median; 0 where set-up trains a
    # model and would crowd out the measured commands
    setup_between: int
    er_nodes: int = 50_000
    er_density: float = 4e-4


# why each workload exists: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="ppm6-train",
            graph="ppm6", setup=("synth",), command="train", final=("eval",),
            rounds=2, epochs_p1=60, epochs_p2=60, setup_repeats=1,
            setup_between=4),
        Workload(
            name="er-train",
            graph="er", setup=("synth",), command="train", final=("eval",),
            rounds=1, epochs_p1=2, epochs_p2=2, setup_repeats=1,
            setup_between=2),
        Workload(
            name="er-eval",
            graph="er", setup=("synth", "train"), command="eval", final=(),
            rounds=1, epochs_p1=1, epochs_p2=1, setup_repeats=4,
            setup_between=0),
    )
}


class CheckFailed(Exception):
    """An output of a command is wrong; the command counts as failed."""


# -- commands -----------------------------------------------------------------

class Paths:
    def __init__(self, work_dir):
        self.data = os.path.join(work_dir, "data")
        self.train = os.path.join(work_dir, "train")
        self.eval = os.path.join(work_dir, "eval")


def command_argv(kind, spec: Workload, seed, paths: Paths):
    if kind == "synth":
        if spec.graph == "ppm6":
            args = PPM6_SYNTH
        else:
            args = ["er", "--nodes", str(spec.er_nodes),
                    "--density", repr(spec.er_density),
                    "--classes", str(ER_CLASSES),
                    "--feature-dim", str(FEATURE_DIM), "--seed", str(seed)]
        return ["synth"] + args + ["--out", paths.data]
    if kind == "train":
        return ["train", paths.data, "--out", paths.train, "--seed", str(seed),
                "--ood-classes", *OOD_CLASSES,
                "--rounds", str(spec.rounds),
                "--epochs-p1", str(spec.epochs_p1),
                "--epochs-p2", str(spec.epochs_p2), *MODEL_FLAGS]
    if kind == "eval":
        return ["eval", paths.data,
                "--checkpoint", os.path.join(paths.train, "checkpoint.npz"),
                "--split", os.path.join(paths.train, "split.json"),
                "--out", paths.eval]
    raise ValueError(f"unknown command kind {kind!r}")


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


DATASET_FILES = ("edges.tsv", "features.bin", "labels.csv", "meta.json")
TRAIN_OUTPUTS = ("history.csv", "split.json")
EVAL_OUTPUTS = ("report.json", "scores.csv", "curves_risk_coverage.csv",
                "curves_roc.csv", "aggregate.csv")


def output_digests(kind, paths: Paths) -> dict:
    """sha256 of every output that must repeat bit for bit.

    report.json is hashed with its `wall_clock` fields removed: they are
    timings, so no two runs share them.
    """
    if kind == "synth":
        return {f: _digest(_read(os.path.join(paths.data, f)))
                for f in DATASET_FILES}
    if kind == "train":
        return {f: _digest(_read(os.path.join(paths.train, f)))
                for f in TRAIN_OUTPUTS}
    out = {}
    for f in EVAL_OUTPUTS:
        payload = _read(os.path.join(paths.eval, f))
        if f == "report.json":
            report = json.loads(payload)
            for rep in report["per_seed"]:
                rep.pop("wall_clock", None)
            payload = json.dumps(report, sort_keys=True).encode()
        out[f] = _digest(payload)
    return out


def check_eval_outputs(paths: Paths):
    """scores.csv is complete and normalised; the reported OOD AUROC equals
    the Mann-Whitney U statistic of the scores it was computed from."""
    from scipy.stats import mannwhitneyu

    with open(os.path.join(paths.data, "meta.json")) as fh:
        n = int(json.load(fh)["n"])
    with open(os.path.join(paths.train, "split.json")) as fh:
        split = json.load(fh)
    with open(os.path.join(paths.eval, "report.json")) as fh:
        report = json.load(fh)
    scores = np.loadtxt(os.path.join(paths.eval, "scores.csv"), delimiter=",",
                        skiprows=1, ndmin=2)
    if scores.shape[0] != n:
        raise CheckFailed(f"scores.csv has {scores.shape[0]} rows, expected {n}")
    if not np.all(np.isfinite(scores)):
        raise CheckFailed("scores.csv holds non-finite values")
    if not np.array_equal(scores[:, 0], np.arange(n)):
        raise CheckFailed("scores.csv node ids are not 0..n-1")
    prob_err = float(np.max(np.abs(scores[:, 4:].sum(axis=1) - 1.0)))
    if prob_err > 1e-5:
        raise CheckFailed(f"probabilities sum to 1 only within {prob_err:.3g}")
    vacuity = scores[:, 3]
    ood = vacuity[np.asarray(split["ood_test"], dtype=np.int64)]
    ind = vacuity[np.asarray(split["test"], dtype=np.int64)]
    u = mannwhitneyu(ood, ind, alternative="two-sided",
                     method="asymptotic").statistic
    expected = float(u) / (ood.size * ind.size)
    got = report["per_seed"][0]["auroc"]
    if got is None or abs(got - expected) > 1e-12:
        raise CheckFailed(f"report auroc {got} != Mann-Whitney {expected!r}")


# -- the run -----------------------------------------------------------------

def in_child(fn, *args):
    """fn(*args) in a forked child; returns what it returned, or
    {"error": ...} when it raised or the child died.  Waits for the child.

    Every command runs this way, so each starts from the same process
    state (no heap left over by the command before it) and its peak
    resident memory is its own.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            os.dup2(2, 1)  # command output must stay off the result line
            try:
                payload = pickle.dumps(fn(*args))
            except Exception as exc:  # reported to the parent, which counts it
                traceback.print_exc()
                payload = pickle.dumps({"error": f"{type(exc).__name__}: {exc}"})
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            sys.stdout.flush()
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    try:
        return pickle.loads(payload)
    except Exception:  # the child died before writing all of it
        return {"error": f"child ended with wait status {status}"}


def execute(kind, argv, paths: Paths, trace, check):
    """Body of one command's child: run it, time it, check its outputs.

    Returns seconds, peak resident MB up to the command's return, output
    digests, the eval report and, when traced, the spans.  The eval
    checks run when `check` is set; outputs byte-identical to checked
    ones pass them too, so the caller sets it for the first eval only.
    """
    from betagraph import cli

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    record = {"seconds": seconds, "peak_rss_mb": peak_mb,
              "digests": output_digests(kind, paths)}
    if kind == "eval":
        if check:
            check_eval_outputs(paths)
        with open(os.path.join(paths.eval, "report.json")) as fh:
            record["report"] = json.load(fh)
    if tracer is not None:
        record.update(spans=tracer.spans, absent=tracer.absent)
    return record


class Runner:
    """Runs commands, checks their outputs and counts failures."""

    def __init__(self, spec: Workload, seed, work_dir, log):
        import betagraph.cli  # noqa: F401 -- loaded once, shared by every child
        self.spec = spec
        self.seed = seed
        self.work_dir = work_dir
        self.paths = Paths(work_dir)
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.reference = {}
        self.last_report = None

    def run(self, kind, trace=False):
        """One command; returns its record (see `execute`), or None when
        it failed."""
        argv = command_argv(kind, self.spec, self.seed, self.paths)
        out_dir = {"synth": self.paths.data, "train": self.paths.train,
                   "eval": self.paths.eval}[kind]
        shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += 1
        gc.collect()
        record = in_child(execute, kind, argv, self.paths, trace,
                          kind not in self.reference)
        error = record.get("error")
        if error is None:
            ref = self.reference.setdefault(kind, record["digests"])
            changed = sorted(f for f, d in record["digests"].items()
                             if d != ref[f])
            if changed:
                error = (f"outputs differ from the first {kind} of this run: "
                         f"{', '.join(changed)}")
        if error is not None:
            self.failed += 1
            self.log(f"FAILED {kind}: {error}")
            return None
        if kind == "eval":
            self.last_report = record["report"]
        return record

    def sequence(self, kinds):
        """Run commands in order; total seconds, or None if any failed."""
        total = 0.0
        for kind in kinds:
            record = self.run(kind)
            if record is None:
                return None
            total += record["seconds"]
        return total


def quality_metrics(report) -> dict:
    """Quality guards from report.json, oriented so none is 0 on a perfect
    model: AURC enters as its complement.  FPR95 is recorded in the
    manifest only; its spread across seeds exceeds any allowed bound."""
    agg = report["aggregate"]
    return {
        "test_acc": agg["acc_mean"],
        "ood_auroc": agg["auroc_mean"],
        "ood_aupr": agg["aupr_mean"],
        "md_sel_acc": 1.0 - agg["aurc_mean"],
    }


BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def metric_units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open(BENCHMARK_JSON) as fh:
        declared = json.load(fh)
    return {m["name"]: m["unit"]
            for section in ("end_to_end", "per_layer") for m in declared[section]}


def run_workload(spec: Workload, seed, seconds, trace, work_dir, log=print):
    """Set up, measure and check one workload.

    Returns (result, details): result has the keys correct, attempted,
    failed and metrics; details holds the inputs and the raw samples.
    """
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    runner = Runner(spec, seed, work_dir, log)

    setup_times = []
    for _ in range(spec.setup_repeats):
        seconds_setup = runner.sequence(spec.setup)
        if seconds_setup is None:
            break
        setup_times.append(seconds_setup)

    details = {"setup_s": setup_times}
    metrics = {}
    if len(setup_times) == spec.setup_repeats:
        if trace:
            metrics = _measure_traced(runner, seconds, details, log)
        else:
            metrics = _measure(runner, seconds, setup_times, details)
    details["inputs"] = describe_inputs(spec, seed, seconds, runner.paths)
    units = metric_units()
    result = {
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, details


def _measure(runner, seconds, setup_times, details):
    spec = runner.spec
    commands = []
    start = time.perf_counter()
    while True:
        for _ in range(spec.setup_between):
            seconds_setup = runner.sequence(spec.setup)
            if seconds_setup is not None:
                setup_times.append(seconds_setup)
        record = runner.run(spec.command)
        if record is not None:
            commands.append(record)
        if time.perf_counter() - start >= seconds:
            break
    runner.sequence(spec.final)
    details["command_s"] = [r["seconds"] for r in commands]
    details["peak_rss_mb"] = [r["peak_rss_mb"] for r in commands]
    if not (commands and runner.last_report):
        return {}
    details["report"] = {k: runner.last_report["aggregate"][k] for k in
                         ("acc_mean", "auroc_mean", "aupr_mean", "fpr95_mean",
                          "aurc_mean")}
    metrics = {
        "setup_s": statistics.median(setup_times),
        "command_s": statistics.median(details["command_s"]),
        "peak_rss_mb": statistics.median(details["peak_rss_mb"]),
    }
    metrics.update(quality_metrics(runner.last_report))
    return metrics


def _measure_traced(runner, seconds, details, log):
    """Alternate untraced and traced runs of the measured command.

    Per-layer metrics are medians over the traced runs; the untraced
    runs give the tracing overhead and the reference outputs that every
    traced run must reproduce.
    """
    spec = runner.spec
    plain, traced, per_op = [], [], []
    absent = []
    start = time.perf_counter()
    while True:
        # alternate which side runs first, so order effects cancel
        if len(plain) % 2 == 1:
            with_trace = runner.run(spec.command, trace=True)
            without = runner.run(spec.command)
        else:
            without = runner.run(spec.command)
            with_trace = runner.run(spec.command, trace=True)
        if without is not None and with_trace is not None:
            plain.append(without["seconds"])
            traced.append(with_trace["seconds"])
            per_op.append(layer_metrics(with_trace["spans"]))
            last_spans, absent = with_trace["spans"], with_trace["absent"]
        if time.perf_counter() - start >= seconds:
            break
    details.update(untraced_s=plain, traced_s=traced, absent=absent)
    if not per_op:
        return {}
    with open(os.path.join(runner.work_dir, "spans.csv"), "w") as fh:
        fh.write(",".join(Span._fields) + "\n")
        fh.writelines(",".join(map(str, span)) + "\n" for span in last_spans)
    if absent:
        log("absent trace targets: " + ", ".join(absent))
    log("self time by layer, last traced run:")
    for label, self_s, share in self_time_shares(last_spans)[:12]:
        log(f"  {label:34s} {1e3 * self_s:10.1f} ms  {100 * share:5.1f}%")
    metrics = {name: statistics.median(op[name] for op in per_op)
               for name in per_op[0]}
    metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                       / statistics.median(plain) - 1.0)
    metrics["trace.absent_targets"] = len(absent)
    return metrics


# -- inputs and environment ---------------------------------------------------

def describe_inputs(spec: Workload, seed, seconds, paths: Paths) -> dict:
    inputs = {"seed": seed, "run_seconds": seconds, **asdict(spec),
              "model_flags": " ".join(MODEL_FLAGS)}
    h = hashlib.sha256()
    try:
        for f in DATASET_FILES:
            h.update(f.encode())
            h.update(_read(os.path.join(paths.data, f)))
        with open(os.path.join(paths.data, "meta.json")) as fh:
            meta = json.load(fh)
        inputs.update(dataset_sha256=h.hexdigest(), n=meta["n"],
                      classes=meta["C"], known_classes=meta["C"] - len(OOD_CLASSES),
                      edges=_read(os.path.join(paths.data, "edges.tsv"))
                      .count(b"\n"))
        with open(os.path.join(paths.train, "split.json")) as fh:
            split = json.load(fh)
        inputs.update({f"{part}_size": len(split[part]) for part in
                       ("train", "val", "test", "ood_val", "ood_test")})
    except OSError as exc:
        inputs["incomplete"] = str(exc)
    return inputs


BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def describe_environment(root) -> dict:
    import scipy

    env = {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(root),
    }
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        env["blas_threads"] = "threadpoolctl not importable; pinned by env"
    else:
        info = threadpool_info()
        env["blas_threads"] = [(p.get("internal_api"), p.get("num_threads"))
                               for p in info]
        if any(p.get("num_threads") != 1 for p in info):
            raise RuntimeError(f"thread pools not pinned to 1: {info}")
    return env


def git_commit(root):
    """HEAD of the checkout when it carries .git metadata, else None."""
    git = os.path.join(root, ".git")
    try:
        head = _read(os.path.join(git, "HEAD")).decode().strip()
        if head.startswith("ref: "):
            head = _read(os.path.join(git, head[5:])).decode().strip()
    except OSError:
        return None
    return head

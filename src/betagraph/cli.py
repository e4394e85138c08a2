"""Command-line entry point.

Subcommands: synth, train, eval, ablate, scale, gridsearch.  Every run
writes a manifest.json listing its inputs (with recomputable hashes),
seeds, and output files.  Exit codes: 0 success, 1 usage or config
error, 2 runtime or numerical failure.

Config files are TOML (JSON accepted as a fallback) whose keys mirror
the TrainConfig fields; the tuned fields of GRIDS plus seed are required
in explicit config files.  Every TrainConfig field that is not a switch
is also a --kebab-case flag, typed by its default, that overrides the
file; TrainConfig itself checks the values.  A config or split file that
cannot be read, decoded or parsed exits 1 naming the file.  The
BETAGRAPH_OUT_ROOT environment variable, when set, anchors relative
output directories.

train, eval, ablate and gridsearch z-score the dataset's features per
column on load; scale trains on its generated features as drawn.  They
keep the dataset as a training.PreparedGraph in the config's dtype,
made once per command, and let go of the raw adjacency and features.

main first calls tune_allocator, which fixes glibc's mmap and trim
thresholds and its arena count for the betagraph process (see there);
importing the library leaves the allocator of the host process alone.
"""

from __future__ import annotations

import argparse
import ctypes
import datetime
import itertools
import json
import os
import platform
import sys
import time
from dataclasses import asdict, fields, replace

import numpy as np
import scipy

try:
    import tomllib
except ImportError:     # Python 3.10
    import tomli as tomllib

from . import __version__, evaluation, graphs, sparse
from .ioutil import atomic_write_text, sha256_dir, sha256_file, write_csv
from .training import (VARIANTS, TrainConfig, TrainingDivergence,
                       build_context, forward_scores, prepare_graph,
                       train_alternating, load_checkpoint, save_checkpoint,
                       variant_config)

# the tuned fields and their default grids, in gridsearch.csv column order
GRIDS = {"lr_p1": (0.01, 0.001, 0.0005), "dropout_p1": (0.2, 0.4, 0.6),
         "gamma": (15.0, 55.0, 95.0, 135.0), "lr_p2": (0.01, 0.001, 0.0005),
         "dropout_p2": (0.2, 0.4, 0.6)}
REQUIRED_CONFIG_KEYS = (*GRIDS, "seed")

# glibc's mallopt parameters (malloc.h) and the value tune_allocator sets
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
M_ARENA_MAX = -8
ALLOCATOR_THRESHOLD = 32 * 2**20


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _out_dir(path):
    root = os.environ.get("BETAGRAPH_OUT_ROOT")
    if root and not os.path.isabs(path):
        path = os.path.join(root, path)
    os.makedirs(path, exist_ok=True)
    return path


def _read_input(path, what, parse):
    """parse(text) of the UTF-8 file at path; a file that cannot be read,
    decoded or parsed raises a UsageError naming it."""
    try:
        with open(path, "rb") as fh:
            return parse(fh.read().decode("utf-8"))
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise UsageError(f"{what} {path} is unreadable or malformed: "
                         f"{exc!r}") from None


def _parse_config(text, path):
    """JSON for a .json path; otherwise TOML, or JSON where TOML fails."""
    if path.endswith(".json"):
        return json.loads(text)
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            raise exc from None


def _load_config_file(path) -> dict:
    raw = _read_input(path, "config", lambda text: _parse_config(text, path))
    if not isinstance(raw, dict):
        raise UsageError(f"config {path} must be a table of fields")
    known = {f.name for f in fields(TrainConfig)}
    for key in raw:
        if key not in known:
            raise UsageError(f"unknown config field '{key}' in {path}")
    for key in REQUIRED_CONFIG_KEYS:
        if key not in raw:
            raise UsageError(f"config {path} is missing required field '{key}'")
    return raw


def _build_config(args, graph=None) -> TrainConfig:
    raw = {}
    if getattr(args, "config", None):
        raw.update(_load_config_file(args.config))
    # a flag overrides the field its dest names
    for f in fields(TrainConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            raw[f.name] = v
    if "ood_classes" not in raw and graph is not None \
            and graph.class_count >= 4:
        # default leave-out: the two highest class ids
        raw["ood_classes"] = (graph.class_count - 2, graph.class_count - 1)
    try:
        return TrainConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid config: {exc}") from None


def _environment():
    """The interpreter, numpy and scipy versions, the BLAS numpy reports,
    the BLAS thread variables (null when unset), CPUs and sparse.workers."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
            "workers": sparse.workers(),
            "blas": {key: blas.get(key) for key in ("name", "version")},
            "blas_threads": {name: os.environ.get(name) for name in threads}}


def _write_manifest(out_dir, command, outputs, *, config_path=None,
                    config=None, dataset=None, checkpoint=None, seeds=(),
                    started=None):
    manifest = {
        "command": command,
        "artifact_version": __version__,
        "out_dir": os.path.abspath(out_dir),
        "seeds": list(seeds),
        "started": started,
        "finished": _now(),
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "environment": _environment(),
    }
    if config_path:
        manifest["config_path"] = os.path.abspath(config_path)
        manifest["config_hash"] = sha256_file(config_path)
    if config is not None:
        manifest["config"] = asdict(config)
    if dataset:
        manifest["dataset"] = os.path.abspath(dataset)
        manifest["dataset_hash"] = sha256_dir(dataset)
    if checkpoint:
        manifest["checkpoint"] = os.path.abspath(checkpoint)
        manifest["checkpoint_hash"] = sha256_file(checkpoint)
    path = os.path.join(out_dir, "manifest.json")
    atomic_write_text(path, json.dumps(manifest, indent=1) + "\n")
    return path


def _load_graph(path):
    """The dataset directory at path with z-scored features, as every
    model trained or scored from a dataset directory sees it."""
    return graphs.zscore_features(graphs.load_dataset(path))


def _load_with_config(args):
    """The config of args (its default OOD classes read the dataset) and
    args.dataset prepared in its dtype; the raw graph is not kept."""
    graph = _load_graph(args.dataset)
    config = _build_config(args, graph)
    return config, prepare_graph(graph, config.np_dtype)


def _now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


# -- synth -------------------------------------------------------------

def cmd_synth(args):
    started = _now()
    out = _out_dir(args.out)
    if args.kind == "er":
        g = graphs.gen_erdos_renyi(args.nodes, args.density, args.feature_dim,
                                   seed=args.seed, class_count=args.classes)
    else:
        g = graphs.gen_planted_partition(
            args.blocks, args.nodes_per_block, args.p_in, args.p_out,
            args.feature_dim, args.separation, seed=args.seed)
    graphs.save_dataset(g, out)
    outputs = [os.path.join(out, f) for f in
               ("edges.tsv", "labels.csv", "meta.json", "features.bin")]
    _write_manifest(out, "synth", outputs, seeds=[args.seed], started=started)
    print(f"wrote {g.name}: n={g.n} edges={g.edge_count} -> {out}")
    return 0


# -- train -------------------------------------------------------------

HISTORY_COLUMNS = ("round", "bl_loss", "dl_loss", "val_acc", "val_aurc",
                   "val_auroc", "selection_score")


def _history_csv(path, history):
    write_csv(path, HISTORY_COLUMNS,
              [[h[k] for h in history] for k in HISTORY_COLUMNS])


def cmd_train(args):
    started = _now()
    config, graph = _load_with_config(args)
    out = _out_dir(args.out)
    split = config.split(graph)
    split_path = os.path.join(out, "split.json")
    hist = os.path.join(out, "history.csv")
    atomic_write_text(split_path, split.to_json() + "\n")
    ctx = build_context(graph, split, config)
    try:
        state, history = train_alternating(ctx, config)
    except TrainingDivergence as exc:
        _history_csv(hist, exc.history)
        print(f"training diverged: {exc}", file=sys.stderr)
        return 2
    ckpt = os.path.join(out, "checkpoint.npz")
    save_checkpoint(ckpt, state, extra_meta={
        "dataset": os.path.abspath(args.dataset),
        "dataset_name": graph.name,
        "id_classes": list(split.id_classes),
    })
    _history_csv(hist, history)
    _write_manifest(out, "train", [ckpt, hist, split_path],
                    config_path=args.config, config=config,
                    dataset=args.dataset, seeds=[config.seed], started=started)
    best = max(h["selection_score"] for h in history)
    print(f"trained {config.rounds} round(s); best selection score {best:.4f}"
          f" -> {ckpt}")
    return 0


# -- eval --------------------------------------------------------------

AGGREGATE_COLUMNS = ("runs", "acc_mean", "acc_std", "aurc_x1000_mean",
                     "aurc_x1000_std", "fpr95_mean", "fpr95_std",
                     "auroc_mean", "auroc_std", "aupr_mean", "aupr_std")


def _check_split(split, graph, config, path):
    """A split file must fit the dataset and the checkpoint it is scored
    with: node ids in [0, n), partitions disjoint, the checkpoint's class
    partition, ID nodes in the ID parts, OOD nodes in the OOD parts, a
    training node of every ID class (the class regions are built from
    them) and a non-empty test partition."""
    ood = tuple(sorted(set(config.ood_classes)))
    known = tuple(c for c in range(graph.class_count) if c not in ood)
    if tuple(sorted(split.ood_classes)) != ood:
        raise UsageError(f"split {path}: ood_classes {list(split.ood_classes)}"
                         f" differ from the checkpoint's {list(ood)}")
    if tuple(split.id_classes) != known:
        raise UsageError(f"split {path}: id_classes {list(split.id_classes)}"
                         f" differ from the checkpoint's {list(known)}")
    owner = np.full(graph.n, -1)
    for i, part in enumerate(graphs.SPLIT_PARTS):
        ids = getattr(split, part)
        if ids.size and (ids.min() < 0 or ids.max() >= graph.n):
            bad = ids[(ids < 0) | (ids >= graph.n)][0]
            raise UsageError(f"split {path}: {part} node id {bad} outside"
                             f" [0, {graph.n})")
        if graphs.sorted_distinct(np.sort(ids)).size != ids.size:
            raise UsageError(f"split {path}: {part} repeats a node id")
        taken = owner[ids] >= 0
        if taken.any():
            raise UsageError(
                f"split {path}: {part} and "
                f"{graphs.SPLIT_PARTS[owner[ids][taken][0]]}"
                f" share node {ids[taken][0]}")
        owner[ids] = i
        classes = ood if part.startswith("ood_") else known
        stray = ~np.isin(graph.labels[ids], classes)
        if stray.any():
            raise UsageError(
                f"split {path}: {part} node {ids[stray][0]} has class "
                f"{graph.labels[ids[stray][0]]}, not one of {list(classes)}")
    absent = np.setdiff1d(known, graph.labels[split.train])
    if absent.size:
        raise UsageError(f"split {path}: train has no node of class "
                         f"{absent[0]}")
    if not split.test.size:
        raise UsageError(f"split {path}: test is empty")


def cmd_eval(args):
    started = _now()
    out = _out_dir(args.out)
    state, meta = load_checkpoint(args.checkpoint)
    config = state.config
    graph = prepare_graph(_load_graph(args.dataset), config.np_dtype)
    if graph.feature_dim != state.feature_dim:
        raise UsageError(
            f"checkpoint expects {state.feature_dim} features, dataset has "
            f"{graph.feature_dim}")
    if len(config.ood_classes) and graph.class_count <= max(config.ood_classes):
        raise UsageError("checkpoint OOD classes outside dataset class range")
    if graph.class_count - len(config.ood_classes) != state.class_count:
        raise UsageError(
            f"checkpoint was trained for {state.class_count} known classes; "
            f"dataset provides {graph.class_count - len(config.ood_classes)}")

    if args.split:
        split = _read_input(args.split, "split", graphs.SplitSpec.from_json)
        _check_split(split, graph, config, args.split)
    else:
        split = config.split(graph)

    # the checkpoint's own scores feed its report, the curves and scores.csv;
    # any other seed is a fresh protocol run (re-split and retrain)
    t0 = time.perf_counter()
    ctx = build_context(graph, split, config)
    sb = forward_scores(state, ctx)
    chash = evaluation.config_hash(config)
    own = evaluation.evaluate(sb, ctx, seed=config.seed, config_hash=chash)
    own.wall_clock = time.perf_counter() - t0
    seeds = args.seeds if args.seeds else [config.seed]
    reports = [own if s == config.seed else
               evaluation.protocol_run(graph, replace(config, seed=s), chash)
               for s in seeds]
    agg = evaluation.aggregate(reports)

    if args.with_baselines:
        agg["baselines"] = evaluation.baseline_report(ctx, seed=config.seed)

    report_path = os.path.join(out, "report.json")
    atomic_write_text(report_path, json.dumps({
        "per_seed": [r.to_dict() for r in reports],
        "aggregate": agg,
    }, indent=1) + "\n")

    tables = {"scores.csv": evaluation.node_scores_table(sb, split),
              "aggregate.csv": (AGGREGATE_COLUMNS,
                                [[agg.get(k)] for k in AGGREGATE_COLUMNS])}
    curves = evaluation.curves(sb, ctx)
    for name, header in (("risk_coverage", ["coverage", "risk"]),
                         ("roc", ["fpr", "tpr"])):
        if name in curves:
            tables[f"curves_{name}.csv"] = header, curves[name]
    outputs = [report_path]
    for fname, (header, columns) in tables.items():
        outputs.append(os.path.join(out, fname))
        write_csv(outputs[-1], header, columns)

    _write_manifest(out, "eval", outputs, dataset=args.dataset,
                    checkpoint=args.checkpoint, seeds=seeds, config=config,
                    started=started)
    print(f"evaluated {len(seeds)} seed(s): acc={agg['acc_mean']:.4f}"
          + (f" auroc={agg['auroc_mean']:.4f}" if agg["auroc_mean"] is not None
             else ""))
    return 0


# -- ablate ------------------------------------------------------------

ABLATION_VARIANTS = (*VARIANTS, "no_at")


def cmd_ablate(args):
    started = _now()
    base, graph = _load_with_config(args)
    out = _out_dir(args.out)
    ctx = build_context(graph, base.split(graph), base)
    rows = []
    for v in args.variants:
        cfg = variant_config(base, v)
        state, _ = train_alternating(ctx, cfg)
        rep = evaluation.evaluate(forward_scores(state, ctx), ctx,
                                  seed=cfg.seed)
        rows.append([v, rep.acc, rep.aurc_x1000, rep.fpr95, rep.auroc])
        print(f"variant {v}: acc={rep.acc:.4f} aurc(x1000)={rep.aurc_x1000:.2f}"
              + (f" fpr95={rep.fpr95:.4f} auroc={rep.auroc:.4f}"
                 if rep.auroc is not None else ""))
    table = os.path.join(out, "ablation.csv")
    write_csv(table, ["variant", "acc", "aurc_x1000", "fpr95", "auroc"],
              zip(*rows))
    _write_manifest(out, "ablate", [table], config_path=args.config,
                    config=base, dataset=args.dataset, seeds=[base.seed],
                    started=started)
    return 0


# -- scale -------------------------------------------------------------

def cmd_scale(args):
    started = _now()
    out = _out_dir(args.out)
    base = _build_config(args)
    base = replace(base, rounds=1, ood_classes=())
    rows = []
    for n, density in itertools.product(args.nodes, args.densities):
        try:
            g = graphs.gen_erdos_renyi(n, density, args.feature_dim,
                                       seed=base.seed, class_count=args.classes)
            split = base.split(g)
            t0 = time.perf_counter()
            train_alternating(build_context(
                prepare_graph(g, base.np_dtype), split, base), base)
            elapsed = time.perf_counter() - t0
            rows.append([n, density, g.edge_count, elapsed, "ok"])
            print(f"n={n} density={density}: {elapsed:.2f}s "
                  f"({g.edge_count} edges)")
        except MemoryError:
            rows.append([n, density, "", "", "oom"])
            print(f"n={n} density={density}: out of memory", file=sys.stderr)
    table = os.path.join(out, "timings.csv")
    write_csv(table, ["nodes", "density", "edges", "seconds", "status"],
              zip(*rows))
    _write_manifest(out, "scale", [table], seeds=[base.seed], started=started)
    return 0


# -- gridsearch ----------------------------------------------------------

def cmd_gridsearch(args):
    started = _now()
    base, graph = _load_with_config(args)
    out = _out_dir(args.out)
    ctx = build_context(graph, base.split(graph), base)
    axes = [getattr(args, f"{name}_grid") or grid
            for name, grid in GRIDS.items()]
    rows = []
    for combo in itertools.product(*axes):
        cfg = replace(base, **dict(zip(GRIDS, combo)))
        _, history = train_alternating(ctx, cfg)
        best = max(h["selection_score"] for h in history)
        rows.append([*combo, best])
        print(" ".join(f"{k}={v}" for k, v in zip(GRIDS, combo))
              + f": score {best:.4f}")
    rows.sort(key=lambda r: -r[-1])
    table = os.path.join(out, "gridsearch.csv")
    write_csv(table, [*GRIDS, "selection_score"], zip(*rows))
    _write_manifest(out, "gridsearch", [table], config_path=args.config,
                    dataset=args.dataset, seeds=[base.seed], started=started)
    return 0


# -- parser ---------------------------------------------------------------

def _add_config_flags(p):
    """--config, and one --kebab-case flag per TrainConfig field that is
    not a switch, typed by the field's default (ood_classes takes ints)."""
    p.add_argument("--config", help="TOML or JSON training config")
    for f in fields(TrainConfig):
        flag = "--" + f.name.replace("_", "-")
        if isinstance(f.default, tuple):
            p.add_argument(flag, type=int, nargs="*")
        elif not isinstance(f.default, bool):
            p.add_argument(flag, type=type(f.default))


def build_parser() -> _Parser:
    parser = _Parser(prog="betagraph",
                     description="Open-world graph node classification with "
                                 "Beta-embedding uncertainty scores")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("kind", choices=("er", "ppm"))
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--nodes", type=int, default=5000, help="er: node count")
    p.add_argument("--density", type=float, default=0.005)
    p.add_argument("--classes", type=int, default=4, help="er: label count")
    p.add_argument("--blocks", type=int, default=6)
    p.add_argument("--nodes-per-block", type=int, default=200)
    p.add_argument("--p-in", type=float, default=0.05)
    p.add_argument("--p-out", type=float, default=0.002)
    p.add_argument("--separation", type=float, default=3.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train on a dataset directory")
    p.add_argument("dataset")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint (multi-seed aware)")
    p.add_argument("dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", help="split JSON; defaults to the checkpoint's")
    p.add_argument("--seeds", type=int, nargs="*",
                   help="protocol seeds; seeds other than the checkpoint's "
                        "retrain from scratch")
    p.add_argument("--with-baselines", action="store_true",
                   help="add MaxLogit/Energy columns from a plain classifier")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train and compare ablation variants")
    p.add_argument("dataset")
    p.add_argument("--variants", nargs="+", choices=ABLATION_VARIANTS,
                   default=list(ABLATION_VARIANTS))
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("scale", help="time training rounds on growing graphs")
    p.add_argument("--nodes", type=int, nargs="+", required=True)
    p.add_argument("--densities", type=float, nargs="+", required=True)
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("gridsearch", help="enumerate the hyperparameter grids")
    p.add_argument("dataset")
    p.add_argument("--out", required=True)
    for name in GRIDS:
        p.add_argument(f"--{name.replace('_', '-')}-grid", type=float,
                       nargs="*")
    _add_config_flags(p)
    p.set_defaults(func=cmd_gridsearch)

    return parser


def tune_allocator() -> bool:
    """Fix glibc's mmap and trim thresholds at ALLOCATOR_THRESHOLD (32 MiB)
    and its arena count at 1; True when all three were set, False (and
    nothing done) without glibc's mallopt.

    Training runs hundreds of alike epochs, and each backward frees its
    whole tape.  With glibc's dynamic thresholds the freed top of the
    heap goes back to the OS after every epoch, and the next epoch
    faults the same pages in again.  A 32 MiB trim threshold keeps that
    memory, yet still returns what a large load frees (an ER dataset's
    parse frees about 43 MB).  A 32 MiB mmap threshold keeps arrays of a
    few MB on the heap, where their pages are reused.  Both are set
    because setting either one switches off glibc's adjustment of the
    other.  One arena keeps sparse.parallel's threads on the main heap,
    not in arenas that keep what they free.  main calls this; the library
    never does, since a host process that imports it owns its allocator.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError, ValueError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all([mallopt(M_MMAP_THRESHOLD, ALLOCATOR_THRESHOLD) == 1,
                mallopt(M_TRIM_THRESHOLD, ALLOCATOR_THRESHOLD) == 1,
                mallopt(M_ARENA_MAX, 1) == 1])


def main(argv=None) -> int:
    tune_allocator()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, graphs.DatasetError, FileNotFoundError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TrainingDivergence, FloatingPointError, RuntimeError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

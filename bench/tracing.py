"""Per-layer spans recorded from outside the library.

A Tracer replaces selected betagraph functions and methods with thin
wrappers while it is installed, and restores the originals when it is
removed.  Each wrapped call appends one span (label, start, end, parent
span, work amount, Tensor constructions inside it) to an in-memory list;
nothing is written until the caller asks for the spans.  The library
itself is not modified: a wrapper is installed in every betagraph module
namespace that binds the target object (so `from .training import
forward_scores` call sites are traced too) and on the owning class for
methods.

Targets that do not exist in the library under test are reported as
absent rather than raising, so a later change that renames or removes a
function still yields a trace of everything else.  So is a work count
that can no longer be read from a target's arguments.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import namedtuple

import numpy as np

Span = namedtuple("Span", "label start end parent work tensors")


def _elements(args, kwargs):
    return int(np.size(args[0])) if args else 0


def _epochs(args, kwargs):
    return int(kwargs["epochs"] if "epochs" in kwargs else args[2])


def _spmm_flops(args, kwargs):
    # 2 * nnz * dense columns: the multiply-adds the CSR kernel performs
    matrix, dense = args[0], np.asarray(args[1])
    cols = dense.shape[1] if dense.ndim == 2 else 1
    return 2 * int(matrix.indices.size) * int(cols)


def _subnormal_grads(args, kwargs):
    total = 0
    for p in args[0].params:
        g = p.grad
        if g is None or g.dtype.kind != "f":
            continue
        tiny = np.finfo(g.dtype).tiny
        total += int(np.count_nonzero((g != 0) & (np.abs(g) < tiny)))
    return total


# (module, attribute path inside it, label used in metric names, work)
TARGETS = (
    ("special", "lgamma", "special.lgamma", _elements),
    ("special", "digamma", "special.digamma", _elements),
    ("special", "trigamma", "special.trigamma", _elements),
    ("special", "softplus", "special.softplus", _elements),
    ("special", "sigmoid", "special.sigmoid", _elements),
    ("sparse", "SparseMatrix.matmul", "sparse.matmul", _spmm_flops),
    ("autodiff", "Tensor.backward", "autodiff.backward", None),
    ("autodiff", "Adam.step", "autodiff.adam_step", _subnormal_grads),
    ("autodiff", "dropout", "autodiff.dropout", None),
    ("autodiff", "colmean_exact", "autodiff.colmean_exact", None),
    ("reasoning", "encode", "reasoning.encode", None),
    ("reasoning", "build_class_embeddings", "reasoning.build_class_embeddings",
     None),
    ("reasoning", "dist_matrix", "reasoning.dist_matrix", None),
    ("reasoning", "beta_loss", "reasoning.beta_loss", None),
    ("evidence", "evidence_forward", "evidence.evidence_forward", None),
    ("evidence", "dirichlet_loss", "evidence.dirichlet_loss", None),
    ("evidence", "score", "evidence.score", None),
    ("subjective", "dissonance_batch", "subjective.dissonance_batch", None),
    ("training", "train_phase1", "training.train_phase1", _epochs),
    ("training", "train_phase2", "training.train_phase2", _epochs),
    ("training", "validation_metrics", "training.validation_metrics", None),
    ("training", "forward_scores", "training.forward_scores", None),
    ("training", "save_checkpoint", "training.save_checkpoint", None),
    ("training", "load_checkpoint", "training.load_checkpoint", None),
    ("metrics", "auroc", "metrics.auroc", None),
    ("metrics", "aupr", "metrics.aupr", None),
    ("metrics", "roc_curve", "metrics.roc_curve", None),
    ("metrics", "aurc", "metrics.aurc", None),
    ("metrics", "fpr_at_tpr", "metrics.fpr_at_tpr", None),
    ("evaluation", "evaluate", "evaluation.evaluate", None),
    ("evaluation", "curves", "evaluation.curves", None),
    ("evaluation", "node_scores_table", "evaluation.node_scores_table", None),
    ("graphs", "load_dataset", "graphs.load_dataset", None),
    ("graphs", "normalize_adjacency", "graphs.normalize_adjacency", None),
    ("graphs", "make_split", "graphs.make_split", None),
    ("ioutil", "sha256_file", "ioutil.sha256_file", None),
    ("ioutil", "sha256_dir", "ioutil.sha256_dir", None),
    ("cli", "main", "cli", None),
)

# constructor whose calls are counted (no span: it runs thousands of times)
COUNTED = ("autodiff", "Tensor.__init__")


PACKAGE = "betagraph"


class Tracer:
    """Installs span-recording wrappers on the betagraph modules."""

    def __init__(self, targets=TARGETS, counted=COUNTED):
        self.targets = targets
        self.counted = counted
        self.spans = []
        self.absent = []
        self.tensors = 0
        self._stack = []
        self._patches = []

    # -- installation ---------------------------------------------------

    def _resolve(self, module, path):
        """(owner, attribute, original) or None when the target is gone."""
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            return None
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if not callable(original):
            return None
        return owner, attr, original

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _bind_everywhere(self, owner, attr, original, wrapper):
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE
                                   or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for module, path, label, work in self.targets:
            found = self._resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr, original = found
            self._bind_everywhere(owner, attr, original,
                                  self._span_wrapper(label, original, work))
        if self.counted:
            found = self._resolve(*self.counted)
            if found is None:
                self.absent.append(".".join(self.counted))
            else:
                owner, attr, original = found
                self._set(owner, attr, self._count_wrapper(original))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, label, fn, work):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            amount = 0
            if work is not None:
                try:
                    amount = work(args, kwargs)
                except Exception:
                    # the target's arguments changed shape: keep timing it,
                    # report its work count as absent
                    missing = f"{label} (work count)"
                    if missing not in self.absent:
                        self.absent.append(missing)
            spans, stack = self.spans, self._stack
            index = len(spans)
            parent = stack[-1] if stack else -1
            tensors0 = self.tensors
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(label, start, end, parent, amount,
                                    self.tensors - tensors0)

        return wrapper

    def _count_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.tensors += 1
            return fn(*args, **kwargs)

        return wrapper


# -- aggregation ------------------------------------------------------------

def layer_table(spans):
    """Per-label totals: calls, inclusive and self seconds, work, tensors.

    Self time is a span's duration minus the durations of its direct
    child spans.  Inclusive time, work and tensors count only spans with
    no ancestor of the same label, so recursion is not counted twice.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    table = {}
    for i, s in enumerate(spans):
        row = table.setdefault(s.label, {"calls": 0, "incl": 0.0, "self": 0.0,
                                         "work": 0, "tensors": 0})
        dur = s.end - s.start
        row["calls"] += 1
        row["self"] += dur - child[i]
        p = s.parent
        while p >= 0 and spans[p].label != s.label:
            p = spans[p].parent
        if p < 0:
            row["incl"] += dur
            row["work"] += s.work
            row["tensors"] += s.tensors
    return table


_SELF_MS = ("special.lgamma", "special.digamma", "special.trigamma",
            "special.softplus", "special.sigmoid", "sparse.matmul",
            "autodiff.backward", "autodiff.adam_step", "autodiff.dropout",
            "autodiff.colmean_exact", "subjective.dissonance_batch",
            "metrics.auroc", "metrics.aupr", "metrics.roc_curve",
            "metrics.aurc", "metrics.fpr_at_tpr", "graphs.load_dataset",
            "graphs.normalize_adjacency", "graphs.make_split")
_INCL_MS = ("training.save_checkpoint", "training.load_checkpoint",
            "reasoning.encode", "reasoning.build_class_embeddings",
            "reasoning.dist_matrix", "reasoning.beta_loss",
            "evidence.evidence_forward", "evidence.dirichlet_loss",
            "evidence.score", "evaluation.evaluate", "evaluation.curves",
            "evaluation.node_scores_table")
_ELEMENTS = ("special.lgamma", "special.digamma", "special.trigamma",
             "special.softplus", "special.sigmoid")


def layer_metrics(spans):
    """The benchmark's per-layer metrics for one traced operation.

    Labels that never ran (absent targets, or layers the workload does
    not reach) read 0.
    """
    table = layer_table(spans)
    empty = {"calls": 0, "incl": 0.0, "self": 0.0, "work": 0, "tensors": 0}

    def row(label):
        return table.get(label, empty)

    def per(a, b):
        return a / b if b else 0.0

    out = {}
    p1, p2 = row("training.train_phase1"), row("training.train_phase2")
    out["training.phase1_epoch_ms"] = per(1e3 * p1["incl"], p1["work"])
    out["training.phase2_epoch_ms"] = per(1e3 * p2["incl"], p2["work"])
    out["training.validation_ms"] = 1e3 * row("training.validation_metrics")["incl"]
    out["training.forward_scores.calls"] = row("training.forward_scores")["calls"]
    for label in _INCL_MS:
        out[f"{label}.ms"] = 1e3 * row(label)["incl"]
    for label in _SELF_MS:
        out[f"{label}.self_ms"] = 1e3 * row(label)["self"]
    for label in _ELEMENTS:
        out[f"{label}.elements"] = row(label)["work"]
    out["autodiff.tensors_p1_epoch"] = per(p1["tensors"], p1["work"])
    out["autodiff.tensors_p2_epoch"] = per(p2["tensors"], p2["work"])
    out["autodiff.adam_step.subnormal_grads"] = row("autodiff.adam_step")["work"]
    out["sparse.matmul.calls"] = row("sparse.matmul")["calls"]
    out["sparse.matmul.flops_computed"] = row("sparse.matmul")["work"]
    out["ioutil.sha256.self_ms"] = 1e3 * (row("ioutil.sha256_file")["self"]
                                          + row("ioutil.sha256_dir")["self"])
    cli = row("cli")
    out["cli.self_ms"] = 1e3 * cli["self"]
    out["trace.coverage"] = per(cli["incl"] - cli["self"], cli["incl"])
    return out


def self_time_shares(spans):
    """(label, self seconds, share of all root time) sorted by self time."""
    table = layer_table(spans)
    root = sum(s.end - s.start for s in spans if s.parent < 0)
    rows = [(label, r["self"], r["self"] / root if root else 0.0)
            for label, r in table.items()]
    return sorted(rows, key=lambda r: -r[1])

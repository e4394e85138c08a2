"""Graph datasets: on-disk format, adjacency normalization, splits, generators.

Dataset directory layout::

    edges.tsv      two whitespace-separated integer columns, undirected,
                   0-indexed; duplicates/reversed pairs and self loops are
                   cleaned up on load
    features.csv   n rows of F comma-separated reals, or
    features.bin   little-endian float32, row-major (shape from meta.json)
    labels.csv     n integers in 0..C-1, each of the C classes used
    meta.json      {"n": ..., "F": ..., "C": ..., "name": ...}

Split files are JSON objects holding arrays of node ids per mask.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .ioutil import atomic_write_bytes
from .rng import rng as make_rng
from .sparse import SparseMatrix


class DatasetError(Exception):
    pass


@dataclass(frozen=True)
class Graph:
    n: int
    adjacency: SparseMatrix        # symmetric, no stored self loops
    features: np.ndarray           # (n, F)
    labels: np.ndarray             # (n,) ints in 0..C-1
    class_count: int
    name: str = "graph"

    def __post_init__(self):
        if self.features.shape[0] != self.n:
            raise DatasetError("feature row count != node count")
        if self.labels.shape != (self.n,):
            raise DatasetError("labels must be one integer per node")
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.class_count
        ):
            raise DatasetError("label out of range")
        if self.adjacency.shape != (self.n, self.n):
            raise DatasetError("adjacency shape mismatch")

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def edge_count(self) -> int:
        return self.adjacency.nnz // 2


# node-id partitions of a split, in file order
SPLIT_PARTS = ("train", "val", "test", "ood_val", "ood_test")


@dataclass(frozen=True)
class SplitSpec:
    id_classes: tuple
    ood_classes: tuple
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    ood_val: np.ndarray
    ood_test: np.ndarray
    seed: int

    @property
    def has_ood(self) -> bool:
        return self.ood_test.size > 0

    def to_json(self) -> str:
        """json.dumps(fields, indent=1), from the ints' text: indent selects
        json's pure-Python encoder, 4x slower."""
        lists = {"id_classes": self.id_classes,
                 "ood_classes": self.ood_classes,
                 **{p: getattr(self, p).tolist() for p in SPLIT_PARTS}}
        lines = [f' "{k}": [\n  ' + ",\n  ".join(map(str, v)) + "\n ]"
                 if v else f' "{k}": []' for k, v in lists.items()]
        return "{\n" + ",\n".join([*lines, f' "seed": {self.seed}']) + "\n}"

    @classmethod
    def from_json(cls, text: str) -> "SplitSpec":
        """Parse to_json output; a class list or partition that is not a
        flat list of 64-bit integers raises ValueError naming it."""
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError("a split must be a JSON object")

        def ints(key):
            v = d[key]
            if not (isinstance(v, list) and all(
                    type(i) is int and -2**63 <= i < 2**63 for i in v)):
                raise ValueError(f"{key} must be a flat list of 64-bit "
                                 "integers")
            return v

        if type(d["seed"]) is not int:
            raise ValueError("seed must be an integer")
        return cls(id_classes=tuple(ints("id_classes")),
                   ood_classes=tuple(ints("ood_classes")),
                   **{p: np.asarray(ints(p), dtype=np.int64)
                      for p in SPLIT_PARTS},
                   seed=d["seed"])


def sorted_distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of the sorted array a, by a compare of
    neighbours: numpy 2's np.unique hashes integers, which is slower."""
    return a[np.r_[True, a[1:] != a[:-1]]] if a.size else a


def build_graph(edges, features, labels, class_count, name="graph") -> Graph:
    """The Graph of an edge list.  Its symmetric 0/1 adjacency, with no
    self loops or repeats, comes from one sort of the keys u n + v of
    both directions: row i holds the distinct keys in [i n, (i + 1) n)."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = features.shape[0]
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        bad = edges[(edges.min(axis=1) < 0) | (edges.max(axis=1) >= n)][0]
        raise DatasetError(
            f"edge endpoint out of range for n={n}: ({bad[0]}, {bad[1]})"
        )
    u, v = edges[:, 0], edges[:, 1]
    keys = sorted_distinct(np.sort(np.concatenate([u * n + v, v * n + u])))
    if (u == v).any():                      # drop the self loops, u (n + 1)
        keys = keys[keys % (n + 1) != 0]
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    np.remainder(keys, n, out=keys)                 # the columns
    return Graph(n=n, adjacency=SparseMatrix(indptr, keys, np.ones(
        keys.size, np.float32), (n, n)), features=features, labels=labels,
        class_count=int(class_count), name=name)


# -- dataset directory IO ------------------------------------------------

def load_dataset(directory) -> Graph:
    """Load and validate a dataset directory (raw features; see
    zscore_features); any failure is a DatasetError naming the file."""
    try:
        with warnings.catch_warnings():     # an empty file fails by shape
            warnings.filterwarnings("ignore", "loadtxt: input contained no")
            return _read_dataset(directory)
    except OSError as exc:                  # a directory, or unreadable
        raise DatasetError(f"cannot read {exc.filename}: {exc.strerror}") \
            from None


def _read_dataset(directory):
    def path(fname):
        p = os.path.join(directory, fname)
        if not os.path.exists(p):
            raise DatasetError(f"missing dataset file: {p}")
        return p

    meta_path = path("meta.json")
    try:
        with open(meta_path, "rb") as fh:
            meta = json.loads(fh.read().decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise DatasetError(f"cannot read {meta_path}: {exc}") from None
    if not isinstance(meta, dict):
        raise DatasetError(f"{meta_path} must hold a JSON object")
    for key in ("n", "F", "C"):
        value = meta.get(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise DatasetError(f"{meta_path}: field '{key}' must be an "
                               f"integer >= 1, got {value!r}")
    n, f_dim, c = meta["n"], meta["F"], meta["C"]

    csv_path = os.path.join(directory, "features.csv")
    bin_path = os.path.join(directory, "features.bin")
    feature_path = csv_path if os.path.exists(csv_path) else bin_path
    if os.path.exists(csv_path):
        try:
            features = np.loadtxt(csv_path, delimiter=",", dtype=np.float64,
                                  ndmin=2)
        except ValueError as exc:
            raise DatasetError(f"non-numeric feature cell in {csv_path}: "
                               f"{exc}") from None
    elif os.path.exists(bin_path):
        raw = np.fromfile(bin_path, dtype="<f4")
        if raw.size != n * f_dim:
            raise DatasetError(f"{bin_path} holds {raw.size} values, "
                               f"{meta_path} gives n * F = {n * f_dim}")
        features = raw.reshape(n, f_dim).astype(np.float64)
    else:
        raise DatasetError(f"missing dataset file: {csv_path} (or features.bin)")
    if features.shape != (n, f_dim):
        raise DatasetError(f"{csv_path} has shape {features.shape}, "
                           f"{meta_path} gives ({n}, {f_dim})")
    if not np.isfinite(features).all():
        row, col = np.argwhere(~np.isfinite(features))[0]
        raise DatasetError(
            f"non-finite feature value {features[row, col]} at row {row}, "
            f"column {col} of {feature_path}"
        )

    label_path = path("labels.csv")
    labels = _load_ints(label_path, ndmin=1)
    if labels.shape != (n,):
        raise DatasetError(f"{label_path} has shape {labels.shape}, "
                           f"{meta_path} gives n = {n}")
    bad = labels[(labels < 0) | (labels >= c)]
    if bad.size:
        raise DatasetError(f"{label_path}: label {bad[0]} is outside "
                           f"0..{c - 1}, {meta_path} gives C = {c}")
    empty = np.flatnonzero(np.bincount(labels, minlength=c) == 0)
    if empty.size:
        raise DatasetError(f"{label_path}: no node has label {empty[0]}, "
                           f"{meta_path} gives C = {c}")

    edge_path = path("edges.tsv")
    edges = _load_ints(edge_path, ndmin=2)
    if edges.size and edges.shape[1] != 2:
        raise DatasetError(f"{edge_path} must have two columns")

    try:
        return build_graph(edges, features, labels, c, name=str(
            meta.get("name", os.path.basename(directory))))
    except DatasetError as exc:     # features and labels passed above
        raise DatasetError(f"{edge_path}: {exc} (n from {meta_path})") \
            from None


def _load_ints(path, ndmin):
    """np.loadtxt of an integer file; an entry that is not an integer
    raises a DatasetError naming the file and the line."""
    try:
        return np.loadtxt(path, dtype=np.int64, ndmin=ndmin)
    except ValueError as exc:
        with open(path, errors="replace") as fh:
            for lineno, line in enumerate(fh, 1):
                for cell in line.split("#", 1)[0].split():
                    if not cell.lstrip("+-").isdigit():
                        raise DatasetError(f"{path}, line {lineno}: {cell!r}"
                                           " is not an integer") from None
        raise DatasetError(f"{path}: {exc}") from None


def save_dataset(graph: Graph, directory):
    """Write a Graph as a dataset directory (atomic per file), its
    features as features.bin."""
    os.makedirs(directory, exist_ok=True)
    # each undirected edge once, as (i, j) with i < j in CSR order
    a = graph.adjacency
    rows = np.repeat(np.arange(graph.n), np.diff(a.indptr))
    upper = rows < a.indices
    pairs = np.column_stack([rows[upper], a.indices[upper]])
    atomic_write_bytes(os.path.join(directory, "edges.tsv"),
                       ("%d\t%d\n" * len(pairs)
                        % tuple(pairs.ravel().tolist())).encode())

    atomic_write_bytes(os.path.join(directory, "features.bin"),
                       graph.features.astype("<f4").tobytes())
    # a features.csv would take precedence on load
    csv_p = os.path.join(directory, "features.csv")
    if os.path.exists(csv_p):
        os.remove(csv_p)

    atomic_write_bytes(os.path.join(directory, "labels.csv"),
                  ("\n".join(str(int(v)) for v in graph.labels) + "\n").encode())
    meta = {"n": graph.n, "F": graph.feature_dim, "C": graph.class_count,
            "name": graph.name}
    atomic_write_bytes(os.path.join(directory, "meta.json"),
                  (json.dumps(meta, indent=1) + "\n").encode())


# -- GCN adjacency normalization -----------------------------------------

def normalize_adjacency(graph: Graph) -> SparseMatrix:
    """D^{-1/2} (A + I) D^{-1/2} with degrees taken after self-loop insertion;
    entry (i, j) is scale[i] * scale[j], so the result equals its transpose
    bit for bit: reasoning.propagate's and evidence.direct_logits' VJPs
    multiply by it in its place, sparing an n x n transpose as large as
    itself.
    The diagonal goes into A's CSR arrays, after each row's columns below
    it (A stores no self loops)."""
    a = graph.adjacency
    n = graph.n
    counts = np.diff(a.indptr)
    scale = 1.0 / np.sqrt(counts + 1.0)
    rows = np.repeat(np.arange(n, dtype=a.indices.dtype), counts)
    vals = scale[rows] * scale[a.indices] * a.data
    at = a.indptr[:-1] + np.bincount(rows[a.indices < rows], minlength=n)
    del rows
    return SparseMatrix(a.indptr + np.arange(n + 1),
                        np.insert(a.indices, at, np.arange(n)),
                        np.insert(vals, at, scale * scale), (n, n))


# -- splits ----------------------------------------------------------------

# the leave-out protocol: ID train:val:test, and OOD nodes in validation
SPLIT_RATIOS = (1, 1, 8)
OOD_VAL_FRACTION = 0.2


def make_split(graph: Graph, ood_classes, seed=0) -> SplitSpec:
    """Leave-out split: chosen classes become OOD, ID nodes get train/val/test
    by SPLIT_RATIOS and OOD nodes ood_val/ood_test by OOD_VAL_FRACTION.
    Of graph it reads the labels and class_count only (a
    training.PreparedGraph has them too).

    Deterministic in the seed.  Re-draws the ID permutation (up to 100
    times from the same stream) until every ID class with >= 10 nodes has
    at least one training node.
    """
    ood_classes = tuple(sorted(set(int(c) for c in ood_classes)))
    all_classes = set(range(graph.class_count))
    if not set(ood_classes) <= all_classes:
        raise ValueError(f"ood_classes {list(ood_classes)} outside the "
                         f"graph's classes 0..{graph.class_count - 1}")
    id_classes = tuple(sorted(all_classes - set(ood_classes)))
    if len(id_classes) < 2:
        raise ValueError(f"ood_classes {list(ood_classes)} leave fewer than "
                         "2 in-distribution classes")

    is_ood = np.isin(graph.labels, ood_classes)
    id_nodes = np.flatnonzero(~is_ood)
    ood_nodes = np.flatnonzero(is_ood)
    for c in id_classes:
        if not np.any(graph.labels[id_nodes] == c):
            raise ValueError(f"in-distribution class {c} has no nodes")

    r = np.asarray(SPLIT_RATIOS, dtype=np.float64)
    fr = r / r.sum()
    n_id = id_nodes.size
    n_train = int(n_id * fr[0])
    n_val = int(n_id * fr[1])

    gen = make_rng(seed)
    big = np.flatnonzero(np.bincount(graph.labels[id_nodes],
                                     minlength=graph.class_count) >= 10)
    big = [c for c in big if c in id_classes]
    for _ in range(100):
        perm = id_nodes[gen.permutation(n_id)]
        train = perm[:n_train]
        train_classes = set(graph.labels[train].tolist())
        if all(c in train_classes for c in big):
            break
    else:
        raise ValueError("could not build a split covering every ID class")

    operm = ood_nodes[gen.permutation(ood_nodes.size)]
    n_oval = int(round(ood_nodes.size * OOD_VAL_FRACTION))
    return SplitSpec(
        id_classes=id_classes,
        ood_classes=ood_classes,
        train=np.sort(train),
        val=np.sort(perm[n_train:n_train + n_val]),
        test=np.sort(perm[n_train + n_val:]),
        ood_val=np.sort(operm[:n_oval]),
        ood_test=np.sort(operm[n_oval:]),
        seed=int(seed),
    )


def zscore_features(graph: Graph) -> Graph:
    """Per-column standardized copy (constant columns are only centered)."""
    mu = graph.features.mean(axis=0)
    sd = graph.features.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    return Graph(n=graph.n, adjacency=graph.adjacency,
                 features=(graph.features - mu) / sd, labels=graph.labels,
                 class_count=graph.class_count, name=graph.name)


def remap_labels(graph: Graph, split: SplitSpec) -> np.ndarray:
    """Labels remapped so ID classes are 0..K-1; OOD nodes get -1 (of
    graph, n and labels are read)."""
    out = np.full(graph.n, -1, dtype=np.int64)
    for i, c in enumerate(split.id_classes):
        out[graph.labels == c] = i
    return out


# -- synthetic generators ---------------------------------------------------

def gen_erdos_renyi(n, density, feature_dim, seed, class_count=4,
                    name=None) -> Graph:
    """G(n, p) with standard-normal features and round-robin dummy labels.

    Each unordered pair is included independently with probability
    `density`, sampled by geometric skipping over the linearized upper
    triangle (exact Bernoulli process, O(edges) work).
    """
    if not 0.0 <= density < 1.0:
        raise ValueError("density must lie in [0, 1)")
    gen = make_rng(seed)
    total = n * (n - 1) // 2
    edges = []
    if density > 0.0 and total > 0:
        log1mp = np.log1p(-density)
        pos = -1
        batch = max(1024, int(total * density * 1.2))
        while True:
            u = gen.random(batch)
            skips = 1 + np.floor(np.log1p(-u) / log1mp).astype(np.int64)
            steps = pos + np.cumsum(skips)
            inside = steps < total
            edges.append(steps[inside])
            if not inside.all():
                break
            pos = int(steps[-1])
        flat = np.concatenate(edges)
        # invert t = start(i) + (j-i-1): row i is the largest i with
        # start(i) = i*n - i*(i+1)/2 <= t, found exactly in integers
        rows = np.arange(n, dtype=np.int64)
        start = rows * n - rows * (rows + 1) // 2
        i = np.searchsorted(start, flat, side="right") - 1
        j = flat - start[i] + i + 1
        pair_list = np.stack([i, j], axis=1)
    else:
        pair_list = np.zeros((0, 2), dtype=np.int64)

    features = gen.standard_normal((n, feature_dim))
    labels = np.arange(n) % class_count
    return build_graph(pair_list, features, labels, class_count,
                       name=name or f"er{n}x{density}")


def gen_planted_partition(blocks, nodes_per_block, p_in, p_out, feature_dim,
                          mean_separation, seed, name=None) -> Graph:
    """Planted-partition graph with Gaussian block features.

    Edges within a block appear with probability p_in, across blocks with
    p_out (p_in > p_out required).  Each block's feature mean is a random
    direction scaled to `mean_separation`; unit-variance noise is added.
    Labels are block ids.
    """
    if not p_in > p_out:
        raise ValueError("p_in must exceed p_out")
    if mean_separation < 0:
        raise ValueError("mean_separation must be nonnegative")
    gen = make_rng(seed)
    n = blocks * nodes_per_block
    labels = np.repeat(np.arange(blocks), nodes_per_block)

    means = np.zeros((blocks, feature_dim))
    if mean_separation > 0:
        raw = gen.standard_normal((blocks, feature_dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        means = raw * mean_separation

    rows, cols_ = [], []
    for a in range(blocks):
        ia = np.arange(a * nodes_per_block, (a + 1) * nodes_per_block)
        for b in range(a, blocks):
            ib = np.arange(b * nodes_per_block, (b + 1) * nodes_per_block)
            p = p_in if a == b else p_out
            u = gen.random((ia.size, ib.size))
            r, c = np.nonzero(np.triu(u < p, k=1) if a == b else u < p)
            rows.append(ia[r])
            cols_.append(ib[c])
    edges = np.stack([np.concatenate(rows), np.concatenate(cols_)], axis=1) \
        if rows else np.zeros((0, 2), dtype=np.int64)

    features = means[labels] + gen.standard_normal((n, feature_dim))
    return build_graph(edges, features, labels, blocks,
                       name=name or f"ppm{blocks}")


# Frozen reference dataset used by the acceptance suite and the docs:
# 6 blocks of 200 nodes, the last two blocks held out as OOD.
PPM6_PARAMS = dict(blocks=6, nodes_per_block=200, p_in=0.05, p_out=0.002,
                   feature_dim=16, mean_separation=3.0, seed=60601,
                   name="ppm6")
PPM6_OOD_CLASSES = (4, 5)


def gen_ppm6() -> Graph:
    return gen_planted_partition(**PPM6_PARAMS)

"""Graph datasets: on-disk format, adjacency normalization, splits, generators.

Dataset directory layout::

    edges.tsv      two whitespace-separated integer columns, undirected,
                   0-indexed; duplicates/reversed pairs and self loops are
                   cleaned up on load
    features.csv   n rows of F comma-separated reals, or
    features.bin   little-endian float32, row-major (shape from meta.json)
    labels.csv     n integers in 0..C-1
    meta.json      {"n": ..., "F": ..., "C": ..., "name": ...}

Split files are JSON objects holding arrays of node ids per mask.
"""

from __future__ import annotations

import json
import os
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
        payload = {
            "id_classes": list(self.id_classes),
            "ood_classes": list(self.ood_classes),
            "train": self.train.tolist(),
            "val": self.val.tolist(),
            "test": self.test.tolist(),
            "ood_val": self.ood_val.tolist(),
            "ood_test": self.ood_test.tolist(),
            "seed": self.seed,
        }
        return json.dumps(payload, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "SplitSpec":
        """Parse to_json output; a partition that is not a flat list of
        integer node ids raises ValueError naming it."""
        d = json.loads(text)

        def node_ids(part):
            ids = d[part]
            if not (isinstance(ids, list) and all(
                    type(i) is int for i in ids)):
                raise ValueError(f"{part} must be a flat list of integer "
                                 "node ids")
            return np.asarray(ids, dtype=np.int64)

        return cls(
            id_classes=tuple(d["id_classes"]),
            ood_classes=tuple(d["ood_classes"]),
            train=node_ids("train"),
            val=node_ids("val"),
            test=node_ids("test"),
            ood_val=node_ids("ood_val"),
            ood_test=node_ids("ood_test"),
            seed=int(d["seed"]),
        )


def _symmetric_adjacency(edges: np.ndarray, n: int) -> SparseMatrix:
    """Build a clean symmetric 0/1 adjacency from an edge list."""
    u, v = edges[:, 0], edges[:, 1]
    keep = u != v
    u, v = u[keep], v[keep]
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    m = SparseMatrix.from_coo(rows, cols, np.ones(rows.size), (n, n))
    # clamp duplicate-summed values back to 1
    return SparseMatrix(m.indptr, m.indices, np.ones(m.nnz), (n, n))


def build_graph(edges, features, labels, class_count, name="graph") -> Graph:
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = features.shape[0]
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        bad = edges[(edges.min(axis=1) < 0) | (edges.max(axis=1) >= n)][0]
        raise DatasetError(
            f"edge endpoint out of range for n={n}: ({bad[0]}, {bad[1]})"
        )
    return Graph(n=n, adjacency=_symmetric_adjacency(edges, n),
                 features=features, labels=labels,
                 class_count=int(class_count), name=name)


# -- dataset directory IO ------------------------------------------------

def load_dataset(directory) -> Graph:
    """Load and validate a dataset directory (raw features; see
    zscore_features)."""
    def path(fname):
        p = os.path.join(directory, fname)
        if not os.path.exists(p) and fname not in ("features.csv", "features.bin"):
            raise DatasetError(f"missing dataset file: {p}")
        return p

    with open(path("meta.json")) as fh:
        meta = json.load(fh)
    for key in ("n", "F", "C"):
        if key not in meta:
            raise DatasetError(f"meta.json missing field '{key}'")
    n, f_dim, c = int(meta["n"]), int(meta["F"]), int(meta["C"])

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
            raise DatasetError(
                f"features.bin holds {raw.size} values, expected {n * f_dim}"
            )
        features = raw.reshape(n, f_dim).astype(np.float64)
    else:
        raise DatasetError(f"missing dataset file: {csv_path} (or features.bin)")
    if features.shape != (n, f_dim):
        raise DatasetError(
            f"feature shape {features.shape} != meta ({n}, {f_dim})"
        )
    if not np.isfinite(features).all():
        row, col = np.argwhere(~np.isfinite(features))[0]
        raise DatasetError(
            f"non-finite feature value {features[row, col]} at row {row}, "
            f"column {col} of {feature_path}"
        )

    labels = _load_ints(path("labels.csv"), ndmin=1)
    if labels.shape != (n,):
        raise DatasetError("labels.csv row count != n")

    edge_path = path("edges.tsv")
    if os.path.getsize(edge_path) == 0:
        edges = np.zeros((0, 2), dtype=np.int64)
    else:
        edges = _load_ints(edge_path, ndmin=2)
    if edges.size and edges.shape[1] != 2:
        raise DatasetError("edges.tsv must have two columns")

    return build_graph(edges, features, labels, c,
                       name=str(meta.get("name", os.path.basename(directory))))


def _load_ints(path, ndmin):
    """np.loadtxt of an integer file; an entry that is not an integer
    raises a DatasetError naming the file and the line."""
    try:
        return np.loadtxt(path, dtype=np.int64, ndmin=ndmin)
    except ValueError as exc:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                for cell in line.split("#", 1)[0].split():
                    if not cell.lstrip("+-").isdigit():
                        raise DatasetError(f"{path}, line {lineno}: {cell!r}"
                                           " is not an integer") from None
        raise DatasetError(f"{path}: {exc}") from None


def save_dataset(graph: Graph, directory, feature_format="bin"):
    """Write a Graph as a dataset directory (atomic per file)."""
    os.makedirs(directory, exist_ok=True)
    # each undirected edge once, as (i, j) with i < j in CSR order
    a = graph.adjacency
    rows = np.repeat(np.arange(graph.n), np.diff(a.indptr))
    upper = rows < a.indices
    pairs = np.column_stack([rows[upper], a.indices[upper]])
    atomic_write_bytes(os.path.join(directory, "edges.tsv"),
                       ("%d\t%d\n" * len(pairs)
                        % tuple(pairs.ravel().tolist())).encode())

    if feature_format == "bin":
        payload = graph.features.astype("<f4").tobytes()
        atomic_write_bytes(os.path.join(directory, "features.bin"), payload)
        csv_p = os.path.join(directory, "features.csv")
        if os.path.exists(csv_p):
            os.remove(csv_p)
    elif feature_format == "csv":
        rows = "\n".join(",".join(repr(float(v)) for v in row)
                         for row in graph.features)
        atomic_write_bytes(os.path.join(directory, "features.csv"), (rows + "\n").encode())
    else:
        raise ValueError(f"unknown feature format: {feature_format}")

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
    bit for bit, as autodiff.spmm's gradient requires."""
    a = graph.adjacency
    n = graph.n
    deg = np.diff(a.indptr) + 1.0
    scale = 1.0 / np.sqrt(deg)
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    cols = a.indices
    vals = scale[rows] * scale[cols] * a.data
    rows = np.concatenate([rows, np.arange(n)])
    cols = np.concatenate([cols, np.arange(n)])
    vals = np.concatenate([vals, scale * scale])
    return SparseMatrix.from_coo(rows, cols, vals, (n, n))


# -- splits ----------------------------------------------------------------

# the leave-out protocol: ID train:val:test, and OOD nodes in validation
SPLIT_RATIOS = (1, 1, 8)
OOD_VAL_FRACTION = 0.2


def make_split(graph: Graph, ood_classes, seed=0) -> SplitSpec:
    """Leave-out split: chosen classes become OOD, ID nodes get train/val/test
    by SPLIT_RATIOS and OOD nodes ood_val/ood_test by OOD_VAL_FRACTION.

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
    """Labels remapped so ID classes are 0..K-1; OOD nodes get -1."""
    mapping = {c: i for i, c in enumerate(split.id_classes)}
    out = np.full(graph.n, -1, dtype=np.int64)
    for c, i in mapping.items():
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
        flat = np.concatenate(edges) if edges else np.zeros(0, dtype=np.int64)
        # invert t = i*n - i*(i+1)/2 + (j-i-1); row i is the largest i with
        # start(i) <= t, start(i) = i*n - i*(i+1)/2
        two_n1 = 2.0 * n - 1.0
        i = np.floor((two_n1 - np.sqrt(two_n1 * two_n1 - 8.0 * flat)) / 2.0)
        i = i.astype(np.int64)

        def start(k):
            return k * n - k * (k + 1) // 2

        over = start(i) > flat          # fix float roundoff
        while over.any():
            i[over] -= 1
            over = start(i) > flat
        under = flat >= start(i + 1)
        while under.any():
            i[under] += 1
            under = flat >= start(i + 1)
        j = flat - start(i) + i + 1
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
            if a == b:
                mask = np.triu(u < p, k=1)
            else:
                mask = u < p
            r, c = np.nonzero(mask)
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

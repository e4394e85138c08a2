import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from betagraph import graphs
from betagraph.graphs import DatasetError
from conftest import REPO_ROOT, save_dataset_as


class TestLoadDataset:
    def test_toy3(self, toy3_dir):
        g = graphs.load_dataset(toy3_dir)
        assert g.n == 3
        assert g.class_count == 2
        assert g.edge_count == 2
        assert g.name == "toy3"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="missing"):
            graphs.load_dataset(tmp_path)

    def test_edge_out_of_range(self, tmp_path, toy3_dir):
        for f in ("features.csv", "labels.csv", "meta.json"):
            (tmp_path / f).write_text(open(os.path.join(toy3_dir, f)).read())
        (tmp_path / "edges.tsv").write_text("2\t9\n")
        with pytest.raises(DatasetError, match="out of range"):
            graphs.load_dataset(tmp_path)

    def test_non_numeric_feature_cell(self, tmp_path, toy3_dir):
        for f in ("edges.tsv", "labels.csv", "meta.json"):
            (tmp_path / f).write_text(open(os.path.join(toy3_dir, f)).read())
        (tmp_path / "features.csv").write_text("1.0,oops\n0.0,1.0\n1.0,1.0\n")
        with pytest.raises(DatasetError, match="non-numeric"):
            graphs.load_dataset(tmp_path)

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_file(self, tmp_path, fmt, bad):
        g = graphs.gen_planted_partition(2, 5, 0.4, 0.1, 3, 2.0, seed=4)
        g.features[3, 2] = bad
        save_dataset_as(g, tmp_path, fmt)
        with pytest.raises(DatasetError,
                           match=rf"non-finite.*row 3, column 2.*features\.{fmt}"):
            graphs.load_dataset(tmp_path)

    @staticmethod
    def with_meta(tmp_path, toy3_dir, write):
        for f in ("edges.tsv", "features.csv", "labels.csv"):
            (tmp_path / f).write_text(open(os.path.join(toy3_dir, f)).read())
        write(tmp_path / "meta.json")
        return tmp_path

    @pytest.mark.parametrize("write", [
        lambda p: p.write_text('{"n": 3, "F": 2'),
        lambda p: p.write_bytes(b'{"n": 3, "F": 2, "C": 2, "name": "\xe9"}'),
        lambda p: p.mkdir(),
        lambda p: p.write_text('[3, 2, 2]'),
        lambda p: p.write_text('"toy3"'),
    ], ids=["unparseable", "not_utf8", "directory", "list", "string"])
    def test_unreadable_meta_names_file(self, tmp_path, toy3_dir, write):
        ds = self.with_meta(tmp_path, toy3_dir, write)
        with pytest.raises(DatasetError, match="meta.json"):
            graphs.load_dataset(ds)

    @pytest.mark.parametrize("key,value", [
        ("n", 3.5), ("n", 3.0), ("F", True), ("C", [2]), ("C", "2"),
        ("n", None), ("F", 0), ("C", -1), ("n", 0),
    ])
    def test_meta_sizes_are_positive_integers(self, tmp_path, toy3_dir, key,
                                              value):
        meta = {"n": 3, "F": 2, "C": 2, key: value}
        ds = self.with_meta(tmp_path, toy3_dir,
                            lambda p: p.write_text(json.dumps(meta)))
        with pytest.raises(DatasetError, match=f"meta.json.*'{key}'"):
            graphs.load_dataset(ds)

    @staticmethod
    def toy3_copy(tmp_path, toy3_dir):
        for f in os.listdir(toy3_dir):
            (tmp_path / f).write_bytes(open(os.path.join(toy3_dir, f),
                                            "rb").read())
        return tmp_path

    @pytest.mark.parametrize("fname", ["edges.tsv", "features.csv",
                                       "labels.csv"])
    def test_directory_in_place_of_file_named(self, tmp_path, toy3_dir,
                                              fname):
        ds = self.toy3_copy(tmp_path, toy3_dir)
        (ds / fname).unlink()
        (ds / fname).mkdir()
        with pytest.raises(DatasetError, match=f"cannot read .*{fname}"):
            graphs.load_dataset(ds)

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                        reason="root reads files without read permission")
    @pytest.mark.parametrize("fname", ["edges.tsv", "features.csv",
                                       "labels.csv", "meta.json"])
    def test_unreadable_file_named(self, tmp_path, toy3_dir, fname):
        ds = self.toy3_copy(tmp_path, toy3_dir)
        (ds / fname).chmod(0)
        with pytest.raises(DatasetError, match=f"cannot read .*{fname}"):
            graphs.load_dataset(ds)

    @pytest.mark.parametrize("text", ["", " \n\n\t\n"], ids=["empty", "blank"])
    def test_blank_edges_load_without_warning(self, tmp_path, toy3_dir, text):
        ds = self.toy3_copy(tmp_path, toy3_dir)
        (ds / "edges.tsv").write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = graphs.load_dataset(ds)
        assert g.edge_count == 0

    def test_blank_labels_named_without_warning(self, tmp_path, toy3_dir):
        ds = self.toy3_copy(tmp_path, toy3_dir)
        (ds / "labels.csv").write_text(" \n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetError, match="labels.csv has shape"):
                graphs.load_dataset(ds)

    def test_duplicate_and_reversed_edges_deduplicated(self, tmp_path):
        (tmp_path / "edges.tsv").write_text("0\t1\n1\t0\n0\t1\n1\t1\n")
        (tmp_path / "features.csv").write_text("0.0\n1.0\n")
        (tmp_path / "labels.csv").write_text("0\n1\n")
        (tmp_path / "meta.json").write_text(
            json.dumps({"n": 2, "F": 1, "C": 2}))
        g = graphs.load_dataset(tmp_path)
        assert g.edge_count == 1
        dense = g.adjacency.csr.toarray()
        assert np.array_equal(dense, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_roundtrip_csv_exact(self, tmp_path):
        g = graphs.gen_planted_partition(3, 8, 0.4, 0.05, 4, 2.0, seed=1)
        save_dataset_as(g, tmp_path / "ds", "csv")
        back = graphs.load_dataset(tmp_path / "ds")
        assert back.n == g.n
        assert np.array_equal(back.labels, g.labels)
        assert np.array_equal(back.features, g.features)
        assert np.array_equal(back.adjacency.csr.toarray(),
                              g.adjacency.csr.toarray())

    def test_roundtrip_bin(self, tmp_path):
        g = graphs.gen_erdos_renyi(20, 0.2, 3, seed=2)
        g = graphs.Graph(n=g.n, adjacency=g.adjacency,
                         features=g.features.astype(np.float32).astype(np.float64),
                         labels=g.labels, class_count=g.class_count)
        graphs.save_dataset(g, tmp_path / "ds")
        back = graphs.load_dataset(tmp_path / "ds")
        assert np.array_equal(back.features, g.features)
        assert np.array_equal(back.adjacency.csr.toarray(),
                              g.adjacency.csr.toarray())

    @pytest.mark.parametrize("graph", [
        graphs.gen_erdos_renyi(300, 0.03, 2, seed=6),
        graphs.gen_planted_partition(3, 8, 0.4, 0.05, 2, 2.0, seed=1),
        graphs.build_graph(np.zeros((0, 2)), np.zeros((4, 1)), np.zeros(4), 1),
    ], ids=["er", "ppm", "no_edges"])
    def test_edges_tsv_matches_per_edge_writer(self, tmp_path, graph):
        # the per-edge loop the vectorised writer replaced
        a = graph.adjacency
        want = "".join(f"{i}\t{j}\n" for i in range(graph.n)
                       for j in a.indices[a.indptr[i]:a.indptr[i + 1]].tolist()
                       if i < j)
        graphs.save_dataset(graph, tmp_path)
        assert (tmp_path / "edges.tsv").read_bytes() == want.encode()

    def test_zscore_on_load(self, tmp_path):
        g = graphs.gen_planted_partition(2, 10, 0.4, 0.1, 3, 4.0, seed=3)
        save_dataset_as(g, tmp_path / "ds", "csv")
        norm = graphs.zscore_features(graphs.load_dataset(tmp_path / "ds"))
        assert np.abs(norm.features.mean(axis=0)).max() < 1e-9
        assert np.abs(norm.features.std(axis=0) - 1.0).max() < 1e-9


class TestNormalizeAdjacency:
    def test_single_node(self):
        g = graphs.build_graph(np.zeros((0, 2)), np.zeros((1, 2)),
                               np.zeros(1), 1)
        assert np.array_equal(graphs.normalize_adjacency(g).csr.toarray(),
                              np.array([[1.0]]))

    def test_two_nodes_one_edge(self):
        g = graphs.build_graph(np.array([[0, 1]]), np.zeros((2, 2)),
                               np.zeros(2), 1)
        dense = graphs.normalize_adjacency(g).csr.toarray()
        assert dense == pytest.approx(np.full((2, 2), 0.5))

    def test_path_graph(self):
        g = graphs.build_graph(np.array([[0, 1], [1, 2]]), np.zeros((3, 2)),
                               np.zeros(3), 1)
        dense = graphs.normalize_adjacency(g).csr.toarray()
        assert dense[0, 1] == pytest.approx(1 / np.sqrt(6))
        assert dense[0, 0] == pytest.approx(1 / 2)
        assert dense[1, 1] == pytest.approx(1 / 3)

    def test_symmetry_and_degree_reconstruction(self):
        # D^{1/2} Ahat D^{1/2} must equal A + I, so its row sums are deg + 1
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = rng.integers(2, 9)
            dense = np.triu((rng.random((n, n)) < 0.4), 1).astype(float)
            dense = dense + dense.T
            edges = np.argwhere(np.triu(dense) > 0)
            g = graphs.build_graph(edges.reshape(-1, 2), np.zeros((n, 1)),
                                   np.zeros(n), 1)
            ahat = graphs.normalize_adjacency(g).csr.toarray()
            assert np.abs(ahat - ahat.T).max() < 1e-12
            deg = dense.sum(axis=1) + 1
            rec = np.sqrt(deg)[:, None] * ahat * np.sqrt(deg)[None, :]
            assert np.abs(rec - (dense + np.eye(n))).max() < 1e-12


class TestNormalizedAdjacencyIsSymmetric:
    """autodiff.spmm back-propagates through adj @ g, not adj.T @ g: the
    normalized adjacency must equal its transpose bit for bit."""

    @staticmethod
    def assert_symmetric_bits(g):
        m = graphs.normalize_adjacency(g)
        t = m.csr.T.tocsr()
        t.sort_indices()
        for name in ("indptr", "indices", "data"):
            got, want = getattr(t, name), getattr(m, name)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name

    def test_ppm6(self):
        self.assert_symmetric_bits(graphs.gen_ppm6())

    def test_erdos_renyi(self):
        self.assert_symmetric_bits(
            graphs.gen_erdos_renyi(3000, 2e-3, 4, seed=3, class_count=6))

    def test_toy3(self, toy3_dir):
        self.assert_symmetric_bits(graphs.load_dataset(toy3_dir))

    def test_duplicate_reversed_and_self_loop_edges(self):
        edges = np.array([[0, 1], [1, 0], [0, 1], [2, 2], [3, 1], [1, 3],
                          [4, 0], [3, 3], [2, 4], [4, 2], [2, 4]])
        self.assert_symmetric_bits(graphs.build_graph(
            edges, np.zeros((5, 1)), np.zeros(5), 1))

    def test_edgeless(self):
        self.assert_symmetric_bits(graphs.build_graph(
            np.zeros((0, 2)), np.zeros((4, 1)), np.zeros(4), 1))


class TestMakeSplit:
    def test_ratio_sizes(self):
        g = graphs.gen_planted_partition(2, 50, 0.3, 0.1, 4, 2.0, seed=4)
        split = graphs.make_split(g, (), seed=0)
        assert split.train.size == 10
        assert split.val.size == 10
        assert split.test.size == 80

    def test_all_classes_ood_rejected(self):
        g = graphs.gen_planted_partition(3, 10, 0.4, 0.1, 4, 2.0, seed=5)
        with pytest.raises(ValueError):
            graphs.make_split(g, (0, 1, 2), seed=0)
        with pytest.raises(ValueError):
            graphs.make_split(g, (0, 1), seed=0)

    def test_deterministic(self):
        g = graphs.gen_planted_partition(4, 25, 0.3, 0.05, 4, 2.0, seed=6)
        a = graphs.make_split(g, (3,), seed=9)
        b = graphs.make_split(g, (3,), seed=9)
        for f in ("train", "val", "test", "ood_val", "ood_test"):
            assert np.array_equal(getattr(a, f), getattr(b, f))

    def test_partition_exact_and_disjoint(self):
        g = graphs.gen_planted_partition(4, 25, 0.3, 0.05, 4, 2.0, seed=6)
        split = graphs.make_split(g, (2, 3), seed=1)
        id_nodes = np.flatnonzero(~np.isin(g.labels, (2, 3)))
        combined = np.concatenate([split.train, split.val, split.test])
        assert np.array_equal(np.sort(combined), id_nodes)
        ood_nodes = np.flatnonzero(np.isin(g.labels, (2, 3)))
        assert np.array_equal(
            np.sort(np.concatenate([split.ood_val, split.ood_test])), ood_nodes)
        assert split.ood_val.size == int(round(0.2 * ood_nodes.size))

    def test_every_big_class_in_train(self):
        g = graphs.gen_planted_partition(5, 30, 0.3, 0.05, 4, 2.0, seed=6)
        for seed in range(20):
            split = graphs.make_split(g, (4,), seed=seed)
            train_classes = set(g.labels[split.train].tolist())
            assert train_classes >= {0, 1, 2, 3}

    def test_json_roundtrip(self):
        g = graphs.gen_planted_partition(3, 20, 0.3, 0.05, 4, 2.0, seed=6)
        split = graphs.make_split(g, (2,), seed=3)
        back = graphs.SplitSpec.from_json(split.to_json())
        assert back.id_classes == split.id_classes
        assert np.array_equal(back.train, split.train)
        assert np.array_equal(back.ood_test, split.ood_test)


class TestErdosRenyi:
    def test_zero_density(self):
        g = graphs.gen_erdos_renyi(50, 0.0, 4, seed=0)
        assert g.edge_count == 0

    def test_edge_count_within_binomial_bound(self):
        n, p = 2000, 0.005
        g = graphs.gen_erdos_renyi(n, p, 4, seed=13)
        total = n * (n - 1) / 2
        mean, sd = total * p, np.sqrt(total * p * (1 - p))
        assert abs(g.edge_count - mean) < 3 * sd

    def test_deterministic(self):
        a = graphs.gen_erdos_renyi(300, 0.01, 4, seed=5)
        b = graphs.gen_erdos_renyi(300, 0.01, 4, seed=5)
        assert np.array_equal(a.adjacency.indices, b.adjacency.indices)
        assert np.array_equal(a.features, b.features)

    def test_simple_graph_structure(self):
        g = graphs.gen_erdos_renyi(200, 0.05, 4, seed=5)
        dense = g.adjacency.csr.toarray()
        assert np.array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 0)
        assert set(np.unique(dense)) <= {0.0, 1.0}

    def test_pair_distribution_uniformity(self):
        # every pair should be hit with roughly equal frequency
        hits = np.zeros((40, 40))
        for seed in range(60):
            g = graphs.gen_erdos_renyi(40, 0.1, 2, seed=seed)
            hits += g.adjacency.csr.toarray()
        upper = hits[np.triu_indices(40, 1)]
        assert abs(upper.mean() - 6.0) < 0.5    # 60 draws * p = 6

    def test_labels_round_robin(self):
        g = graphs.gen_erdos_renyi(10, 0.1, 2, seed=1, class_count=3)
        assert np.array_equal(g.labels, np.arange(10) % 3)


class TestPlantedPartition:
    def test_no_cross_block_edges_when_p_out_zero(self):
        g = graphs.gen_planted_partition(3, 20, 0.3, 0.0, 4, 2.0, seed=3)
        dense = g.adjacency.csr.toarray()
        labels = g.labels
        cross = dense[labels[:, None] != labels[None, :]]
        assert cross.sum() == 0

    def test_zero_separation_means_no_feature_signal(self):
        g = graphs.gen_planted_partition(4, 200, 0.05, 0.01, 6, 0.0, seed=3)
        means = np.stack([g.features[g.labels == b].mean(axis=0)
                          for b in range(4)])
        # per-block means only differ by sampling noise ~ 1/sqrt(200)
        assert np.abs(means).max() < 4 / np.sqrt(200)

    def test_labels_are_blocks(self):
        g = graphs.gen_planted_partition(3, 5, 0.5, 0.1, 2, 1.0, seed=0)
        assert np.array_equal(g.labels, np.repeat([0, 1, 2], 5))

    def test_requires_p_in_greater(self):
        with pytest.raises(ValueError):
            graphs.gen_planted_partition(2, 5, 0.1, 0.2, 2, 1.0, seed=0)

    def test_separation_controls_mean_norm(self):
        g = graphs.gen_planted_partition(3, 400, 0.02, 0.01, 8, 3.0, seed=9)
        for b in range(3):
            mu = g.features[g.labels == b].mean(axis=0)
            assert np.linalg.norm(mu) == pytest.approx(3.0, abs=0.5)

    def test_ppm6_frozen_reference(self):
        a = graphs.gen_ppm6()
        b = graphs.gen_ppm6()
        assert a.n == 1200 and a.class_count == 6
        assert np.array_equal(a.adjacency.indices, b.adjacency.indices)
        assert np.array_equal(a.features, b.features)

    def test_make_ppm6_script_writes_the_reference(self, tmp_path):
        """scripts/make_ppm6.py writes a dataset that loads back as ppm6:
        its nodes, edges and labels, and its features rounded to float32."""
        script = os.path.join(REPO_ROOT, "scripts", "make_ppm6.py")
        subprocess.run([sys.executable, script, str(tmp_path / "ppm6")],
                       check=True, capture_output=True)
        want = graphs.gen_ppm6()
        got = graphs.load_dataset(str(tmp_path / "ppm6"))
        assert got.n == want.n and got.edge_count == want.edge_count
        assert np.array_equal(got.adjacency.indptr, want.adjacency.indptr)
        assert np.array_equal(got.adjacency.indices, want.adjacency.indices)
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.features, want.features.astype(np.float32))


def test_zscore_features_helper():
    g = graphs.gen_planted_partition(2, 30, 0.3, 0.1, 5, 2.0, seed=2)
    z = graphs.zscore_features(g)
    assert np.abs(z.features.mean(axis=0)).max() < 1e-9
    assert np.abs(z.features.std(axis=0) - 1).max() < 1e-9
    assert z.adjacency is g.adjacency

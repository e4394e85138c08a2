import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from dataclasses import fields

import numpy as np
import pytest
import scipy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from betagraph import graphs, sparse, training
from betagraph.cli import _add_config_flags, _Parser, build_parser, main

PPM_ARGS = ["synth", "ppm", "--blocks", "4", "--nodes-per-block", "40",
            "--p-in", "0.15", "--p-out", "0.01", "--feature-dim", "8",
            "--separation", "3.0", "--seed", "9"]
TRAIN_FLAGS = ["--epochs-p1", "15", "--epochs-p2", "15", "--rounds", "2",
               "--gamma", "15", "--hidden-dim", "16", "--embed-dim", "8",
               "--reasoning-dim", "16", "--seed", "1",
               "--ood-classes", "3"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds") / "ppm"
    assert main(PPM_ARGS + ["--out", str(out)]) == 0
    return str(out)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, dataset):
    out = tmp_path_factory.mktemp("run") / "train"
    assert main(["train", dataset, "--out", str(out)] + TRAIN_FLAGS) == 0
    return str(out)


class TestSynth:
    def test_dataset_loads_back(self, dataset):
        from betagraph import graphs
        g = graphs.load_dataset(dataset)
        assert g.n == 160 and g.class_count == 4

    def test_byte_identical_across_invocations(self, tmp_path, dataset):
        out2 = tmp_path / "again"
        assert main(PPM_ARGS + ["--out", str(out2)]) == 0
        for fname in ("edges.tsv", "features.bin", "labels.csv", "meta.json"):
            a = open(os.path.join(dataset, fname), "rb").read()
            b = open(out2 / fname, "rb").read()
            assert a == b, fname

    def test_er_roundtrip(self, tmp_path):
        out = tmp_path / "er"
        rc = main(["synth", "er", "--nodes", "500", "--density", "0.01",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        from betagraph import graphs
        g = graphs.load_dataset(out)
        assert g.n == 500

    def test_invalid_density_usage_error(self, tmp_path, capsys):
        rc = main(["synth", "er", "--nodes", "10", "--density", "1.5",
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "density must lie in [0, 1)" in capsys.readouterr().err

    def test_p_in_not_above_p_out_usage_error(self, tmp_path, capsys):
        rc = main(["synth", "ppm", "--p-in", "0.01", "--p-out", "0.01",
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "p_in must exceed p_out" in capsys.readouterr().err

    def test_manifest_written(self, dataset):
        manifest = json.load(open(os.path.join(dataset, "manifest.json")))
        assert manifest["command"] == "synth"
        assert "edges.tsv" in manifest["outputs"]


class TestTrain:
    def test_outputs_exist(self, trained_run):
        for fname in ("checkpoint.npz", "history.csv", "manifest.json",
                      "split.json"):
            assert os.path.exists(os.path.join(trained_run, fname)), fname

    def test_reproducible_history_bytes(self, tmp_path, dataset, trained_run):
        out2 = tmp_path / "rerun"
        assert main(["train", dataset, "--out", str(out2)] + TRAIN_FLAGS) == 0
        a = open(os.path.join(trained_run, "history.csv"), "rb").read()
        b = open(out2 / "history.csv", "rb").read()
        assert a == b

    def test_missing_config_field_named(self, tmp_path, dataset, capsys):
        cfg = tmp_path / "partial.toml"
        cfg.write_text('lr_p1 = 0.01\ngamma = 15.0\n')
        rc = main(["train", dataset, "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "dropout_p1" in err

    def test_unknown_config_field_named(self, tmp_path, dataset, capsys):
        cfg = tmp_path / "bad.toml"
        cfg.write_text(
            "lr_p1 = 0.01\ndropout_p1 = 0.2\ngamma = 15.0\nlr_p2 = 0.01\n"
            "dropout_p2 = 0.2\nseed = 1\nlearning_speed = 3\n")
        rc = main(["train", dataset, "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "learning_speed" in capsys.readouterr().err

    def test_retired_config_field_unknown(self, tmp_path, dataset, capsys):
        cfg = tmp_path / "old.toml"
        cfg.write_text(
            "lr_p1 = 0.01\ndropout_p1 = 0.2\ngamma = 15.0\nlr_p2 = 0.01\n"
            "dropout_p2 = 0.2\nseed = 1\nsel_weight_aurc = 10.0\n")
        rc = main(["train", dataset, "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "unknown config field 'sel_weight_aurc'" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("line", ["split_ratios = [1, 1, 8]",
                                      "ood_val_fraction = 0.2"])
    def test_retired_split_field_unknown(self, tmp_path, dataset, capsys,
                                         line):
        cfg = tmp_path / "old.toml"
        cfg.write_text(
            "lr_p1 = 0.01\ndropout_p1 = 0.2\ngamma = 15.0\nlr_p2 = 0.01\n"
            f"dropout_p2 = 0.2\nseed = 1\n{line}\n")
        rc = main(["train", dataset, "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        name = line.split(" = ")[0]
        assert f"unknown config field '{name}'" in capsys.readouterr().err

    def test_toml_config_accepted(self, tmp_path, dataset):
        cfg = tmp_path / "ok.toml"
        cfg.write_text(
            "lr_p1 = 0.01\ndropout_p1 = 0.2\ngamma = 15.0\nlr_p2 = 0.01\n"
            "dropout_p2 = 0.2\nseed = 1\nepochs_p1 = 3\nepochs_p2 = 3\n"
            "rounds = 1\nhidden_dim = 8\nembed_dim = 4\nreasoning_dim = 8\n"
            "ood_classes = [3]\n")
        assert main(["train", dataset, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 0

    def test_json_config_accepted(self, tmp_path, dataset):
        cfg = tmp_path / "ok.json"
        cfg.write_text(json.dumps(dict(
            lr_p1=0.01, dropout_p1=0.2, gamma=15.0, lr_p2=0.01,
            dropout_p2=0.2, seed=1, epochs_p1=3, epochs_p2=3, rounds=1,
            hidden_dim=8, embed_dim=4, reasoning_dim=8, ood_classes=[3])))
        assert main(["train", dataset, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 0

    def test_dataset_hash_names_the_data_not_the_run(self, tmp_path):
        """Two synth runs of one seed write the same data files with their
        own timestamps; the train manifests record one dataset_hash."""
        hashes = []
        for run in ("a", "b"):
            data, out = tmp_path / run / "er", tmp_path / run / "train"
            assert main(["synth", "er", "--nodes", "120", "--density", "0.05",
                         "--seed", "0", "--out", str(data)]) == 0
            assert main(["train", str(data), "--out", str(out),
                         "--epochs-p1", "1", "--epochs-p2", "1",
                         "--rounds", "1", "--hidden-dim", "8",
                         "--embed-dim", "4", "--reasoning-dim", "8"]) == 0
            hashes.append(json.load(open(out / "manifest.json"))
                          ["dataset_hash"])
        assert hashes[0] == hashes[1]

    def test_history_columns(self, trained_run):
        header = open(os.path.join(trained_run, "history.csv")).readline()
        assert header.strip() == ("round,bl_loss,dl_loss,val_acc,val_aurc,"
                                  "val_auroc,selection_score")


class TestEval:
    def test_eval_outputs(self, tmp_path, dataset, trained_run):
        out = tmp_path / "eval"
        rc = main(["eval", dataset,
                   "--checkpoint", os.path.join(trained_run, "checkpoint.npz"),
                   "--split", os.path.join(trained_run, "split.json"),
                   "--out", str(out)])
        assert rc == 0
        report = json.load(open(out / "report.json"))
        per_seed = report["per_seed"]
        assert len(per_seed) == 1
        for key in ("acc", "aurc", "fpr95", "auroc", "aupr"):
            assert per_seed[0][key] is not None
        assert report["aggregate"]["acc_std"] == 0.0
        assert (out / "curves_risk_coverage.csv").exists()
        assert (out / "curves_roc.csv").exists()
        assert (out / "scores.csv").exists()
        header = open(out / "scores.csv").readline().strip().split(",")
        assert header[:4] == ["node_id", "prediction", "dissonance", "vacuity"]

    def test_manifests_record_the_environment(self, tmp_path, dataset,
                                              trained_run, monkeypatch):
        """train and eval manifests name the Python, numpy and scipy
        versions, numpy's BLAS, the BLAS thread variables, the CPU count
        and the worker count."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "eval"
        assert main(["eval", dataset, "--checkpoint",
                     os.path.join(trained_run, "checkpoint.npz"),
                     "--out", str(out)]) == 0
        for run in (trained_run, out):
            env = json.load(open(os.path.join(run, "manifest.json")))[
                "environment"]
            assert env["python"] == platform.python_version()
            assert env["numpy"] == np.__version__
            assert env["scipy"] == scipy.__version__
            assert set(env["blas"]) == {"name", "version"}
            assert env["blas"]["name"]
            assert set(env["blas_threads"]) == {
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
            assert env["cpu_count"] == os.cpu_count()
            assert env["workers"] == sparse.workers()
        assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert env["blas_threads"]["MKL_NUM_THREADS"] is None

    def test_dimension_mismatch_rejected(self, tmp_path, trained_run):
        other = tmp_path / "ds6"
        assert main(["synth", "ppm", "--blocks", "6", "--nodes-per-block",
                     "20", "--p-in", "0.2", "--p-out", "0.01",
                     "--feature-dim", "8", "--separation", "2.0",
                     "--seed", "4", "--out", str(other)]) == 0
        rc = main(["eval", str(other),
                   "--checkpoint", os.path.join(trained_run, "checkpoint.npz"),
                   "--out", str(tmp_path / "e")])
        assert rc == 1

    def test_multi_seed_protocol_retrains(self, tmp_path, dataset,
                                          trained_run):
        out = tmp_path / "eval2"
        rc = main(["eval", dataset,
                   "--checkpoint", os.path.join(trained_run, "checkpoint.npz"),
                   "--seeds", "1", "2",     # 1 is the checkpoint's own seed
                   "--out", str(out)])
        assert rc == 0
        report = json.load(open(out / "report.json"))
        assert [r["seed"] for r in report["per_seed"]] == [1, 2]
        assert report["aggregate"]["runs"] == 2
        assert report["aggregate"]["acc_std"] >= 0.0

    def test_config_hash_shared_and_checkpoint_in_manifest(self, tmp_path,
                                                           dataset):
        from betagraph.ioutil import sha256_file
        run = tmp_path / "tiny"
        assert main(["train", dataset, "--out", str(run)] + TRAIN_FLAGS
                    + ["--rounds", "1", "--epochs-p1", "1",
                       "--epochs-p2", "1"]) == 0
        ckpt = str(run / "checkpoint.npz")
        out = tmp_path / "eval"
        assert main(["eval", dataset, "--checkpoint", ckpt,
                     "--seeds", "1", "2", "--out", str(out)]) == 0
        hashes = [r["config_hash"] for r in
                  json.load(open(out / "report.json"))["per_seed"]]
        assert hashes[0] is not None and hashes == [hashes[0]] * 2
        manifest = json.load(open(out / "manifest.json"))
        assert manifest["checkpoint"] == os.path.abspath(ckpt)
        assert manifest["checkpoint_hash"] == sha256_file(ckpt)

    def test_with_baselines(self, tmp_path, dataset, trained_run):
        out = tmp_path / "evalb"
        rc = main(["eval", dataset,
                   "--checkpoint", os.path.join(trained_run, "checkpoint.npz"),
                   "--with-baselines", "--out", str(out)])
        assert rc == 0
        agg = json.load(open(out / "report.json"))["aggregate"]
        assert "maxlogit_auroc" in agg["baselines"]


class TestEvalInputs:
    @staticmethod
    def run_eval(tmp_path, dataset, trained_run, split=None, checkpoint=None):
        argv = ["eval", dataset, "--checkpoint",
                checkpoint or os.path.join(trained_run, "checkpoint.npz"),
                "--out", str(tmp_path / "e")]
        if split is not None:
            path = tmp_path / "split.json"
            path.write_text(json.dumps(split) if isinstance(split, dict)
                            else split)
            argv += ["--split", str(path)]
        return main(argv)

    @staticmethod
    def split_of(trained_run):
        return json.load(open(os.path.join(trained_run, "split.json")))

    def test_node_id_out_of_range(self, tmp_path, dataset, trained_run,
                                  capsys):
        split = self.split_of(trained_run)
        split["test"].append(160)
        assert self.run_eval(tmp_path, dataset, trained_run, split) == 1
        assert "test node id 160 outside [0, 160)" in capsys.readouterr().err

    def test_negative_node_id(self, tmp_path, dataset, trained_run, capsys):
        split = self.split_of(trained_run)
        split["ood_test"][0] = -1
        assert self.run_eval(tmp_path, dataset, trained_run, split) == 1
        assert "ood_test node id -1" in capsys.readouterr().err

    def test_overlapping_partitions(self, tmp_path, dataset, trained_run,
                                    capsys):
        split = self.split_of(trained_run)
        split["test"].append(split["train"][0])
        assert self.run_eval(tmp_path, dataset, trained_run, split) == 1
        assert "test and train share node" in capsys.readouterr().err

    def test_repeated_node(self, tmp_path, dataset, trained_run, capsys):
        split = self.split_of(trained_run)
        split["val"].append(split["val"][0])
        assert self.run_eval(tmp_path, dataset, trained_run, split) == 1
        assert "val repeats a node id" in capsys.readouterr().err

    def test_ood_classes_differ_from_checkpoint(self, tmp_path, dataset,
                                                trained_run, capsys):
        split = self.split_of(trained_run)
        split["ood_classes"] = [2]
        assert self.run_eval(tmp_path, dataset, trained_run, split) == 1
        assert "ood_classes [2] differ" in capsys.readouterr().err

    def test_id_classes_differ_from_checkpoint(self, tmp_path, dataset,
                                               trained_run, capsys):
        split = self.split_of(trained_run)
        split["id_classes"] = [0, 1]
        assert self.run_eval(tmp_path, dataset, trained_run, split) == 1
        assert "id_classes [0, 1] differ" in capsys.readouterr().err

    def test_ood_node_in_id_partition(self, tmp_path, dataset, trained_run,
                                      capsys):
        split = self.split_of(trained_run)
        node = split["ood_test"].pop()
        split["test"].append(node)
        assert self.run_eval(tmp_path, dataset, trained_run, split) == 1
        assert f"test node {node} has class 3" in capsys.readouterr().err

    @pytest.mark.parametrize("part, edit, message", [
        ("ood_test", None, "ood_test"),
        ("train", lambda ids: [ids], "train must be a flat list"),
        ("val", lambda ids: ids + [0.7], "val must be a flat list"),
        ("test", lambda ids: ids[0], "test must be a flat list"),
        ("ood_classes", lambda ids: ["a", 3], "ood_classes must be a flat"),
        ("id_classes", lambda ids: [[0], 1], "id_classes must be a flat"),
        ("train", lambda ids: ids + [2**70], "train must be a flat list"),
        ("train", lambda ids: [], "split.json: train has no node of class 0"),
        ("train", lambda ids: [i for i in ids if not 80 <= i < 120],
         "split.json: train has no node of class 2"),
        ("test", lambda ids: [], "split.json: test is empty"),
    ], ids=["missing", "nested", "float-id", "scalar", "mixed-classes",
            "nested-classes", "huge-id", "empty-train", "train-lacks-class",
            "empty-test"])
    def test_malformed_split_json(self, tmp_path, dataset, trained_run,
                                  capsys, part, edit, message):
        split = self.split_of(trained_run)
        ids = split.pop(part)
        if edit is not None:
            split[part] = edit(ids)
        assert self.run_eval(tmp_path, dataset, trained_run, split) == 1
        assert message in capsys.readouterr().err

    def test_truncated_checkpoint(self, tmp_path, dataset, trained_run,
                                  capsys):
        payload = open(os.path.join(trained_run, "checkpoint.npz"),
                       "rb").read()
        bad = tmp_path / "cut.npz"
        bad.write_bytes(payload[:len(payload) // 2])
        assert self.run_eval(tmp_path, dataset, trained_run,
                             checkpoint=str(bad)) == 1
        assert "cannot read checkpoint" in capsys.readouterr().err

    def test_undeclared_tensor_rejected(self, tmp_path, dataset,
                                        trained_run, capsys):
        """A 3-class checkpoint whose meta says 2 classes still holds the
        head2.* tensors, which a 2-class model does not have."""
        with open(os.path.join(trained_run, "checkpoint.npz"), "rb") as fh:
            arrays = _checkpoint_arrays(fh.read())
        meta = json.loads(bytes(arrays["__meta__"]))
        assert meta["class_count"] == 3
        meta["class_count"] = 2
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                           dtype=np.uint8)
        ckpt = tmp_path / "two.npz"
        ckpt.write_bytes(_npz_bytes(arrays))
        assert self.run_eval(tmp_path, dataset, trained_run,
                             checkpoint=str(ckpt)) == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and "tensor 'head2." in err

    def test_graph_scored_once(self, tmp_path, dataset, trained_run,
                               monkeypatch):
        from betagraph import cli, evaluation, training
        calls = []
        original = training.forward_scores

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (training, evaluation, cli):
            if getattr(module, "forward_scores", None) is original:
                monkeypatch.setattr(module, "forward_scores", counted)
        split = self.split_of(trained_run)
        assert self.run_eval(tmp_path, dataset, trained_run, split) == 0
        assert len(calls) == 1

    @classmethod
    def with_meta_config(cls, trained_run, path, **config):
        """A copy of the trained checkpoint whose __meta__ config has the
        given entries added or replaced."""
        return cls.edited(trained_run, path,
                          lambda arrays, meta: meta["config"].update(config))

    def test_checkpoint_with_normalize_features_true_loads(
            self, tmp_path, dataset, trained_run):
        # written before features were always z-scored
        old = self.with_meta_config(trained_run, tmp_path / "old.npz",
                                    normalize_features=True)
        split = self.split_of(trained_run)
        scores = []
        for name, ckpt in (("new", None), ("old", old)):
            (tmp_path / name).mkdir()
            assert self.run_eval(tmp_path / name, dataset, trained_run,
                                 split, checkpoint=ckpt) == 0
            scores.append((tmp_path / name / "e" / "scores.csv").read_bytes())
        assert scores[0] == scores[1]

    def test_checkpoint_trained_on_raw_features_rejected(
            self, tmp_path, dataset, trained_run, capsys):
        raw = self.with_meta_config(trained_run, tmp_path / "raw.npz",
                                    normalize_features=False)
        assert self.run_eval(tmp_path, dataset, trained_run,
                             checkpoint=raw) == 1
        err = capsys.readouterr().err
        assert "normalize_features" in err and "Traceback" not in err
        assert not (tmp_path / "e" / "scores.csv").exists()

    def test_checkpoint_with_retired_defaults_loads(self, tmp_path, dataset,
                                                    trained_run):
        # the config as versions that still had the Adam and selection
        # fields recorded it
        old = self.with_meta_config(trained_run, tmp_path / "old.npz",
                                    **training.RETIRED_FIELDS)
        split = self.split_of(trained_run)
        scores = []
        for name, ckpt in (("new", None), ("old", old)):
            (tmp_path / name).mkdir()
            assert self.run_eval(tmp_path / name, dataset, trained_run,
                                 split, checkpoint=ckpt) == 0
            scores.append((tmp_path / name / "e" / "scores.csv").read_bytes())
        assert scores[0] == scores[1]

    def test_checkpoint_with_other_adam_beta_rejected(
            self, tmp_path, dataset, trained_run, capsys):
        ckpt = self.with_meta_config(trained_run, tmp_path / "b.npz",
                                     adam_beta1=0.8)
        assert self.run_eval(tmp_path, dataset, trained_run,
                             checkpoint=ckpt) == 1
        err = capsys.readouterr().err
        assert "adam_beta1" in err and "Traceback" not in err
        assert not (tmp_path / "e" / "scores.csv").exists()

    @pytest.mark.parametrize("field,value", [
        ("split_ratios", [2, 1, 7]), ("ood_val_fraction", 0.5),
    ])
    def test_checkpoint_with_other_split_rejected(
            self, tmp_path, dataset, trained_run, capsys, field, value):
        ckpt = self.with_meta_config(trained_run, tmp_path / "s.npz",
                                     **{field: value})
        assert self.run_eval(tmp_path, dataset, trained_run,
                             checkpoint=ckpt) == 1
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not (tmp_path / "e" / "scores.csv").exists()

    @pytest.mark.parametrize("tensor,value", [
        ("encoder.w1", np.nan), ("head0.w1", np.inf),
        ("encoder.bn1.running_var", np.nan),
    ])
    def test_non_finite_tensor_rejected(self, tmp_path, dataset, trained_run,
                                        capsys, tensor, value):
        with np.load(os.path.join(trained_run, "checkpoint.npz")) as zf:
            arrays = {name: zf[name] for name in zf.files}
        arrays[tensor] = arrays[tensor].copy()
        arrays[tensor].flat[0] = value
        path = tmp_path / "nan.npz"
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        assert self.run_eval(tmp_path, dataset, trained_run,
                             checkpoint=str(path)) == 1
        err = capsys.readouterr().err
        assert "nan.npz" in err and tensor in err and "Traceback" not in err
        assert not (tmp_path / "e" / "scores.csv").exists()

    @staticmethod
    def edited(trained_run, path, edit):
        """A copy of the trained checkpoint after edit(arrays, meta)."""
        with np.load(os.path.join(trained_run, "checkpoint.npz")) as zf:
            arrays = {name: zf[name] for name in zf.files}
        meta = json.loads(bytes(arrays.pop("__meta__")))
        edit(arrays, meta)
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                           dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        return str(path)

    @pytest.mark.parametrize("field,value,named", [
        ("feature_dim", 10**12, "encoder.w1"),
        ("class_count", 10**12, "head3.w1"),
        ("feature_dim", 2.5, "feature_dim"),
        ("class_count", "3", "class_count"),
        ("class_count", 0, "class_count"),
        ("feature_dim", None, "feature_dim"),
    ])
    def test_meta_size_checked_before_allocation(
            self, tmp_path, dataset, trained_run, capsys, field, value,
            named):
        def edit(arrays, meta):
            meta[field] = value

        ckpt = self.edited(trained_run, tmp_path / "big.npz", edit)
        assert self.run_eval(tmp_path, dataset, trained_run,
                             checkpoint=ckpt) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    def test_deeply_nested_meta_named(self, tmp_path, dataset, trained_run,
                                      capsys):
        with open(os.path.join(trained_run, "checkpoint.npz"), "rb") as fh:
            arrays = _checkpoint_arrays(fh.read())
        arrays["__meta__"] = np.frombuffer(b"[" * 100000 + b"]" * 100000,
                                           dtype=np.uint8)
        ckpt = tmp_path / "nested.npz"
        ckpt.write_bytes(_npz_bytes(arrays))
        assert self.run_eval(tmp_path, dataset, trained_run,
                             checkpoint=str(ckpt)) == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and "__meta__" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tensor", ["encoder.w1", "head0.b2",
                                        "encoder.bn2.running_mean"])
    def test_string_dtype_tensor_rejected(self, tmp_path, dataset,
                                          trained_run, capsys, tensor):
        def edit(arrays, meta):
            arrays[tensor] = arrays[tensor].astype(str)

        ckpt = self.edited(trained_run, tmp_path / "str.npz", edit)
        assert self.run_eval(tmp_path, dataset, trained_run,
                             checkpoint=ckpt) == 1
        err = capsys.readouterr().err
        assert tensor in err and "dtype" in err and "Traceback" not in err


class TestOneContextPerSplit:
    """The adjacency is normalized once per graph: every command builds
    one RunContext per split and passes it down, and the contexts of
    other seeds' splits share the graph's PreparedGraph."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        original = training.normalize_adjacency

        def counted(graph):
            calls.append(graph.n)
            return original(graph)

        monkeypatch.setattr(training, "normalize_adjacency", counted)
        return calls

    FLAGS = ["--epochs-p1", "2", "--epochs-p2", "2", "--rounds", "1",
             "--gamma", "15", "--hidden-dim", "4", "--embed-dim", "2",
             "--reasoning-dim", "4", "--seed", "1", "--ood-classes", "3"]

    def test_ablate(self, tmp_path, dataset, builds):
        assert main(["ablate", dataset, "--variants", "a", "e",
                     "--out", str(tmp_path)] + self.FLAGS) == 0
        assert len(builds) == 1

    def test_gridsearch(self, tmp_path, dataset, builds):
        assert main(["gridsearch", dataset, "--out", str(tmp_path),
                     "--lr-p1-grid", "0.01", "0.001", "--lr-p2-grid", "0.01",
                     "--dropout-p1-grid", "0.2", "--dropout-p2-grid", "0.2",
                     "--gamma-grid", "15"] + self.FLAGS) == 0
        assert len(builds) == 1

    def test_train(self, tmp_path, dataset, builds):
        assert main(["train", dataset, "--out", str(tmp_path)]
                    + self.FLAGS) == 0
        assert len(builds) == 1

    def test_eval_with_baselines(self, tmp_path, dataset, trained_run,
                                 builds):
        assert main(["eval", dataset, "--checkpoint",
                     os.path.join(trained_run, "checkpoint.npz"),
                     "--with-baselines", "--out", str(tmp_path)]) == 0
        assert len(builds) == 1

    def test_eval_retrained_seed(self, tmp_path, dataset, trained_run,
                                 builds):
        # the checkpoint's seed is 1: its split and seed 2's, one graph
        assert main(["eval", dataset, "--checkpoint",
                     os.path.join(trained_run, "checkpoint.npz"),
                     "--seeds", "1", "2", "--out", str(tmp_path)]) == 0
        assert len(builds) == 1
        rows = json.load(open(tmp_path / "report.json"))["per_seed"]
        assert "best_round" not in rows[0] and "best_round" in rows[1]
        assert rows[1]["wall_clock"] > 0

    def test_run_protocol(self, builds):
        from betagraph import evaluation, graphs
        g = graphs.zscore_features(graphs.gen_planted_partition(
            4, 40, 0.15, 0.01, 8, 3.0, seed=9))
        cfg = training.TrainConfig(seed=0, epochs_p1=2, epochs_p2=2,
                                   rounds=1, hidden_dim=4, embed_dim=2,
                                   reasoning_dim=4)
        evaluation.run_protocol(g, (3,), cfg, seeds=[0, 1, 2])
        assert len(builds) == 1


class TestAblate:
    def test_single_variant_single_row(self, tmp_path, dataset):
        out = tmp_path / "ab"
        rc = main(["ablate", dataset, "--variants", "e", "--out", str(out),
                   "--epochs-p1", "5", "--epochs-p2", "5", "--rounds", "1",
                   "--gamma", "15", "--hidden-dim", "8", "--embed-dim", "4",
                   "--reasoning-dim", "8", "--seed", "0",
                   "--ood-classes", "3"])
        assert rc == 0
        lines = open(out / "ablation.csv").read().strip().splitlines()
        assert lines[0] == "variant,acc,aurc_x1000,fpr95,auroc"
        assert len(lines) == 2
        assert lines[1].startswith("e,")

    def test_unknown_variant(self, tmp_path, dataset):
        rc = main(["ablate", dataset, "--variants", "q",
                   "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_d_vs_e_differ_only_in_prior_switch(self):
        from betagraph.training import variant_config
        from conftest import quick_config
        from dataclasses import asdict
        base = quick_config()
        d = asdict(variant_config(base, "d"))
        e = asdict(variant_config(base, "e"))
        diff = {k for k in d if d[k] != e[k]}
        assert diff == {"learned_prior"}


class TestScale:
    def test_timing_rows(self, tmp_path):
        out = tmp_path / "scale"
        rc = main(["scale", "--nodes", "200", "300", "400",
                   "--densities", "0.02",
                   "--epochs-p1", "2", "--epochs-p2", "2",
                   "--hidden-dim", "8", "--embed-dim", "4",
                   "--reasoning-dim", "8", "--seed", "0",
                   "--out", str(out)])
        assert rc == 0
        lines = open(out / "timings.csv").read().strip().splitlines()
        assert lines[0] == "nodes,density,edges,seconds,status"
        assert len(lines) == 4
        for line in lines[1:]:
            assert line.endswith("ok")
            assert float(line.split(",")[3]) > 0


class TestGridsearch:
    def test_tiny_grid_sorted(self, tmp_path, dataset):
        out = tmp_path / "gs"
        rc = main(["gridsearch", dataset, "--out", str(out),
                   "--lr-p1-grid", "0.01", "--lr-p2-grid", "0.01",
                   "--dropout-p1-grid", "0.2", "--dropout-p2-grid", "0.2",
                   "--gamma-grid", "15", "55",
                   "--epochs-p1", "5", "--epochs-p2", "5", "--rounds", "1",
                   "--hidden-dim", "8", "--embed-dim", "4",
                   "--reasoning-dim", "8", "--seed", "0",
                   "--ood-classes", "3"])
        assert rc == 0
        lines = open(out / "gridsearch.csv").read().strip().splitlines()
        assert len(lines) == 3
        scores = [float(l.split(",")[-1]) for l in lines[1:]]
        assert scores == sorted(scores, reverse=True)


class TestExitCodes:
    def test_missing_dataset_config_error(self, tmp_path):
        rc = main(["train", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize("flag,value", [
        ("--epochs-p1", "-1"), ("--hidden-dim", "0"), ("--embed-dim", "-2"),
        ("--dtype", "float16"),
    ])
    def test_bad_size_exit_code_1(self, tmp_path, dataset, capsys, flag,
                                  value):
        out = tmp_path / "bad"
        rc = main(["train", dataset, "--out", str(out), flag, value])
        assert rc == 1
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not (out / "history.csv").exists()

    @pytest.mark.parametrize("line,field", [
        ("hidden_dim = 2.5", "hidden_dim"), ("seed = 1.5", "seed"),
        ("rounds = true", "rounds"), ("gamma = inf", "gamma"),
        ("ood_val_fraction = 2.0", "ood_val_fraction"),
        ("split_ratios = [0, 0, 0]", "split_ratios"),
        ("split_ratios = 5", "split_ratios"), ("lr_p2 = nan", "lr_p2"),
    ])
    def test_bad_config_value_exit_code_1(self, tmp_path, dataset, capsys,
                                          line, field):
        cfg = tmp_path / "bad.toml"
        fields = {"lr_p1": "0.01", "dropout_p1": "0.2", "gamma": "15.0",
                  "lr_p2": "0.01", "dropout_p2": "0.2", "seed": "1",
                  "epochs_p1": "2", "epochs_p2": "2", "rounds": "1",
                  "ood_classes": "[3]"}
        fields[field] = line.split(" = ")[1]
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
        rc = main(["train", dataset, "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert field in err and "Traceback" not in err

    def test_nan_learning_rate_flag_exit_code_1(self, tmp_path, dataset,
                                                capsys):
        out = tmp_path / "nan"
        rc = main(["train", dataset, "--out", str(out), "--lr-p1", "nan",
                   "--epochs-p1", "2", "--epochs-p2", "2", "--rounds", "2",
                   "--ood-classes", "3"])
        assert rc == 1
        assert "lr_p1" in capsys.readouterr().err
        assert not (out / "checkpoint.npz").exists()

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_non_finite_feature_exit_code_1(self, tmp_path, capsys, fmt):
        from betagraph import graphs
        from conftest import save_dataset_as
        g = graphs.gen_planted_partition(4, 10, 0.3, 0.05, 3, 2.0, seed=5)
        g.features[7, 1] = np.nan
        ds = tmp_path / "ds"
        save_dataset_as(g, ds, fmt)
        rc = main(["train", str(ds), "--out", str(tmp_path / "o"),
                   "--epochs-p1", "1", "--epochs-p2", "1", "--rounds", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"features.{fmt}" in err and "Traceback" not in err

    @pytest.mark.parametrize("fname,text,where", [
        ("edges.tsv", "0\t1\n1\tx\n", "line 2"),
        ("edges.tsv", "# header\n0\t1.5\n", "line 2"),
        ("labels.csv", None, "line 3"),
    ])
    def test_non_integer_entry_exit_code_1(self, tmp_path, dataset, capsys,
                                           fname, text, where):
        ds = tmp_path / "ds"
        ds.mkdir()
        for f in ("edges.tsv", "features.bin", "labels.csv", "meta.json"):
            (ds / f).write_bytes(open(os.path.join(dataset, f), "rb").read())
        if text is None:        # the third label becomes a float
            lines = (ds / fname).read_text().splitlines()
            lines[2] = "1.0"
            text = "\n".join(lines) + "\n"
        (ds / fname).write_text(text)
        rc = main(["train", str(ds), "--out", str(tmp_path / "o"),
                   "--epochs-p1", "1", "--epochs-p2", "1", "--rounds", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert fname in err and where in err and "Traceback" not in err

    @pytest.mark.parametrize("fname,text,cause,files", [
        ("meta.json", '{"n": 160, "F": 8, "C": 3}', "label 3 is outside",
         ("labels.csv", "meta.json")),
        ("meta.json", '{"n": 160, "F": 8, "C": 5}', "no node has label 4",
         ("labels.csv", "meta.json")),
        ("meta.json", '{"n": 100, "F": 8, "C": 4}', "n * F = 800",
         ("features.bin", "meta.json")),
        ("edges.tsv", "0\t1\n1\t160\n", "out of range",
         ("edges.tsv", "meta.json")),
        ("edges.tsv", "0\t1\t2\n", "two columns", ("edges.tsv",)),
    ])
    def test_inconsistent_files_exit_code_1(self, tmp_path, dataset, capsys,
                                            fname, text, cause, files):
        """A dataset whose files disagree exits 1 naming them."""
        ds = tmp_path / "ds"
        ds.mkdir()
        for f in ("edges.tsv", "features.bin", "labels.csv", "meta.json"):
            (ds / f).write_bytes(open(os.path.join(dataset, f), "rb").read())
        (ds / fname).write_text(text)
        rc = main(["train", str(ds), "--out", str(tmp_path / "o"),
                   "--epochs-p1", "1", "--epochs-p2", "1", "--rounds", "1"])
        err = capsys.readouterr().err
        assert rc == 1 and cause in err and "Traceback" not in err
        assert all(str(ds / f) in err for f in files), err

    @pytest.mark.parametrize("fname", ["edges.tsv", "features.bin",
                                       "labels.csv"])
    def test_dataset_file_is_directory_exit_code_1(self, tmp_path, dataset,
                                                   capsys, fname):
        ds = tmp_path / "ds"
        ds.mkdir()
        for f in ("edges.tsv", "features.bin", "labels.csv", "meta.json"):
            (ds / f).write_bytes(open(os.path.join(dataset, f), "rb").read())
        (ds / fname).unlink()
        (ds / fname).mkdir()
        rc = main(["train", str(ds), "--out", str(tmp_path / "o"),
                   "--epochs-p1", "1", "--epochs-p2", "1", "--rounds", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert str(ds / fname) in err and "Traceback" not in err

    @pytest.mark.parametrize("write", [
        lambda p: p.write_text('{"n": 160,'),
        lambda p: p.write_bytes(b'{"n": 160, "name": "\xff"}'),
        lambda p: p.mkdir(),
        lambda p: p.write_text("[160, 8, 4]"),
        lambda p: p.write_text('{"n": 160.5, "F": 8, "C": 4}'),
        lambda p: p.write_text('{"n": 160, "F": 8, "C": [4]}'),
        lambda p: p.write_text("[" * 100000 + "]" * 100000),
    ], ids=["unparseable", "not_utf8", "directory", "not_object",
            "float_n", "list_c", "deeply_nested"])
    def test_bad_meta_json_exit_code_1(self, tmp_path, dataset, capsys,
                                       write):
        ds = tmp_path / "ds"
        ds.mkdir()
        for f in ("edges.tsv", "features.bin", "labels.csv"):
            (ds / f).write_bytes(open(os.path.join(dataset, f), "rb").read())
        write(ds / "meta.json")
        rc = main(["train", str(ds), "--out", str(tmp_path / "o"),
                   "--epochs-p1", "1", "--epochs-p2", "1", "--rounds", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "meta.json" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name,write", [
        ("cfg.toml", lambda p: p.mkdir()),
        ("cfg.toml", lambda p: p.write_bytes(b"lr_p1 = 0.01\nseed = \xff\n")),
        ("cfg.json", lambda p: p.write_text('{"lr_p1": 0.01,\n}')),
    ], ids=["directory", "not_utf8", "unparseable_json"])
    def test_unreadable_config_named(self, tmp_path, dataset, capsys, name,
                                     write):
        cfg = tmp_path / name
        write(cfg)
        rc = main(["train", dataset, "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert str(cfg) in err and "Traceback" not in err

    @pytest.mark.parametrize("write", [
        lambda p: p.mkdir(),
        lambda p: p.write_bytes(b'{"seed": "\xff"}'),
        lambda p: p.write_text("[" * 100000 + "]" * 100000),
    ], ids=["directory", "not_utf8", "deeply_nested"])
    def test_unreadable_split_named(self, tmp_path, dataset, trained_run,
                                    capsys, write):
        split = tmp_path / "split.json"
        write(split)
        rc = main(["eval", dataset, "--checkpoint",
                   os.path.join(trained_run, "checkpoint.npz"),
                   "--split", str(split), "--out", str(tmp_path / "e")])
        err = capsys.readouterr().err
        assert rc == 1
        assert str(split) in err and "Traceback" not in err

    def test_usage_error_from_argparse(self):
        rc = main(["synth", "nonsense-kind", "--out", "/tmp/x"])
        assert rc == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code_2(self, tmp_path, dataset):
        rc = main(["train", dataset, "--out", str(tmp_path / "div"),
                   "--lr-p1", "1e18", "--epochs-p1", "60", "--epochs-p2", "1",
                   "--rounds", "1", "--gamma", "15", "--hidden-dim", "8",
                   "--embed-dim", "4", "--reasoning-dim", "8",
                   "--seed", "0", "--ood-classes", "3"])
        assert rc == 2
        assert os.path.exists(tmp_path / "div" / "history.csv")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_step_exit_code_2(self, tmp_path, dataset, capsys):
        """A finite loss whose Adam step overflows the float32 heads: the
        run stops naming the parameter and writes no checkpoint."""
        out = tmp_path / "inf"
        rc = main(["train", dataset, "--out", str(out), "--lr-p2", "1e300",
                   "--epochs-p1", "2", "--epochs-p2", "1", "--rounds", "1",
                   "--gamma", "15", "--hidden-dim", "8", "--embed-dim", "4",
                   "--reasoning-dim", "8", "--seed", "0",
                   "--ood-classes", "3"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "non-finite parameter head0.w2 after the step in phase 2, " \
               "round 0, epoch 0" in err
        assert not (out / "checkpoint.npz").exists()

    def test_divergence_keeps_finished_rounds(self, tmp_path, dataset,
                                              monkeypatch):
        flags = ["--epochs-p1", "2", "--epochs-p2", "2", "--gamma", "15",
                 "--hidden-dim", "8", "--embed-dim", "4",
                 "--reasoning-dim", "8", "--seed", "0", "--ood-classes", "3"]
        assert main(["train", dataset, "--out", str(tmp_path / "two"),
                     "--rounds", "2"] + flags) == 0
        original = training.train_phase1

        def phase1(state, ctx, epochs):
            if state.round == 2:
                raise training.TrainingDivergence("forced in round 2")
            return original(state, ctx, epochs)

        monkeypatch.setattr(training, "train_phase1", phase1)
        assert main(["train", dataset, "--out", str(tmp_path / "div"),
                     "--rounds", "3"] + flags) == 2
        kept = (tmp_path / "div" / "history.csv").read_text()
        assert kept == (tmp_path / "two" / "history.csv").read_text()
        assert [line[0] for line in kept.splitlines()[1:]] == ["0", "1"]


def test_only_config_flags_name_config_fields():
    """_build_config reads every TrainConfig field off the parsed args, so
    in a command that builds a config no other option may share a name
    with a field."""
    flags = _Parser()
    _add_config_flags(flags)
    flag_dests = {a.dest for a in flags._actions}
    names = {f.name for f in fields(training.TrainConfig)}
    commands = build_parser()._subparsers._group_actions[0].choices
    checked = 0
    for sub in commands.values():
        dests = {a.dest for a in sub._actions}
        if "config" in dests:
            checked += 1
            assert dests & names <= flag_dests
    assert checked == 4


def test_config_flags_follow_train_config_fields():
    """One --kebab-case flag per TrainConfig field that is not a switch,
    typed by the field's default."""
    flags = _Parser()
    _add_config_flags(flags)
    dests = {a.dest for a in flags._actions} - {"help", "config"}
    assert dests == {f.name for f in fields(training.TrainConfig)
                     if not isinstance(f.default, bool)}
    args = flags.parse_args(["--lr-p1", "0.5", "--rounds", "3", "--dtype",
                             "float64", "--ood-classes", "4", "5"])
    assert (args.lr_p1, args.rounds, args.dtype, args.ood_classes) == \
        (0.5, 3, "float64", [4, 5])


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "betagraph", "--help"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert "eval" in done.stdout


# train then eval in a child process, pinned to one CPU when PIN is set;
# the ER graph's 64-column products and phase 2's heads are above
# sparse.PARALLEL_FLOOR, so the unpinned child runs them in its workers
PINNED_RUN = """
import os, sys
from betagraph import cli
if PIN:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
model = ["--dtype", "float32", "--hidden-dim", "64", "--embed-dim", "32",
         "--reasoning-dim", "64"]
sys.exit(cli.main(["train", DATA, "--out", "train", "--seed", "0",
                   "--ood-classes", "4", "5", "--rounds", "1",
                   "--epochs-p1", "2", "--epochs-p2", "2", *model])
         or cli.main(["eval", DATA, "--checkpoint", "train/checkpoint.npz",
                      "--split", "train/split.json", "--out", "eval"]))
"""


def _without_wall_clock(value):
    if isinstance(value, dict):
        return {k: _without_wall_clock(v) for k, v in value.items()
                if k != "wall_clock"}
    if isinstance(value, list):
        return [_without_wall_clock(v) for v in value]
    return value


@pytest.mark.skipif(sparse.workers() < 2, reason="needs two CPUs")
def test_outputs_do_not_depend_on_the_worker_count(tmp_path):
    data = str(tmp_path / "er")
    assert main(["synth", "er", "--nodes", "20000", "--density", "1.5e-3",
                 "--classes", "6", "--feature-dim", "16", "--seed", "0",
                 "--out", data]) == 0
    adj = graphs.normalize_adjacency(graphs.load_dataset(data))
    assert adj.nnz * 64 >= sparse.PARALLEL_FLOOR
    src = os.path.dirname(os.path.dirname(sparse.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    runs = {}
    for pin in (True, False):
        run = tmp_path / ("one" if pin else "all")
        run.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", f"PIN = {pin}\nDATA = {data!r}" +
             PINNED_RUN], cwd=run, env=env, capture_output=True, text=True,
            timeout=600)
        assert done.returncode == 0, done.stderr
        runs[pin] = run
    for command, workers in (("train", 1), ("eval", 1)):
        manifest = json.loads((runs[True] / command / "manifest.json")
                              .read_text())
        assert manifest["environment"]["workers"] == workers
        manifest = json.loads((runs[False] / command / "manifest.json")
                              .read_text())
        assert manifest["environment"]["workers"] >= 2
    names = ["train/history.csv", "train/split.json", "train/checkpoint.npz",
             "eval/scores.csv", "eval/aggregate.csv",
             "eval/curves_risk_coverage.csv", "eval/curves_roc.csv"]
    for name in names:
        assert (runs[True] / name).read_bytes() == \
            (runs[False] / name).read_bytes(), name
    one, all_ = (json.loads((runs[pin] / "eval" / "report.json").read_text())
                 for pin in (True, False))
    assert _without_wall_clock(one) == _without_wall_clock(all_)


def test_output_root_env(tmp_path, monkeypatch, dataset):
    monkeypatch.setenv("BETAGRAPH_OUT_ROOT", str(tmp_path))
    rc = main(PPM_ARGS + ["--out", "nested/ds"])
    assert rc == 0
    assert (tmp_path / "nested" / "ds" / "meta.json").exists()


# -- config fuzzing ---------------------------------------------------------

FIELD_NAMES = [f.name for f in fields(training.TrainConfig)]
STRAY_KEYS = list(training.RETIRED_FIELDS) + ["learning_speed", "Seed",
                                              "lr p1", ""]
# the schedule and the widths are pinned small by flags, which override
# whatever the file says
FUZZ_FLAGS = ["--rounds", "1", "--epochs-p1", "1", "--epochs-p2", "1",
              "--hidden-dim", "4", "--embed-dim", "2", "--reasoning-dim", "4"]
VALID_REQUIRED = {"lr_p1": 0.01, "dropout_p1": 0.2, "gamma": 15.0,
                  "lr_p2": 0.01, "dropout_p2": 0.2, "seed": 1}

# values each field accepts (the pinned ones are overridden anyway), so
# that many tables reach training, and hostile ones: huge, non-finite,
# wrong types, for any field or a stray name
_count = st.integers(1, 10**6)
_rate = st.floats(0, 1, exclude_max=True)
_positive = st.floats(1e-300, 1e300)
VALID_VALUES = {
    "lr_p1": _positive, "dropout_p1": _rate, "gamma": _positive,
    "lr_p2": _positive, "dropout_p2": _rate, "epochs_p1": _count,
    "epochs_p2": _count, "rounds": _count, "seed": st.integers(0, 2**80),
    "hidden_dim": _count, "embed_dim": _count, "reasoning_dim": _count,
    "dtype": st.sampled_from(["float32", "float64"]),
    "use_beta_reasoning": st.booleans(), "learned_prior": st.booleans(),
    "context_propagation": st.booleans(),
    "ood_classes": st.lists(st.integers(0, 4), max_size=4),
}
_scalars = st.one_of(
    st.integers(), st.floats(), st.booleans(),
    st.sampled_from(["float32", "float16", "", "1"]),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6))
_values = st.one_of(_scalars, st.lists(_scalars, max_size=3))


def toml_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return {"nan": "nan", "inf": "inf", "-inf": "-inf"}.get(repr(v),
                                                              repr(v))
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return json.dumps(v)
    return "[" + ", ".join(toml_value(x) for x in v) + "]"


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drop=st.sets(st.sampled_from(sorted(VALID_REQUIRED)), max_size=1),
       valid=st.fixed_dictionaries({}, optional=VALID_VALUES),
       hostile=st.dictionaries(st.sampled_from(FIELD_NAMES + STRAY_KEYS),
                               _values, max_size=1))
def test_config_fuzz_exits_cleanly(dataset, drop, valid, hostile):
    """Any TOML table as a train config exits 0, 1 or 2 without a
    traceback, and an exit-1 message names a field or the file."""
    table = {k: v for k, v in VALID_REQUIRED.items() if k not in drop}
    table.update(valid)
    table.update(hostile)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "fuzz.toml")
        with open(cfg, "w") as fh:
            fh.writelines(f"{json.dumps(k)} = {toml_value(v)}\n"
                          for k, v in table.items())
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()), \
                np.errstate(all="ignore"):
            rc = main(["train", dataset, "--config", cfg,
                       "--out", os.path.join(tmp, "o")] + FUZZ_FLAGS)
    err = err.getvalue()
    assert rc in (0, 1, 2), err
    assert "Traceback" not in err
    if rc == 1:
        assert cfg in err or any(k in err for k in FIELD_NAMES), err


# -- checkpoint fuzzing -----------------------------------------------------

META_FIELDS = ["version", "config", "class_count", "feature_dim",
               "best_round", "best_score", "dataset", "dataset_name",
               "id_classes"]
_meta_values = st.one_of(
    st.integers(-10, 10), st.integers(2**31, 2**80), st.floats(),
    st.text(max_size=6), st.lists(st.integers(-2, 5), max_size=3),
    st.none())


def _checkpoint_arrays(payload):
    with np.load(io.BytesIO(payload)) as zf:
        return {name: zf[name] for name in zf.files}


def _npz_bytes(arrays):
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


@st.composite
def mutated_checkpoint(draw, payload):
    """Checkpoint bytes cut short, with flipped bytes, without one member,
    or with one __meta__ field replaced."""
    kind = draw(st.sampled_from(["truncate", "flip", "drop", "meta"]))
    if kind == "truncate":
        return payload[:draw(st.integers(0, len(payload) - 1))]
    if kind == "flip":
        data = bytearray(payload)
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(data) - 1))
            data[at] ^= draw(st.integers(1, 255))
        return bytes(data)
    arrays = _checkpoint_arrays(payload)
    if kind == "drop":
        del arrays[draw(st.sampled_from(sorted(arrays)))]
        return _npz_bytes(arrays)
    meta = json.loads(bytes(arrays["__meta__"]))
    meta[draw(st.sampled_from(META_FIELDS))] = draw(_meta_values)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                       dtype=np.uint8)
    return _npz_bytes(arrays)


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory, dataset):
    out = tmp_path_factory.mktemp("fuzz") / "train"
    assert main(["train", dataset, "--out", str(out)] + FUZZ_FLAGS
                + ["--seed", "0", "--ood-classes", "3"]) == 0
    with open(out / "checkpoint.npz", "rb") as fh:
        return fh.read()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_checkpoint_fuzz_exits_cleanly(dataset, fuzz_checkpoint, data):
    """eval on a mutated checkpoint exits 0, 1 or 2 without a traceback,
    and an exit-1 message names the checkpoint."""
    payload = data.draw(mutated_checkpoint(fuzz_checkpoint))
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "fuzz.npz")
        with open(ckpt, "wb") as fh:
            fh.write(payload)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()), \
                np.errstate(all="ignore"):
            rc = main(["eval", dataset, "--checkpoint", ckpt,
                       "--out", os.path.join(tmp, "o")])
    err = err.getvalue()
    assert rc in (0, 1, 2), err
    assert "Traceback" not in err
    if rc == 1:
        assert "checkpoint" in err, err


# -- split fuzzing ----------------------------------------------------------

SPLIT_KEYS = ["id_classes", "ood_classes", *graphs.SPLIT_PARTS, "seed"]
_ids = st.one_of(st.integers(-3, 170), st.integers(2**62, 2**80),
                 st.integers(-2**80, -2**62))
_split_scalars = st.one_of(_ids, st.floats(), st.booleans(), st.none(),
                           st.text(max_size=3))
_split_values = st.one_of(_split_scalars, st.lists(_split_scalars, max_size=4),
                          st.dictionaries(st.text(max_size=2), _ids,
                                          max_size=2))


@st.composite
def mutated_split(draw, split):
    """A split JSON value: one key of a valid split with a value of any
    type, one key removed, one id appended (huge, negative or repeated),
    mixed-type class lists, or a top level that is not an object."""
    kind = draw(st.sampled_from(["type", "drop", "id", "classes", "top"]))
    if kind == "top":
        return draw(_split_values)
    split = json.loads(json.dumps(split))
    if kind == "type":
        split[draw(st.sampled_from(SPLIT_KEYS))] = draw(_split_values)
    elif kind == "drop":
        del split[draw(st.sampled_from(SPLIT_KEYS))]
    elif kind == "id":
        part = draw(st.sampled_from(graphs.SPLIT_PARTS))
        taken = [i for p in graphs.SPLIT_PARTS for i in split[p]]
        split[part].append(draw(st.one_of(_ids, st.sampled_from(taken))))
    else:
        key = draw(st.sampled_from(["id_classes", "ood_classes"]))
        split[key] = draw(st.lists(st.one_of(
            st.integers(-2, 5), st.floats(), st.booleans(),
            st.text(max_size=2)), max_size=4))
    return split


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_split_fuzz_exits_cleanly(dataset, trained_run, data):
    """eval on a mutated split file exits 0, 1 or 2 without a traceback,
    and an exit-1 message names the split file."""
    with open(os.path.join(trained_run, "split.json")) as fh:
        split = data.draw(mutated_split(json.load(fh)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        with open(path, "w") as fh:
            json.dump(split, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()), \
                np.errstate(all="ignore"):
            rc = main(["eval", dataset, "--checkpoint",
                       os.path.join(trained_run, "checkpoint.npz"),
                       "--split", path, "--out", os.path.join(tmp, "o")])
    err = err.getvalue()
    assert rc in (0, 1, 2), err
    assert "Traceback" not in err
    if rc == 1:
        assert path in err, err


# -- dataset fuzzing --------------------------------------------------------

DATASET_FILES = ("edges.tsv", "labels.csv", "features.bin", "meta.json")


@st.composite
def mutated_dataset_file(draw, files):
    """(name, bytes): one dataset file cut short, with flipped bytes or
    with bytes spliced in, or meta.json nested deeply (bare or as a
    field's value)."""
    kind = draw(st.sampled_from(["truncate", "flip", "splice", "nest"]))
    if kind == "nest":
        depth = draw(st.integers(10**4, 10**5))
        nested = b"[" * depth + b"]" * depth
        if draw(st.booleans()):
            nested = b'{"n": ' + nested + b', "F": 8, "C": 4}'
        return "meta.json", nested
    name = draw(st.sampled_from(DATASET_FILES))
    data = bytearray(files[name])
    if kind == "truncate":
        return name, bytes(data[:draw(st.integers(0, len(data) - 1))])
    if kind == "flip":
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(data) - 1))
            data[at] ^= draw(st.integers(1, 255))
        return name, bytes(data)
    at = draw(st.integers(0, len(data)))
    data[at:at] = draw(st.binary(min_size=1, max_size=8))
    return name, bytes(data)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_dataset_fuzz_exits_cleanly(dataset, data):
    """train on a dataset directory with one mutated file exits 0, 1 or 2
    without a traceback, and a failure names that file."""
    files = {}
    for name in DATASET_FILES:
        with open(os.path.join(dataset, name), "rb") as fh:
            files[name] = fh.read()
    name, payload = data.draw(mutated_dataset_file(files))
    files[name] = payload
    with tempfile.TemporaryDirectory() as tmp:
        ds = os.path.join(tmp, "ds")
        os.mkdir(ds)
        for fname, content in files.items():
            with open(os.path.join(ds, fname), "wb") as fh:
                fh.write(content)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()), \
                np.errstate(all="ignore"):
            rc = main(["train", ds, "--out", os.path.join(tmp, "o")]
                      + FUZZ_FLAGS + ["--seed", "0", "--ood-classes", "3"])
    err = err.getvalue()
    assert rc in (0, 1, 2), err
    assert "Traceback" not in err
    if rc:
        assert os.path.join(ds, name) in err, err

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from betagraph import training
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

    def test_invalid_density_usage_error(self, tmp_path):
        rc = main(["synth", "er", "--nodes", "10", "--density", "1.5",
                   "--out", str(tmp_path / "x")])
        assert rc == 1

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
    ], ids=["missing", "nested", "float-id", "scalar"])
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

    @staticmethod
    def with_meta_config(trained_run, path, **config):
        """A copy of the trained checkpoint whose __meta__ config has the
        given entries added or replaced."""
        with np.load(os.path.join(trained_run, "checkpoint.npz")) as zf:
            arrays = {name: zf[name] for name in zf.files}
        meta = json.loads(bytes(arrays["__meta__"]))
        meta["config"].update(config)
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                           dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        return str(path)

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
        g = graphs.gen_planted_partition(4, 10, 0.3, 0.05, 3, 2.0, seed=5)
        g.features[7, 1] = np.nan
        ds = tmp_path / "ds"
        graphs.save_dataset(g, ds, feature_format=fmt)
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

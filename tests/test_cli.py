import hashlib
import json
import math
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import asdict, fields, replace
from functools import partial

import numpy as np
import pytest

from dignn import cli
from dignn import model as M
from dignn.autodiff import Var
from dignn.cli import (
    CONFIG_KEYS, EXIT_DIVERGENCE, EXIT_GRADCHECK, EXIT_LOAD, EXIT_OK, EXIT_USAGE,
    UsageError, _write_atomic, build_train_config, main, read_config_file,
    resolve_config, variant_tag,
)
from dignn.graphdata import (
    SynthConfig, gather_batch, load_graph, normalize_features, save_graph,
    stratified_split, synth_generate,
)
from dignn.model import DignnConfig, DignnParams
from dignn.rng import seed_streams
from dignn.trainer import SCORE_BLOCK, TrainConfig, gradcheck

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("graph"))
    code = main(["synth", "--n", "200", "--dim", "8", "--fraud-rate", "0.3",
                 "--delta", "2.0", "--seed", "1", "--out", out])
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, data_dir):
    out = str(tmp_path_factory.mktemp("run"))
    code = main(["train", "--data", data_dir, "--out", out,
                 "--epochs", "3", "--batch-size", "16", "--seed", "0"])
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def ratio_run(tmp_path_factory, data_dir):
    """A run whose split ratios and seed both differ from the defaults."""
    cfg = tmp_path_factory.mktemp("cfg") / "cfg.txt"
    cfg.write_text("train_ratio = 0.7\nval_ratio = 0.1\ntest_ratio = 0.2\n")
    out = str(tmp_path_factory.mktemp("ratio_run"))
    code = main(["train", "--data", data_dir, "--config", str(cfg), "--out", out,
                 "--epochs", "3", "--batch-size", "16", "--seed", "5"])
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def big_run(tmp_path_factory):
    """A run on a graph with more labeled nodes than one scoring block."""
    data = str(tmp_path_factory.mktemp("big_graph"))
    assert main(["synth", "--n", "3000", "--dim", "8", "--seed", "2",
                 "--out", data]) == EXIT_OK
    out = str(tmp_path_factory.mktemp("big_run"))
    assert main(["train", "--data", data, "--out", out, "--epochs", "1",
                 "--seed", "0"]) == EXIT_OK
    return data, out


# (key, value) pairs that a config must reject before --out is made: floats
# that are not finite, a negative seed and a negative weight decay.
_INVALID_VALUES = [
    ("seed", -1), ("alpha", math.nan), ("beta", math.inf), ("lr", math.nan),
    ("lr", math.inf), ("weight_decay", math.nan), ("weight_decay", -1.0),
    ("prior_std", math.nan), ("sigma_enc", math.inf), ("val_ratio", math.nan),
]


def _copy_run(run, tmp_path):
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    return copy


def _model_bytes(run) -> bytearray:
    with open(os.path.join(run, "model.bin"), "rb") as fh:
        return bytearray(fh.read())


class TestSynth:
    def test_writes_graph_files(self, data_dir):
        names = set(os.listdir(data_dir))
        assert {"meta.json", "features.f32le", "labels.i8"} <= names
        assert any(n.startswith("edges_") for n in names)

    def test_prints_neighbor_distribution(self, capsys, tmp_path):
        code = main(["synth", "--n", "400", "--homophily", "0.19",
                     "--seed", "2", "--out", str(tmp_path / "g")])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        dist = payload["neighbor_label_distribution"]
        assert dist["fraud"]["benign"] == pytest.approx(0.81, abs=0.06)

    def test_invalid_parameters_usage_error(self, tmp_path, capsys):
        code = main(["synth", "--fraud-rate", "0", "--out", str(tmp_path / "g")])
        assert code == EXIT_USAGE

    def test_out_naming_a_file_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "g"
        out.write_text("keep")
        code = main(["synth", "--n", "100", "--out", str(out)])
        assert code == EXIT_USAGE
        assert str(out) in capsys.readouterr().err
        assert out.read_text() == "keep"

    def test_class_of_one_with_a_same_class_edge_is_usage_error(self, tmp_path):
        # Seed 10 draws one fraud node among 10; a same-class edge between two
        # fraud nodes cannot be formed. Run apart, so a hang fails by timeout.
        out = tmp_path / "g"
        proc = subprocess.run(
            [sys.executable, "-m", "dignn.cli", "synth", "--n", "10", "--seed", "10",
             "--out", str(out)], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))})
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert "one node" in proc.stderr
        assert not out.exists()

    def test_defaults_are_synth_config_defaults(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "cli")]) == EXIT_OK
        save_graph(synth_generate(SynthConfig()), str(tmp_path / "lib"))
        names = sorted(os.listdir(tmp_path / "lib"))
        assert sorted(os.listdir(tmp_path / "cli")) == names
        for name in names:
            assert ((tmp_path / "cli" / name).read_bytes()
                    == (tmp_path / "lib" / name).read_bytes()), name

    @pytest.mark.parametrize("flag, value, field, expected", [
        ("--n", "7", "num_nodes", 7), ("--dim", "3", "feature_dim", 3),
        ("--fraud-rate", "0.3", "fraud_rate", 0.3),
        ("--homophily", "0.5", "homophily", 0.5), ("--h", "0.6", "homophily", 0.6),
        ("--delta", "1.5", "mean_separation", 1.5),
        ("--avg-degree", "4", "avg_degree", 4.0), ("--seed", "9", "seed", 9),
    ])
    def test_each_flag_sets_its_own_field(self, tmp_path, capsys, monkeypatch,
                                          flag, value, field, expected):
        seen = []

        def capture(cfg):
            seen.append(cfg)
            raise ValueError("captured")

        monkeypatch.setattr(cli, "synth_generate", capture)
        out = tmp_path / "g"
        assert main(["synth", flag, value, "--out", str(out)]) == EXIT_USAGE
        assert seen == [replace(SynthConfig(), **{field: expected})]
        assert type(getattr(seen[0], field)) is type(getattr(SynthConfig(), field))
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--delta", "nan"), ("--delta", "inf"), ("--avg-degree", "inf"),
        ("--fraud-rate", "nan"), ("--homophily", "nan"), ("--seed", "-1"),
    ])
    def test_non_finite_value_or_negative_seed_is_usage_error(self, tmp_path, capsys,
                                                              flag, value):
        out = tmp_path / "g"
        assert main(["synth", "--n", "100", flag, value, "--out", str(out)]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_writes_all_artifacts(self, trained_run):
        for name in ("manifest.json", "model.bin", "history.csv", "metrics.json"):
            assert os.path.isfile(os.path.join(trained_run, name))
        assert len(os.listdir(trained_run)) == 4  # and no temp file

    def test_failed_write_keeps_old_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text("old")

        def broken(p):
            with open(p, "w") as fh:
                fh.write("half")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            _write_atomic(str(path), broken)
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["metrics.json"]

    def test_metrics_payload(self, trained_run):
        with open(os.path.join(trained_run, "metrics.json")) as fh:
            payload = json.load(fh)
        assert payload["variant"] == "DIGNN"
        m = payload["metrics"]
        assert 0.0 <= m["auc"] <= 1.0
        assert set(m["precision"]) == {"0", "1"}

    def test_manifest_records_inputs(self, trained_run, data_dir):
        with open(os.path.join(trained_run, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["data"] == data_dir
        assert "meta.json" in manifest["input_hashes"]
        assert manifest["config"]["epochs"] == 3
        assert manifest["outputs"]["model"] == "model.bin"
        digest = hashlib.sha256(_model_bytes(trained_run)).hexdigest()
        assert manifest["output_hashes"] == {"model.bin": digest}

    def test_manifest_rerun_reproduces_model(self, trained_run, tmp_path, capsys):
        out2 = str(tmp_path / "rerun")
        code = main(["train", "--manifest",
                     os.path.join(trained_run, "manifest.json"), "--out", out2])
        assert code == EXIT_OK
        a = open(os.path.join(trained_run, "model.bin"), "rb").read()
        b = open(os.path.join(out2, "model.bin"), "rb").read()
        assert a == b

    @pytest.mark.parametrize("case", [
        "missing_file", "directory", "not_json", "no_config", "missing_key",
        "unknown_key", "dropped_knob", "shared_attention", "hashes_not_object",
        "output_hashes_not_object", "wrong_type",
    ])
    def test_bad_manifest_is_usage_error(self, trained_run, tmp_path, capsys, case):
        with open(os.path.join(trained_run, "manifest.json")) as fh:
            manifest = json.load(fh)
        cfg = manifest["config"]
        path = tmp_path / "manifest.json"
        named = None
        if case == "missing_file":
            path = tmp_path / "absent.json"
        elif case == "directory":
            path = tmp_path
        elif case == "not_json":
            path.write_text("{config: ")
        else:
            if case == "no_config":
                del manifest["config"]
                named = "config"
            elif case == "missing_key":
                del cfg["embed_dim"]
                named = "embed_dim"
            elif case == "unknown_key":
                cfg["learning_rate"] = 0.1
                named = "learning_rate"
            elif case == "dropped_knob":  # a manifest written before the knob went
                cfg["drop_conditional_terms"] = False
                named = "drop_conditional_terms"
            elif case == "shared_attention":  # written before the fork went
                cfg["shared_attention"] = True
                named = "shared_attention"
            elif case == "hashes_not_object":
                manifest["input_hashes"] = ["meta.json"]
                named = "input_hashes"
            elif case == "output_hashes_not_object":
                manifest["output_hashes"] = "model.bin"
                named = "output_hashes"
            else:
                cfg["epochs"] = "3"
                named = "epochs"
            path.write_text(json.dumps(manifest))
        code = main(["train", "--manifest", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage error" in err
        if named:
            assert named in err
        assert not (tmp_path / "o").exists()

    def test_changed_input_is_load_error(self, trained_run, data_dir, tmp_path,
                                         capsys):
        copy = tmp_path / "data"
        shutil.copytree(data_dir, copy)
        blob = bytearray((copy / "features.f32le").read_bytes())
        blob[0] ^= 1
        (copy / "features.f32le").write_bytes(bytes(blob))
        with open(os.path.join(trained_run, "manifest.json")) as fh:
            manifest = json.load(fh)
        manifest["data"] = str(copy)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "o"
        code = main(["train", "--manifest", str(path), "--out", str(out)])
        assert code == EXIT_LOAD
        assert "features.f32le" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--data", "/nonexistent"), ("--config", "cfg.txt"), ("--seed", "9"),
        ("--epochs", "1"), ("--batch-size", "8"), ("--alpha", "0.1"),
        ("--beta", "0.1"), ("--ablation", "no_mi"), ("--mode", "fullbatch"),
    ])
    def test_manifest_with_a_flag_is_usage_error(self, trained_run, tmp_path,
                                                 capsys, flag, value):
        out = tmp_path / "o"
        code = main(["train", "--manifest",
                     os.path.join(trained_run, "manifest.json"),
                     flag, value, "--out", str(out)])
        assert code == EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_is_usage_error(self, tmp_path, capsys):
        code = main(["train", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE

    def test_bad_data_dir_is_load_error(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_LOAD

    @pytest.mark.parametrize("meta", [
        "{bad",
        '{"num_nodes": "abc", "feature_dim": 8, "relations": []}',
        # n * d matches the features file, so only the sign can catch it
        '{"num_nodes": -200, "feature_dim": -8, "relations": []}',
        # int() would read these as the graph's 200 nodes, or a bool as 1
        '{"num_nodes": 200.9, "feature_dim": 8, "relations": ["SYN"]}',
        '{"num_nodes": true, "feature_dim": 8, "relations": ["SYN"]}',
        '{"num_nodes": "200", "feature_dim": 8, "relations": ["SYN"]}',
        '{"num_nodes": 200, "feature_dim": 8, "relations": "SYN"}',
    ], ids=["not_json", "bad_int", "negative", "float", "bool", "string",
            "relations_string"])
    def test_malformed_meta_is_load_error(self, data_dir, tmp_path, capsys, meta):
        bad = tmp_path / "g"
        shutil.copytree(data_dir, bad)
        (bad / "meta.json").write_text(meta)
        out = tmp_path / "o"
        assert main(["train", "--data", str(bad), "--out", str(out)]) == EXIT_LOAD
        assert "bad meta.json" in capsys.readouterr().err
        assert not out.exists()

    def test_divergence_exit_code(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("lr = 1e200\nepochs = 3\nbatch_size = 16\n")
        out = str(tmp_path / "o")
        with np.errstate(all="ignore"):
            code = main(["train", "--data", data_dir, "--config", str(cfg),
                         "--out", out])
        assert code == EXIT_DIVERGENCE
        assert sorted(os.listdir(out)) == ["history.csv", "manifest.json"]

    def test_non_numeric_config_value_is_usage_error(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("epochs = abc\n")
        code = main(["train", "--data", data_dir, "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "epochs" in capsys.readouterr().err

    def test_invalid_config_is_usage_error_before_manifest(self, data_dir, tmp_path,
                                                            capsys):
        out = tmp_path / "o"
        code = main(["train", "--data", data_dir, "--epochs", "0", "--out", str(out)])
        assert code == EXIT_USAGE
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("route, key, value", [
        *(("flag", k, v) for k, v in _INVALID_VALUES if k in cli._OVERRIDES),
        *(("config", k, v) for k, v in _INVALID_VALUES),
        *(("manifest", k, v) for k, v in _INVALID_VALUES),
    ])
    def test_invalid_value_is_usage_error_before_out(self, trained_run, data_dir,
                                                     tmp_path, capsys, route, key,
                                                     value):
        if route == "flag":
            source = ["--data", data_dir, cli._flag(key), str(value)]
        elif route == "config":
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(f"{key} = {value}\n")
            source = ["--data", data_dir, "--config", str(cfg)]
        else:
            with open(os.path.join(trained_run, "manifest.json")) as fh:
                manifest = json.load(fh)
            manifest["config"][key] = value
            path = tmp_path / "manifest.json"
            path.write_text(json.dumps(manifest))
            source = ["--manifest", str(path)]
        out = tmp_path / "o"
        assert main(["train", *source, "--out", str(out)]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_unformable_split_is_usage_error(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("train_ratio = 0.5\nval_ratio = 0.5\ntest_ratio = 0.5\n")
        code = main(["train", "--data", data_dir, "--config", str(cfg),
                     "--epochs", "1", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "ratios" in capsys.readouterr().err

    def test_split_error_leaves_no_manifest(self, data_dir, tmp_path, capsys):
        # A split that cannot be formed; one whose validation set would hold
        # none of the 57 fraud nodes; and one whose training set would hold
        # none of a 100-node graph's 12 fraud nodes (round(0.01 * 12) = 0).
        # Each must fail before --out exists.
        small = str(tmp_path / "small")
        assert main(["synth", "--n", "100", "--dim", "8", "--seed", "3",
                     "--out", small]) == EXIT_OK
        for i, (data, ratios) in enumerate((
                (data_dir, (0.5, 0.5, 0.5)),
                (data_dir, (0.98, 0.01, 0.01)),
                (small, (0.01, 0.49, 0.5)))):
            cfg = tmp_path / f"cfg{i}.txt"
            cfg.write_text("train_ratio = {}\nval_ratio = {}\ntest_ratio = {}\n"
                           .format(*ratios))
            out = tmp_path / f"o{i}"
            code = main(["train", "--data", data, "--config", str(cfg),
                         "--epochs", "1", "--batch-size", "64", "--out", str(out)])
            assert code == EXIT_USAGE
            assert not out.exists()

    def test_out_naming_a_file_is_usage_error(self, data_dir, tmp_path, capsys):
        out = tmp_path / "o"
        out.write_text("keep")
        code = main(["train", "--data", data_dir, "--epochs", "1", "--out", str(out)])
        assert code == EXIT_USAGE
        assert str(out) in capsys.readouterr().err
        assert out.read_text() == "keep"

    def test_undefined_validation_metric_is_usage_error(self, data_dir, tmp_path,
                                                        capsys):
        # A validation set without a fraud node leaves its AUC undefined: the
        # split is refused before any training, and the message names the
        # set, the class and the ratios.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("train_ratio = 0.98\nval_ratio = 0.01\ntest_ratio = 0.01\n")
        out = tmp_path / "o"
        code = main(["train", "--data", data_dir, "--config", str(cfg),
                     "--epochs", "1", "--batch-size", "64", "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "no validation node" in err and "class 1" in err
        assert "(0.98, 0.01, 0.01)" in err
        assert not out.exists()


@pytest.mark.parametrize("command", [["eval"], ["export-embeddings", "--out", "z.csv"]])
def test_invalid_manifest_config_is_usage_error(trained_run, tmp_path, command):
    # read_manifest checks each config value's type; the values themselves
    # are checked as train checks them, before the data is split with them.
    run = _copy_run(trained_run, tmp_path)
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["config"]["seed"] = -1
    (run / "manifest.json").write_text(json.dumps(manifest))
    proc = subprocess.run(
        [sys.executable, "-m", "dignn.cli", command[0], "--run", str(run), *command[1:]],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))})
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert "seed" in proc.stderr and "Traceback" not in proc.stderr
    assert os.listdir(tmp_path) == ["run"]


class TestEval:
    def test_eval_trained_model(self, ratio_run, tmp_path, capsys):
        # The run's split is not the default one, and eval scores that split.
        out = tmp_path / "eval.json"
        code = main(["eval", "--run", ratio_run, "--out", str(out)])
        assert code == EXIT_OK
        with open(os.path.join(ratio_run, "metrics.json"), "rb") as fh:
            trained = fh.read()
        assert capsys.readouterr().out.encode() == trained
        assert out.read_bytes() == trained
        assert os.listdir(tmp_path) == ["eval.json"]

    def test_eval_of_several_blocks(self, big_run, capsys):
        _, run = big_run  # its test split holds 1,200 nodes
        assert main(["eval", "--run", run]) == EXIT_OK
        with open(os.path.join(run, "metrics.json"), "rb") as fh:
            assert capsys.readouterr().out.encode() == fh.read()

    def test_changed_data_is_load_error(self, ratio_run, data_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        blob = bytearray((data / "features.f32le").read_bytes())
        blob[0] ^= 1
        (data / "features.f32le").write_bytes(bytes(blob))
        run = _copy_run(ratio_run, tmp_path)
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["data"] = str(data)
        (run / "manifest.json").write_text(json.dumps(manifest))
        code = main(["eval", "--run", str(run)])
        assert code == EXIT_LOAD
        assert "features.f32le" in capsys.readouterr().err

    def test_missing_manifest_is_usage_error(self, trained_run, tmp_path, capsys):
        run = _copy_run(trained_run, tmp_path)
        os.remove(run / "manifest.json")
        code = main(["eval", "--run", str(run)])
        assert code == EXIT_USAGE
        assert "manifest.json" in capsys.readouterr().err

    def test_missing_model_is_load_error(self, trained_run, tmp_path, capsys):
        # A diverged run leaves a manifest but no model.bin.
        run = _copy_run(trained_run, tmp_path)
        os.remove(run / "model.bin")
        code = main(["eval", "--run", str(run)])
        assert code == EXIT_LOAD
        assert str(run / "model.bin") in capsys.readouterr().err

    def test_out_in_missing_directory_is_usage_error(self, trained_run, tmp_path,
                                                     capsys):
        out = str(tmp_path / "absent" / "eval.json")
        code = main(["eval", "--run", trained_run, "--out", out])
        assert code == EXIT_USAGE
        assert out in capsys.readouterr().err

    def test_dimension_mismatch_is_load_error(self, trained_run, tmp_path, capsys):
        # model.bin replaced by the model of a 100-node graph.
        run = _copy_run(trained_run, tmp_path)
        DignnParams.init(100, 8, DignnConfig(), seed=0).save(str(run / "model.bin"))
        code = main(["eval", "--run", str(run)])
        assert code == EXIT_LOAD
        assert "do not match" in capsys.readouterr().err

    def test_truncated_model_is_load_error(self, trained_run, tmp_path, capsys):
        run = _copy_run(trained_run, tmp_path)
        (run / "model.bin").write_bytes(bytes(_model_bytes(trained_run)[:20]))
        code = main(["eval", "--run", str(run)])
        assert code == EXIT_LOAD
        assert "truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("case, message", [("huge_header", "truncated"),
                                               ("trailing_bytes", "trailing bytes")])
    def test_size_other_than_header_implies_is_load_error(self, trained_run, tmp_path,
                                                          capsys, case, message):
        run = _copy_run(trained_run, tmp_path)
        blob = _model_bytes(trained_run)
        if case == "huge_header":  # n and enc_a_w1's rows claim 2**31 nodes
            blob[10:14] = blob[43:47] = struct.pack("<I", 2 ** 31)
        else:
            blob += bytes(8)
        (run / "model.bin").write_bytes(bytes(blob))
        code = main(["eval", "--run", str(run)])
        assert code == EXIT_LOAD
        assert message in capsys.readouterr().err

    def test_non_utf8_tensor_name_is_load_error(self, trained_run, tmp_path, capsys):
        run = _copy_run(trained_run, tmp_path)
        blob = _model_bytes(trained_run)
        blob[blob.index(b"enc_a_w1")] = 0xFF
        (run / "model.bin").write_bytes(bytes(blob))
        code = main(["eval", "--run", str(run)])
        assert code == EXIT_LOAD
        assert "'enc_a_w1'" in capsys.readouterr().err

    @pytest.mark.parametrize("case, message", [("version", "version 2"),
                                               ("tensor_count", "20 tensors"),
                                               ("renamed", "'att_q'")])
    def test_header_other_than_save_writes_is_load_error(self, trained_run, tmp_path,
                                                         capsys, case, message):
        run = _copy_run(trained_run, tmp_path)
        blob = _model_bytes(trained_run)
        if case == "version":
            blob[6:10] = struct.pack("<I", 2)
        elif case == "tensor_count":
            blob[26:30] = struct.pack("<I", 20)
        else:
            at = blob.index(b"att_q")
            blob[at:at + 5] = b"att_z"
        (run / "model.bin").write_bytes(bytes(blob))
        code = main(["eval", "--run", str(run)])
        assert code == EXIT_LOAD
        assert message in capsys.readouterr().err

    def test_flag_byte_other_than_one_is_load_error(self, trained_run, tmp_path,
                                                    capsys):
        run = _copy_run(trained_run, tmp_path)
        blob = _model_bytes(trained_run)
        assert blob[30] == 1  # after the 6-byte magic and six uint32 fields
        blob[30] = 0
        (run / "model.bin").write_bytes(bytes(blob))
        code = main(["eval", "--run", str(run)])
        assert code == EXIT_LOAD
        assert "flag" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["other_runs_model", "no_recorded_hash"])
    def test_unverified_model_is_load_error(self, trained_run, ratio_run, tmp_path,
                                            capsys, case):
        run = _copy_run(trained_run, tmp_path)
        if case == "other_runs_model":
            # Same graph, so the dimensions fit; only the recorded hash tells.
            shutil.copy(os.path.join(ratio_run, "model.bin"), run / "model.bin")
        else:
            manifest = json.loads((run / "manifest.json").read_text())
            del manifest["output_hashes"]
            (run / "manifest.json").write_text(json.dumps(manifest))
        code = main(["eval", "--run", str(run)])
        assert code == EXIT_LOAD
        assert str(run / "model.bin") in capsys.readouterr().err

    def test_wrong_tensor_shape_is_load_error(self, trained_run, tmp_path, capsys):
        run = _copy_run(trained_run, tmp_path)
        params = DignnParams.load(str(run / "model.bin"))
        params.tensors["att_q"] = Var(np.zeros((5, 1)))
        params.save(str(run / "model.bin"))
        code = main(["eval", "--run", str(run)])
        assert code == EXIT_LOAD
        assert "att_q" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "export-embeddings"])
@pytest.mark.parametrize("flag, value", [
    ("--model", "model.bin"), ("--data", "graph"), ("--seed", "0"),
])
def test_run_is_the_only_input(trained_run, tmp_path, capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, "--run", trained_run, flag, value,
              "--out", str(tmp_path / "o")])
    assert exc.value.code == EXIT_USAGE
    assert flag in capsys.readouterr().err


class TestGradcheck:
    def test_pass(self, capsys):
        code = main(["gradcheck"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "max_rel_err" in out and "FAIL" not in out

    def test_corrupted_gradient_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "gradcheck", partial(gradcheck, corrupt="clf_w"))
        code = main(["gradcheck"])
        assert code == EXIT_GRADCHECK
        assert "FAIL" in capsys.readouterr().out

    def test_takes_no_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--corrupt-tensor", "clf_w"])
        assert exc.value.code == EXIT_USAGE


class TestExportEmbeddings:
    def test_csv_shape(self, trained_run, tmp_path):
        out = str(tmp_path / "emb.csv")
        code = main(["export-embeddings", "--run", trained_run, "--out", out])
        assert code == EXIT_OK
        lines = open(out).read().strip().split("\n")
        header = lines[0].split(",")
        assert header[:2] == ["node_id", "label"]
        d = len(header) - 2
        assert d == 32  # default embedding width
        assert len(lines) == 1 + 200
        row = lines[1].split(",")
        assert len(row) == len(header)
        float(row[2])  # embedding entries parse as floats
        assert os.listdir(tmp_path) == ["emb.csv"]

    def test_embeddings_of_the_runs_normalization(self, ratio_run, data_dir,
                                                   tmp_path):
        out = tmp_path / "emb.csv"
        code = main(["export-embeddings", "--run", ratio_run, "--out", str(out)])
        assert code == EXIT_OK
        graph = load_graph(data_dir)
        split = stratified_split(graph, (0.7, 0.1, 0.2), seed_streams(5)["split"])
        graph = normalize_features(graph, split)
        params = DignnParams.load(os.path.join(ratio_run, "model.bin"))
        ids = graph.labeled_ids()
        batch = gather_batch(graph, ids)
        z = M.forward(params, batch, params.cfg).z.value
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 0], ids)
        assert np.array_equal(rows[:, 1], batch.labels)
        assert np.array_equal(rows[:, 2:], z)

    def test_rows_of_several_blocks(self, big_run, tmp_path):
        data, run = big_run
        out = tmp_path / "emb.csv"
        code = main(["export-embeddings", "--run", run, "--out", str(out)])
        assert code == EXIT_OK
        graph = load_graph(data)
        split = stratified_split(graph, (0.4, 0.2, 0.4), seed_streams(0)["split"])
        graph = normalize_features(graph, split)
        params = DignnParams.load(os.path.join(run, "model.bin"))
        ids = graph.labeled_ids()
        assert ids.size > 2 * SCORE_BLOCK
        blocks = [M.forward(params, gather_batch(graph, ids[i:i + SCORE_BLOCK]),
                            params.cfg).z.value
                  for i in range(0, ids.size, SCORE_BLOCK)]
        whole = M.forward(params, gather_batch(graph, ids), params.cfg).z.value
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 0], ids)
        assert np.array_equal(rows[:, 1], graph.labels[ids])
        assert np.array_equal(rows[:, 2:], np.concatenate(blocks))
        assert np.max(np.abs(rows[:, 2:] - whole)) <= 1e-12

    def test_missing_model_is_load_error(self, trained_run, tmp_path, capsys):
        run = _copy_run(trained_run, tmp_path)
        os.remove(run / "model.bin")
        out = tmp_path / "emb.csv"
        code = main(["export-embeddings", "--run", str(run), "--out", str(out)])
        assert code == EXIT_LOAD
        assert str(run / "model.bin") in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run"]

    def test_out_in_missing_directory_is_usage_error(self, trained_run, tmp_path,
                                                     capsys):
        out = str(tmp_path / "absent" / "emb.csv")
        code = main(["export-embeddings", "--run", trained_run, "--out", out])
        assert code == EXIT_USAGE
        assert out in capsys.readouterr().err


class TestConfigHandling:
    def test_read_config_file(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("epochs = 7  # comment\nbeta=0.2\nablation = no_mi\n")
        cfg = read_config_file(str(p))
        assert cfg == {"epochs": 7, "beta": 0.2, "ablation": "no_mi"}

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "c.txt"
        # learning_rate never existed; the other two were removed knobs.
        for key in ("learning_rate", "drop_conditional_terms", "shared_attention"):
            p.write_text(f"{key} = 0\n")
            with pytest.raises(UsageError, match=f"unknown key '{key}'"):
                read_config_file(str(p))

    def test_precedence_defaults_file_cli(self):
        cfg = resolve_config({"epochs": 7, "beta": 0.2}, {"epochs": 9, "seed": None})
        assert cfg["epochs"] == 9     # CLI wins
        assert cfg["beta"] == 0.2     # file beats default
        assert cfg["seed"] == 0       # None override falls back to default

    def test_config_keys_are_dataclass_fields_plus_ratios(self):
        train = {f.name for f in fields(TrainConfig)} - {"model"}
        model = {f.name for f in fields(DignnConfig)}
        ratios = {"train_ratio", "val_ratio", "test_ratio"}
        assert CONFIG_KEYS.keys() == train | model | ratios
        assert len(train) + len(model) + len(ratios) == len(CONFIG_KEYS)
        defaults = resolve_config({}, {})
        assert all(type(defaults[k]) is t for k, t in CONFIG_KEYS.items())

    def test_default_config_builds_default_train_config(self):
        assert build_train_config(resolve_config({}, {})) == TrainConfig()

    def test_readme_lists_every_config_key(self):
        with open(README) as fh:
            text = fh.read()
        missing = [k for k in CONFIG_KEYS if f"`{k}`" not in text]
        assert not missing

    def test_readme_lists_every_synth_flag(self):
        with open(README) as fh:
            text = fh.read()
        defaults = asdict(SynthConfig())
        assert cli.SYNTH_FLAGS.keys() == defaults.keys()
        for name, option_strings in cli.SYNTH_FLAGS.items():
            flags = " / ".join(f"`{o}`" for o in option_strings)
            assert f"| {flags} | `{name}` | `{defaults[name]}` |" in text, name

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "3"), ("--epochs", "2"), ("--batch-size", "8"), ("--alpha", "1"),
        ("--beta", "1"), ("--ablation", "no_mi"), ("--mode", "fullbatch"),
    ])
    def test_train_flag_parses_to_its_key_type(self, flag, value):
        key = flag[2:].replace("-", "_")
        args = cli.build_parser().parse_args(["train", flag, value, "--out", "o"])
        assert type(getattr(args, key)) is CONFIG_KEYS[key]
        assert getattr(args, key) == CONFIG_KEYS[key](value)

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "x"), ("--epochs", "2.5"), ("--batch-size", "1e3"),
        ("--alpha", "abc"), ("--ablation", "none"), ("--mode", "batch"),
    ])
    def test_train_flag_of_another_type_exits_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["train", flag, value, "--out", "o"])
        assert exc.value.code == EXIT_USAGE
        assert flag in capsys.readouterr().err

    def test_variant_tags(self):
        base = resolve_config({}, {})
        assert variant_tag(base) == "DIGNN"
        assert variant_tag({**base, "mode": "fullbatch"}) == "DIGNN\\S"
        assert variant_tag({**base, "ablation": "no_mi"}) == "DIGNN\\M"
        assert variant_tag({**base, "mode": "fullbatch",
                            "ablation": "no_mi"}) == "DIGNN\\S\\M"

import hashlib
import json
import math
import os
import resource
import shutil
import struct
import subprocess
import sys
import threading
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from dignn import autodiff as ad
from dignn import cli
from dignn import model as M
from dignn.autodiff import Var
from dignn.cli import (
    CONFIG_KEYS, EXIT_DIVERGENCE, EXIT_GRADCHECK, EXIT_LOAD, EXIT_OK, EXIT_USAGE,
    UsageError, _write_atomic, build_train_config, main, read_config_file,
    resolve_config, variant_tag,
)
from dignn.errors import GraphLoadError
from dignn.graphdata import (
    SynthConfig, gather_batch, load_graph, normalize_features, save_graph,
    stratified_split, synth_generate,
)
from dignn.model import DignnConfig, DignnParams
from dignn.rng import seed_streams
from dignn.trainer import SCORE_BLOCK, TrainConfig

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


def _flipped_copy(data_dir, tmp_path) -> str:
    """A copy of ``data_dir`` whose features file differs in one bit."""
    copy = tmp_path / "data"
    shutil.copytree(data_dir, copy)
    _bytes(lambda b: bytes([b[0] ^ 1]) + b[1:])(copy / "features.f32le")
    return str(copy)


def _exits(capsys, argv, code, fragment="", out=None):
    """Check that ``main(argv)`` returns ``code``, prints the code's prefix
    and ``fragment`` and no traceback, and leaves no ``out``."""
    assert main(argv) == code
    err = capsys.readouterr().err
    prefix = {c: p + ": " for c, p in cli.FAILURE_EXITS.values()}[code]
    assert err.startswith(prefix) and "Traceback" not in err, err
    assert fragment in err, err
    assert out is None or not os.path.exists(out)


# Changes that the failure table makes to one file of a copied input.
def _directory(path):
    if path.is_file():
        path.unlink()
    path.mkdir()


def _bytes(edit):
    return lambda path: path.write_bytes(edit(path.read_bytes()))


def _write(data: bytes):
    return lambda path: path.write_bytes(data)


def _patch(*edits):
    """Overwrite the bytes at each (offset, data) pair."""
    def edit(blob):
        blob = bytearray(blob)
        for offset, data in edits:
            blob[offset:offset + len(data)] = data
        return bytes(blob)
    return _bytes(edit)


def _json(edit):
    def change(path):
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
    return change


def _model(edit):
    def change(path):
        params = DignnParams.load(str(path))
        edit(params)
        params.save(str(path))
    return change


def _meta(n, relations='["SYN"]'):
    return _write(f'{{"num_nodes": {n}, "feature_dim": 8, "relations": {relations}}}'
                  .encode())


_U32 = partial(struct.pack, "<I")

# The failure table: each input the CLI reads, by group, with the scaffold
# that ``fails`` copies it into, the file changed there, the exit code, and
# rows of (id, change, stderr fragment). "{dir}" in a fragment is the
# directory holding the file. Ids such as "version-version 2" are those of
# the tests the rows replaced. NaN and negative config values, by flag,
# config file and manifest, are the rows of
# ``test_invalid_value_is_usage_error_before_out``.
FAILURES = {
    "meta.json": ("graph", "meta.json", EXIT_LOAD, [
        ("missing", os.remove, "missing file: {dir}/meta.json"),
        ("empty", _write(b""), "bad meta.json"),
        ("not_json", _write(b"{bad"), "bad meta.json"),
        ("not_utf8", _write(b"\xff"), "bad meta.json"),
        ("missing_key", _json(lambda m: m.pop("feature_dim")), "bad meta.json"),
        ("bad_int", _meta('"abc"', "[]"), "bad meta.json"),
        # n * d matches the features file, so only the sign can catch it
        ("negative", _write(b'{"num_nodes": -200, "feature_dim": -8, "relations": []}'),
         "bad meta.json"),
        # int() would read these as the graph's 200 nodes, or a bool as 1
        ("float", _meta(200.9), "bad meta.json"),
        ("bool", _meta("true"), "bad meta.json"),
        ("string", _meta('"200"'), "bad meta.json"),
        ("nan", _meta("NaN"), "bad meta.json"),
        ("relations_string", _meta(200, '"SYN"'), "bad meta.json"),
        # a lone surrogate has no UTF-8, so it names no edge file
        ("relation_surrogate", _meta(200, '["\\ud800"]'), "bad meta.json"),
        # refused by the features file's size, before anything is read
        ("past_the_data", _meta(2 ** 31),
         f"features: expected {2 ** 34} values in {{dir}}/features.f32le, found 1600"),
    ]),
    "features.f32le": ("graph", "features.f32le", EXIT_LOAD, [
        ("missing", os.remove, "missing file: {dir}/features.f32le"),
        ("empty", _write(b""), "expected 1600 values in {dir}/features.f32le, found 0"),
        ("short", _bytes(lambda b: b[:-4]), "expected 1600 values in "
         "{dir}/features.f32le, found 1599"),
        ("partial_value", _bytes(lambda b: b + b"\0\0"), "features: "
         "{dir}/features.f32le ends in a partial value (2 of 4 bytes)"),
        ("nan", _patch((0, struct.pack("<f", math.nan))), "non-finite values"),
    ]),
    "labels.i8": ("graph", "labels.i8", EXIT_LOAD, [
        ("missing", os.remove, "missing file: {dir}/labels.i8"),
        ("empty", _write(b""), "expected 200 values in {dir}/labels.i8, found 0"),
        ("out_of_range", _patch((0, b"\x05")), "labels must lie in {-1, 0, 1}"),
        ("negative", _patch((0, b"\xfe")), "labels must lie in {-1, 0, 1}"),
    ]),
    "edges_SYN.u32le": ("graph", "edges_SYN.u32le", EXIT_LOAD, [
        ("missing", os.remove, "missing file: {dir}/edges_SYN.u32le"),
        ("partial_value", _bytes(lambda b: b + b"\0\0"), "edges: "
         "{dir}/edges_SYN.u32le ends in a partial value (2 of 4 bytes)"),
        ("odd", _bytes(lambda b: b + bytes(4)), "odd number of endpoints in "
         "{dir}/edges_SYN.u32le"),
        ("past_the_nodes", _patch((0, _U32(200))), "edge endpoint 200 out of range"),
    ]),
    "config file": ("config", "cfg.txt", EXIT_USAGE, [
        ("missing", os.remove, "config file not found: {dir}/cfg.txt"),
        ("directory", _directory, "config file not found: {dir}/cfg.txt"),
        ("not_utf8", _write(b"epochs = 1\xff\n"),
         "cannot read config file {dir}/cfg.txt: 'utf-8' codec can't decode"),
        ("no_equals", _write(b"epochs 1\n"), "{dir}/cfg.txt:1: expected 'key = value'"),
        ("empty_value", _write(b"epochs =\n"), "cfg.txt:1: bad value for epochs: ''"),
        ("wrong_type", _write(b"# n\nbatch_size = 1e3\n"),
         "cfg.txt:2: bad value for batch_size: '1e3'"),
        ("non_numeric", _write(b"epochs = abc\n"),
         "{dir}/cfg.txt:1: bad value for epochs: 'abc'"),
        # model.bin stores each dimension as a uint32
        ("hidden_dim_past_uint32", _write(b"hidden_dim = 1000000000000\n"),
         "hidden_dim = 1000000000000 must be >= 1 and < 2**32"),
        # 200 x 2**31 float64 encoder weights alone are 3.4 TB
        ("hidden_dim_past_memory", _write(b"hidden_dim = 2147483648\n"),
         "hidden_dim = 2147483648 and embed_dim = 32 on 200 nodes need"),
    ]),
    "manifest": ("manifest", "manifest.json", EXIT_USAGE, [
        ("missing_file", os.remove, "cannot read manifest"),
        ("directory", _directory, "cannot read manifest"),
        ("empty", _write(b""), "cannot read manifest"),
        ("not_json", _write(b"{config: "), "cannot read manifest"),
        ("not_utf8", _write(b'{"data": "\xff"}'), "cannot read manifest"),
        ("not_object", _write(b"[]"), "a manifest needs a 'config' object"),
        ("no_config", _json(lambda m: m.pop("config")), "config"),
        ("data_not_string", _json(lambda m: m.update(data=3)), "'data' path"),
        # a lone surrogate, which no file system path decodes to
        ("data_not_a_path", _json(lambda m: m.update(data="\ud800")), "'data' is not a path"),
        ("missing_key", _json(lambda m: m["config"].pop("embed_dim")), "embed_dim"),
        ("unknown_key", _json(lambda m: m["config"].update(learning_rate=0.1)),
         "learning_rate"),
        # written before the knob, or the unshared attention, went
        ("dropped_knob",
         _json(lambda m: m["config"].update(drop_conditional_terms=False)),
         "drop_conditional_terms"),
        ("shared_attention", _json(lambda m: m["config"].update(shared_attention=True)),
         "shared_attention"),
        ("hashes_not_object", _json(lambda m: m.update(input_hashes=["meta.json"])),
         "input_hashes"),
        ("output_hashes_not_object", _json(lambda m: m.update(output_hashes="model.bin")),
         "output_hashes"),
        ("wrong_type", _json(lambda m: m["config"].update(epochs="3")), "epochs"),
    ]),
    "run manifest": ("run", "manifest.json", EXIT_USAGE, [
        ("missing", os.remove, "cannot read manifest {dir}/manifest.json"),
        ("empty", _write(b""), "cannot read manifest {dir}/manifest.json"),
        ("not_utf8", _write(b"\xff"), "cannot read manifest {dir}/manifest.json"),
        ("directory", _directory, "cannot read manifest {dir}/manifest.json"),
        ("not_object", _write(b"null"), "{dir}/manifest.json: a manifest needs"),
    ]),
    # model.bin: a 31-byte header (version at 6, node count at 10, tensor
    # count at 26, flag byte at 30), then enc_a_w1's name length, name (at
    # 35) and shape (rows at 43), and its first value (at 51).
    "model.bin size": ("run", "model.bin", EXIT_LOAD, [
        ("empty", _write(b""), "not a model file: {dir}/model.bin"),
        ("truncated", _bytes(lambda b: b[:20]), "truncated model file: {dir}/model.bin"),
        # n and enc_a_w1's rows claim 2**31 nodes
        ("huge_header-truncated", _patch((10, _U32(2 ** 31)), (43, _U32(2 ** 31))),
         "truncated model file: {dir}/model.bin"),
        ("trailing_bytes-trailing bytes", _bytes(lambda b: b + bytes(8)),
         "trailing bytes"),
    ]),
    "model.bin header": ("run", "model.bin", EXIT_LOAD, [
        ("version-version 2", _patch((6, _U32(2))), "version 2"),
        ("tensor_count-20 tensors", _patch((26, _U32(20))), "20 tensors"),
        ("flag_byte", _patch((30, b"\0")), "flag byte 0"),
        ("renamed-'att_q'", _bytes(lambda b: b.replace(b"att_q", b"att_z", 1)),
         "'att_q'"),
        ("not_utf8_name", _bytes(lambda b: b.replace(b"enc_a_w1", b"\xffnc_a_w1", 1)),
         "'enc_a_w1'"),
        ("wrong_shape", _model(lambda p: p.tensors.update(att_q=Var(np.zeros((5, 1))))),
         "'att_q' of shape"),
    ]),
    "model.bin hash": ("run", "model.bin", EXIT_LOAD, [
        # A diverged run leaves a manifest but no model.bin.
        ("missing", os.remove, "cannot open model file {dir}/model.bin"),
        ("directory", _directory, "cannot open model file {dir}/model.bin"),
        # A model of the same graph that this run did not write: the
        # dimensions fit, and only the recorded hash tells.
        ("other_runs_model", _patch((51, struct.pack("<d", 0.5))),
         "{dir}/model.bin differs from the manifest's output hash"),
        ("nan", _patch((51, struct.pack("<d", math.nan))),
         "{dir}/model.bin differs from the manifest's"),
        ("no_recorded_hash",  # the manifest beside model.bin records none
         lambda p: _json(lambda m: m.pop("output_hashes"))(p.parent / "manifest.json"),
         "{dir}/model.bin differs from the manifest's output hash, or the "
         "manifest records none"),
        ("other_graphs_model",
         lambda path: DignnParams.init(100, 8, DignnConfig(), seed=0).save(str(path)),
         "model dims (100, 8) do not match graph (200, 8)"),
    ]),
}
# Paths in --out that train cannot write. It writes manifest.json last, so
# none of them leaves a run that eval --run would read.
FAILURES.update({f"--out {name}": ("out", name, EXIT_USAGE, [
    ("directory", _directory, f"cannot write {{dir}}/{name}")])
    for name in ("model.bin", "history.csv", "metrics.json", "manifest.json")})

# Commands run under an address-space limit (``RLIMIT_AS``), set in the
# child that runs each one, so that no row depends on the host's memory:
# the rows of ``test_allocation_past_the_address_space_limit_is_usage_error``.
# Each change is the command's arguments, a config file's text and the limit.
FAILURES["address space limit"] = ("limit", None, EXIT_USAGE, [
    # synth's own estimate (680 MB) is within the limit; the interpreter's
    # mappings are not, so a draw fails.
    ("synth", (["synth", "--n", "1000", "--avg-degree", "20000"], None, 700_000_000),
     "Unable to allocate"),
    # 1.3 GB of parameters and moments, and 240 GB of Gramian arrays: the
    # guard refuses them.
    ("train_guard", (["train"], "hidden_dim = 100000", 1_000_000_000),
     "need 241320034248 bytes for the parameters, Adam's two moments and the "
     "topology decoder's three (hidden_dim + 1)^2 Gramian arrays, more than the "
     "1000000000 bytes"),
    # 0.39 GB of parameters and moments, but 21.6 GB of the topology
    # decoder's (30001, 30001) Gramian arrays: the guard refuses them too.
    ("train_gramian", (["train"], "hidden_dim = 30000", 1_000_000_000),
     "hidden_dim = 30000 and embed_dim = 32 on 200 nodes need 21996034248 bytes "
     "for the parameters, Adam's two moments and the topology decoder's three "
     "(hidden_dim + 1)^2 Gramian arrays"),
    # 0.94 GB of parameters, moments and Gramian arrays pass the guard; with
    # the interpreter's own mappings, a (6001, 6001) array then fails, after
    # --out was made.
    ("train_allocation", (["train"], "hidden_dim = 6000", 1_000_000_000),
     "Unable to allocate"),
])


def _rows(*groups):
    """The rows of ``groups`` as parameters of ``fails``, with the group's
    name before the row's id where there are several groups."""
    params = []
    for group in groups:
        kind, name, code, rows = FAILURES[group]
        params += [pytest.param((kind, name, code, change, fragment),
                                id=case if len(groups) == 1 else f"{group}-{case}")
                   for case, change, fragment in rows]
    return params


@pytest.fixture
def fails(data_dir, trained_run, tmp_path, capsys):
    """Check a row of ``FAILURES``: with the row's change made to a copy of
    its input, the command that reads it returns the row's code, prints
    the code's prefix and the row's fragment and no traceback, and leaves
    no --out (for the --out rows, no manifest.json)."""
    def check(kind, name, code, change, fragment):
        out = tmp_path / "o"
        where = {"graph": tmp_path / "g", "run": tmp_path / "run",
                 "out": out}.get(kind, tmp_path)
        argv = ["train", "--data", str(where) if kind == "graph" else data_dir,
                "--epochs", "1"]
        if kind == "graph":
            shutil.copytree(data_dir, where)
        elif kind == "config":
            (where / name).write_text("")
            argv += ["--config", str(where / name)]
        elif kind == "manifest":
            shutil.copy(os.path.join(trained_run, name), where)
            argv = ["train", "--manifest", str(where / name)]
        elif kind == "run":
            shutil.copytree(trained_run, where)
            argv = ["eval", "--run", str(where)]
        else:
            out.mkdir()
        change(where / name)
        _exits(capsys, [*argv, "--out", str(out)], code,
               fragment.replace("{dir}", str(where)), None if kind == "out" else out)
        assert not (out / "manifest.json").is_file()
    return check


# The groups whose rows replaced named tests run under those names, below.
@pytest.mark.parametrize("row", _rows(
    "features.f32le", "labels.i8", "edges_SYN.u32le", "config file", "run manifest",
    *(g for g in FAILURES if g.startswith("--out"))))
def test_failure_table(fails, row):
    fails(*row)


def test_non_ascii_relation_runs_under_the_c_locale(tmp_path, capsys):
    # Under the C locale with UTF-8 mode off, the locale's encoding is ASCII.
    # meta.json and the manifest are read as UTF-8 whatever it is, an edge
    # file is named, and its input hash keyed, by its relation's UTF-8, and
    # the manifest's data path names the directory train read.
    g = synth_generate(SynthConfig(num_nodes=50, feature_dim=3, seed=0))
    data = tmp_path / "gé"
    save_graph(replace(g, relations={"é": g.relations["SYN"]}), str(data))

    def unescape(path):  # the same JSON, with "é" as UTF-8 bytes, not "\\u00e9"
        obj = json.loads(path.read_bytes())
        path.write_bytes(json.dumps(obj, ensure_ascii=False).encode())
        assert "é".encode() in path.read_bytes()

    run = tmp_path / "run"
    unescape(data / "meta.json")
    assert main(["train", "--data", str(data), "--epochs", "1",
                 "--out", str(run)]) == EXIT_OK
    capsys.readouterr()
    unescape(run / "manifest.json")
    proc = subprocess.run(
        [sys.executable, "-m", "dignn.cli", "eval", "--run", str(run)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
             "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))})
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == (run / "metrics.json").read_text()


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
        out = str(tmp_path / "g")
        _exits(capsys, ["synth", "--fraud-rate", "0", "--out", out], EXIT_USAGE,
               "fraud_rate", out)

    def test_out_naming_a_file_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "g"
        out.write_text("keep")
        _exits(capsys, ["synth", "--n", "100", "--out", str(out)], EXIT_USAGE, str(out))
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

    @pytest.mark.parametrize("args", [("--n", "1000", "--avg-degree", "1e12"),
                                      ("--n", "100000000000000")],
                             ids=["edges", "nodes"])
    def test_draws_past_physical_memory_are_usage_error(self, tmp_path, capsys, args):
        # The first array of each draw would exceed the 128 TiB user address
        # space, so without the estimate numpy refuses it at once.
        out = str(tmp_path / "g")
        _exits(capsys, ["synth", *args, "--out", out], EXIT_USAGE,
               "bytes for synth_generate's draws, more than the", out)

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
        out = str(tmp_path / "g")
        _exits(capsys, ["synth", "--n", "100", flag, value, "--out", out], EXIT_USAGE,
               out=out)


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

        with pytest.raises(UsageError, match=f"cannot write {path}: disk full"):
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
        with open(os.path.join(trained_run, "model.bin"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert manifest["output_hashes"] == {"model.bin": digest}

    def test_manifest_rerun_reproduces_model(self, trained_run, tmp_path, capsys):
        out2 = str(tmp_path / "rerun")
        code = main(["train", "--manifest",
                     os.path.join(trained_run, "manifest.json"), "--out", out2])
        assert code == EXIT_OK
        for name in ("model.bin", "history.csv", "metrics.json"):
            assert (Path(out2, name).read_bytes()
                    == Path(trained_run, name).read_bytes()), name

    @pytest.mark.parametrize("row", _rows("manifest"))
    def test_bad_manifest_is_usage_error(self, fails, row):
        fails(*row)

    def test_changed_input_is_load_error(self, trained_run, data_dir, tmp_path,
                                         capsys):
        path = _copy_run(trained_run, tmp_path) / "manifest.json"
        _json(lambda m: m.update(data=_flipped_copy(data_dir, tmp_path)))(path)
        out = str(tmp_path / "o")
        _exits(capsys, ["train", "--manifest", str(path), "--out", out], EXIT_LOAD,
               "features.f32le in", out)

    @pytest.mark.parametrize("flag, value", [
        ("--data", "/nonexistent"), ("--config", "cfg.txt"), ("--seed", "9"),
        ("--epochs", "1"), ("--batch-size", "8"), ("--alpha", "0.1"),
        ("--beta", "0.1"), ("--ablation", "no_mi"), ("--mode", "fullbatch"),
    ])
    def test_manifest_with_a_flag_is_usage_error(self, trained_run, tmp_path,
                                                 capsys, flag, value):
        out = str(tmp_path / "o")
        _exits(capsys, ["train", "--manifest", os.path.join(trained_run, "manifest.json"),
                        flag, value, "--out", out], EXIT_USAGE, flag, out)

    def test_missing_data_is_usage_error(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        _exits(capsys, ["train", "--out", out], EXIT_USAGE, "requires --data", out)

    def test_bad_data_dir_is_load_error(self, tmp_path, capsys):
        out, data = str(tmp_path / "o"), str(tmp_path / "nope")
        _exits(capsys, ["train", "--data", data, "--out", out], EXIT_LOAD,
               f"not a directory: {data}", out)

    @pytest.mark.parametrize("row", _rows("meta.json"))
    def test_malformed_meta_is_load_error(self, fails, row):
        fails(*row)

    def test_divergence_exit_code(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("lr = 1e200\nepochs = 3\nbatch_size = 16\n")
        out = str(tmp_path / "o")
        with np.errstate(all="ignore"):
            _exits(capsys, ["train", "--data", data_dir, "--config", str(cfg),
                            "--out", out], EXIT_DIVERGENCE, "non-finite loss")
        assert sorted(os.listdir(out)) == ["history.csv", "manifest.json"]

    def test_invalid_config_is_usage_error_before_manifest(self, data_dir, tmp_path,
                                                            capsys):
        out = str(tmp_path / "o")
        _exits(capsys, ["train", "--data", data_dir, "--epochs", "0", "--out", out],
               EXIT_USAGE, "epochs", out)

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
            path = _copy_run(trained_run, tmp_path) / "manifest.json"
            _json(lambda m: m["config"].update({key: value}))(path)
            source = ["--manifest", str(path)]
        out = str(tmp_path / "o")
        _exits(capsys, ["train", *source, "--out", out], EXIT_USAGE, out=out)

    def test_split_error_leaves_no_manifest(self, data_dir, tmp_path, capsys):
        # A split that cannot be formed; one whose validation set would hold
        # none of the 57 fraud nodes, which would leave its AUC undefined; and
        # one whose training set would hold none of a 100-node graph's 12
        # fraud nodes (round(0.01 * 12) = 0). Each must fail before any
        # training and before --out exists, naming the ratios.
        small = str(tmp_path / "small")
        assert main(["synth", "--n", "100", "--dim", "8", "--seed", "3",
                     "--out", small]) == EXIT_OK
        for i, (data, ratios, fragment) in enumerate((
                (data_dir, (0.5, 0.5, 0.5), "ratios must be three positive values "
                 "summing to 1: (0.5, 0.5, 0.5)"),
                (data_dir, (0.98, 0.01, 0.01), "ratios (0.98, 0.01, 0.01) leave "
                 "class 1 (57 labeled nodes) no validation node"),
                (small, (0.01, 0.49, 0.5), "ratios (0.01, 0.49, 0.5) leave class 1 "
                 "(12 labeled nodes) no train node"))):
            cfg = tmp_path / f"cfg{i}.txt"
            cfg.write_text("train_ratio = {}\nval_ratio = {}\ntest_ratio = {}\n"
                           .format(*ratios))
            out = str(tmp_path / f"o{i}")
            _exits(capsys, ["train", "--data", data, "--config", str(cfg),
                            "--epochs", "1", "--batch-size", "64", "--out", out],
                   EXIT_USAGE, fragment, out)

    def test_unformable_split_is_usage_error(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("train_ratio = 0.5\nval_ratio = 0.5\ntest_ratio = 0.5\n")
        out = str(tmp_path / "o")
        _exits(capsys, ["train", "--data", data_dir, "--config", str(cfg),
                        "--epochs", "1", "--out", out], EXIT_USAGE,
               "ratios must be three positive values summing to 1: (0.5, 0.5, 0.5)", out)

    def test_undefined_validation_metric_is_usage_error(self, data_dir, tmp_path,
                                                        capsys):
        # A validation set without a fraud node leaves its AUC undefined: the
        # split is refused before any training, and the message names the
        # set, the class and the ratios.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("train_ratio = 0.98\nval_ratio = 0.01\ntest_ratio = 0.01\n")
        out = str(tmp_path / "o")
        _exits(capsys, ["train", "--data", data_dir, "--config", str(cfg),
                        "--epochs", "1", "--batch-size", "64", "--out", out], EXIT_USAGE,
               "ratios (0.98, 0.01, 0.01) leave class 1 (57 labeled nodes) no "
               "validation node", out)

    def test_out_naming_a_file_is_usage_error(self, data_dir, tmp_path, capsys):
        out = tmp_path / "o"
        out.write_text("keep")
        _exits(capsys, ["train", "--data", data_dir, "--epochs", "1", "--out", str(out)],
               EXIT_USAGE, f"cannot write {out}")
        assert out.read_text() == "keep"


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
        run = _copy_run(ratio_run, tmp_path)
        _json(lambda m: m.update(data=_flipped_copy(data_dir, tmp_path)))(
            run / "manifest.json")
        _exits(capsys, ["eval", "--run", str(run)], EXIT_LOAD, "features.f32le in")

    @pytest.mark.parametrize("row", _rows("model.bin size"))
    def test_size_other_than_header_implies_is_load_error(self, fails, row):
        fails(*row)

    @pytest.mark.parametrize("row", _rows("model.bin header"))
    def test_header_other_than_save_writes_is_load_error(self, fails, row):
        fails(*row)

    @pytest.mark.parametrize("row", _rows("model.bin hash"))
    def test_unverified_model_is_load_error(self, fails, row):
        fails(*row)

    def test_truncation_met_by_the_worker_is_load_error(self, trained_run, tmp_path,
                                                        capsys, monkeypatch):
        # model.bin loses its last value after its size was checked, so the
        # second run, which the second thread reads, meets the file's end.
        run = _copy_run(trained_run, tmp_path)
        path = run / "model.bin"
        fill_in_two_runs = M._fill_in_two_runs
        raised_on_main = []

        def truncate_then_fill(arrays, fill):
            os.truncate(path, path.stat().st_size - 8)

            def watched(lo, hi):
                try:
                    fill(lo, hi)
                except GraphLoadError:
                    raised_on_main.append(
                        threading.current_thread() is threading.main_thread())
                    raise

            fill_in_two_runs(arrays, watched)

        monkeypatch.setattr(M, "_fill_in_two_runs", truncate_then_fill)
        _exits(capsys, ["eval", "--run", str(run)], EXIT_LOAD,
               f"truncated model file: {path}")
        assert raised_on_main == [False]


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


@pytest.mark.parametrize("command", ["eval", "export-embeddings"])
def test_out_in_missing_directory_is_usage_error(trained_run, tmp_path, capsys,
                                                 command):
    out = str(tmp_path / "absent" / "out")
    _exits(capsys, [command, "--run", trained_run, "--out", out], EXIT_USAGE,
           f"cannot write {out}", out)


@pytest.mark.parametrize("row", _rows("address space limit"))
def test_allocation_past_the_address_space_limit_is_usage_error(data_dir, tmp_path,
                                                                row):
    _, _, code, (argv, config, limit), fragment = row
    out = tmp_path / "o"
    if config:
        (tmp_path / "cfg.txt").write_text(config + "\n")
        argv = [*argv, "--data", data_dir, "--config", str(tmp_path / "cfg.txt")]

    def cap():  # in the child: OpenBLAS's one thread maps little
        resource.setrlimit(resource.RLIMIT_AS,
                           (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))

    proc = subprocess.run(
        [sys.executable, "-m", "dignn.cli", *argv, "--out", str(out)],
        capture_output=True, text=True, timeout=60, preexec_fn=cap,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
             "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))})
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("usage error: ") and "Traceback" not in proc.stderr
    assert fragment in proc.stderr, proc.stderr
    assert not out.exists()


class TestGradcheck:
    def test_pass(self, capsys):
        code = main(["gradcheck"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "max_rel_err" in out and "FAIL" not in out

    def test_corrupted_gradient_fails(self, capsys, monkeypatch):
        forward, _ = ad.ACTIVATIONS["tanh"]
        monkeypatch.setitem(ad.ACTIVATIONS, "tanh", (forward, lambda y: 1.0 + y * y))
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
        lines = Path(out).read_text().strip().split("\n")
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
        _exits(capsys, ["export-embeddings", "--run", str(run), "--out",
                        str(tmp_path / "emb.csv")], EXIT_LOAD, str(run / "model.bin"))
        assert os.listdir(tmp_path) == ["run"]


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

    def test_readme_lists_every_exit_code(self):
        with open(README) as fh:
            text = fh.read()
        for cls, (code, prefix) in cli.FAILURE_EXITS.items():
            assert f"| `{code}` | `{cls.__name__}` | `{prefix}` |" in text, cls

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

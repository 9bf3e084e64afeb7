"""Command-line entry point.

Subcommands: train, eval, synth, gradcheck, export-embeddings.

``eval`` and ``export-embeddings`` read the run directory ``train --out``
wrote: its manifest (the data is hash-checked, then split and normalized as in
training) and its ``model.bin``. ``eval`` prints ``DIR/metrics.json`` again.

Exit codes: 0 success, 1 gradient-check failure; ``FAILURE_EXITS`` gives the
code of every error (the README's "Exit codes" table lists it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from functools import partial

from .errors import (
    DignnError, DivergenceError, GraphLoadError, SplitError, UndefinedMetricError,
)
from .graphdata import (
    SynthConfig, load_graph, neighbor_label_distribution, normalize_features,
    save_graph, stratified_split, synth_generate,
)
from . import model as M
from .model import DignnConfig, DignnParams
from .rng import seed_streams
from .trainer import (
    ABLATIONS, GRADCHECK_VARIANTS, MODES, TrainConfig, evaluate, gradcheck,
    score_batches, train, trains,
)

EXIT_OK = 0
EXIT_GRADCHECK = 1
EXIT_USAGE = 2
EXIT_LOAD = 3
EXIT_DIVERGENCE = 4

DEFAULT_RATIOS = {"train_ratio": 0.4, "val_ratio": 0.2, "test_ratio": 0.4}

_TRAIN_DEFAULTS = {k: v for k, v in asdict(TrainConfig()).items() if k != "model"}
_MODEL_DEFAULTS = asdict(DignnConfig())
CONFIG_DEFAULTS = {**_TRAIN_DEFAULTS, **_MODEL_DEFAULTS, **DEFAULT_RATIOS}
# Each key's type is that of its default (``field.type`` is only a string
# under ``from __future__ import annotations``).
CONFIG_KEYS = {k: type(v) for k, v in CONFIG_DEFAULTS.items()}
_OVERRIDES = ("seed", "epochs", "batch_size", "alpha", "beta", "ablation", "mode")
_CHOICES = {"ablation": ABLATIONS, "mode": MODES}

# The option strings of the synth flag that sets each SynthConfig field; the
# flag's default and type are the field's.
SYNTH_FLAGS = {"num_nodes": ("--n",), "feature_dim": ("--dim",),
               "fraud_rate": ("--fraud-rate",), "mean_separation": ("--delta",),
               "homophily": ("--homophily", "--h"), "avg_degree": ("--avg-degree",),
               "seed": ("--seed",)}


class UsageError(DignnError):
    pass


# The exit code and stderr prefix of each error ``main`` reports.
FAILURE_EXITS = {
    UsageError: (EXIT_USAGE, "usage error"),
    SplitError: (EXIT_USAGE, "usage error"),
    UndefinedMetricError: (EXIT_USAGE, "usage error"),
    GraphLoadError: (EXIT_LOAD, "load error"),
    DivergenceError: (EXIT_DIVERGENCE, "error"),
    # A data file or model.bin that cannot be opened or read: outputs,
    # config files and manifests map their own OS errors to usage errors.
    OSError: (EXIT_LOAD, "load error"),
    # An allocation past what the process may use, which ``_check_memory``'s
    # estimates did not foresee (numpy raises a subclass).
    MemoryError: (EXIT_USAGE, "usage error"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def read_config_file(path: str) -> dict:
    if not os.path.isfile(path):
        raise UsageError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    out = {}
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (p.strip() for p in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return out


def read_manifest(path: str) -> tuple[dict, str, dict, dict]:
    """The config, data directory, input hashes and output hashes (empty when
    none are recorded) of a manifest; the config has exactly the keys of
    ``CONFIG_KEYS``, each holding a value of its type."""
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read manifest {path}: {exc}") from exc
    if not (isinstance(manifest, dict) and isinstance(manifest.get("config"), dict)
            and isinstance(manifest.get("data"), str)
            and isinstance(manifest.get("input_hashes"), dict)):
        raise UsageError(f"{path}: a manifest needs a 'config' object, a 'data' "
                         "path and an 'input_hashes' object")
    outputs = manifest.get("output_hashes", {})
    if not isinstance(outputs, dict):
        raise UsageError(f"{path}: 'output_hashes' must be an object")
    cfg = manifest["config"]
    missing = sorted(CONFIG_KEYS.keys() - cfg.keys())
    if missing:
        raise UsageError(f"{path}: config lacks key(s) {', '.join(missing)}")
    unknown = sorted(cfg.keys() - CONFIG_KEYS.keys())
    if unknown:
        raise UsageError(f"{path}: unknown config key(s) {', '.join(unknown)}")
    for key, typ in CONFIG_KEYS.items():
        if not (type(cfg[key]) is typ or (typ is float and type(cfg[key]) is int)):
            raise UsageError(f"{path}: bad value for {key}: {cfg[key]!r}")
    try:  # the path's bytes, which name the same directory under any locale
        data = os.fsdecode(manifest["data"].encode(errors="surrogateescape"))
    except UnicodeEncodeError as exc:
        raise UsageError(f"{path}: 'data' is not a path: {exc}") from exc
    return cfg, data, manifest["input_hashes"], outputs


def resolve_config(file_cfg: dict, cli_overrides: dict) -> dict:
    cfg = {**CONFIG_DEFAULTS, **file_cfg}
    cfg.update({k: v for k, v in cli_overrides.items() if v is not None})
    return cfg


def build_train_config(cfg: dict) -> TrainConfig:
    """The validated ``TrainConfig`` of ``cfg``. Every command builds one
    before it reads data or seeds anything with ``cfg``, so an invalid value
    (a negative seed, say) is a usage error, never a traceback."""
    model = DignnConfig(**{k: cfg[k] for k in _MODEL_DEFAULTS})
    tcfg = TrainConfig(model=model, **{k: cfg[k] for k in _TRAIN_DEFAULTS})
    try:
        tcfg.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return tcfg


def _check_memory(need: float, what: str, use: str):
    """Refuse settings ``what`` that need ``need`` bytes for ``use``, more
    than physical memory or the process's address-space limit, before
    anything of that size is allocated."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit != resource.RLIM_INFINITY:
        have = min(have, limit)
    if need > have:
        raise UsageError(f"{what} need {need:.0f} bytes for {use}, more than the "
                         f"{have} bytes of physical memory or address space")


def variant_tag(cfg: dict) -> str:
    tag = "DIGNN"
    if cfg["mode"] == "fullbatch":
        tag += "\\S"
    if cfg["ablation"] == "no_mi":
        tag += "\\M"
    return tag


def _write_json(obj, path: str):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextmanager
def _output(path: str):
    """An OS error while writing the output ``path`` (a missing directory, a
    file where a directory should be or the reverse) is a usage error."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _write_atomic(path: str, write):
    """Have ``write`` fill a temp file beside ``path``, then move it into
    place, so ``path`` holds either its old content or all of the new."""
    tmp = path + ".tmp"
    with _output(path):
        try:
            write(tmp)
            os.replace(tmp, path)
        finally:
            if os.path.isfile(tmp):
                os.remove(tmp)


def _sha256(file) -> str:
    """SHA-256 of the file at a path, or of an open binary file from its start."""
    if not hasattr(file, "read"):  # a path
        with open(file, "rb") as fh:
            return _sha256(fh)
    digest = hashlib.sha256()
    file.seek(0)
    for chunk in iter(partial(file.read, 1 << 20), b""):
        digest.update(chunk)
    return digest.hexdigest()


def _load_data(data_dir: str, cfg: dict, recorded: dict):
    """``data_dir``'s file hashes, each file in ``recorded`` checked against
    them, and its graph split and normalized as ``cfg`` says, with the split."""
    hashes = {}  # keyed by each file name's UTF-8 decoding, as load_graph names them
    for name in sorted(os.listdir(data_dir)):
        fp = os.path.join(data_dir, name)
        if os.path.isfile(fp):
            hashes[os.fsencode(name).decode(errors="surrogateescape")] = _sha256(fp)
    for name in sorted(recorded):
        if hashes.get(name) != recorded[name]:
            raise GraphLoadError(f"{name} in {data_dir} is missing or differs "
                                 "from the manifest's input hash")
    graph = load_graph(data_dir)
    ratios = (cfg["train_ratio"], cfg["val_ratio"], cfg["test_ratio"])
    split = stratified_split(graph, ratios, seed_streams(cfg["seed"])["split"])
    return hashes, normalize_features(graph, split), split


def _load_run(run_dir: str):
    """A run directory's config and model, and the graph and split it trained on."""
    cfg, data_dir, recorded, outputs = read_manifest(
        os.path.join(run_dir, "manifest.json"))
    build_train_config(cfg)  # checks the manifest's values as train does
    _, graph, split = _load_data(data_dir, cfg, recorded)
    model_path = os.path.join(run_dir, "model.bin")
    # The hash is taken through the descriptor that was parsed, so it is of
    # the bytes scored even if another file was moved over the path since.
    with open(model_path, "rb") as fh:
        params = DignnParams.load(fh)
        # A model.bin copied in from another run need not fit this graph, and
        # one that fits need not be the model this run trained.
        if params.n_nodes != graph.num_nodes or params.feat_dim != graph.feature_dim:
            raise GraphLoadError(
                f"model dims ({params.n_nodes}, {params.feat_dim}) do not match "
                f"graph ({graph.num_nodes}, {graph.feature_dim})"
            )
        if _sha256(fh) != outputs.get("model.bin"):
            raise GraphLoadError(f"{model_path} differs from the manifest's output "
                                 "hash, or the manifest records none")
    return cfg, params, graph, split


def _test_report(cfg: dict, params: DignnParams, graph, split) -> dict:
    """What ``train`` writes to ``metrics.json`` and ``eval`` prints."""
    return {"variant": variant_tag(cfg), "seed": cfg["seed"],
            "metrics": evaluate(params, graph, split.test).to_dict()}


def cmd_train(args) -> int:
    recorded = {}
    if args.manifest:
        fixed = [_flag(k) for k in ("data", "config", *_OVERRIDES)
                 if getattr(args, k) is not None]
        if fixed:
            raise UsageError(f"--manifest fixes the run; {', '.join(fixed)} "
                             "cannot be given with it")
        cfg, data_dir, recorded, _ = read_manifest(args.manifest)
    else:
        if not args.data:
            raise UsageError("train requires --data (or --manifest)")
        file_cfg = read_config_file(args.config) if args.config else {}
        cfg = resolve_config(file_cfg, {k: getattr(args, k) for k in _OVERRIDES})
        data_dir = args.data
    tcfg = build_train_config(cfg)
    hashes, graph, split = _load_data(data_dir, cfg, recorded)
    mcfg, n = tcfg.model, graph.num_nodes
    need = sum((3 if trains(tcfg, name) else 1) * 8 * r * c
               for name, (r, c) in DignnParams.shape_spec(n, graph.feature_dim, mcfg))
    use = "the parameters and Adam's two moments"
    if tcfg.ablation == "full":
        # The topology decoder's loss holds three (hidden_dim + 1)^2 arrays
        # at once: W1 W1^T, the Gramian h1^T h1 and its scaled copy.
        need += 3 * 8 * (mcfg.hidden_dim + 1) ** 2
        use = ("the parameters, Adam's two moments and the topology decoder's "
               "three (hidden_dim + 1)^2 Gramian arrays")
    _check_memory(need, f"hidden_dim = {mcfg.hidden_dim} and embed_dim = "
                  f"{mcfg.embed_dim} on {n} nodes", use)

    made = not os.path.isdir(args.out)
    with _output(args.out):
        os.makedirs(args.out, exist_ok=True)
    paths = {name: os.path.join(args.out, fn) for name, fn in (
        ("manifest", "manifest.json"), ("model", "model.bin"),
        ("history", "history.csv"), ("metrics", "metrics.json"))}
    manifest = {
        "config": cfg,
        "seed": cfg["seed"],
        "data": data_dir,
        "outputs": {k: os.path.basename(v) for k, v in paths.items()},
        "input_hashes": hashes,
        "variant": variant_tag(cfg),
    }
    # Written last, so a run whose writes failed has no manifest for eval.
    write_manifest = partial(_write_atomic, paths["manifest"],
                             partial(_write_json, manifest))
    try:
        params, history = train(graph, split, tcfg)
    except DivergenceError as exc:
        _write_atomic(paths["history"], exc.history.write_csv)
        write_manifest()
        raise
    except MemoryError:
        if made:  # nothing is written into it before training ends
            os.rmdir(args.out)
        raise

    payload = _test_report(cfg, params, graph, split)
    _write_atomic(paths["model"], params.save)
    manifest["output_hashes"] = {"model.bin": _sha256(paths["model"])}
    _write_atomic(paths["history"], history.write_csv)
    _write_atomic(paths["metrics"], partial(_write_json, payload))
    write_manifest()
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_eval(args) -> int:
    payload = _test_report(*_load_run(args.run))
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        _write_atomic(args.out, partial(_write_json, payload))
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = SynthConfig(**{f.name: getattr(args, f.name) for f in fields(SynthConfig)})
    try:
        cfg.validate()  # so that the estimate reads finite settings
        _check_memory(cfg.nbytes(), f"num_nodes = {cfg.num_nodes}, feature_dim = "
                      f"{cfg.feature_dim} and avg_degree = {cfg.avg_degree}",
                      "synth_generate's draws")
        graph = synth_generate(cfg)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    with _output(args.out):
        save_graph(graph, args.out)
    dist = neighbor_label_distribution(graph)
    names = {0: "benign", 1: "fraud"}
    printable = {
        names[c]: None if row is None else {names[k]: v for k, v in row.items()}
        for c, row in dist.items()
    }
    print(json.dumps({"neighbor_label_distribution": printable},
                     indent=2, sort_keys=True))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    ok = True
    for vname, mcfg in GRADCHECK_VARIANTS.items():
        report = gradcheck(mcfg)
        for tname, err in report["per_tensor"].items():
            print(f"{vname} {tname} {err:.3e}")
        status = "pass" if report["passed"] else "FAIL"
        print(f"{vname} max_rel_err {report['max_rel_err']:.3e} {status}")
        ok = ok and report["passed"]
    return EXIT_OK if ok else EXIT_GRADCHECK


def cmd_export_embeddings(args) -> int:
    _cfg, params, graph, _split = _load_run(args.run)

    def write(path):
        # Each block's rows are written as soon as it is scored, so no more
        # than one block's tape and embeddings are held.
        with open(path, "w") as fh:
            fh.write("node_id,label," +
                     ",".join(f"z{i}" for i in range(params.cfg.embed_dim)) + "\n")
            for batch in score_batches(graph, graph.labeled_ids()):
                z = M.forward(params, batch, params.cfg).z.value
                for nid, lab, row in zip(batch.node_ids, batch.labels, z.tolist()):
                    fh.write(f"{nid},{lab}," + ",".join(map(repr, row)) + "\n")

    _write_atomic(args.out, write)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dignn", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model and write run artifacts")
    t.add_argument("--data", help="graph directory")
    t.add_argument("--config", help="key=value config file")
    t.add_argument("--manifest", help="re-run from a previously written manifest")
    for key in _OVERRIDES:
        t.add_argument(_flag(key), dest=key, type=CONFIG_KEYS[key],
                       choices=_CHOICES.get(key))
    t.add_argument("--out", required=True, help="output directory")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a trained model on the test split")
    e.add_argument("--run", required=True, help="run directory written by train")
    e.add_argument("--out")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("synth", help="generate a synthetic graph directory")
    for f in fields(SynthConfig):
        s.add_argument(*SYNTH_FLAGS[f.name], dest=f.name, type=type(f.default),
                       default=f.default, help=f"SynthConfig.{f.name}")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_synth)

    g = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    g.set_defaults(func=cmd_gradcheck)

    x = sub.add_parser("export-embeddings",
                       help="write fused embeddings of all labeled nodes")
    x.add_argument("--run", required=True, help="run directory written by train")
    x.add_argument("--out", required=True)
    x.set_defaults(func=cmd_export_embeddings)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(FAILURE_EXITS) as exc:
        code, prefix = next(FAILURE_EXITS[c] for c in type(exc).__mro__
                            if c in FAILURE_EXITS)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

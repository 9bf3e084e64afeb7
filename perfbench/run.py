"""dignn benchmark: training throughput, scoring latency and memory on
YelpChi-scale synthetic graphs, with a per-layer split from a traced run.

    python3 perfbench/run.py --workload yelpchi-full --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (``src/dignn`` must exist). The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Lines before it
give each metric with its unit and sample count, and the environment. The
full result, with the spans of a traced run, is written to
``.perfbench_runs/`` in the checkout. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"
SETUP_REPEATS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("yelpchi-full", "yelpchi-nomi", "yelpchi-score")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "dignn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _generate(data_dir: str, workload: str, seed: int) -> None:
    cmd = [sys.executable, str(HERE / "gen.py"), "--seed", str(seed), "--out", data_dir]
    if workload == "yelpchi-score":
        cmd.append("--model")
    subprocess.run(cmd, check=True, timeout=170)


def _setup_samples(workload: str, data_dir: str) -> list[float]:
    """Set-up time of fresh processes, so that cold first-call costs count."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", "0", "--setup-probe", data_dir],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _end_to_end(res: dict, setup_s: list[float], test_nodes: int) -> dict:
    """Metric name -> (value, sample count).

    Batch time is gated as the fastest batch of the run. On a shared 2-core
    host the median request time switched between about 3.1 and 4.3 ms for
    seconds at a time, so between runs its spread reached 0.26 of the median
    and that of the mean 0.23; the fastest batch stayed within 0.16 on every
    workload. Medians are still printed (``_printed_only``).
    """
    lat = res["batch_ms"]
    return {
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "batch_ms.min": (min(lat), len(lat)),
        "test_auc": (res["test_auc"], test_nodes),
        "peak_rss_mb": (res["peak_rss_mb"], 1),
    }


def _printed_only(res: dict, tally, trace: int) -> dict:
    """Metric name -> (value, unit, sample count) for figures printed but
    not in BENCHMARK.json: failed_share is 0 whenever the program is correct
    (the JSON line carries it as attempted/failed), and throughput and
    median and tail batch times move with the host by more than any bound
    the benchmark may set."""
    from spans import quantile

    out = {"failed_share": (tally.failed / max(tally.attempted, 1), "share",
                            tally.attempted)}
    if not trace:
        lat = res["batch_ms"]
        out["nodes_per_s"] = (res["nodes_per_s"], "1/s", len(lat))
        out["batch_ms.p50"] = (quantile(lat, 0.5), "ms", len(lat))
        out["batch_ms.p99"] = (quantile(lat, 0.99), "ms", len(lat))
    return out


def _units(trace: int, metrics: dict) -> dict[str, str]:
    """Units of the metrics BENCHMARK.json declares for this mode; the run
    must report exactly those."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    return units


def run(args, data_dir: str) -> tuple[dict, dict, object, dict]:
    import workloads as W
    from spans import Tracer

    tally = W.Tally()
    _generate(data_dir, args.workload, args.seed)
    setup_s = [] if args.trace else _setup_samples(args.workload, data_dir)
    setup_trace = Tracer()
    pass_trace = Tracer() if args.trace else None
    if args.trace:
        with setup_trace:
            graph, split, params = W.setup(args.workload, data_dir)
    else:
        graph, split, params = W.setup(args.workload, data_dir)
    if args.workload == W.SCORE_WORKLOAD:
        res = W.measure_scoring(graph, split, params, data_dir, args.seed,
                                args.seconds, tally, pass_trace)
    else:
        res = W.measure_training(args.workload, graph, split, args.seconds,
                                 tally, pass_trace)
    if args.trace:
        layers = W.layer_metrics(setup_trace, pass_trace, res["nodes_per_s"],
                                 res["traced_nodes_per_s"])
        steps = int(layers["trainer.step.count"])
        metrics = {k: (v, steps if k.startswith("trainer.step.") else 1)
                   for k, v in layers.items()}
    else:
        metrics = _end_to_end(res, setup_s, split.test.size)
    extra = _printed_only(res, tally, args.trace)
    detail = {"samples": {k: v for k, v in res.items() if isinstance(v, list)},
              "problems": tally.problems[:20]}
    if pass_trace is not None:
        detail["spans"] = {"setup": setup_trace.to_json(), "pass": pass_trace.to_json()}
    return metrics, extra, tally, detail


def probe(args) -> int:
    import workloads as W

    print(repr(W.timed_setup(args.workload, args.setup_probe)))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dignn benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DATA_DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "dignn" / "__init__.py").is_file():
        print(f"perfbench: no dignn sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = threads
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_probe:
        return probe(args)

    RUNS_DIR.mkdir(exist_ok=True)
    data_dir = tempfile.mkdtemp(prefix="data-", dir=RUNS_DIR)
    try:
        metrics, extra, tally, detail = run(args, data_dir)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    units = _units(args.trace, metrics)
    env = environment()
    tag = f"{args.workload} seed={args.seed} trace={args.trace}"
    print(f"perfbench {tag}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, n) in metrics.items():
        print(f"  {name:40s} {value:16.6f} {units[name]:6s} n={n}")
    for name, (value, unit, n) in extra.items():
        print(f"  {name:40s} {value:16.6f} {unit:6s} n={n}  (not in BENCHMARK.json)")
    for problem in tally.problems[:5]:
        print(f"  check failed: {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }
    out = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**result, "env": env, **detail}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

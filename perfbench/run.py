#!/usr/bin/env python3
"""Benchmark for dasvit: runs one workload (or all) and prints its metrics.

    python3 perfbench/run.py --workload search_desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in a fresh process whose BLAS/OpenMP thread variables are
set to 1 before numpy loads. The program comes from ``src/`` of the checkout
this file sits in. Metric names, units and directions are read from
BENCHMARK.json at the checkout root. ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run.

Printed: one row per workload with every metric by name and unit, detail
lines (tail percentile, sample counts, host record), then, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full records, traced spans and artifact digests go under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("search_desk", "search_mid", "retrain_mid")
WORKER_TIMEOUT_S = 170
#: Fresh processes timed from start to first step ready, per timed run.
SETUP_PROBES = 5
#: Per-layer metrics that are exact counts computed from shapes and calls,
#: not measured times; they must repeat exactly run to run.
COMPUTED = {
    "autodiff.primitives_per_step", "autodiff.matmul_gmacs_per_step",
    "autodiff.layer_norm_calls_per_step", "autodiff.output_mb_per_step",
    "ops.zero_calls_per_step", "supernet.mixed_edge_calls_per_step",
    "optim.updated_elements_per_step", "data.checkpoint_mb",
    "selector.kept_token_ratio",
}


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, result: Path, *flags: str) -> dict:
    if not (ROOT / "src" / "dasvit" / "__init__.py").is_file():
        raise BenchError(f"program source not found under {ROOT / 'src'}")
    result.parent.mkdir(parents=True, exist_ok=True)
    result.unlink(missing_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               OMP_NUM_THREADS="1", PERFBENCH_SPAWNED_AT=repr(time.time()))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--state", str(STATE), "--result", str(result), *flags]
    # the worker's own output goes to stderr so stdout carries only the report
    with subprocess.Popen(cmd, env=env, stdout=sys.stderr) as proc:
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s")
    if code != 0 or not result.is_file():
        raise BenchError(f"{workload}: worker exited with code {code}")
    return json.loads(result.read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The worker's record; a timed run also gets setup_s, the median of
    SETUP_PROBES fresh processes timed from start to first step ready."""
    results = STATE / "results"
    doc = run_worker(workload, seed, results / f"{workload}-seed{seed}-trace{trace}.json",
                     "--seconds", str(seconds), "--trace", str(trace))
    if not trace:
        probes = [run_worker(workload, seed, results / f"{workload}-probe.json",
                             "--setup-probe")["setup_s"] for _ in range(SETUP_PROBES)]
        doc["metrics"]["setup_s"] = statistics.median(probes)
        doc["detail"]["setup_probes_s"] = probes
    return doc


def report(workload: str, doc: dict, specs: list[dict]) -> dict:
    """Print the workload's rows; return its metrics in the contract's form."""
    values = doc["metrics"]
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    rate = doc["failed"] / doc["attempted"]
    if doc["trace"]:
        print(f"{workload}: per-layer metrics of one traced unit "
              f"(error_rate {rate:g} ratio)")
        for s in specs:
            label = "  (computed)" if s["name"] in COMPUTED else ""
            print(f"  {s['name']:<40} {values[s['name']]:>14.6g} {s['unit']}{label}")
    else:
        cells = "  ".join(f"{s['name']}={values[s['name']]:.6g} {s['unit']}" for s in specs)
        print(f"{workload:<12} {cells}  error_rate={rate:g} ratio  "
              f"loss_final={values['loss_final']:.6g} nats (unbounded quality guard)")
        d = doc["detail"]
        print(f"  step_s_tail = p{d['step_s_tail_percentile']:.1f} of "
              f"{d['step_samples']} steps; setup_s = median of "
              f"{len(d['setup_probes_s'])} fresh processes; {d['units']} units"
              + (f", {d['derived_units']} derived a genotype"
                 if workload == "search_desk" else ""))
    h = doc["host"]
    print(f"  host: threads_after_gemm={h['threads_after_gemm']} numpy={h['numpy']} "
          f"blas={h['blas']} python={h['python']} nproc={h['nproc']} "
          f"cpu={h['cpu_model']!r}; checks {doc['checks']}")
    return metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per workload (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        specs = spec["per_layer"] if args.trace else spec["end_to_end"]
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        attempted = failed = 0
        correct = True
        metrics: dict = {}
        for w in names:
            doc = run_workload(w, args.seed, seconds, args.trace)
            got = report(w, doc, specs)
            attempted += doc["attempted"]
            failed += doc["failed"]
            correct = correct and doc["failed"] == 0 and all(doc["checks"].values())
            prefix = f"{w}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in got.items()})
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

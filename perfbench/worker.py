"""One workload in one process: run units, check them, compute the metrics.

Started by run.py with the BLAS thread variables already set to 1, so numpy
loads single-threaded. Writes one JSON document to --result and exits 0 when
it produced metrics (check failures are reported inside the document), or
non-zero when it could not run at all.

Timed mode (--trace 0) runs round(--seconds / nominal unit time) units, at
least two. --setup-probe only times set-up: it cuts the unit off where the
first step would start. Traced mode (--trace 1) runs three units: one with spans and tracemalloc,
one timed, one with spans; the spans of the last are written out.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

SPAWNED_AT = float(os.environ.get("PERFBENCH_SPAWNED_AT", time.time()))

import numpy as np  # noqa: E402  (the spawn time is read first)

import dasvit  # noqa: E402

import workloads  # noqa: E402
from instrument import MB, Instrument, Ready  # noqa: E402

IMPORT_S = time.time() - SPAWNED_AT
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
TAIL_BEYOND = 10


def host_record() -> dict:
    """What ran: BLAS threads actually alive after a GEMM, versions, CPU."""
    a = np.ones((512, 512), dtype=np.float32)
    float((a @ a).sum())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "threads_after_gemm": len(os.listdir("/proc/self/task")),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "numpy": np.__version__,
        "blas": blas_name,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
    }


def tail(values: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with ten samples above it, as (value,
    percentile). With ten samples or fewer (search_mid makes 6) no such
    percentile exists, and a quarter of the samples, rounded down but at
    least one, stay above it instead: a maximum is too unsteady to bound."""
    s = sorted(values)
    n = len(s)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else max(1, n // 4)
    return s[n - beyond - 1], 100.0 * (n - beyond) / n


def run_unit(name: str, seed: int, workdir: Path, index: int,
             spans: bool = False, memory: bool = False) -> dict:
    out = workdir / f"unit{index}"
    gc.collect()
    rec: dict = {"index": index, "spans": spans, "memory": memory}
    inst = Instrument(spans=spans, memory=memory)
    try:
        with inst:
            unit = workloads.WORKLOADS[name](seed, out)
    except Exception:  # a failing unit is counted, not fatal
        traceback.print_exc()
        rec.update(ok=False, error=traceback.format_exc(limit=3))
        return rec
    finally:
        shutil.rmtree(out, ignore_errors=True)
    ready = inst.first_step_start
    rec.update(
        ok=all(unit.checks.values()), checks=unit.checks, digest=unit.digest,
        setup_s=ready - unit.start, run_s=unit.end - ready,
        steps=inst.steps, images_per_step=unit.images_per_step,
        train_images_per_s=unit.images_per_step * len(inst.steps) / (unit.end - ready),
        evals=inst.evals,
        loss_final=unit.loss_final,
        derived=unit.derived)
    if spans:
        rec["counts"] = inst.exact_counts()
        rec["per_layer"] = per_layer(inst)
        rec["_instrument"] = inst
    if memory:
        rec["per_layer"].update(memory_metrics(inst))
    return rec


def setup_probe(name: str, seed: int, workdir: Path, result: Path) -> int:
    inst = Instrument(stop_when_ready=workloads.READY_AT[name])
    start = time.perf_counter()
    try:
        with inst:
            workloads.WORKLOADS[name](seed, workdir / "probe")
    except Ready:
        result.write_text(json.dumps(
            {"setup_s": IMPORT_S + inst.ready_at - start, "import_s": IMPORT_S}) + "\n")
        return 0
    print(f"{name}: set-up probe never reached its first step", file=sys.stderr)
    return 1


def per_layer(inst: Instrument) -> dict:
    """Layer metrics of one traced unit; times and counts are per step
    unless the name says otherwise."""
    totals = inst.span_totals()
    n = max(1, len(inst.steps))
    c = inst.counts

    def step_s(*names):
        return sum(totals.get(x, {}).get("step_s", 0.0) for x in names) / n

    def total_s(*names):
        return sum(totals.get(x, {}).get("s", 0.0) for x in names)

    def phase_s(phase, *names):
        return sum(totals.get(x, {}).get("phase_s", {}).get(phase, 0.0)
                   for x in names) / n

    patches = c["selector.patches"]
    return {
        "autodiff.primitives_per_step": c["primitives"] / n,
        "autodiff.backward_s_per_step": step_s("autodiff.backward"),
        "autodiff.matmul_fwd_s_per_step": step_s("autodiff.matmul"),
        "autodiff.matmul_gmacs_per_step": c["matmul_macs"] / n / 1e9,
        "autodiff.gelu_fwd_s_per_step": step_s("autodiff.gelu"),
        "autodiff.softmax_fwd_s_per_step": step_s("autodiff.softmax"),
        "autodiff.layer_norm_fwd_s_per_step": step_s("autodiff.layer_norm"),
        "autodiff.layer_norm_calls_per_step": c["autodiff.layer_norm.calls"] / n,
        "autodiff.output_mb_per_step": c["output_bytes"] / n / MB,
        "ops.msa_fwd_s_per_step": step_s("ops.msa_forward"),
        "ops.mlp_fwd_s_per_step": step_s("ops.mlp_forward"),
        "ops.zero_calls_per_step": c["ops.zero_forward.calls"] / n,
        "ops.zero_fwd_s_per_step": step_s("ops.zero_forward"),
        "ops.embed_s_per_step": step_s("ops.embed"),
        "ops.classify_s_per_step": step_s("ops.classify"),
        "selector.select_s_per_step": step_s("selector.select"),
        "selector.scores_s_per_step": step_s("selector.scores"),
        "selector.kept_token_ratio": c["selector.kept"] / patches if patches else 1.0,
        "supernet.forward_s_per_step": step_s("supernet.forward"),
        "supernet.mixed_edge_calls_per_step": c["supernet.mixed_edge.calls"] / n,
        "supernet.mixed_edge_s_per_step": step_s("supernet.mixed_edge"),
        "fairness.s_per_step": step_s("fairness.skip_fairness", "fairness.type_fairness"),
        "optim.weight_step_s": step_s("optim.weight_step"),
        "optim.alpha_step_s": step_s("optim.alpha_step"),
        "optim.updated_elements_per_step": c["optim.updated_elements"] / n,
        "search.alpha_fwd_s": phase_s("alpha", "supernet.forward", "autodiff.cross_entropy"),
        "search.alpha_bwd_s": phase_s("alpha", "autodiff.backward"),
        "search.weight_fwd_s": phase_s("weight", "supernet.forward", "autodiff.cross_entropy"),
        "search.weight_bwd_s": phase_s("weight", "autodiff.backward"),
        "search.stage_transition_s": total_s("search.prune_candidates",
                                             "search.advance_stage"),
        "search.derive_s": total_s("search.derive_genotype"),
        "search.evaluate_s": total_s("search.evaluate"),
        "genotype.derived_forward_s_per_step": step_s("genotype.derived_forward"),
        "data.batches_s": total_s("data.epoch_batches", "data.sequential_batches"),
        "data.checkpoint_write_s": total_s("data.save_checkpoint"),
        "data.checkpoint_mb": c["checkpoint_bytes"] / MB,
        "data.synthetic_s": total_s("data.make_synthetic"),
    }


def memory_metrics(inst: Instrument) -> dict:
    g = inst.grad_bytes
    return {
        "search.alpha_phase_grad_useful_ratio": g["alpha"] / g["all"] if g["all"] else 0.0,
        "mem.alpha_phase_peak_mb": inst.mem["alpha_phase_peak"] / MB,
        "mem.weight_phase_peak_mb": inst.mem["weight_phase_peak"] / MB,
        "mem.live_mb_at_weight_phase_start": inst.mem["live_at_weight_phase_start"] / MB,
        "mem.train_step_peak_mb": inst.mem["train_step_peak"] / MB,
        "mem.eval_peak_mb": inst.mem["eval_peak"] / MB,
    }


def code_fingerprint() -> str:
    """sha256 over the program's sources and the workload definitions."""
    h = hashlib.sha256()
    files = sorted(Path(dasvit.__file__).parent.rglob("*.py"))
    for path in files + [Path(workloads.__file__)]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_digests(name: str, seed: int, units: list[dict], store: Path) -> bool:
    """Every unit of this run, and every earlier run of this seed with the
    same code recorded in `store`, produced the same artifact digest."""
    digests = {u["digest"] for u in units if "digest" in u}
    if not digests:
        return True  # no unit finished; those failures are counted already
    key = f"{code_fingerprint()}:{name}:{seed}"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        digests.add(known[key])
    if len(digests) == 1:
        known[key] = digests.pop()
        tmp = store.with_name(store.name + f".{os.getpid()}")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, store)
        return True
    print(f"artifact digests differ for {key}: {sorted(digests)}", file=sys.stderr)
    return False


def summarize(units: list[dict]) -> dict:
    good = [u for u in units if "run_s" in u]
    steps = [s for u in good for s in u["steps"]]
    tail_v, tail_p = tail(steps)
    return {
        "run_s": statistics.median(u["run_s"] for u in good),
        "step_s_p50": statistics.median(steps),
        "step_s_tail": tail_v,
        "train_images_per_s": statistics.median(u["train_images_per_s"] for u in good),
        "eval_images_per_s": statistics.median(n / sec for u in good
                                               for sec, n, _ in u["evals"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "loss_final": good[-1]["loss_final"],
        "_detail": {
            "import_s": IMPORT_S,
            "unit_setup_s": statistics.median(u["setup_s"] for u in good),
            "step_samples": len(steps),
            "step_s_tail_percentile": tail_p,
            "units": len(good),
            "derived_units": sum(1 for u in good if u["derived"]),
        },
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--state", type=Path, required=True,
                   help="directory for scratch units, digests and spans")
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--setup-probe", action="store_true",
                   help="time process start to first step ready, then stop")
    args = p.parse_args()

    workdir = args.state / "work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    if args.setup_probe:
        try:
            return setup_probe(args.workload, args.seed, workdir, args.result)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    host = host_record()
    units: list[dict] = []
    try:
        if args.trace:
            # the memory unit goes first: it absorbs the process's cold start,
            # which would otherwise land on one side of the overhead comparison
            plans = [(True, True), (False, False), (True, False)]
            for i, (spans, memory) in enumerate(plans):
                units.append(run_unit(args.workload, args.seed, workdir, i, spans, memory))
        else:
            count = max(2, round(args.seconds / workloads.NOMINAL_UNIT_S[args.workload]))
            for i in range(count):
                units.append(run_unit(args.workload, args.seed, workdir, i))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for u in units if not u.get("ok"))
    checks = {"digests_repeat": check_digests(args.workload, args.seed, units,
                                              args.state / "digests.json")}
    result: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "host": host}
    if not any("run_s" in u for u in units):
        print("no unit produced timings", file=sys.stderr)
        return 1
    metrics = summarize(units)
    result["detail"] = metrics.pop("_detail")
    if args.trace:
        if not all("run_s" in u for u in units):
            print("a traced unit failed; no per-layer metrics", file=sys.stderr)
            return 1
        mem, plain, spanned = units
        inst = spanned.pop("_instrument")
        mem.pop("_instrument")
        checks["counts_repeat"] = spanned["counts"] == mem["counts"]
        metrics = dict(spanned["per_layer"])
        metrics.update({k: v for k, v in mem["per_layer"].items() if k not in metrics})
        metrics["trace.overhead_s"] = spanned["run_s"] - plain["run_s"]
        metrics["trace.overhead_ratio"] = metrics["trace.overhead_s"] / plain["run_s"]
        result["counts"] = spanned["counts"]
        result["span_totals"] = inst.span_totals()
        spans_dir = args.state / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        inst.write_spans(spans_dir / f"{args.workload}-seed{args.seed}.csv")
    if not all(checks.values()):
        failed = max(failed, 1)
    result.update(checks=checks, attempted=len(units), failed=failed,
                  metrics=metrics, units=[{k: v for k, v in u.items() if k != "steps"}
                                          | {"step_count": len(u.get("steps", []))}
                                          for u in units])
    args.result.write_text(json.dumps(result, indent=1, sort_keys=True, default=str) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Check that the traced run's exact counts repeat from run to run.

Runs ``run.py --trace 1`` twice per workload in fresh processes and compares
every counter the tracer keeps (primitives by op, matmul MACs, output bytes,
Zero, layer_norm and mixed-edge calls, updated elements, checkpoint bytes,
steps). Inside one traced run the span unit and the memory unit must
already agree; this adds the process-to-process comparison.

    python3 perfbench/count_check.py                      # search_desk, seed 0
    python3 perfbench/count_check.py --workload search_mid --seed 3

Exits 0 when all counts match, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, STATE, WORKLOADS


def traced_counts(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=400)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run exited with {proc.returncode}")
    if not json.loads(proc.stdout.splitlines()[-1])["correct"]:
        raise SystemExit(f"{workload}: traced run reported incorrect output")
    doc = json.loads((STATE / "results" / f"{workload}-seed{seed}-trace1.json").read_text())
    return doc["counts"]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="search_desk")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for w in names:
        first, second = traced_counts(w, args.seed), traced_counts(w, args.seed)
        differ = sorted(k for k in first.keys() | second.keys()
                        if first.get(k) != second.get(k))
        ok = ok and not differ
        print(f"{w}: {len(first)} counters, "
              + ("all repeat exactly" if not differ else f"differ: {differ}"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

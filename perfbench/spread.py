"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py [--workloads verify9,stack,...] \\
        --seeds 1-10 [--trace-seed N] [--out FILE] [--note TEXT]

The workloads default to those listed in BENCHMARK.json.  For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and their distance as a
share of the median, next to the metric's bound from BENCHMARK.json.
With --trace-seed it also runs one traced run per workload and keeps its
per-layer metrics.  Runs are sequential: the machine's cores are shared.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", help="comma-separated; default: BENCHMARK.json's")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--note", default="", help="what was measured, e.g. the commit")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"note": args.note, "date": time.strftime("%Y-%m-%d"),
               "python": platform.python_version(), "cpu_count": os.cpu_count(),
               "run_seconds": bench["run_seconds"], "bounds": bounds, "workloads": {}}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    for workload in names:
        results = []
        for seed in parse_seeds(args.seeds):
            results.append(run(workload, seed, bench["run_seconds"], 0))
            print(f"{workload} seed={seed} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items()), flush=True)
        entry = {"seeds": args.seeds, "metrics": {},
                 "correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results)}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = stats.quartiles(values)
            share = stats.spread(values)
            entry["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                                      "unit": results[0]["metrics"][name]["unit"]}
            flag = "ok" if share < bound / 3 else "WIDE"
            print(f"  {workload} {name}: median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={share:.4f} bound={bound} {flag}", flush=True)
        if args.trace_seed is not None:
            traced = run(workload, args.trace_seed, bench["run_seconds"], 1)
            entry["trace"] = {"seed": args.trace_seed,
                              "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        summary["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The socksort benchmark.

    python3 perfbench/run.py --workload verify9|membership|stack \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 it prints the end-to-end
metrics; with --trace 1 the per-layer metrics of one traced round.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Each timed round runs in a fresh worker
process (worker.py), one after another from a single client thread, closed
loop.  A call's latency is its fastest time over the run's rounds, taken
stretch by stretch (stats.best_time), which drops most of the slowdowns the
shared host adds; the percentiles and items_per_s are taken from those best
times.  setup_s is the median over at least
SETUP_SAMPLES processes of the time from process start until the workload
is ready to be timed.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify9", "membership", "stack")
SETUP_SAMPLES = 11  # fresh processes whose set-up time is measured per run
MIN_ROUNDS = 2  # so that every call's latency is the best of two samples
# String hashing is fixed, so that rounds in different processes run the
# same dict and set layouts.
WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}
RUN_LIMIT_S = 170  # a run must end within 180 s


def run_worker(args, flags: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a worker, time it until '@@ready', forward its report lines,
    and return (set-up seconds, result or None for a probe)."""
    probe = "--probe" in flags
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), *flags]
    t0 = time.perf_counter()
    result = None
    setup_s = None
    with subprocess.Popen(cmd, cwd=ROOT, env=WORKER_ENV, stdout=subprocess.PIPE, text=True,
                          bufsize=1) as proc:
        watchdog = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if line.startswith("@@ready"):
                    setup_s = time.perf_counter() - t0
                elif line.startswith("@@result "):
                    result = json.loads(line[len("@@result "):])
                else:
                    print(line, end="", flush=True)
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or setup_s is None or (result is None and not probe):
        raise RuntimeError(f"worker exited with code {proc.returncode}"
                           f" (killed at the {RUN_LIMIT_S} s limit when negative)")
    return setup_s, result


def measure(args, deadline: float) -> dict:
    """Timed rounds, one fresh worker process each, until a further round
    would pass --seconds (at least MIN_ROUNDS); then the end-to-end metrics.
    Only the first round's outputs go through the reference checks; later
    rounds must reproduce their fingerprints."""
    rounds, setups = [], []
    t_start = time.perf_counter()
    while True:
        setup_s, result = run_worker(args, ["--skip-checks"] if rounds else [], deadline)
        setups.append(setup_s)
        rounds.append(result)
        elapsed = time.perf_counter() - t_start
        if len(rounds) >= MIN_ROUNDS and elapsed + elapsed / len(rounds) > args.seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(args, ["--probe"], deadline)[0])

    calls = rounds[0]["attempted"]
    failed = sum(r["failed"] for r in rounds)
    wrong = sum(r["wrong"] for r in rounds)
    reasons = Counter(why for r in rounds for why in r["reasons"])
    for r in rounds[1:]:
        for i, (a, b) in enumerate(zip(rounds[0]["digests"], r["digests"])):
            if a != b:
                failed += 1
                wrong += 1
                reasons[f"call {i}: output differs between rounds"] += 1
            elif i in rounds[0]["wrong_calls"]:
                failed += 1
    attempted = calls * len(rounds)
    # A call's latency is its best time over the rounds.  The host's other
    # tenants slow stretches of seconds by up to 1.5x; a repeated call's
    # fastest time is its own cost with the least of that added.  The
    # percentiles are then taken over the calls of a round, and a round at
    # every call's best time gives items_per_s.
    latencies = [stats.best_time([r["stretches_s"][i] for r in rounds]) for i in range(calls)]
    pct = stats.tail_percentile(calls)
    print(f"rounds={len(rounds)} calls/round={calls} items/round={rounds[0]['items']} "
          "round_walls_s=" + " ".join(f"{r['wall_s']:.3f}" for r in rounds))
    print(f"call latency: p50 and p{pct:.2f} over N={calls} calls, each the best of "
          f"{len(rounds)} rounds; all calls at their best = {sum(latencies):.3f} s, "
          f"fastest whole round = {min(r['wall_s'] for r in rounds):.3f} s")
    print(f"failed_ratio = {failed}/{attempted} = {failed / attempted:.6f} failed/attempted")
    for why, n in sorted(reasons.items()):
        print(f"  failed x{n}: {why}")
    print("setup samples (s): " + " ".join(f"{s:.4f}" for s in setups))
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "items_per_s": {"value": rounds[0]["items"] / sum(latencies), "unit": "items/s"},
            "call_p50_ms": {"value": 1e3 * stats.nearest_rank(latencies, 50), "unit": "ms"},
            "call_tail_ms": {"value": 1e3 * stats.nearest_rank(latencies, pct), "unit": "ms"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not (ROOT / "src" / "socksort" / "__init__.py").is_file():
        print(f"error: no socksort sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    print(f"env: python={platform.python_version()} cpu_count={os.cpu_count()} "
          f"loadavg_at_start={load} workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}", flush=True)
    try:
        result = run_worker(args, [], deadline)[1] if args.trace else measure(args, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

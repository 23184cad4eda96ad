"""One workload process, started by run.py.

It imports socksort from the checkout's src/, builds the seeded inputs and
warms up, then prints '@@ready'.  A probe stops there; run.py times
process start to '@@ready' as one set-up sample.  Otherwise it runs one
timed round (--trace 0), or one untraced and one traced round (--trace 1),
checks every output, and prints '@@result <json>'.  Anything else it
prints is the human-readable report.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = HERE / "out"
RAISED = object()


def run_round(workload, tracer=None):
    """Run every call once.  Returns outputs (RAISED for calls that raised),
    per-call stretches, the exception names by call index, and wall time.

    A call's stretches are its latency cut at every start of the garbage
    collector, which runs after a fixed count of allocations.  The program
    is deterministic, so each cut falls at the same point of its work in
    every round, and run.py can compare rounds stretch by stretch."""
    outputs, bounds, errors = [], [], {}
    clock = time.perf_counter
    ticks = array("d")

    def on_gc(phase, info):
        if phase == "start":
            ticks.append(clock())

    gc.callbacks.append(on_gc)
    try:
        t_round = clock()
        for i, call in enumerate(workload.calls):
            if tracer is not None:
                tracer.run_id = i
            first = len(ticks)
            t0 = clock()
            try:
                out = call.run()
            except Exception as exc:  # counted as a failed call, never aborts the run
                out = RAISED
                errors[i] = type(exc).__name__
            bounds.append((t0, first, len(ticks), clock()))
            outputs.append(out)
        wall = clock() - t_round
    finally:
        gc.callbacks.remove(on_gc)
    stretches = []
    for t0, first, last, t1 in bounds:
        marks = [t0, *ticks[first:last], t1]
        stretches.append([b - a for a, b in zip(marks, marks[1:])])
    return outputs, stretches, errors, wall


def judge(workload, rounds, check: bool = True):
    """Failed calls over all rounds, the reasons, wrong results per
    function, and the indices of calls whose first-round output failed its
    check.  A call fails when it raised, when its first-round output fails
    the reference check, or when a later round's output differs from the
    first.  Only the last two are wrong results."""
    first = rounds[0][0]
    checked = [i for i, out in enumerate(first) if out is not RAISED] if check else []
    verdicts = dict(zip(checked, workload.check([(workload.calls[i], first[i]) for i in checked])))
    wrong = Counter(workload.calls[i].function for i, why in verdicts.items() if why)
    reasons: Counter = Counter()
    failed = 0
    for outputs, _, errors, _ in rounds:
        for i, call in enumerate(workload.calls):
            why = errors.get(i) or verdicts.get(i)
            if why is None and outputs[i] != first[i]:
                why = "output differs between rounds"
                wrong[call.function] += 1
            if why is not None:
                failed += 1
                reasons[(call.label, why)] += 1
    return failed, reasons, wrong, sorted(i for i, why in verdicts.items() if why)


def digest(out) -> str:
    """Short fingerprint of one call's output, compared across processes."""
    if out is RAISED:
        return "raised"
    return hashlib.sha256(repr(out).encode()).hexdigest()[:16]


def measured(workload, check: bool) -> dict:
    """One timed round, then its reference checks unless told to skip them
    (run.py compares a repeated round's fingerprints with a checked one)."""
    outputs, stretches, errors, wall = run_round(workload)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, reasons, wrong, bad = judge(workload, [(outputs, stretches, errors, wall)], check)
    return {
        "wall_s": wall,
        "items": workload.items_per_round,
        "stretches_s": stretches,
        "attempted": len(workload.calls),
        "failed": failed,
        "wrong": sum(wrong.values()),
        "wrong_calls": bad,  # unchecked repeats of these fail again
        "reasons": [f"{label}: {why}" for (label, why) in sorted(reasons)],
        "digests": [digest(out) for out in outputs],
        "peak_rss_mb": peak_rss_mb,
    }


def traced(workload, socksort, seed: int) -> dict:
    untraced = run_round(workload)
    tracer = tracing.Tracer()
    bindings = tracer.install(socksort)
    try:
        tracer.begin_root()
        traced_round = run_round(workload, tracer)
        tracer.end_root()
    finally:
        tracer.restore()
    checks = tracing.legality_checks(tracer.recorded["stack_machine.phi"],
                                     socksort.stack_machine.phi_trace)
    path = SPANS_DIR / f"spans-{workload.name}.bin"
    tracer.save(path, {"workload": workload.name, "seed": seed, "bindings": bindings})
    del tracer
    header, arrays = tracing.load(path)
    spans = tracing.Spans(header["names"], arrays)

    failed, reasons, wrong, _ = judge(workload, [traced_round, untraced])
    family_of = {i: call.family for i, call in enumerate(workload.calls)}
    metrics = tracing.layer_metrics(spans, family_of, checks, untraced[3], wrong)

    print(f"spans={header['spans']} bindings={bindings} file={path.relative_to(ROOT)}")
    print(f"{'function':48} {'calls':>9} {'self_s':>10} {'share':>7}")
    wall = spans.wall_s()
    for name in sorted(spans.by_name, key=spans.self_s, reverse=True):
        if spans.by_name[name]:
            s = spans.self_s(name)
            print(f"{name:48} {spans.calls(name):9d} {s:10.4f} {s / wall:7.1%}")
    listed = sum(v["value"] for k, v in metrics.items()
                 if k.endswith(".self_s") or k == "trace.other_self_s")
    print(f"accounted: self times sum to {listed:.4f} s of {wall:.4f} s traced wall")
    for (label, why), n in sorted(reasons.items()):
        print(f"  failed x{n}: {label}: {why}")
    return {"correct": not wrong, "attempted": 2 * len(workload.calls), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--skip-checks", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import socksort
    import socksort.cli  # noqa: F401  (verify9 and the traced bindings need it)

    workload = workloads.WORKLOADS[args.workload](socksort, args.seed)
    workload.warm_up()
    print("@@ready", flush=True)
    if args.probe:
        return 0
    if args.trace:
        result = traced(workload, socksort, args.seed)
    else:
        result = measured(workload, check=not args.skip_checks)
    print("@@result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one fresh process: set up, optionally warm up, run the
timed operations, check every answer, print one JSON line.

Started by run.py with PYTHONHASHSEED fixed and the checkout's src/ on
PYTHONPATH; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

from speed import Sampler

T0_NS = time.perf_counter_ns()


def _percentile(sorted_vals, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = math.ceil(q * len(sorted_vals)) - 1
    return sorted_vals[max(0, min(len(sorted_vals) - 1, k))]


def _timed(w, ops):
    """Closed loop, one caller: each operation starts when the previous one
    has returned.  Returns answers and each operation's start and end."""
    clock = time.perf_counter_ns
    answers = [None] * len(ops)
    starts = [0] * len(ops)
    ends = [0] * len(ops)
    run = w.run
    for i, op in enumerate(ops):
        starts[i] = clock()
        answers[i] = run(op)
        ends[i] = clock()
    return answers, starts, ends


def _traced(w, ops, tracer):
    clock = time.perf_counter_ns
    answers = [None] * len(ops)
    total = 0
    tracer.visited = tracer.searches = tracer.searches_skipped = 0
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.current_op = i
            t0 = clock()
            answers[i] = w.run(op)
            total += clock() - t0
    finally:
        tracer.uninstall()
        tracer.current_op = -1
    return answers, total / 1e9


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    sampler = None if args.trace else Sampler().start()
    import workloads  # imports the package: counted in setup time

    def make(seed):
        cls = workloads.WORKLOADS[args.workload]
        extra = {"workdir": os.path.join(args.workdir, str(seed))} if cls is workloads.CliSession else {}
        return cls(seed, args.seconds, args.smoke, **extra)

    w = make(args.seed)
    try:
        return _run(args, w, make, sampler)
    finally:
        if sampler:
            sampler.stop()
        getattr(w, "cleanup", lambda: None)()


def _run(args, w, make, sampler) -> int:
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        w.setup()
    finally:
        if tracer:
            tracer.uninstall()
    out: dict = {"workload": args.workload, "seed": args.seed}
    if sampler:
        end = time.perf_counter_ns()
        raw = sampler.less_probe([T0_NS], [end])[0]
        out["setup_raw_s"] = raw / 1e9
        out["setup_s"] = raw * sampler.scale(T0_NS, end) / 1e9
    else:
        out["setup_s"] = (time.perf_counter_ns() - T0_NS) / 1e9
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if w.warm_up:
        for op in w.pass_ops:
            w.run(op)
    if not args.trace:
        answers, starts, ends = _timed(w, w.ops)
        lat = sampler.less_probe(starts, ends)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        norm = sorted(t * k for t, k in zip(lat, sampler.scales_at(ends)))
        raw = sorted(lat)
        # the whole run: at least 1000 operations, so that ten or more lie
        # beyond its 99th percentile
        out.update(
            ops_per_s=len(norm) / (sum(norm) / 1e9),
            op_p50_ms=_percentile(norm, 0.50) / 1e6,
            op_p99_ms=_percentile(norm, 0.99) / 1e6,
            peak_rss_mb=rss_kb / 1024,
            raw=dict(
                ops_per_s=len(raw) / (sum(raw) / 1e9),
                op_p50_ms=_percentile(raw, 0.50) / 1e6,
                op_p99_ms=_percentile(raw, 0.99) / 1e6,
            ),
            speed_samples=len(sampler.durations),
            probe_ms_median=statistics.median(sampler.durations) / 1e6,
        )
    else:
        # the untraced baseline for the overhead: the same operations
        # where repeating them is harmless, else (a repeat would be
        # answered by the saturation cache) two rounds of a twin set of
        # the same make-up, scaled to as many operations
        twin = w
        if not getattr(w, "repeatable", True):
            twin = make(args.seed + 7919)
            twin.rounds = min(2, w.rounds)
            twin.setup()
        _, starts, ends = _timed(twin, twin.ops)
        untraced_s = (sum(ends) - sum(starts)) / 1e9 * len(w.ops) / len(twin.ops)
        answers, traced_s = _traced(w, w.ops, tracer)
        out["layers"] = tracer.layer_totals(ops=range(len(w.ops)))
        setup_totals = tracer.layer_totals(ops=(-1,))
        out["setup_atomic_system_self_s"] = setup_totals["atomic_system"]["self_ns"] / 1e9
        out["op_total_s"] = traced_s
        out["visited"] = tracer.visited
        out["searches"] = tracer.searches
        out["searches_skipped"] = tracer.searches_skipped
        out["untraced_op_total_s"] = untraced_s
        out["trace_overhead"] = traced_s / untraced_s - 1 if untraced_s else None
        out["spans"] = len(tracer.start)
        out["missing_boundaries"] = tracer.missing
        print(
            f"{args.workload}: tracing overhead {out['trace_overhead']:+.1%} "
            f"({traced_s:.3f} s traced vs {untraced_s:.3f} s untraced for as "
            f"many operations, {len(tracer.start)} spans)",
            file=sys.stderr,
        )
        if args.spans:
            tracer.write(args.spans, {"workload": args.workload, "seed": args.seed})
    failed, problems = w.check(answers)
    out.update(
        attempted=len(w.ops),
        failed=failed,
        problems=problems[:20],
        problem_count=len(problems),
        describe=w.describe(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

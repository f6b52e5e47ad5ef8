#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, written as one BENCH_<n>.json.

    python scripts/pairs.py --parent DIR --change DIR --seeds 3901-3910 \\
        --workloads cli-session family-sweep saturation-tiers --out BENCH_39.json

For each workload in the order given and each seed, runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in the parent checkout and once in the change checkout, one run at a
time: the parent first on odd seeds, the change first on even ones.  Each
run uses its own checkout's package and benchmark.  The metrics and the
direction each is better in are read from the change checkout's
BENCHMARK.json.  For each workload and metric the report holds the two
medians, the change against the parent in percent, the parent's IQR (the
distance between the first and third quartiles of statistics.quantiles,
n=4, exclusive method; null with fewer than two runs), the number of pairs
in which the change's run reads better than the parent's, and the runs
themselves in seed order.  The report is rewritten after every pair, so a
stopped run keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
from run import WORKLOADS  # noqa: E402
from spread import _seeds  # noqa: E402


def _commit(checkout: str) -> str | None:
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One run.py result: correct, attempted, failed and metric values."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"pairs: {workload} seed {seed} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    row = json.loads(lines[-1])
    row["metrics"] = {k: v["value"] for k, v in row["metrics"].items()}
    return row


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """One workload's report from its runs, paired by position."""
    metrics = {}
    for name, direction in better.items():
        p = [r["metrics"][name] for r in parent]
        c = [r["metrics"][name] for r in change]
        pm, cm = statistics.median(p), statistics.median(c)
        iqr = None
        if len(p) >= 2:
            q1, _, q3 = statistics.quantiles(p, n=4)
            iqr = q3 - q1
        wins = sum((b < a) if direction == "lower" else (b > a) for a, b in zip(p, c))
        metrics[name] = {
            "parent_median": pm,
            "change_median": cm,
            "change_vs_parent_pct": round(100 * (cm - pm) / pm, 2) if pm else None,
            "parent_iqr": iqr,
            "change_better_pairs": wins,
            "parent_runs": p,
            "change_runs": c,
        }
    return {
        "runs_correct": all(r["correct"] for r in parent + change),
        "failed_ops": {"parent": sum(r["failed"] for r in parent),
                       "change": sum(r["failed"] for r in change)},
        "attempted_ops": {"parent": sum(r["attempted"] for r in parent),
                          "change": sum(r["attempted"] for r in change)},
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the parent's checkout")
    ap.add_argument("--change", required=True, help="the change's checkout")
    ap.add_argument("--seeds", required=True, help="a seed or a range LO-HI")
    ap.add_argument("--workloads", nargs="+", required=True, choices=WORKLOADS)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--out", required=True, help="the report to write")
    ap.add_argument("--what", default="", help="what the change is, for the report")
    args = ap.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    seeds = _seeds(args.seeds)
    report = {
        "what": args.what,
        "parent": _commit(args.parent),
        "change": _commit(args.change),
        "command": f"python3 perfbench/run.py --workload <w> --seed <n> "
                   f"--seconds {args.seconds:g} --trace 0, in separate checkouts "
                   f"of the parent and the change",
        "pairing": "one parent run and one change run per seed and workload, one "
                   "after the other, never overlapping; the parent ran first on "
                   "odd seeds, the change first on even seeds",
        "seeds": seeds,
        "machine": f"{os.cpu_count()} vCPUs, {platform.system()}, "
                   f"Python {platform.python_version()}",
        "quartiles": "statistics.quantiles(n=4), exclusive method, over the "
                     "parent's runs; parent_iqr is the distance between its first "
                     "and third quartiles",
        "workloads": {},
    }
    for workload in args.workloads:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                runs[side].append(run_once(checkout, workload, seed, args.seconds))
            report["workloads"][workload] = summarize(
                runs["parent"], runs["change"], better)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=1)
                fh.write("\n")
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

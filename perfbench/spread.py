"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--seconds 20]

Runs run.py once per seed and workload, one run at a time, and prints for
each metric the median and the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median.  Every run's
result line is appended to .perfbench/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(rows: list[dict]) -> dict:
    out = {}
    for name in rows[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in rows]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out[name] = {"median": med, "iqr_share": (q3 - q1) / med if med else None}
    fails = {r["failed"] / r["attempted"] for r in rows}
    out["failed_share"] = sorted(fails)
    out["correct"] = all(r["correct"] for r in rows)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seconds", default="20")
    args = ap.parse_args()
    log = os.path.join(ROOT, ".perfbench", "spread.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    for workload in args.workload or WORKLOADS:
        rows = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            row = json.loads(proc.stdout.strip().splitlines()[-1])
            rows.append(row)
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **row}) + "\n")
        print(json.dumps({"workload": workload, "runs": len(rows), **summarize(rows)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

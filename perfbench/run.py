"""prooflab benchmark: one workload per invocation, in fresh processes.

    python3 perfbench/run.py --workload family-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
separate traced run.  --smoke runs every workload at a tiny size, traced and
untraced, with every check on, and prints one report.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("family-sweep", "saturation-tiers", "cli-session")
# saturation iterates sets, so the witness a run picks depends on the hash
# seed; every workload process runs under this one
HASH_SEED = "0"
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0
LAYERS = ("cli", "syntax", "atomic_system", "base_semantics", "validity")


class BenchError(RuntimeError):
    pass


def _child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a workload process")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"workload process exceeded {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(main: dict, setups: list[float]) -> dict:
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": main["ops_per_s"], "unit": "1/s"},
        "op_p50_ms": {"value": main["op_p50_ms"], "unit": "ms"},
        "op_p99_ms": {"value": main["op_p99_ms"], "unit": "ms"},
        "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(main: dict) -> dict:
    layers = main["layers"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = {"value": layers[layer]["calls"], "unit": "count"}
        out[f"{layer}.self_s"] = {"value": layers[layer]["self_ns"] / 1e9, "unit": "s"}
    out["atomic_system.setup_self_s"] = {
        "value": main["setup_atomic_system_self_s"], "unit": "s"}
    out["arguments.structures_built"] = {
        "value": layers["arguments"]["structures_built"], "unit": "count"}
    out["arguments.self_s"] = {"value": layers["arguments"]["self_ns"] / 1e9, "unit": "s"}
    out["reductions.structures_visited"] = {"value": main["visited"], "unit": "count"}
    out["reductions.self_s"] = {"value": layers["reductions"]["self_ns"] / 1e9, "unit": "s"}
    searches = main["searches"]
    ratio = (searches - main["searches_skipped"]) / searches if searches else 1.0
    out["reductions.skip_free_ratio"] = {"value": ratio, "unit": "ratio"}
    out["op_total_s"] = {"value": main["op_total_s"], "unit": "s"}
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool, deadline: float) -> dict:
    tag = f"{workload}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
    workdir = os.path.join(OUT_DIR, "work", tag)
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--workdir", workdir]
    if smoke:
        common.append("--smoke")
    setups = []
    extra = ["--trace", str(trace)]
    if trace:
        extra += ["--spans", os.path.join(OUT_DIR, f"{tag}.spans.jsonl.gz")]
    try:
        if not trace:
            # set-up repeated in fresh processes: a warm process would
            # answer from its caches
            for _ in range(SETUP_REPEATS - 1):
                setups.append(_child(common + ["--setup-only"], deadline)["setup_s"])
        main = _child(common + extra, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(main["setup_s"])
    main["setup_repeats_s"] = setups
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(main, fh, indent=1)
    for p in main["problems"]:
        print(f"{workload}: check failed: {p}", file=sys.stderr)
    return {
        "correct": main["problem_count"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": per_layer(main) if trace else end_to_end(main, setups),
    }


def _check_checkout() -> None:
    for rel in ("src/prooflab/__init__.py", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise BenchError(f"{rel} is missing: run from a prooflab checkout")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload, tiny, traced and untraced")
    args = ap.parse_args(argv)
    if not args.smoke and not args.workload:
        ap.error("--workload is required unless --smoke is given")
    # a SIGTERM ends the run through SystemExit, so that subprocess.run
    # kills and reaps the workload process it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        _check_checkout()
        os.makedirs(OUT_DIR, exist_ok=True)
        if args.smoke:
            report = {}
            for name in WORKLOADS:
                rows = [run_workload(name, args.seed, args.seconds, t, True, deadline)
                        for t in (0, 1)]
                report[name] = {
                    "correct": all(r["correct"] for r in rows),
                    "attempted": rows[0]["attempted"],
                    "failed": rows[0]["failed"],
                    "metrics": {**rows[0]["metrics"], **rows[1]["metrics"]},
                }
            print(json.dumps(report))
        else:
            print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                          args.trace, False, deadline)))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

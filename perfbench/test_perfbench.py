"""Self-test of the benchmark through its smoke mode.

    python3 -m pytest -q perfbench/test_perfbench.py

The smoke run covers every workload at a tiny size, traced and untraced,
with every check on; the report must name every metric BENCHMARK.json
declares, with its unit, and give attempted and failed counts.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _smoke() -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_report_names_every_declared_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    report = _smoke()
    assert sorted(report) == sorted(w["name"] for w in spec["workloads"])
    declared = spec["end_to_end"] + spec["per_layer"]
    for name, row in report.items():
        assert row["correct"], name
        assert isinstance(row["attempted"], int) and row["attempted"] >= 1, name
        assert isinstance(row["failed"], int) and 0 <= row["failed"] <= row["attempted"]
        for metric in declared:
            got = row["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"], (name, metric["name"])
            assert isinstance(got["value"], (int, float)), (name, metric["name"])
        assert set(row["metrics"]) == {m["name"] for m in declared}, name
    # the detours under an ->-intro binder are the only failures, and only
    # on cli-session (two per round)
    assert report["cli-session"]["failed"] <= 2
    assert report["family-sweep"]["failed"] == 0
    assert report["saturation-tiers"]["failed"] == 0


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(HERE, name)).read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-session",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

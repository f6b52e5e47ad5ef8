"""The bundled scripts run end to end as their own processes; the pairs
runner's summary is also checked on made-up runs."""

import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script, line",
    [
        ("nonmonotonic_demo.py", "  argument: invalid (the underlying consequence "
         "fails, so no argument from these assumptions is valid over this base)"),
        ("run_suite.py", "  |- p | ~p: sandqvist=True alpha=valid agree=True"),
        ("tautology_sweep.py",
         "p | ~p                       standard  unrefuted (2 bases examined)"),
    ],
)
def test_script_runs(script, line):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()


def test_digests_prints_one_digest_per_output():
    # the script sets its own path, and any hash seed prints the same lines
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHASHSEED")}
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "digests.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "saturation-tiers", "models-alpha", "cli-session"
    ]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)


def _pairs():
    spec = importlib.util.spec_from_file_location(
        "pairs", os.path.join(ROOT, "scripts", "pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_summarizes_paired_runs():
    def row(setup, ops, failed=0):
        return {"correct": True, "attempted": 10, "failed": failed,
                "metrics": {"setup_s": setup, "ops_per_s": ops}}

    parent = [row(1.0, 10.0), row(2.0, 20.0), row(3.0, 30.0), row(4.0, 40.0)]
    change = [row(0.5, 11.0), row(2.5, 19.0), row(2.0, 31.0), row(3.0, 40.0, failed=1)]
    got = _pairs().summarize(parent, change, {"setup_s": "lower", "ops_per_s": "higher"})
    setup = got["metrics"]["setup_s"]
    assert (setup["parent_median"], setup["change_median"]) == (2.5, 2.25)
    assert setup["change_vs_parent_pct"] == -10.0
    # exclusive quartiles of 1..4 are 1.25 and 3.75
    assert setup["parent_iqr"] == 2.5
    assert setup["change_better_pairs"] == 3
    assert got["metrics"]["ops_per_s"]["change_better_pairs"] == 2
    assert got["failed_ops"] == {"parent": 0, "change": 1}
    assert setup["parent_runs"] == [1.0, 2.0, 3.0, 4.0]


def test_pairs_runs_one_pair_of_this_checkout(tmp_path):
    out = tmp_path / "BENCH.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "pairs.py"),
         "--parent", ROOT, "--change", ROOT, "--seeds", "1",
         "--workloads", "cli-session", "--seconds", "0.1", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["end_to_end"]}
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["seeds"] == [1] and report["parent"] == report["change"]
    session = report["workloads"]["cli-session"]
    assert session["runs_correct"]
    assert session["failed_ops"] == {"parent": 0, "change": 0}
    assert session["metrics"].keys() == names
    for metric in session["metrics"].values():
        assert len(metric["parent_runs"]) == len(metric["change_runs"]) == 1
        assert metric["parent_iqr"] is None

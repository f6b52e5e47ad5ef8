"""The bundled scripts run end to end as their own processes."""

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

"""Every name a prooflab module exports resolves."""

import importlib
import os
import subprocess
import sys

import pytest

MODULES = [
    "prooflab",
    "prooflab.syntax",
    "prooflab.atomic_system",
    "prooflab.base_semantics",
    "prooflab.arguments",
    "prooflab.reductions",
    "prooflab.validity",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_base_semantics_does_not_load_arguments():
    # the clause semantics sits below the argument layer: a fresh
    # interpreter that imports it has loaded no argument structures
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    probe = "import sys, prooflab.base_semantics; print('prooflab.arguments' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]

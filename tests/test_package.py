"""Every name a prooflab module exports resolves."""

import importlib

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

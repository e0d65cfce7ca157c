"""Every exported name resolves."""

import importlib

import pytest

MODULES = ["cli", "fracmath", "kernels", "operator", "orthonormalize", "problems", "solver", "verification"]


@pytest.mark.parametrize("name", ["rkburgers"] + [f"rkburgers.{module}" for module in MODULES])
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


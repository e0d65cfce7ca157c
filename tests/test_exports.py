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



@pytest.mark.parametrize("name", ["rkburgers", "rkburgers.problems"])
@pytest.mark.parametrize("retired", ["build_custom", "COEFFICIENT_CATALOG", "SPACE_FACTOR_CATALOG"])
def test_retired_problem_catalog_names_are_gone(name, retired):
    module = importlib.import_module(name)
    assert not hasattr(module, retired)
    assert retired not in module.__all__

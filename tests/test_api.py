"""Public names: every module's ``__all__`` resolves, and the module
attributes the benchmark tracer (bench/tracing.py) replaces stay bound."""

import importlib

import pytest

MODULES = ["mimm", "mimm.core", "mimm.gaussian", "mimm.mcle", "mimm.oracle", "mimm.ple"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("attr", ["expit", "window_statistics", "swap_deltas", "log_pl"])
def test_ple_binds_the_tracer_targets(attr):
    ple = importlib.import_module("mimm.ple")
    assert callable(getattr(ple, attr))

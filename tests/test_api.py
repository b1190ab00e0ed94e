"""Public names: every module's ``__all__`` resolves, and the module
attributes the benchmark tracer (bench/tracing.py) replaces stay bound and
are looked up at call time."""

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


def test_mcle_binds_the_tracer_targets():
    mcle = importlib.import_module("mimm.mcle")
    assert callable(mcle.exchange_sample) and callable(mcle.fisher_scoring)


def test_fisher_scoring_looks_up_the_chain_at_call_time(monkeypatch):
    # the tracer counts chains by replacing the module attribute, so
    # fisher_scoring must reach exchange_sample through it on every iteration
    core, gaussian, mcle = (importlib.import_module(f"mimm.{name}") for name in ("core", "gaussian", "mcle"))
    calls = []
    chain = mcle.exchange_sample

    def counting(*args, **kwargs):
        calls.append(1)
        return chain(*args, **kwargs)

    monkeypatch.setattr(mcle, "exchange_sample", counting)
    series = gaussian.simulate_ar(gaussian.ClassicalARParams([0.5], 0.5), 40, seed=3)
    fit = mcle.fisher_scoring(
        core.ar_spec(1),
        series,
        exchange_config=mcle.ExchangeConfig(n_samples=300, seed=4),
        scoring_config=mcle.ScoringConfig(max_iters=3, grad_tol=1e-12),
    )
    assert fit.iterations == 3 and len(calls) == 3

"""Public names: every module's ``__all__`` resolves, the module attributes
the benchmark tracer (bench/tracing.py) replaces stay bound and are looked
up at call time, and every count setting takes only integers."""

import importlib

import numpy as np
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


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("setting", ["max_epochs", "n_iters", "n_samples", "burn_in", "thin", "max_iters", "splits"])
def test_count_settings_take_integers(setting, value):
    # a bool or a float passes a plain >= bound: 2.5 epochs would run 3 passes
    core, mcle, ple = (importlib.import_module(f"mimm.{name}") for name in ("core", "mcle", "ple"))
    series = core.TimeSeries(np.random.default_rng(0).standard_normal(40))
    build = {
        "max_epochs": lambda v: ple.GdConfig(max_epochs=v),
        "n_iters": lambda v: ple.SgdConfig(n_iters=v),
        "n_samples": lambda v: mcle.ExchangeConfig(n_samples=v),
        "burn_in": lambda v: mcle.ExchangeConfig(burn_in=v),
        "thin": lambda v: mcle.ExchangeConfig(thin=v),
        "max_iters": lambda v: mcle.ScoringConfig(max_iters=v),
        "splits": lambda v: ple.select_specs(series, [core.ar_spec(1)], splits=v),
    }[setting]
    with pytest.raises(ValueError, match=f"{setting} must be an integer"):
        build(value)
    build(np.int64(3))

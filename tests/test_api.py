"""Public names: every module's ``__all__`` resolves, the module attributes
the benchmark tracer (bench/tracing.py) replaces stay bound and are looked
up at call time, every count setting takes only integers and every
positive setting only finite reals > 0."""

import importlib

import numpy as np
import pytest

from mimm import core, gaussian, mcle, oracle, ple
from mimm.exceptions import ParameterDomainError

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


SERIES = core.TimeSeries(np.random.default_rng(0).standard_normal(40))
AR1 = gaussian.ClassicalARParams([0.5], 0.5)
COUNTS = {  # case: build from the value; the case's last word names the setting
    "max_epochs": lambda v: ple.GdConfig(max_epochs=v),
    "n_iters": lambda v: ple.SgdConfig(n_iters=v),
    "n_samples": lambda v: mcle.ExchangeConfig(n_samples=v),
    "burn_in": lambda v: mcle.ExchangeConfig(burn_in=v),
    "thin": lambda v: mcle.ExchangeConfig(thin=v),
    "max_iters": lambda v: mcle.ScoringConfig(max_iters=v),
    "splits": lambda v: ple.select_specs(SERIES, [core.ar_spec(1)], splits=v),
    "term lag": lambda v: core.MonomialTerm(((0, 0, 1), (v, 0, 1))),
    "term component": lambda v: core.MonomialTerm(((0, v, 1),)),
    "term exponent": lambda v: core.MonomialTerm(((0, 0, v),)),
    "spec order": lambda v: core.DependenceSpec(order=v, dim=1, terms=core.ar_spec(1).terms),
    "spec dim": lambda v: core.DependenceSpec(order=1, dim=v, terms=core.ar_spec(1).terms),
    "ar_spec order": lambda v: core.ar_spec(v),
    "kron_spec dim": lambda v: core.kron_spec(v, [(1, 1, 1)]),
    "kron_spec lag": lambda v: core.kron_spec(2, [(1, 1, 1), (v, 1, 1)]),
    "kron_spec exp_now": lambda v: core.kron_spec(2, [(1, v, 1)]),
    "kron_spec exp_lag": lambda v: core.kron_spec(2, [(1, 1, v)]),
    "simulate_ar n": lambda v: gaussian.simulate_ar(AR1, v),
    "simulate_ar burn_in": lambda v: gaussian.simulate_ar(AR1, 5, v),
    "mle_ols_ar d": lambda v: oracle.mle_ols_ar(SERIES, v),
    "aic_pic K": lambda v: ple.aic_pic(-10.0, v, 50, 1),
    "n_interior_pairs n": lambda v: ple.n_interior_pairs(v, 1),
    "n_interior_pairs d": lambda v: ple.n_interior_pairs(10, v),
    "spaced_matching n": lambda v: ple.spaced_matching(v, 1, 0),
    "spaced_matching d": lambda v: ple.spaced_matching(40, v, 0),
}


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("case", COUNTS)
def test_count_settings_take_integers(case, value):
    # a bool or a float passes a plain >= bound: 2.5 epochs would run 3
    # passes, a lag of 1.7 would be stored as 1 and True read as 1
    setting = case.split()[-1]
    with pytest.raises(ParameterDomainError, match=f"^{setting} must be an integer >= "):
        COUNTS[case](value)
    COUNTS[case](np.int64(7))  # a spaced matching needs n >= 3d + 4


@pytest.mark.parametrize("value", [True, "1e-6", float("nan"), float("inf"), 0, -1])
@pytest.mark.parametrize("setting", ["tol", "eta", "grad_tol"])
def test_positive_settings_take_finite_reals(setting, value):
    build = {"tol": ple.GdConfig, "eta": ple.SgdConfig, "grad_tol": mcle.ScoringConfig}[setting]
    with pytest.raises(ParameterDomainError, match=f"^{setting} must be finite and > 0, got "):
        build(**{setting: value})
    assert getattr(build(**{setting: np.float64(1e-3)}), setting) == 1e-3

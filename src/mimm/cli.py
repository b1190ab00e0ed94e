"""Command-line surface: data simulation, estimator invocation, model
selection, benchmark tables, and the invariant verification gate.

Subcommands: simulate | fit | select | benchmark | verify.
Exit codes: 0 success, 2 validation error, 3 numerical failure, 4 timeout.

Option precedence is flags > config file (--config, JSON) > built-in
defaults; the effective configuration is echoed into every result file.
Every command is deterministic given its inputs and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import core, gaussian, mcle, oracle, ple
from .exceptions import (
    IllConditionedError,
    MimmError,
    NoSolutionFoundError,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_TIMEOUT = 4

ESTIMATORS = ("mle", "mcle", "ple-naive", "ple-bipartition", "ple-sgd")

# option name -> field of the config dataclass it sets
_EXCHANGE_OPTIONS = {"samples": "n_samples", "burn_in": "burn_in", "thin": "thin"}
_SCORING_OPTIONS = {"max_iters": "max_iters", "grad_tol": "grad_tol"}
_GD_OPTIONS = {"max_epochs": "max_epochs", "tol": "tol"}
_SGD_OPTIONS = {"eta": "eta", "iters": "n_iters"}


# ---------------------------------------------------------------------------
# option handling


def _merge_config(args: argparse.Namespace, **builtin) -> dict:
    """flags > config file > ``builtin`` defaults, over every option of the
    command's parser; an option with neither a flag, a file value nor a
    built-in default is None.  A config-file key that names no option of
    the command, or a value that fails the option's type or choices, is an
    error."""
    keys = [key for key in vars(args) if key not in ("command", "func", "config", "options")]
    effective = {key: builtin.get(key) for key in keys}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_conf = json.load(fh)
        if not isinstance(file_conf, dict):
            raise MimmError(f"config file {args.config} must hold a JSON object")
        unknown = sorted(set(file_conf) - set(effective))
        if unknown:
            raise MimmError(
                f"config file {args.config} has keys that name no option of "
                f"{args.command}: {', '.join(unknown)}"
            )
        for key, value in file_conf.items():
            _check_file_value(args.config, args.options[key], value)
        effective.update(file_conf)
    for key in keys:
        flag_val = getattr(args, key)
        if flag_val is not None:
            effective[key] = flag_val
    return effective


def _check_file_value(path, action: argparse.Action, value) -> None:
    """The option's own shape, type and choices checks, applied to a
    config-file value: an option that takes several values (``nargs`` "+",
    "*" or a count, or ``action="append"``) takes a JSON list, of that count
    if fixed, and any other option a single value.  An int option takes JSON
    integers, a float option any JSON number and other options strings.
    null leaves the option unset."""
    if value is None:
        return
    name = action.option_strings[0]
    many = (
        action.nargs in ("+", "*")
        or isinstance(action.nargs, int)
        or isinstance(action, argparse._AppendAction)
    )
    if isinstance(value, list) != many:
        raise MimmError(f"config file {path}: {name} takes {'a list' if many else 'one value'}, got {value!r}")
    if isinstance(action.nargs, int) and len(value) != action.nargs:
        raise MimmError(f"config file {path}: {name} takes {action.nargs} values, got {value!r}")
    kind = action.type or str
    accepted = (int, float) if kind is float else kind
    for item in value if many else [value]:
        if isinstance(item, bool) or not isinstance(item, accepted):
            raise MimmError(f"config file {path}: {name} takes {kind.__name__} values, got {item!r}")
        if action.choices is not None and item not in action.choices:
            raise MimmError(f"config file {path}: {name} must be one of {', '.join(action.choices)}, got {item!r}")


def _check_time_limit(value, source: str) -> None:
    """A time limit, when set, must be a finite number of seconds > 0
    (NaN or an infinity would also make the result JSON invalid)."""
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 < value < math.inf:
        raise MimmError(f"{source} must be finite and > 0, got {value!r}")


def _configure(base, conf: dict, options: dict):
    """``base`` with every option set in ``conf`` (by flag, config file or
    manifest) written to its field.  Unset options keep the dataclass
    default, and the dataclass validates what was set."""
    given = {field: conf[opt] for opt, field in options.items() if conf.get(opt) is not None}
    return dataclasses.replace(base, **given)


def _load_series(path) -> core.TimeSeries:
    kinds = None
    meta_path = str(path) + ".meta.json"
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        kinds = meta.get("kinds")
    except FileNotFoundError:
        pass
    return core.TimeSeries.from_csv(path, kinds=kinds)


def _json_default(obj):
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_json(path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# simulate


def _params_from_args(conf) -> object:
    given = [
        conf.get("params") is not None,
        conf.get("ar") is not None,
        conf.get("theta") is not None,
        conf.get("var1") is not None,
    ]
    if sum(given) != 1:
        raise MimmError(
            "choose exactly one of --params, --ar/--sigma2, --theta/--tau2, --var1"
        )
    if conf.get("params") is not None:
        with open(conf["params"], "r", encoding="utf-8") as fh:
            return gaussian.params_from_text(fh.read())
    if conf.get("ar") is not None:
        if conf.get("sigma2") is None:
            raise MimmError("--ar requires --sigma2")
        return gaussian.ClassicalARParams(phi=conf["ar"], sigma2=conf["sigma2"])
    if conf.get("theta") is not None:
        if conf.get("tau2") is None:
            raise MimmError("--theta requires --tau2")
        return gaussian.MinInfoARParams(theta=conf["theta"], tau2=conf["tau2"])
    a_path, s_path = conf["var1"]
    A = np.loadtxt(a_path, delimiter=",", ndmin=2)
    Sigma = np.loadtxt(s_path, delimiter=",", ndmin=2)
    return gaussian.ClassicalVARParams(A=A[None], Sigma=Sigma)


def _simulate(params, n: int, burn_in: int = 0, seed=None) -> core.TimeSeries:
    if isinstance(params, gaussian.ClassicalARParams):
        return gaussian.simulate_ar(params, n, burn_in=burn_in, seed=seed)
    return gaussian.simulate_var(params, n, burn_in=burn_in, seed=seed)


def cmd_simulate(args: argparse.Namespace) -> int:
    conf = _merge_config(args, burn_in=0, seed=0)
    if conf["n"] is None or conf["out"] is None:
        raise MimmError("simulate requires --n and --out")
    params = _params_from_args(conf)
    if isinstance(params, gaussian.MinInfoARParams):
        params = gaussian.mininfo_to_ar(params)
    if isinstance(params, gaussian.MinInfoVARParams):
        params = gaussian.mininfo_to_var1(params)
    series = _simulate(params, conf["n"], burn_in=conf["burn_in"], seed=conf["seed"])
    series.to_csv(conf["out"])
    meta = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "params": gaussian.params_to_text(params).splitlines(),
        "n": conf["n"],
        "burn_in": conf["burn_in"],
        "seed": conf["seed"],
        "kinds": list(series.kinds),
    }
    _write_json(str(conf["out"]) + ".meta.json", meta)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit


def _run_estimator(estimator, series, spec, conf, seed):
    """Dispatch one estimator run; returns (theta, extras, fit), where
    ``fit`` is the library's result object (None for mle)."""
    if estimator == "mle":
        order = conf.get("order")
        if order is None and spec is not None:
            order = spec.order
        if order is None:
            raise MimmError("mle requires --order (or a spec to derive it from)")
        if order < 1:
            raise MimmError(f"--order must be >= 1, got {order}")
        if series.p == 1:
            classical, mininfo = oracle.mle_ols_ar(series, order)
            extras = {"phi": [float(v) for v in classical.phi], "sigma2": classical.sigma2}
            return np.asarray(mininfo.theta), extras, None
        classical, mininfo = oracle.mle_ols_var(series, order)
        if mininfo is None:
            raise MimmError("mle reports minimum-information weights only for order 1")
        theta = mininfo.Theta.reshape(-1, order="F")
        return theta, {"Sigma": classical.Sigma.tolist()}, None
    if spec is None:
        raise MimmError(f"{estimator} requires --spec")
    if estimator == "mcle":
        exch = _configure(mcle.ExchangeConfig(seed=seed), conf, _EXCHANGE_OPTIONS)
        scor = _configure(mcle.ScoringConfig(), conf, _SCORING_OPTIONS)
        fit = mcle.fisher_scoring(spec, series, exchange_config=exch, scoring_config=scor)
        extras = {
            "iterations": fit.iterations,
            "acceptance_rate": fit.final_acceptance_rate,
            "converged": fit.converged,
            "score_norm_trace": list(fit.score_norm_trace),
            "n_steps": fit.n_steps,
            "stages": fit.stages,
        }
        return fit.theta, extras, fit
    if estimator in ("ple-naive", "ple-bipartition"):
        gd = _configure(ple.GdConfig(), conf, _GD_OPTIONS)
        if estimator == "ple-naive":
            fit = ple.fit_naive(spec, series, gd)
        else:
            fit = ple.fit_bipartition(spec, series, seed=seed, config=gd)
    elif estimator == "ple-sgd":
        fit = ple.fit_online_sgd(spec, series, _configure(ple.SgdConfig(seed=seed), conf, _SGD_OPTIONS))
    else:
        raise MimmError(f"unknown estimator {estimator!r}")
    return fit.theta, fit.to_dict(), fit


def cmd_fit(args: argparse.Namespace) -> int:
    conf = _merge_config(args, seed=0)
    if conf["data"] is None or conf["estimator"] is None:
        raise MimmError("fit requires --data and --estimator")
    if conf["estimator"] not in ESTIMATORS:
        raise MimmError(f"estimator must be one of {ESTIMATORS}")
    _check_time_limit(conf["time_limit_s"], "--time-limit-s")
    series = _load_series(conf["data"])
    spec = None
    if conf["spec"] is not None:
        spec = core.DependenceSpec.load(conf["spec"])
        for term in spec.terms:
            for _, comp, _ in term.factors:
                if comp >= series.p:
                    raise MimmError(
                        f"spec component {comp} out of range for {series.p}-column data"
                    )
    if (
        conf["estimator"] == "mcle"
        and spec is not None
        and spec.order >= 2
        and series.n > 500
    ):
        print(
            "warning: exchange MCLE with order >= 2 on long series can take "
            "hours; consider a pseudo-likelihood estimator",
            file=sys.stderr,
        )

    start = time.perf_counter()
    theta, extras, fit = _run_estimator(conf["estimator"], series, spec, conf, conf["seed"])
    wall = time.perf_counter() - start

    result = {
        "schema_version": SCHEMA_VERSION,
        "command": "fit",
        "estimator": conf["estimator"],
        "config": {k: v for k, v in conf.items() if k not in ("out", "diagnostics")},
    }
    result.update(extras)
    result["theta"] = [float(v) for v in np.atleast_1d(theta)]
    result["wall_time_s"] = wall
    # the limit is checked after the run, which is not cut short; a fit
    # that ran past it has no convergence verdict to report
    timed_out = conf["time_limit_s"] is not None and wall > conf["time_limit_s"]
    result["status"] = "timeout" if timed_out else "ok"
    if timed_out:
        result["converged"] = None

    if conf["diagnostics"] and isinstance(fit, mcle.McleResult):
        with open(conf["diagnostics"], "w", encoding="utf-8") as fh:
            K = len(fit.theta)
            head = ["iter"] + [f"theta_{k}" for k in range(K)]
            head += ["score_norm", "acceptance_rate", "ess", "split_rhat"]
            fh.write(",".join(head) + "\n")
            traces = zip(
                fit.theta_trace,
                fit.score_norm_trace,
                fit.acceptance_trace,
                fit.ess_trace,
                fit.split_rhat_trace,
            )
            for i, (th, sn, ac, ess, rhat) in enumerate(traces, start=1):
                # the worst statistic: smallest ESS, largest split-R-hat (nan if any is)
                row = [str(i)] + [repr(v) for v in th] + [repr(sn), repr(ac), repr(float(np.min(ess))), repr(float(np.max(rhat)))]
                fh.write(",".join(row) + "\n")

    _write_json(conf["out"], result)
    if timed_out:
        print(f"fit exceeded the time limit ({wall:.1f}s > {conf['time_limit_s']}s)", file=sys.stderr)
        return EXIT_TIMEOUT
    return EXIT_OK


# ---------------------------------------------------------------------------
# select


def cmd_select(args: argparse.Namespace) -> int:
    """Rank dependence specs by AIC/PIC with :func:`ple.select_specs`, print
    the table and write the ranked CSV.  --seed and --splits are passed on
    only when given, so their defaults are the library's."""
    conf = _merge_config(args)
    if conf["data"] is None or not conf["spec"] or len(conf["spec"]) < 2:
        raise MimmError("select requires --data and at least two --spec files")
    series = _load_series(conf["data"])
    specs = []
    for path in conf["spec"]:
        try:
            specs.append(core.DependenceSpec.load(path))
        except Exception as err:
            raise MimmError(f"cannot load spec {path}: {err}") from err
    given = {key: conf[key] for key in ("seed", "splits") if conf[key] is not None}
    gd = _configure(ple.SELECT_CONFIG, conf, _GD_OPTIONS)
    scores = ple.select_specs(series, specs, config=gd, **given)
    rows = [{"spec": str(path), **row._asdict()} for path, row in zip(conf["spec"], scores)]

    ok = [r for r in rows if r["error"] is None]
    if not ok:
        raise MimmError("every spec failed to fit")
    best_aic = min(ok, key=lambda r: r["aic"])["spec"]
    best_pic = min(ok, key=lambda r: r["pic"])["spec"]

    header = f"{'spec':<40} {'K':>3} {'log_pl':>14} {'aic':>14} {'pic':>14}  best"
    print(header)
    print("-" * len(header))
    for r in rows:
        marks = []
        if r["spec"] == best_aic:
            marks.append("AIC")
        if r["spec"] == best_pic:
            marks.append("PIC")
        if r["error"] is not None:
            print(f"{r['spec']:<40} {'--':>3} {'--':>14} {'--':>14} {'--':>14}  failed: {r['error']}")
        else:
            print(
                f"{r['spec']:<40} {r['K']:>3} {r['log_pl']:>14.2f} {r['aic']:>14.2f} "
                f"{r['pic']:>14.2f}  {'*'.join(marks)}"
            )

    if conf["out"]:
        with open(conf["out"], "w", encoding="utf-8") as fh:
            fh.write("spec,K,log_pl,aic,pic,best_aic,best_pic,error\n")
            for r in rows:
                fh.write(
                    ",".join(
                        [
                            r["spec"],
                            "" if r["K"] is None else str(r["K"]),
                            "" if r["log_pl"] is None else repr(r["log_pl"]),
                            "" if r["aic"] is None else repr(r["aic"]),
                            "" if r["pic"] is None else repr(r["pic"]),
                            str(r["spec"] == best_aic),
                            str(r["spec"] == best_pic),
                            "" if r["error"] is None else json.dumps(r["error"]),
                        ]
                    )
                    + "\n"
                )
    return EXIT_OK


# ---------------------------------------------------------------------------
# benchmark


def _model_params(model: dict):
    """The classical parameters of a manifest's ``model`` entry."""
    kind = model.get("kind")
    if kind == "ar":
        return gaussian.ClassicalARParams(phi=model["phi"], sigma2=model["sigma2"])
    if kind == "var":
        return gaussian.ClassicalVARParams(A=model["A"], Sigma=model["Sigma"])
    raise MimmError(f"unknown model kind {kind!r}")


def _true_theta(params) -> np.ndarray:
    if isinstance(params, gaussian.ClassicalARParams):
        return np.asarray(gaussian.ard_to_mininfo(params).theta)
    if params.order != 1:
        raise MimmError("benchmark truth supports VAR order 1 only")
    return gaussian.var1_to_mininfo(params).Theta.reshape(-1, order="F")


def _model_spec(params) -> core.DependenceSpec:
    if isinstance(params, gaussian.ClassicalARParams):
        return core.ar_spec(params.order)
    return core.kron_spec(params.dim, [(lag + 1, 1, 1) for lag in range(params.order)])


# per-stage seconds of the fit results (``PleResult.stages`` for the pair
# fitters, ``McleResult.stages`` for mcle), reported per cell as medians
_STAGE_COLUMNS = ("pairs_s", "solver_s", "log_pl_s", "sampler_s", "diagnostics_s", "solve_s")


def _stage_medians(stages: list[dict], ok: bool) -> dict[str, str | float]:
    """Median seconds of each stage over a cell's completed runs: "" for a
    stage the estimator does not have (all of them for mle) or when no run
    completed, "--" when the cell stopped after some did."""
    out: dict[str, str | float] = {}
    for name in _STAGE_COLUMNS:
        if not stages or name not in stages[0]:
            out[name] = ""
        else:
            out[name] = float(np.median([s[name] for s in stages])) if ok else "--"
    return out


def cmd_benchmark(args: argparse.Namespace) -> int:
    conf = _merge_config(args)
    if conf["manifest"] is None or conf["out"] is None:
        raise MimmError("benchmark requires --manifest and --out")
    with open(conf["manifest"], "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    base_seed = conf["seed"] if conf["seed"] is not None else manifest.get("seed", 0)
    default_reps = manifest.get("repetitions", 30)
    default_limit = manifest.get("time_limit_s", 900.0)
    cells = manifest.get("cells", [])
    if not cells:
        raise MimmError("manifest has no cells")
    _check_time_limit(conf["time_limit_s"], "--time-limit-s")
    _check_time_limit(default_limit, "manifest time_limit_s")
    for cell_idx, cell in enumerate(cells):
        _check_time_limit(cell.get("time_limit_s"), f"cell {cell_idx} time_limit_s")

    rows = []
    for cell_idx, cell in enumerate(cells):
        reps = conf["reps"] if conf["reps"] is not None else cell.get("repetitions", default_reps)
        if reps < 1:
            raise MimmError(f"cell {cell_idx}: repetitions must be >= 1")
        limit = (
            conf["time_limit_s"]
            if conf["time_limit_s"] is not None
            else cell.get("time_limit_s", default_limit)
        )
        params = _model_params(cell["model"])
        n = cell["n"]
        label = cell.get("label", f"cell{cell_idx}")
        theta_star = _true_theta(params)
        spec = _model_spec(params)
        options = cell.get("estimator_options", {})
        for estimator in cell["estimators"]:
            opts = dict(options.get(estimator, {}))
            errors, times, stages = [], [], []
            status = "ok"
            for rep in range(reps):
                seq = np.random.SeedSequence((base_seed, cell_idx, rep))
                data_seed, est_seed = seq.spawn(2)
                series = _simulate(params, n, seed=data_seed)
                t0 = time.perf_counter()
                try:
                    theta, _, fit = _run_estimator(
                        estimator, series, spec, opts, est_seed.generate_state(1)[0]
                    )
                except (MimmError, np.linalg.LinAlgError, FloatingPointError) as err:
                    # numerical and data failures become a row; programming
                    # errors propagate
                    status = f"failed: {err}"
                    break
                elapsed = time.perf_counter() - t0
                if elapsed > limit:
                    status = "timeout"
                    break
                errors.append(float(np.linalg.norm(np.atleast_1d(theta) - theta_star)))
                times.append(elapsed)
                if fit is not None and fit.stages is not None:
                    stages.append(fit.stages)
            ok = status == "ok"
            rows.append(
                {
                    "label": label,
                    "estimator": estimator,
                    "n": n,
                    "reps": len(errors),  # all of them when ok
                    "mean_error": float(np.mean(errors)) if ok else "--",
                    "mean_time_s": float(np.mean(times)) if ok else "--",
                    "status": status,
                    **_stage_medians(stages, ok),
                }
            )

    csv_path = str(conf["out"]) + ".csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["label,estimator,n,reps,mean_error,mean_time_s,status", *_STAGE_COLUMNS]) + "\n")
        for r in rows:
            fh.write(
                f"{r['label']},{r['estimator']},{r['n']},{r['reps']},"
                f"{r['mean_error']},{r['mean_time_s']},{json.dumps(r['status'])},"
                + ",".join(str(r[name]) for name in _STAGE_COLUMNS)
                + "\n"
            )

    def cell(value):
        return value if isinstance(value, str) else f"{value:.4g}"

    head = f"{'label':<24} {'estimator':<16} {'n':>8} {'reps':>5} {'mean_error':>12} {'mean_time_s':>12}"
    head += "".join(f" {name:>13}" for name in _STAGE_COLUMNS)
    table = head + "\n" + "-" * len(head) + "\n"
    for r in rows:
        table += (
            f"{r['label']:<24} {r['estimator']:<16} {r['n']:>8} {r['reps']:>5}"
            f" {cell(r['mean_error']):>12} {cell(r['mean_time_s']):>12}"
            + "".join(f" {cell(r[name]):>13}" for name in _STAGE_COLUMNS).rstrip()
            + "\n"
        )
    with open(str(conf["out"]) + ".txt", "w", encoding="utf-8") as fh:
        fh.write(table)
    print(table, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


def _check_transform_anchors() -> CheckResult:
    worst = 0.0
    mi = gaussian.ar1_to_mininfo(gaussian.ClassicalARParams([0.5], 0.5))
    worst = max(worst, abs(mi.theta[0] - 1.0))
    mi2 = gaussian.ar2_to_mininfo(gaussian.ClassicalARParams([0.5, 0.3], 0.5))
    worst = max(worst, abs(mi2.theta[0] - 0.7), abs(mi2.theta[1] - 0.6))
    mi3 = gaussian.ard_to_mininfo(gaussian.ClassicalARParams([0.5, 0.3, 0.1], 0.5))
    worst = max(worst, float(np.abs(mi3.theta - [0.64, 0.5, 0.2]).max()))
    A = np.array([[0.5, 0.1], [0.1, 0.5]])
    miv = gaussian.var1_to_mininfo(gaussian.ClassicalVARParams(A=A[None], Sigma=0.5 * np.eye(2)))
    worst = max(worst, float(np.abs(miv.Theta - [[1.0, 0.2], [0.2, 1.0]]).max()))
    return CheckResult("transform_anchor_values", worst < 1e-15, worst, 1e-15)


def _check_roundtrips():
    rng = np.random.default_rng(20240501)
    worst1 = worst2 = worstv = worstr = 0.0
    for _ in range(100):
        phi = rng.uniform(-0.95, 0.95)
        s2 = rng.uniform(0.05, 4.0)
        p = gaussian.ClassicalARParams([phi], s2)
        b = gaussian.mininfo_to_ar1(gaussian.ar1_to_mininfo(p))
        worst1 = max(worst1, abs(b.phi[0] - phi), abs(b.sigma2 - s2))
    for _ in range(100):
        while True:
            f1 = rng.uniform(-1.9, 1.9)
            f2 = rng.uniform(-0.95, 0.95)
            if 1 + f2 > 0.02 and 1 - f1 - f2 > 0.02 and 1 + f1 - f2 > 0.02:
                break
        s2 = rng.uniform(0.05, 4.0)
        p = gaussian.ClassicalARParams([f1, f2], s2)
        b = gaussian.mininfo_to_ar2(gaussian.ar2_to_mininfo(p))
        worst2 = max(worst2, float(np.abs(b.phi - [f1, f2]).max()), abs(b.sigma2 - s2))
    for _ in range(100):
        pdim = int(rng.integers(2, 4))
        W = rng.standard_normal((pdim, pdim))
        A = W * (rng.uniform(0.2, 0.92) / max(1e-12, np.max(np.abs(np.linalg.eigvals(W)))))
        Z = rng.standard_normal((pdim, pdim))
        Sig = Z @ Z.T / pdim + 0.1 * np.eye(pdim)
        p = gaussian.ClassicalVARParams(A=A[None], Sigma=Sig)
        mi = gaussian.var1_to_mininfo(p)
        b = gaussian.mininfo_to_var1(mi)
        worstv = max(worstv, float(np.abs(b.A[0] - A).max()), float(np.abs(b.Sigma - Sig).max()))
        resid = np.linalg.norm(mi.B - b.A[0] @ mi.B @ b.A[0].T - b.Sigma, "fro")
        worstr = max(worstr, resid / np.linalg.norm(mi.B, "fro"))
    worstd = 0.0
    for _ in range(30):
        # AR(d), d = 3-8, whose characteristic roots have modulus in [1.05, 5]
        d = int(rng.integers(3, 9))
        radius = 1.0 / rng.uniform(1.05, 5.0, size=(d + 1) // 2)
        pairs = radius[: d // 2] * np.exp(1j * rng.uniform(0.0, np.pi, size=d // 2))
        poles = np.concatenate([pairs, pairs.conj(), radius[d // 2 :] * rng.choice([-1.0, 1.0])])
        p = gaussian.ClassicalARParams(-np.poly(poles).real[1:], rng.uniform(0.05, 4.0))
        b = gaussian.mininfo_to_ard(gaussian.ard_to_mininfo(p))
        worstd = max(worstd, float(np.abs(b.phi - p.phi).max()), abs(b.sigma2 - p.sigma2))
    yield CheckResult("roundtrip_ar1", worst1 < 1e-10, worst1, 1e-10)
    yield CheckResult("roundtrip_ar2", worst2 < 1e-10, worst2, 1e-10)
    yield CheckResult("roundtrip_ard", worstd < 1e-9, worstd, 1e-9, detail="d = 3-8")
    yield CheckResult("roundtrip_var1", worstv < 1e-10, worstv, 1e-10)
    yield CheckResult("riccati_residual", worstr < 1e-8, worstr, 1e-8)


def _check_fisher():
    worst = 0.0
    worst_off = 0.0
    for th in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for t2 in (0.25, 2.0 / 3.0, 1.0, 4.0):
            closed = gaussian.ar1_fisher_info(th, t2)
            numeric = oracle.ar1_fisher_info_numeric(th, t2)
            worst = max(worst, float(np.abs(closed - numeric).max()))
            worst_off = max(worst_off, abs(numeric[0, 1]), abs(closed[0, 1]))
    yield CheckResult("fisher_info_quadrature", worst < 1e-6, worst, 1e-6)
    yield CheckResult("fisher_orthogonality", worst_off < 1e-6, worst_off, 1e-6)


def _check_pythagorean() -> CheckResult:
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        th = rng.uniform(-2, 2)
        t2 = rng.uniform(0.2, 3.0)
        phw = rng.uniform(-0.95, 0.95)
        decay = abs(th) + float(np.exp(rng.uniform(-1, 2)))
        wstar = gaussian.kernel_from_ar1(
            gaussian.mininfo_to_ar1(gaussian.MinInfoARParams([th], t2))
        )
        w = gaussian.GaussianKernel([[phw]], [[t2 * (1 - phw**2)]], [[t2]])
        v = gaussian.dependence_kernel(th, decay).as_gaussian()
        gap = (
            gaussian.divergence_rate(w, wstar)
            + gaussian.divergence_rate(wstar, v)
            - gaussian.divergence_rate(w, v)
        )
        worst = max(worst, abs(gap))
    return CheckResult("pythagorean_identity", worst < 1e-8, worst, 1e-8)


def _check_divergence_nonneg() -> CheckResult:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        phi_p, phi_q = rng.uniform(-0.9, 0.9, size=2)
        s_p, s_q = rng.uniform(0.1, 2.0, size=2)
        p = gaussian.kernel_from_ar1(gaussian.ClassicalARParams([phi_p], s_p))
        q = gaussian.kernel_from_ar1(gaussian.ClassicalARParams([phi_q], s_q), stationary=False)
        worst = min(worst, gaussian.divergence_rate(p, q))
    self_div = gaussian.divergence_rate(p, p)
    ok = worst >= -1e-12 and abs(self_div) < 1e-12
    return CheckResult("divergence_nonnegative", ok, min(worst, -abs(self_div)), -1e-12)


def _check_swap_recompute() -> CheckResult:
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(60):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2 * d + 2, 2 * d + 14))
        data = rng.standard_normal(n)
        series = core.TimeSeries(data)
        spec = core.ar_spec(d)
        interior = list(range(d, n - d))
        s1, s2 = sorted(rng.choice(interior, size=2, replace=False))
        delta = core.swap_delta(spec, series, int(s1), int(s2))
        order = np.arange(n)
        order[[s1, s2]] = order[[s2, s1]]
        brute = core.total_statistic(spec, core.TimeSeries(data[order])) - core.total_statistic(
            spec, series
        )
        worst = max(worst, float(np.abs(delta - brute).max()))
    return CheckResult("swap_delta_recompute", worst < 1e-12, worst, 1e-12)


def _check_swap_deltas_batch() -> CheckResult:
    """Batched swap deltas (factored far pairs, direct near pairs) against
    the scalar window re-evaluation on a binary/real kron spec."""
    rng = np.random.default_rng(4)
    spec = core.kron_spec(2, [(1, 1, 1), (2, 2, 1), (2, 1, 2)])
    n = 40
    data = np.column_stack([rng.integers(0, 2, size=n), rng.standard_normal(n)])
    series = core.TimeSeries(data, kinds=("binary", "real"))
    d = spec.order
    s1 = np.arange(d, n - d - 1)
    gaps = rng.integers(1, 2 * d + 3, size=len(s1))  # near (<= d) and far
    s2 = np.minimum(s1 + gaps, n - d - 1)
    scalar = np.array([core.swap_delta(spec, series, int(a), int(b)) for a, b in zip(s1, s2)])
    worst = 0.0
    # every pair (tables over the whole span) and a sparse subset (tables
    # at the touched positions only)
    for rows in (slice(None), slice(None, None, 7)):
        batch = core.swap_deltas(spec, series, s1[rows], s2[rows])
        err = np.abs(batch - scalar[rows]) / (1.0 + np.abs(scalar[rows]))
        worst = max(worst, float(err.max()))
    return CheckResult("swap_deltas_batch", worst < 1e-12, worst, 1e-12)


def _check_all_pairs_design() -> CheckResult:
    """The all-pairs design built by row tiles (``fit_naive``'s block
    builder) against the scalar window re-evaluation on a binary/real kron
    spec with d = 2, over more than three tiles and in two row ranges."""
    rng = np.random.default_rng(15)
    spec = core.kron_spec(2, [(1, 1, 1), (2, 2, 1), (2, 1, 2)])
    d = spec.order
    n = 3 * core._PAIR_TILE_ROWS + 2 * d + 8
    data = np.column_stack([rng.integers(0, 2, size=n), rng.standard_normal(n)])
    series = core.TimeSeries(data, kinds=("binary", "real"))
    hi = n - d
    mid = d + core._PAIR_TILE_ROWS + 3
    design = np.concatenate(
        [core._all_pairs_deltas(spec, series, d, mid), core._all_pairs_deltas(spec, series, mid, hi - 1)]
    )
    pairs = [(a, b) for a in range(d, hi - 1) for b in range(a + 1, hi)]
    worst = 0.0
    for row, (a, b) in zip(design, pairs):
        scalar = core.swap_delta(spec, series, a, b)
        worst = max(worst, float((np.abs(row - scalar) / (1.0 + np.abs(scalar))).max()))
    ok = len(design) == len(pairs) and worst < 1e-12
    return CheckResult("all_pairs_design", ok, worst, 1e-12)


def _exchange_step_cases(rng):
    """AR(2) on real data and a binary/real kron spec with d = 2, n = 40,
    each under a random interior permutation (position -> data index)."""
    n = 40
    mixed = np.column_stack([rng.integers(0, 2, size=n), rng.standard_normal(n)])
    cases = (
        (core.ar_spec(2), core.TimeSeries(rng.standard_normal(n))),
        (
            core.kron_spec(2, [(1, 1, 1), (2, 2, 1), (2, 1, 2)]),
            core.TimeSeries(mixed, kinds=("binary", "real")),
        ),
    )
    for spec, series in cases:
        d = spec.order
        order = np.concatenate([np.arange(d), d + rng.permutation(n - 2 * d), np.arange(n - d, n)])
        yield spec, series, order, mcle._chain_columns(spec, series.data[order])


def _check_exchange_step_factored() -> CheckResult:
    """The exchange sampler's compiled far-pair step (the ``far_step`` of
    :func:`mcle._exchange_kernel`, generated from the lines the chain runs)
    on the column lists of a permuted ordering against the scalar window
    re-evaluation, on AR(2) and on a binary/real kron spec."""
    rng = np.random.default_rng(9)
    worst = 0.0
    for spec, series, order, columns in _exchange_step_cases(rng):
        n, d = series.n, spec.order
        far_step = mcle._exchange_kernel(spec).far_step
        keys = [k for k, _, _ in spec._table.groups]
        for _ in range(30):
            s1 = int(rng.integers(d, n - 2 * d - 1))
            s2 = int(rng.integers(s1 + d + 1, n - d))
            factored = np.zeros(spec.n_terms)
            np.add.at(factored, keys, far_step(columns, s1, s2))
            scalar = core.swap_delta(spec, series, s1, s2, order=order)
            err = np.abs(factored - scalar) / (1.0 + np.abs(scalar))
            worst = max(worst, float(err.max()))
    return CheckResult("exchange_step_factored", worst < 1e-12, worst, 1e-12)


def _check_exchange_step_near() -> CheckResult:
    """The exchange sampler's compiled near-pair step (the ``near_step`` of
    :func:`mcle._exchange_kernel`) against the scalar window re-evaluation
    under a permuted ordering, for every gap 1 .. d on AR(2) and a
    binary/real kron spec.  It unrolls that path, so it must match bitwise:
    the value is the number of pairs that differ."""
    rng = np.random.default_rng(16)
    mismatches = 0
    for spec, series, order, columns in _exchange_step_cases(rng):
        n, d = series.n, spec.order
        near_step = mcle._exchange_kernel(spec).near_step
        for gap in range(1, d + 1):
            for s1 in rng.choice(np.arange(d, n - d - gap), size=10, replace=False).tolist():
                scalar = core.swap_delta(spec, series, s1, s1 + gap, order=order)
                mismatches += np.array(near_step(columns, s1, s1 + gap)).tobytes() != scalar.tobytes()
    return CheckResult("exchange_step_near", mismatches == 0, float(mismatches), 0.0)


def _check_multilinearity() -> CheckResult:
    rng = np.random.default_rng(5)
    spec = core.DependenceSpec(
        2,
        2,
        (
            core.MonomialTerm(((0, 0, 1), (1, 1, 2))),
            core.MonomialTerm(((0, 1, 1), (2, 0, 1))),
            core.MonomialTerm(((0, 0, 2), (1, 0, 1), (2, 1, 1))),
        ),
    )
    worst = 0.0
    for _ in range(40):
        win = rng.standard_normal((3, 2))
        c = float(np.exp(rng.uniform(-1.5, 1.5)))
        lag, comp = int(rng.integers(0, 3)), int(rng.integers(0, 2))
        scaled = win.copy()
        scaled[lag, comp] *= c
        base = spec.evaluate(win)
        new = spec.evaluate(scaled)
        for k, term in enumerate(spec.terms):
            exp = next((e for (l, cmp_, e) in term.factors if l == lag and cmp_ == comp), 0)
            worst = max(worst, abs(new[k] - base[k] * c**exp))
    return CheckResult("eval_multilinearity", worst < 1e-12, worst, 1e-12)


def _check_reversal() -> CheckResult:
    rng = np.random.default_rng(6)
    spec = core.ar_spec(1)
    worst = 0.0
    for _ in range(20):
        data = rng.standard_normal(int(rng.integers(5, 40)))
        h_fwd = core.total_statistic(spec, core.TimeSeries(data))
        h_rev = core.total_statistic(spec, core.TimeSeries(data[::-1]))
        worst = max(worst, float(np.abs(h_fwd - h_rev).max()))
    return CheckResult("statistic_reversal_invariance", worst < 1e-12, worst, 1e-12)


def _check_remainder_invariance() -> CheckResult:
    phi, s2 = 0.5, 0.5
    params = gaussian.ClassicalARParams([phi], s2)
    mi = gaussian.ar1_to_mininfo(params)
    series = gaussian.simulate_ar(params, 9, seed=13)
    base = series.data[:, 0]
    spec = core.ar_spec(1)

    def joint_logpdf(x):
        ll = -0.5 * (math.log(2 * math.pi * mi.tau2) + x[0] ** 2 / mi.tau2)
        for t in range(1, len(x)):
            ll += -0.5 * (math.log(2 * math.pi * s2) + (x[t] - phi * x[t - 1]) ** 2 / s2)
        return ll

    vals = []
    for perm in itertools.permutations(range(1, 8)):
        order = np.concatenate([[0], perm, [8]])
        x = base[order]
        h = core.total_statistic(spec, core.TimeSeries(x))
        vals.append(joint_logpdf(x) - mi.theta[0] * h[0])
    spread = float(np.max(vals) - np.min(vals))
    return CheckResult("permutation_invariant_remainder", spread < 1e-8, spread, 1e-8)


def _check_conditional_normalization() -> CheckResult:
    spec = core.ar_spec(1)
    series = gaussian.simulate_ar(gaussian.ClassicalARParams([0.5], 0.5), 8, seed=5)
    stats = oracle.permutation_statistics(spec, series)
    worst = 0.0
    for th in (-1.0, 0.0, 0.7, 2.0):
        logits = stats @ np.array([th])
        total = float(np.exp(logits - logits.max()).sum())
        probs = np.exp(logits - logits.max()) / total
        worst = max(worst, abs(probs.sum() - 1.0))
    return CheckResult("conditional_law_normalization", worst < 1e-12, worst, 1e-12)


def _check_detailed_balance() -> CheckResult:
    rng = np.random.default_rng(8)
    spec = core.ar_spec(2)
    data = rng.standard_normal(20)
    series = core.TimeSeries(data)
    theta = rng.standard_normal(2)
    worst = 0.0
    for _ in range(20):
        s1, s2 = sorted(rng.choice(range(2, 18), size=2, replace=False))
        fwd = core.swap_delta(spec, series, int(s1), int(s2))
        order = list(range(20))
        order[s1], order[s2] = order[s2], order[s1]
        rev = core.swap_delta(spec, series, int(s1), int(s2), order=order)
        worst = max(
            worst,
            abs(mcle.log_ratio_swap(theta, fwd) + mcle.log_ratio_swap(theta, rev)),
        )
    return CheckResult("detailed_balance_log_ratio", worst == 0.0, worst, 0.0)


def _check_zero_theta_acceptance() -> CheckResult:
    spec = core.ar_spec(1)
    series = gaussian.simulate_ar(gaussian.ClassicalARParams([0.5], 0.5), 60, seed=2)
    res = mcle.exchange_sample(
        spec, series, [0.0], mcle.ExchangeConfig(n_samples=2000, seed=4)
    )
    gap = abs(res.acceptance_rate - 1.0)
    return CheckResult("zero_theta_acceptance", gap == 0.0, gap, 0.0)


def _check_score_zero_mean() -> CheckResult:
    spec = core.ar_spec(1)
    series = gaussian.simulate_ar(gaussian.ClassicalARParams([0.5], 0.5), 8, seed=19)
    stats = oracle.permutation_statistics(spec, series)
    theta = np.array([1.0])
    logits = stats @ theta
    w = np.exp(logits - logits.max())
    w /= w.sum()
    mu = w @ stats
    mean_score = float(np.abs(w @ (stats - mu)).max())
    return CheckResult("score_zero_mean_at_truth", mean_score < 1e-12, mean_score, 1e-12)


def _check_enumeration_equivalence() -> CheckResult:
    spec = core.ar_spec(1)
    series = gaussian.simulate_ar(gaussian.ClassicalARParams([0.5], 0.5), 8, seed=5)
    stats = oracle.permutation_statistics(spec, series)
    th_cle = oracle.exact_cle(spec, series)
    fit = mcle.fisher_scoring(
        spec,
        series,
        scoring_config=mcle.ScoringConfig(max_iters=200, grad_tol=1e-9),
        moment_fn=lambda th: oracle.enumeration_moments(spec, series, th, stats=stats),
    )
    gap = float(np.abs(fit.theta - th_cle).max())
    return CheckResult("enumeration_equivalence", gap < 1e-3, gap, 1e-3)


def _check_logpl_zero() -> CheckResult:
    rng = np.random.default_rng(10)
    spec = core.ar_spec(1)
    series = core.TimeSeries(rng.standard_normal(40))
    s1, s2 = np.array([(a, b) for a in range(1, 6) for b in range(a + 1, 10)]).T
    pairs = -core.swap_deltas(spec, series, s1, s2)
    value = ple.log_pl(np.zeros(1), pairs)
    gap = abs(value - len(pairs) * math.log(0.5))
    return CheckResult("logpl_zero_value", gap < 1e-12, gap, 1e-12)


def _check_logpl_gradient() -> CheckResult:
    """Central differences of log_pl against the gradient of the Newton
    pass the fitters use."""
    rng = np.random.default_rng(12)
    X = rng.standard_normal((50, 3))
    theta = rng.standard_normal(3)
    grad, _ = ple._newton_pass(lambda: (X,), theta)
    worst = 0.0
    for k in range(3):
        h = 1e-6 * (1 + abs(theta[k]))
        up, dn = theta.copy(), theta.copy()
        up[k] += h
        dn[k] -= h
        fd = (ple.log_pl(up, X) - ple.log_pl(dn, X)) / (2 * h)
        worst = max(worst, abs(fd - grad[k]) / max(1.0, abs(grad[k])))
    return CheckResult("logpl_gradient_fd", worst < 1e-6, worst, 1e-6)


def _check_logistic_pass_blocked() -> CheckResult:
    """The sliced Newton pass and log-PL over a pair matrix of three slices,
    cut into two blocks, against the single-shot expit / logaddexp formulas;
    sums are compared relative to the largest value they could take."""
    rng = np.random.default_rng(16)
    X = rng.standard_normal((2 * ple._SLICE_ROWS + 3, 3))
    theta = rng.standard_normal(3)
    theta *= 60.0 / np.abs(X @ theta).max()  # margins up to +-60
    margins = X @ theta
    grad, info = ple._newton_pass(lambda: (X[:1000], X[1000:]), theta)
    p = expit(margins)
    q = 1.0 - p
    A = np.abs(X)
    ref = -np.logaddexp(0.0, -margins).sum()
    worst = max(
        float((np.abs(grad - q @ X) / A.sum(axis=0)).max()),
        float((np.abs(info - (X.T * (p * q)) @ X) / (A.T @ A)).max()),
        abs(ple.log_pl(theta, X) - ref) / abs(ref),
    )
    return CheckResult("logistic_pass_blocked", worst < 1e-12, worst, 1e-12)


def _check_pair_sign() -> CheckResult:
    """The fitters' pair matrix holds minus the swap delta of each pair."""
    rng = np.random.default_rng(14)
    spec = core.ar_spec(2)
    series = core.TimeSeries(rng.standard_normal(30))
    s1, s2 = np.sort([rng.choice(range(2, 28), size=2, replace=False) for _ in range(20)]).T
    (X,) = ple._PairBlocks(lambda: (core.swap_deltas(spec, series, s1, s2),), len(s1), spec.n_terms)()
    worst = max(
        float(np.abs(x + core.swap_delta(spec, series, int(a), int(b))).max())
        for x, a, b in zip(X, s1, s2)
    )
    return CheckResult("pair_statistic_sign", worst < 1e-12, worst, 1e-12)


def _check_monotone_ascent() -> CheckResult:
    series = gaussian.simulate_ar(gaussian.ClassicalARParams([0.5], 0.5), 120, seed=15)
    fit = ple.fit_naive(
        core.ar_spec(1),
        series,
        ple.GdConfig(track_objective=True),
    )
    diffs = np.diff(np.asarray(fit.objective_trace))
    worst = float(diffs.min()) if len(diffs) else 0.0
    return CheckResult("objective_monotone_ascent", worst >= -1e-12, worst, -1e-12)


def _check_consistency_ordering() -> CheckResult:
    # reduced desk-scale version of the error-vs-n trend (5 seeds per size)
    spec = core.ar_spec(1)
    params = gaussian.ClassicalARParams([0.5], 0.5)
    means = []
    for n in (100, 400, 1600):
        errs = []
        for s in range(5):
            series = gaussian.simulate_ar(params, n, seed=500 + s)
            fit = ple.fit_naive(spec, series)
            errs.append(abs(float(fit.theta[0]) - 1.0))
        means.append(float(np.mean(errs)))
    ok = means[0] > means[1] > means[2]
    return CheckResult(
        "estimator_consistency_ordering",
        ok,
        means[-1] - means[0],
        0.0,
        detail=f"mean errors {[round(m, 4) for m in means]} for n in (100, 400, 1600)",
    )


def run_verify_checks():
    yield _check_transform_anchors()
    yield from _check_roundtrips()
    yield from _check_fisher()
    yield _check_pythagorean()
    yield _check_divergence_nonneg()
    yield _check_swap_recompute()
    yield _check_swap_deltas_batch()
    yield _check_all_pairs_design()
    yield _check_exchange_step_factored()
    yield _check_exchange_step_near()
    yield _check_multilinearity()
    yield _check_reversal()
    yield _check_remainder_invariance()
    yield _check_conditional_normalization()
    yield _check_detailed_balance()
    yield _check_zero_theta_acceptance()
    yield _check_score_zero_mean()
    yield _check_enumeration_equivalence()
    yield _check_logpl_zero()
    yield _check_logpl_gradient()
    yield _check_logistic_pass_blocked()
    yield _check_pair_sign()
    yield _check_monotone_ascent()
    yield _check_consistency_ordering()


def cmd_verify(args: argparse.Namespace) -> int:
    conf = _merge_config(args)
    results = []
    failed = 0
    for check in run_verify_checks():
        results.append(check)
        tag = "PASS" if check.passed else "FAIL"
        if not check.passed:
            failed += 1
        line = f"[{tag}] {check.name:<32} measured={check.measured:.3e} tol={check.tolerance:.1e}"
        if check.detail:
            line += f"  ({check.detail})"
        print(line)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    if conf["out"]:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "verify",
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "measured": c.measured,
                    "tolerance": c.tolerance,
                    "detail": c.detail,
                }
                for c in results
            ],
        }
        _write_json(conf["out"], payload)
    return EXIT_OK if failed == 0 else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimm",
        description=(
            "Minimum information Markov models: simulate Gaussian AR/VAR data, "
            "estimate dependence weights (OLS reference, exchange-MCMC "
            "conditional likelihood, pseudo-likelihood variants), select "
            "dependence functions by AIC/PIC, and reproduce benchmark tables. "
            "Standard scaling, where used, follows the population (divide by n) "
            "convention."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate an AR/VAR series to CSV")
    sim.add_argument("--config", help="JSON file with option defaults")
    sim.add_argument("--params", help="flat key-value parameter file")
    sim.add_argument("--ar", type=float, nargs="+", help="AR coefficients")
    sim.add_argument("--sigma2", type=float, help="AR noise variance")
    sim.add_argument("--theta", type=float, nargs="+", help="dependence weights (with --tau2)")
    sim.add_argument("--tau2", type=float, help="stationary variance (with --theta)")
    sim.add_argument("--var1", nargs=2, metavar=("A_CSV", "SIGMA_CSV"), help="VAR(1) matrices")
    sim.add_argument("--n", type=int, help="series length")
    sim.add_argument("--burn-in", dest="burn_in", type=int, help="burn-in steps")
    sim.add_argument("--seed", type=int, help="random seed")
    sim.add_argument("--out", help="output CSV path")
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="fit one estimator to a CSV series")
    fit.add_argument("--config", help="JSON file with option defaults")
    fit.add_argument("--data", help="input CSV")
    fit.add_argument("--spec", help="dependence spec file (mcle / ple-*)")
    fit.add_argument("--estimator", choices=ESTIMATORS)
    fit.add_argument("--order", type=int, help="AR order for --estimator mle")
    fit.add_argument("--seed", type=int)
    fit.add_argument("--samples", type=int, help="exchange chain length")
    fit.add_argument("--burn-in", dest="burn_in", type=int)
    fit.add_argument("--thin", type=int)
    fit.add_argument("--max-iters", dest="max_iters", type=int, help="scoring iterations")
    fit.add_argument("--grad-tol", dest="grad_tol", type=float)
    fit.add_argument("--max-epochs", dest="max_epochs", type=int, help="Newton passes (ple-naive / ple-bipartition)")
    fit.add_argument("--tol", type=float, help="stop when the mean gradient norm is at most this")
    fit.add_argument("--eta", type=float, help="online SGD learning rate")
    fit.add_argument("--iters", type=int, help="online SGD iterations")
    fit.add_argument("--time-limit-s", dest="time_limit_s", type=float)
    fit.add_argument("--diagnostics", help="per-iteration CSV (mcle)")
    fit.add_argument("--out", help="result JSON path (default stdout)")
    fit.set_defaults(func=cmd_fit)

    sel = sub.add_parser("select", help="rank dependence specs by AIC/PIC")
    sel.add_argument("--config", help="JSON file with option defaults")
    sel.add_argument("--data", help="input CSV")
    sel.add_argument("--spec", action="append", help="spec file (repeat >= 2 times)")
    splits = inspect.signature(ple.select_specs).parameters["splits"].default
    sel.add_argument("--seed", type=int)
    sel.add_argument("--splits", type=int, help=f"random designs averaged per spec (default {splits})")
    sel.add_argument(
        "--max-epochs",
        dest="max_epochs",
        type=int,
        help=f"Newton passes per fit (default {ple.SELECT_CONFIG.max_epochs})",
    )
    sel.add_argument("--tol", type=float, help=f"mean gradient norm tolerance (default {ple.SELECT_CONFIG.tol:g})")
    sel.add_argument("--out", help="ranked CSV path")
    sel.set_defaults(func=cmd_select)

    ben = sub.add_parser("benchmark", help="run a benchmark manifest")
    ben.add_argument("--config", help="JSON file with option defaults")
    ben.add_argument("--manifest", help="manifest JSON")
    ben.add_argument("--seed", type=int, help="override the manifest seed")
    ben.add_argument("--reps", type=int, help="override repetitions for every cell")
    ben.add_argument(
        "--time-limit-s", dest="time_limit_s", type=float, help="override the per-run time limit"
    )
    ben.add_argument("--out", help="output prefix (.csv and .txt)")
    ben.set_defaults(func=cmd_benchmark)

    ver = sub.add_parser("verify", help="run the invariant verification gate")
    ver.add_argument("--config", help="JSON file with option defaults")
    ver.add_argument("--out", help="machine-readable JSON report path")
    ver.set_defaults(func=cmd_verify)
    for command in sub.choices.values():
        # _merge_config checks config-file values against these
        command.set_defaults(options={action.dest: action for action in command._actions})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_VALIDATION if err.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (NoSolutionFoundError, IllConditionedError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (MimmError, OSError, ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

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
import csv
import dataclasses
import inspect
import json
import math
import sys
import time

import numpy as np

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
    built-in default is None.  A config-file null leaves the option unset.
    A config-file key that names no option of the command, or a value that
    fails the option's type or choices, is an error."""
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
        effective.update((key, value) for key, value in file_conf.items() if value is not None)
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
    """The CSV series at ``path``, with the column kinds of its
    ``.meta.json`` sidecar when there is one: a JSON object whose optional
    ``kinds`` is a list of strings."""
    meta_path = str(path) + ".meta.json"
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        meta = {}
    if not isinstance(meta, dict):
        raise MimmError(f"sidecar {meta_path} must hold a JSON object, got {meta!r}")
    kinds = meta.get("kinds")
    if kinds is not None and not (isinstance(kinds, list) and all(isinstance(k, str) for k in kinds)):
        raise MimmError(f"sidecar {meta_path}: kinds takes a list of strings, got {kinds!r}")
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
    if conf["diagnostics"] is not None and conf["estimator"] != "mcle":
        raise MimmError(f"--diagnostics applies only to --estimator mcle, not {conf['estimator']}")
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

    if conf["diagnostics"] is not None:
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
        with open(conf["out"], "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["spec", "K", "log_pl", "aic", "pic", "best_aic", "best_pic", "error"])
            for r in rows:
                # None (a failed spec's scores, a fitted spec's error) is written empty
                scores = [r[key] for key in ("K", "log_pl", "aic", "pic")]
                writer.writerow([r["spec"], *scores, r["spec"] == best_aic, r["spec"] == best_pic, r["error"]])
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
_STAGE_COLUMNS = ("pairs_s", "solver_s", "log_pl_s", "pilot_s", "sampler_s", "diagnostics_s", "solve_s")


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


# a manifest's top-level defaults, when it does not set them
_MANIFEST_SEED, _MANIFEST_REPETITIONS, _MANIFEST_TIME_LIMIT_S = 0, 30, 900.0


def _check_count(value, source: str, least: int = 1) -> None:
    """A count must be a JSON integer (not a bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise MimmError(f"{source} takes an integer >= {least}, got {value!r}")


def _check_manifest(manifest) -> None:
    """Check a benchmark manifest before any run: a JSON object with a
    non-empty ``cells`` list of objects; ``seed`` an integer >= 0; ``n`` and
    ``repetitions`` integers >= 1; ``model`` and ``estimator_options``
    objects; ``estimators`` a non-empty list of names from ESTIMATORS;
    time limits finite and > 0."""
    if not isinstance(manifest, dict):
        raise MimmError(f"manifest must hold a JSON object, got {manifest!r}")
    cells = manifest.get("cells")
    if not isinstance(cells, list) or not cells:
        raise MimmError(f"manifest has no cells (cells takes a non-empty list, got {cells!r})")
    _check_count(manifest.get("seed", _MANIFEST_SEED), "manifest seed", least=0)
    _check_count(manifest.get("repetitions", _MANIFEST_REPETITIONS), "manifest repetitions")
    _check_time_limit(manifest.get("time_limit_s", _MANIFEST_TIME_LIMIT_S), "manifest time_limit_s")
    for cell_idx, cell in enumerate(cells):
        where = f"cell {cell_idx}"
        if not isinstance(cell, dict):
            raise MimmError(f"{where} must be a JSON object, got {cell!r}")
        _check_count(cell.get("n"), f"{where} n")
        if "repetitions" in cell:
            _check_count(cell["repetitions"], f"{where} repetitions")
        _check_time_limit(cell.get("time_limit_s"), f"{where} time_limit_s")
        if not isinstance(cell.get("model"), dict):
            raise MimmError(f"{where} model must be a JSON object, got {cell.get('model')!r}")
        options = cell.get("estimator_options", {})
        if not isinstance(options, dict) or not all(isinstance(v, dict) for v in options.values()):
            raise MimmError(f"{where} estimator_options must map estimators to JSON objects, got {options!r}")
        estimators = cell.get("estimators")
        if not isinstance(estimators, list) or not estimators or any(e not in ESTIMATORS for e in estimators):
            raise MimmError(
                f"{where} estimators takes a non-empty list of names from "
                f"{', '.join(ESTIMATORS)}, got {estimators!r}"
            )


def cmd_benchmark(args: argparse.Namespace) -> int:
    conf = _merge_config(args)
    if conf["manifest"] is None or conf["out"] is None:
        raise MimmError("benchmark requires --manifest and --out")
    with open(conf["manifest"], "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    _check_manifest(manifest)
    _check_time_limit(conf["time_limit_s"], "--time-limit-s")
    if conf["reps"] is not None:
        _check_count(conf["reps"], "--reps")
    base_seed = conf["seed"] if conf["seed"] is not None else manifest.get("seed", _MANIFEST_SEED)
    default_reps = manifest.get("repetitions", _MANIFEST_REPETITIONS)
    default_limit = manifest.get("time_limit_s", _MANIFEST_TIME_LIMIT_S)
    cells = manifest["cells"]
    models = [_model_params(cell["model"]) for cell in cells]

    rows = []
    for cell_idx, (cell, params) in enumerate(zip(cells, models)):
        reps = conf["reps"] if conf["reps"] is not None else cell.get("repetitions", default_reps)
        limit = (
            conf["time_limit_s"]
            if conf["time_limit_s"] is not None
            else cell.get("time_limit_s", default_limit)
        )
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

    with open(str(conf["out"]) + ".csv", "w", encoding="utf-8", newline="") as fh:
        fields = ["label", "estimator", "n", "reps", "mean_error", "mean_time_s", "status", *_STAGE_COLUMNS]
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

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


def cmd_verify(args: argparse.Namespace) -> int:
    """Run :func:`mimm.verify.run_checks`, print one line per check and
    write the JSON report; exits 3 when any check fails."""
    conf = _merge_config(args)
    # imported here, so that the other commands do not load the checks
    from . import verify

    results = []
    for check in verify.run_checks():
        results.append(check)
        tag = "PASS" if check.passed else "FAIL"
        line = f"[{tag}] {check.name:<32} measured={check.measured:.3e} tol={check.tolerance:.1e}"
        if check.detail:
            line += f"  ({check.detail})"
        print(line)
    failed = sum(not c.passed for c in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    if conf["out"]:
        checks = [dataclasses.asdict(c) for c in results]
        _write_json(conf["out"], {"schema_version": SCHEMA_VERSION, "command": "verify", "checks": checks})
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
            "Fits use the data as given; no command rescales it."
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
    sim.add_argument(
        "--burn-in",
        dest="burn_in",
        type=int,
        help="steps run and discarded before the first row (default 0; every order starts from its stationary law)",
    )
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

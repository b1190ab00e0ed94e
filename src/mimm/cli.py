"""Command-line surface: data simulation, estimator invocation, model
selection, benchmark tables, and the invariant verification gate.

Subcommands: simulate | fit | select | benchmark | verify.
Exit codes: 0 success, 2 validation error, 3 numerical failure, 4 timeout.

Option precedence is flags > config file (--config, JSON) > defaults.
`fit` and `benchmark` resolve every run's inputs before any run (estimator
configs from one table, mle's order, each cell's model and true theta), and
a fit result echoes them.  Every command is deterministic given its inputs.
"""

from __future__ import annotations

import argparse
import collections
import csv
import dataclasses
import functools
import inspect
import json
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

# The options of `fit` that only some estimators read, by estimator, each to
# the (config dataclass, field) it sets, or None when the run reads it as is
_NEWTON = {"max_epochs": (ple.GdConfig, "max_epochs"), "tol": (ple.GdConfig, "tol")}
_ESTIMATOR_OPTIONS = {
    "mle": {"order": None},
    "mcle": {
        "seed": (mcle.ExchangeConfig, "seed"),
        "samples": (mcle.ExchangeConfig, "n_samples"),
        "burn_in": (mcle.ExchangeConfig, "burn_in"),
        "thin": (mcle.ExchangeConfig, "thin"),
        "max_iters": (mcle.ScoringConfig, "max_iters"),
        "grad_tol": (mcle.ScoringConfig, "grad_tol"),
        "diagnostics": None,
    },
    "ple-naive": _NEWTON,
    "ple-bipartition": {"seed": None, **_NEWTON},
    "ple-sgd": {"seed": (ple.SgdConfig, "seed"), "eta": (ple.SgdConfig, "eta"), "iters": (ple.SgdConfig, "n_iters")},
}
ESTIMATORS = tuple(_ESTIMATOR_OPTIONS)
_ESTIMATOR_SPECIFIC = frozenset().union(*_ESTIMATOR_OPTIONS.values())


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
            _check_file_value(f"config file {args.config}", args.options[key], value)
        effective.update((key, value) for key, value in file_conf.items() if value is not None)
    for key in keys:
        flag_val = getattr(args, key)
        if flag_val is not None:
            effective[key] = flag_val
    return effective


def _check_file_value(source: str, action: argparse.Action, value) -> None:
    """The option's own shape, type and choices checks, on a JSON value: an
    option that takes several values (``nargs`` "+", "*" or a count, or
    ``action="append"``) takes a list, of that count if fixed, and any other
    option one value.  An int option takes JSON integers, a float option any
    JSON number and other options strings.  null leaves the option unset."""
    if value is None:
        return
    name = action.option_strings[0]
    many = (
        action.nargs in ("+", "*")
        or isinstance(action.nargs, int)
        or isinstance(action, argparse._AppendAction)
    )
    if isinstance(value, list) != many:
        raise MimmError(f"{source}: {name} takes {'a list' if many else 'one value'}, got {value!r}")
    if isinstance(action.nargs, int) and len(value) != action.nargs:
        raise MimmError(f"{source}: {name} takes {action.nargs} values, got {value!r}")
    kind = action.type or str
    accepted = (int, float) if kind is float else kind
    for item in value if many else [value]:
        if isinstance(item, bool) or not isinstance(item, accepted):
            raise MimmError(f"{source}: {name} takes {kind.__name__} values, got {item!r}")
        if action.choices is not None and item not in action.choices:
            raise MimmError(f"{source}: {name} must be one of {', '.join(action.choices)}, got {item!r}")


def _estimator_configs(estimator: str, conf: dict, who: str, seed=None, spec=None) -> dict:
    """What a run of ``estimator`` reads, from the options set in ``conf``
    (``seed`` if it sets none, and ``spec``'s order if it sets no order):
    its config records by dataclass, unset fields at their defaults, and by
    name the value of each option it reads.  Errors, after ``who``: a set
    option only other estimators read, a refused value, no order for mle."""
    table = _ESTIMATOR_OPTIONS[estimator]
    if "seed" in table and conf.get("seed") is None:
        conf = conf | {"seed": seed}
    if "order" in table and conf.get("order") is None:
        if spec is None:
            raise MimmError(f"{who} requires --order (or a spec to derive it from)")
        conf = conf | {"order": spec.order}
    unread = [key for key in _ESTIMATOR_SPECIFIC - table.keys() if conf.get(key) is not None]
    if unread:
        raise MimmError(f"{who} never reads {', '.join(sorted('--' + key.replace('_', '-') for key in unread))}")
    if conf.get("order") is not None:
        core._check_count(f"{who}: --order", conf["order"])
    given = {dest[0]: {} for dest in table.values() if dest is not None}
    for key, dest in table.items():
        if dest is not None and conf.get(key) is not None:
            given[dest[0]][dest[1]] = conf[key]
    try:
        built = {cls: cls(**fields) for cls, fields in given.items()}
    except ValueError as err:
        raise MimmError(f"{who}: {err}") from err
    built |= {key: conf.get(key) if dest is None else getattr(built[dest[0]], dest[1]) for key, dest in table.items()}
    return built


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


def _run_estimator(estimator, series, spec, configs):
    """Dispatch one estimator run on its :func:`_estimator_configs`; returns
    (theta, extras, fit): a library fit's ``to_dict()`` record and result,
    or for mle, whose oracle returns no fit result, its classical parameters
    and None."""
    if estimator == "mle":
        order = configs["order"]
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
        fit = mcle.fisher_scoring(spec, series, configs[mcle.ExchangeConfig], configs[mcle.ScoringConfig])
    elif estimator == "ple-naive":
        fit = ple.fit_naive(spec, series, configs[ple.GdConfig])
    elif estimator == "ple-bipartition":
        fit = ple.fit_bipartition(spec, series, seed=configs["seed"], config=configs[ple.GdConfig])
    else:
        fit = ple.fit_online_sgd(spec, series, configs[ple.SgdConfig])
    return fit.theta, fit.to_dict(), fit


def cmd_fit(args: argparse.Namespace) -> int:
    conf = _merge_config(args)
    if conf["data"] is None or conf["estimator"] is None:
        raise MimmError("fit requires --data and --estimator")
    spec = None if conf["spec"] is None else core.DependenceSpec.load(conf["spec"])
    configs = _estimator_configs(conf["estimator"], conf, f"--estimator {conf['estimator']}", seed=0, spec=spec)
    if conf["time_limit_s"] is not None:
        core._check_positive("--time-limit-s", conf["time_limit_s"])
    series = _load_series(conf["data"])
    if spec is not None and spec.dim > series.p:
        raise MimmError(f"spec component {spec.dim - 1} out of range for {series.p}-column data")

    start = time.perf_counter()
    theta, extras, fit = _run_estimator(conf["estimator"], series, spec, configs)
    wall = time.perf_counter() - start

    # the shared options but the output path, then the estimator's as they ran
    ran = {key: configs[key] for key in _ESTIMATOR_OPTIONS[conf["estimator"]]}
    result = {
        "schema_version": SCHEMA_VERSION,
        "command": "fit",
        "estimator": conf["estimator"],
        "config": {key: value for key, value in conf.items() if key not in _ESTIMATOR_SPECIFIC | {"out"}} | ran,
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
        head, rows = fit.diagnostics()
        with open(conf["diagnostics"], "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(head)
            writer.writerows(rows)

    _write_json(conf["out"], result)
    if timed_out:
        print(f"fit exceeded the time limit ({wall:.1f}s > {conf['time_limit_s']}s)", file=sys.stderr)
        return EXIT_TIMEOUT
    return EXIT_OK


# ---------------------------------------------------------------------------
# select


def cmd_select(args: argparse.Namespace) -> int:
    """Rank dependence specs by AIC/PIC with :func:`ple.select_specs`, print
    the table and write the ranked CSV, each with the count of a spec's
    split fits that converged.  --seed and --splits are passed on only when
    given, so their defaults are the library's.  When every spec fails, the
    one error line gives each spec's reason."""
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
    newton = {field: conf[key] for key, (_, field) in _ESTIMATOR_OPTIONS["ple-naive"].items() if conf[key] is not None}
    scores = ple.select_specs(series, specs, config=dataclasses.replace(ple.SELECT_CONFIG, **newton), **given)
    rows = [{"spec": str(path), **row._asdict()} for path, row in zip(conf["spec"], scores)]

    ok = [r for r in rows if r["error"] is None]
    if not ok:
        reasons = "; ".join(f"{r['spec']}: {r['error']}" for r in rows)
        raise MimmError(f"every spec failed to fit: {reasons}")
    best_aic = min(ok, key=lambda r: r["aic"])["spec"]
    best_pic = min(ok, key=lambda r: r["pic"])["spec"]

    header = f"{'spec':<40} {'K':>3} {'log_pl':>14} {'aic':>14} {'pic':>14} {'converged':>9}  best"
    print(header)
    print("-" * len(header))
    for r in rows:
        marks = []
        if r["spec"] == best_aic:
            marks.append("AIC")
        if r["spec"] == best_pic:
            marks.append("PIC")
        if r["error"] is not None:
            print(f"{r['spec']:<40} {'--':>3} {'--':>14} {'--':>14} {'--':>14} {'--':>9}  failed: {r['error']}")
        else:
            print(
                f"{r['spec']:<40} {r['K']:>3} {r['log_pl']:>14.2f} {r['aic']:>14.2f} "
                f"{r['pic']:>14.2f} {r['converged']:>9}  {'*'.join(marks)}"
            )

    if conf["out"]:
        with open(conf["out"], "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["spec", "K", "log_pl", "aic", "pic", "converged", "best_aic", "best_pic", "error"])
            for r in rows:
                # None (a failed spec's scores, a fitted spec's error) is written empty
                scores = [r[key] for key in ("K", "log_pl", "aic", "pic", "converged")]
                writer.writerow([r["spec"], *scores, r["spec"] == best_aic, r["spec"] == best_pic, r["error"]])
    return EXIT_OK


# ---------------------------------------------------------------------------
# benchmark


def _model(model: dict):
    """A manifest ``model`` entry's classical parameters, dependence spec and
    true minimum-information weights, which a VAR has at order 1 only
    (:func:`gaussian.var1_to_mininfo` raises ShapeMismatchError otherwise)."""
    kind = model.get("kind")
    if kind == "ar":
        params = gaussian.ClassicalARParams(phi=model["phi"], sigma2=model["sigma2"])
        return params, core.ar_spec(params.order), np.asarray(gaussian.ard_to_mininfo(params).theta)
    if kind == "var":
        params = gaussian.ClassicalVARParams(A=model["A"], Sigma=model["Sigma"])
        spec = core.kron_spec(params.dim, [(lag + 1, 1, 1) for lag in range(params.order)])
        return params, spec, gaussian.var1_to_mininfo(params).Theta.reshape(-1, order="F")
    raise MimmError(f"unknown model kind {kind!r}")


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


# A manifest cell as its runs read it, resolved before any run: the model's
# classical parameters, its spec (which mle takes its order from) and true
# theta, and (estimator, its `fit` options) pairs in the cell's order.
_Cell = collections.namedtuple("_Cell", "label n reps time_limit_s params spec theta estimators")


def _check_manifest(manifest, conf: dict) -> tuple[int, list[_Cell]]:
    """Check a benchmark manifest and the ``conf`` of `benchmark` before any
    run: a JSON object with a non-empty ``cells`` list of objects; the base
    seed (``--seed``, else the manifest's ``seed``, else 0) an integer >= 0;
    ``n`` and ``repetitions`` integers >= 1; ``label`` a string; ``model``
    an object with a true theta (an AR, or a VAR of order 1); ``estimators``
    a non-empty list of names from ESTIMATORS; time limits
    finite and > 0; ``estimator_options`` its estimators' `fit` options.
    Returns the base seed and the cells, with each value taken flag > cell >
    manifest > default; a null time limit is unset."""
    if not isinstance(manifest, dict):
        raise MimmError(f"manifest must hold a JSON object, got {manifest!r}")
    cells = manifest.get("cells")
    if not isinstance(cells, list) or not cells:
        raise MimmError(f"manifest has no cells (cells takes a non-empty list, got {cells!r})")
    if conf["seed"] is None:
        seed, seed_source = manifest.get("seed", _MANIFEST_SEED), "manifest seed"
    else:
        seed, seed_source = conf["seed"], "--seed"
    reps = manifest.get("repetitions", _MANIFEST_REPETITIONS)
    limit = manifest.get("time_limit_s")
    core._check_count(seed_source, seed, least=0)
    core._check_count("manifest repetitions", reps)
    for source, value in (("manifest time_limit_s", limit), ("--time-limit-s", conf["time_limit_s"])):
        if value is not None:
            core._check_positive(source, value)
    limit = limit or _MANIFEST_TIME_LIMIT_S
    if conf["reps"] is not None:
        core._check_count("--reps", conf["reps"])
    fit_actions = build_parser().parse_args(["fit"]).options
    plan = []
    for cell_idx, cell in enumerate(cells):
        where = f"cell {cell_idx}"
        if not isinstance(cell, dict):
            raise MimmError(f"{where} must be a JSON object, got {cell!r}")
        core._check_count(f"{where} n", cell.get("n"))
        if "repetitions" in cell:
            core._check_count(f"{where} repetitions", cell["repetitions"])
        if cell.get("time_limit_s") is not None:
            core._check_positive(f"{where} time_limit_s", cell["time_limit_s"])
        if not isinstance(cell.get("label", ""), str):
            raise MimmError(f"{where} label takes a string, got {cell['label']!r}")
        if not isinstance(cell.get("model"), dict):
            raise MimmError(f"{where} model must be a JSON object, got {cell.get('model')!r}")
        estimators = cell.get("estimators")
        if not isinstance(estimators, list) or not estimators or any(e not in ESTIMATORS for e in estimators):
            raise MimmError(
                f"{where} estimators takes a non-empty list of names from "
                f"{', '.join(ESTIMATORS)}, got {estimators!r}"
            )
        options = cell.get("estimator_options", {})
        if not isinstance(options, dict) or not all(e in estimators and isinstance(v, dict) for e, v in options.items()):
            raise MimmError(f"{where} estimator_options must map its estimators to JSON objects, got {options!r}")
        try:
            params, spec, theta = _model(cell["model"])
        except (MimmError, KeyError, ValueError) as err:
            raise MimmError(f"{where} model: {err}") from err
        runs = tuple((estimator, options.get(estimator, {})) for estimator in estimators)
        for estimator, opts in runs:
            who = f"{where} estimator {estimator}"
            for key, value in opts.items():
                # benchmark derives each run's seed, and writes no diagnostics
                if key not in _ESTIMATOR_SPECIFIC - {"seed", "diagnostics"}:
                    raise MimmError(f"{who} has no option {key!r}")
                _check_file_value(f"{who} option {key}", fit_actions[key], value)
            _estimator_configs(estimator, opts, who, spec=spec)
        # checked above: a set count or time limit is > 0, so `or` skips only None
        cell_reps = conf["reps"] or cell.get("repetitions") or reps
        cell_limit = conf["time_limit_s"] or cell.get("time_limit_s") or limit
        plan.append(_Cell(cell.get("label", f"cell{cell_idx}"), cell["n"], cell_reps, cell_limit, params, spec, theta, runs))
    return seed, plan


def cmd_benchmark(args: argparse.Namespace) -> int:
    conf = _merge_config(args)
    if conf["manifest"] is None or conf["out"] is None:
        raise MimmError("benchmark requires --manifest and --out")
    with open(conf["manifest"], "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    base_seed, cells = _check_manifest(manifest, conf)

    rows = []
    for cell_idx, cell in enumerate(cells):
        for estimator, opts in cell.estimators:
            who = f"cell {cell_idx} estimator {estimator}"
            errors, times, stages = [], [], []
            status = "ok"
            for rep in range(cell.reps):
                seq = np.random.SeedSequence((base_seed, cell_idx, rep))
                data_seed, est_seed = seq.spawn(2)
                series = _simulate(cell.params, cell.n, seed=data_seed)
                configs = _estimator_configs(estimator, opts, who, est_seed.generate_state(1)[0], cell.spec)
                t0 = time.perf_counter()
                try:
                    theta, record, _ = _run_estimator(estimator, series, cell.spec, configs)
                except (MimmError, np.linalg.LinAlgError, FloatingPointError) as err:
                    # numerical and data failures become a row; programming
                    # errors propagate
                    status = f"failed: {err}"
                    break
                elapsed = time.perf_counter() - t0
                if elapsed > cell.time_limit_s:
                    status = "timeout"
                    break
                errors.append(float(np.linalg.norm(np.atleast_1d(theta) - cell.theta)))
                times.append(elapsed)
                if record.get("stages") is not None:
                    stages.append(record["stages"])
            ok = status == "ok"
            rows.append(
                {
                    "label": cell.label,
                    "estimator": estimator,
                    "n": cell.n,
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

    def shown(value):
        return value if isinstance(value, str) else f"{value:.4g}"

    head = f"{'label':<24} {'estimator':<16} {'n':>8} {'reps':>5} {'mean_error':>12} {'mean_time_s':>12}"
    head += "".join(f" {name:>13}" for name in _STAGE_COLUMNS)
    table = head + "\n" + "-" * len(head) + "\n"
    for r in rows:
        table += (
            f"{r['label']:<24} {r['estimator']:<16} {r['n']:>8} {r['reps']:>5}"
            f" {shown(r['mean_error']):>12} {shown(r['mean_time_s']):>12}"
            + "".join(f" {shown(r[name]):>13}" for name in _STAGE_COLUMNS).rstrip()
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `mimm` parser, built once per process: parsing reads it and
    leaves it unchanged."""
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
    fit.add_argument(
        "--time-limit-s", dest="time_limit_s", type=float, help="seconds, compared after the fit (not cut short)"
    )
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

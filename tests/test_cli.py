"""Command-line surface: simulate, fit, select, benchmark, verify."""

import ast
import contextlib
import csv
import dataclasses
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_acceptance import VERIFY_TOLERANCES
from test_core import OVERFLOWING, overflowing_input

from mimm import cli, core, gaussian, ple
from mimm.exceptions import IllConditionedError, NoSolutionFoundError

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def options_cell(estimator, options):
    """A one-estimator AR(1) cell that sets ``options`` for its estimator."""
    cell = {"label": "x", "model": {"kind": "ar", "phi": [0.5], "sigma2": 0.5}, "n": 100, "estimators": [estimator]}
    return {**cell, "estimator_options": {estimator: options}}


def overflow_files(workspace, case):
    """The data and spec files of ``test_core.OVERFLOWING[case]``."""
    series, spec = overflowing_input(case)
    data, spec_path = workspace["tmp"] / f"overflow-{case}.csv", workspace["tmp"] / f"overflow-{case}.spec"
    series.to_csv(data)
    spec.save(spec_path)
    return data, spec_path


def constant_file(workspace):
    """A data file of 50 values 2.0, whose pair statistics are all zero."""
    data = workspace["tmp"] / "constant.csv"
    core.TimeSeries(np.full(50, 2.0)).to_csv(data)
    return data


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    data = tmp / "ar1.csv"
    rc, _ = run_cli(
        "simulate", "--ar", "0.5", "--sigma2", "0.5",
        "--n", "600", "--seed", "7", "--out", str(data),
    )
    assert rc == 0
    spec1 = tmp / "ar1.spec"
    spec1.write_text(core.ar_spec(1).to_text())
    spec2 = tmp / "ar2.spec"
    spec2.write_text(core.ar_spec(2).to_text())
    return {"tmp": tmp, "data": data, "spec1": spec1, "spec2": spec2}


class TestSimulate:
    def test_rerun_is_byte_identical(self, workspace):
        body = workspace["data"].read_text()
        rc, _ = run_cli(
            "simulate", "--ar", "0.5", "--sigma2", "0.5",
            "--n", "600", "--seed", "7", "--out", str(workspace["data"]),
        )
        assert rc == 0
        assert workspace["data"].read_text() == body

    def test_metadata_sidecar(self, workspace):
        meta = json.loads((workspace["tmp"] / "ar1.csv.meta.json").read_text())
        assert meta["n"] == 600 and meta["seed"] == 7
        assert meta["kinds"] == ["real"]

    def test_sidecar_burn_in_is_the_steps_discarded(self, workspace):
        tmp = workspace["tmp"]
        ar3 = ["simulate", "--ar", "0.5", "0.3", "0.1", "--sigma2", "0.5", "--seed", "4"]
        assert run_cli(*ar3, "--n", "80", "--burn-in", "0", "--out", str(tmp / "ar3_long.csv"))[0] == 0
        assert run_cli(*ar3, "--n", "50", "--burn-in", "30", "--out", str(tmp / "ar3_tail.csv"))[0] == 0
        long_meta = json.loads((tmp / "ar3_long.csv.meta.json").read_text())
        meta = json.loads((tmp / "ar3_tail.csv.meta.json").read_text())
        assert long_meta["burn_in"] == 0 and meta["burn_in"] == 30
        long = (tmp / "ar3_long.csv").read_text().splitlines()
        assert (tmp / "ar3_tail.csv").read_text().splitlines() == long[meta["burn_in"]:]

    def test_mininfo_input_matches_classical(self, workspace):
        out = workspace["tmp"] / "mi.csv"
        rc, _ = run_cli(
            "simulate", "--theta", "1", "--tau2", repr(2.0 / 3.0),
            "--n", "600", "--seed", "7", "--out", str(out),
        )
        assert rc == 0
        a = np.loadtxt(workspace["data"], delimiter=",")
        b = np.loadtxt(out, delimiter=",")
        np.testing.assert_allclose(a, b, atol=1e-9)

    @pytest.mark.parametrize(
        "theta, tau2", [([1.5, -0.9, 0.6, 0.4], 50.0), ([0.5], 1e8), ([0.5, 0.2], 1e6)]
    )
    def test_mininfo_input_maps_back(self, workspace, theta, tau2):
        # the last two sit near a unit root (1 - rho about 1e-8 and 4e-7)
        out = workspace["tmp"] / "mi.csv"
        rc, _ = run_cli(
            "simulate", "--theta", *map(str, theta), "--tau2", str(tau2),
            "--n", "200", "--seed", "3", "--out", str(out),
        )
        assert rc == 0
        meta = json.loads((workspace["tmp"] / "mi.csv.meta.json").read_text())
        params = gaussian.params_from_text("\n".join(meta["params"]))
        assert isinstance(params, gaussian.ClassicalARParams) and params.order == len(theta)
        back = gaussian.ard_to_mininfo(params)
        np.testing.assert_allclose(back.theta, theta, rtol=1e-8)
        assert back.tau2 == pytest.approx(tau2, rel=1e-8)

    def test_mininfo_input_beyond_double_precision_exits_2(self, workspace):
        out = workspace["tmp"] / "unreachable.csv"
        rc, _ = run_cli(
            "simulate", "--theta", "0.5", "0.2", "--tau2", "1e12", "--n", "50", "--out", str(out),
        )
        assert rc == cli.EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("theta, tau2", [(["1"], "1e300"), (["1e200", "0.5"], "1e200")])
    def test_mininfo_input_past_the_float_range_exits_2(self, workspace, capsys, theta, tau2):
        # phi rounds to 1 (d = 1), and theta * tau2 overflows (d = 2)
        out = workspace["tmp"] / "unresolved.csv"
        rc, stdout = run_cli("simulate", "--theta", *theta, "--tau2", tau2, "--n", "10", "--out", str(out))
        assert rc == cli.EXIT_VALIDATION and stdout == "" and not out.exists()
        expected = f"no stationary AR resolves tau2 = {float(tau2)} for theta = {np.array(theta, dtype=float)}"
        assert capsys.readouterr().err == f"error: {expected}\n"

    def test_mininfo_input_whose_tau2_squared_overflows_maps_back(self, workspace):
        # theta tau2 = 1, though tau2**2 is past the float range
        out = workspace["tmp"] / "tiny_theta.csv"
        rc, _ = run_cli("simulate", "--theta", "1e-300", "--tau2", "1e300", "--n", "10", "--out", str(out))
        assert rc == cli.EXIT_OK
        meta = json.loads((workspace["tmp"] / "tiny_theta.csv.meta.json").read_text())
        back = gaussian.ard_to_mininfo(gaussian.params_from_text("\n".join(meta["params"])))
        assert back.theta[0] == pytest.approx(1e-300, rel=1e-10)
        assert back.tau2 == pytest.approx(1e300, rel=1e-10)

    def test_var1_writes_two_columns(self, workspace):
        a_csv = workspace["tmp"] / "A.csv"
        s_csv = workspace["tmp"] / "Sigma.csv"
        a_csv.write_text("0.5,0.1\n0.1,0.5\n")
        s_csv.write_text("0.5,0.0\n0.0,0.5\n")
        out = workspace["tmp"] / "var.csv"
        rc, _ = run_cli("simulate", "--var1", str(a_csv), str(s_csv), "--n", "50", "--out", str(out))
        assert rc == 0
        assert np.loadtxt(out, delimiter=",").shape == (50, 2)

    def test_nonstationary_params_exit_validation(self, workspace):
        rc, _ = run_cli(
            "simulate", "--ar", "1.2", "--sigma2", "1.0",
            "--n", "10", "--out", str(workspace["tmp"] / "x.csv"),
        )
        assert rc == cli.EXIT_VALIDATION

    def test_params_file_input(self, workspace):
        pfile = workspace["tmp"] / "params.txt"
        pfile.write_text(gaussian.params_to_text(gaussian.ClassicalARParams([0.4], 1.0)))
        out = workspace["tmp"] / "fromfile.csv"
        rc, _ = run_cli("simulate", "--params", str(pfile), "--n", "20", "--out", str(out))
        assert rc == 0

    def test_mininfo_var1_params_file_simulates_its_classical_form(self, workspace):
        params = gaussian.MinInfoVARParams(Theta=[[0.3, 0.1], [0.05, 0.2]], B=[[1.0, 0.2], [0.2, 0.8]])
        pfile = workspace["tmp"] / "mi_var1.txt"
        pfile.write_text(gaussian.params_to_text(params))
        out = workspace["tmp"] / "mi_var1.csv"
        rc, _ = run_cli("simulate", "--params", str(pfile), "--n", "30", "--out", str(out))
        assert rc == 0
        assert np.loadtxt(out, delimiter=",").shape == (30, 2)
        meta = json.loads((workspace["tmp"] / "mi_var1.csv.meta.json").read_text())
        written = gaussian.params_from_text("\n".join(meta["params"]))
        expected = gaussian.mininfo_to_var1(params)
        assert isinstance(written, gaussian.ClassicalVARParams)
        np.testing.assert_array_equal(written.A, expected.A)
        np.testing.assert_array_equal(written.Sigma, expected.Sigma)

    @pytest.mark.parametrize(
        "content, named",
        [
            ({"n": [50], "ar": [0.5], "sigma2": 1.0}, "--n"),
            ({"n": 50, "ar": 0.5, "sigma2": 1.0}, "--ar"),
            ({"n": 50, "var1": "A.csv"}, "--var1"),
            ({"n": 50, "var1": ["A.csv"]}, "--var1"),
        ],
    )
    def test_config_file_value_shape_exits_validation(self, workspace, capsys, content, named):
        conf = workspace["tmp"] / "shape_conf.json"
        conf.write_text(json.dumps(content))
        out = workspace["tmp"] / "shape_conf.csv"
        rc, _ = run_cli("simulate", "--config", str(conf), "--out", str(out))
        assert rc == cli.EXIT_VALIDATION
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_null_keeps_the_default(self, workspace):
        conf = workspace["tmp"] / "null_sim.json"
        conf.write_text(json.dumps({"burn_in": None, "seed": None}))
        out = workspace["tmp"] / "null_sim.csv"
        ar = ["simulate", "--ar", "0.5", "--sigma2", "0.5", "--n", "600"]
        assert run_cli(*ar, "--config", str(conf), "--out", str(out))[0] == 0
        meta = json.loads((workspace["tmp"] / "null_sim.csv.meta.json").read_text())
        assert meta["burn_in"] == 0 and meta["seed"] == 0
        # the run of the built-in seed 0 and burn-in 0
        again = workspace["tmp"] / "null_sim_flags.csv"
        assert run_cli(*ar, "--seed", "0", "--out", str(again))[0] == 0
        assert out.read_text() == again.read_text()

    @pytest.mark.parametrize(
        "text, named",
        [
            ("A.1.1.1=0.5\n", "A"),
            ("phi.1=0.5\nphi.3=0.1\nsigma2=1.0\n", "phi.2"),
            ("phi.1=0.5\nsigma2=1.0\nbogus=3\n", "bogus"),
            ("phi.1=0.5\ntheta.1=0.5\nsigma2=1.0\n", "theta"),
        ],
        ids=["var-without-sigma", "phi-gap", "unknown-name", "two-records"],
    )
    def test_malformed_params_file_exits_validation(self, workspace, capsys, text, named):
        pfile = workspace["tmp"] / "bad_params.txt"
        pfile.write_text(text)
        out = workspace["tmp"] / "bad_params.csv"
        rc, _ = run_cli("simulate", "--params", str(pfile), "--n", "20", "--out", str(out))
        assert rc == cli.EXIT_VALIDATION
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestFit:
    @pytest.mark.parametrize(
        "error",
        [
            IllConditionedError("singular Fisher matrix"),
            np.linalg.LinAlgError("SVD did not converge"),
            NoSolutionFoundError("no maximizer"),
        ],
        ids=["ill-conditioned", "linalg", "no-solution"],
    )
    def test_numerical_failure_exits_3_without_a_result(self, workspace, monkeypatch, capsys, error):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(ple, "fit_naive", failing)
        out = workspace["tmp"] / "numerical_failure.json"
        rc, _ = run_cli(
            "fit", "--data", str(workspace["data"]), "--spec", str(workspace["spec1"]),
            "--estimator", "ple-naive", "--out", str(out),
        )
        assert rc == cli.EXIT_NUMERICAL == 3
        assert f"numerical failure: {error}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "x\n"], ids=["empty", "header-only"])
    def test_data_file_without_rows_exits_2(self, workspace, capsys, text):
        # numpy's no-data warning must not escape as a traceback
        data = workspace["tmp"] / "no_rows.csv"
        data.write_text(text)
        rc, stdout = run_cli(
            "fit", "--data", str(data), "--spec", str(workspace["spec1"]), "--estimator", "ple-naive",
        )
        assert rc == cli.EXIT_VALIDATION == 2
        assert stdout == ""
        assert capsys.readouterr().err == f"error: {data} holds no data rows\n"

    @pytest.mark.parametrize("case", sorted(OVERFLOWING))
    @pytest.mark.parametrize("estimator", ["ple-naive", "ple-bipartition", "ple-sgd", "mcle"])
    def test_data_whose_statistics_overflow_exits_2(self, workspace, capsys, estimator, case):
        # statistics whose squares overflow: the Newton fits failed inside
        # LAPACK (exit 3), and on (b) online SGD and scoring wrote garbage
        # with status ok.  In process, so a RuntimeWarning would be an error
        # here: the one line on stderr is the whole report
        data, spec = overflow_files(workspace, case)
        out = workspace["tmp"] / f"huge-{estimator}-{case}.json"
        seed = [] if estimator == "ple-naive" else ["--seed", "1"]
        rc, stdout = run_cli(
            "fit", "--estimator", estimator, *seed, "--data", str(data), "--spec", str(spec), "--out", str(out)
        )
        assert rc == cli.EXIT_VALIDATION and stdout == "" and not out.exists()
        what = "observed" if estimator == "mcle" else "pair"
        assert capsys.readouterr().err == (
            f"error: {what} statistics of term {OVERFLOWING[case][2]} are not all below 1.34e+154 in "
            "magnitude, past which their squares overflow; standardize the series first (core.standard_scale)\n"
        )

    @pytest.mark.parametrize("estimator", ["ple-naive", "ple-bipartition", "ple-sgd", "mcle"])
    def test_constant_series_exits_validation(self, workspace, capsys, estimator):
        data, out = constant_file(workspace), workspace["tmp"] / f"constant-{estimator}.json"
        rc, stdout = run_cli(
            "fit", "--estimator", estimator, "--data", str(data), "--spec", str(workspace["spec1"]), "--out", str(out)
        )
        assert rc == cli.EXIT_VALIDATION and stdout == "" and not out.exists()
        assert capsys.readouterr().err == "error: every pair statistic is zero, so theta is not identified\n"

    @pytest.mark.parametrize("command", ["ple-naive", "ple-bipartition", "select"])
    def test_overflow_refusal_writes_nothing_to_stdout(self, workspace, command):
        # LAPACK printed "On entry to DLASCL parameter number 4 had an
        # illegal value" through C's stdout, which capsys cannot see
        data, spec = overflow_files(workspace, "a")
        if command == "select":
            argv = ["select", "--spec", str(spec), "--spec", str(workspace["spec2"])]
        else:
            argv = ["fit", "--estimator", command, "--spec", str(spec)]
        env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-m", "mimm.cli", *argv, "--data", str(data)], env=env, capture_output=True, text=True
        )
        assert proc.returncode == cli.EXIT_VALIDATION, proc.stderr
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and "core.standard_scale" in proc.stderr

    def test_ple_naive_matches_library(self, workspace):
        out = workspace["tmp"] / "fit.json"
        rc, _ = run_cli(
            "fit", "--data", str(workspace["data"]), "--spec", str(workspace["spec1"]),
            "--estimator", "ple-naive", "--out", str(out),
        )
        assert rc == 0
        result = json.loads(out.read_text())
        series = core.TimeSeries.from_csv(workspace["data"])
        direct = ple.fit_naive(core.ar_spec(1), series)
        assert result["theta"][0] == pytest.approx(float(direct.theta[0]), abs=1e-12)
        assert result["aic"] == pytest.approx(direct.aic, rel=1e-12)
        assert result["schema_version"] == 1
        assert result["config"]["estimator"] == "ple-naive"

    def test_mcle_with_diagnostics(self, workspace):
        out = workspace["tmp"] / "mcle.json"
        diag = workspace["tmp"] / "mcle_diag.csv"
        rc, _ = run_cli(
            "fit", "--data", str(workspace["data"]), "--spec", str(workspace["spec1"]),
            "--estimator", "mcle", "--samples", "2000", "--seed", "3",
            "--out", str(out), "--diagnostics", str(diag),
        )
        assert rc == 0
        result = json.loads(out.read_text())
        assert 0.0 <= result["acceptance_rate"] <= 1.0
        assert result["n_steps"] == result["iterations"] * (2000 + 200)
        assert set(result["stages"]) == {"sampler_s", "diagnostics_s", "solve_s"}
        assert sum(result["stages"].values()) <= result["wall_time_s"]
        lines = diag.read_text().splitlines()
        assert lines[0] == "iter,theta_0,score_norm,acceptance_rate,ess,split_rhat"
        assert len(lines) == result["iterations"] + 1
        for line in lines[1:]:
            ess, rhat = (float(v) for v in line.split(",")[-2:])
            assert ess > 0.0 and rhat > 0.0

    @pytest.mark.parametrize("estimator", ["ple-naive", "ple-sgd", "mle"])
    @pytest.mark.parametrize("by_file", [False, True], ids=["flag", "config"])
    def test_diagnostics_of_other_estimators_exits_validation(self, workspace, capsys, estimator, by_file):
        tmp = workspace["tmp"]
        out, diag = tmp / f"nodiag-{estimator}.json", tmp / f"nodiag-{estimator}.csv"
        conf = tmp / f"nodiag-{estimator}.conf.json"
        conf.write_text(json.dumps({"diagnostics": str(diag)}))
        given = ["--config", str(conf)] if by_file else ["--diagnostics", str(diag)]
        rc, _ = run_cli(
            "fit", "--data", str(workspace["data"]), "--spec", str(workspace["spec1"]),
            "--estimator", estimator, "--order", "1", "--out", str(out), *given,
        )
        assert rc == cli.EXIT_VALIDATION
        assert "--diagnostics" in capsys.readouterr().err
        assert not out.exists() and not diag.exists()

    UNREAD_OPTIONS = [
        ("ple-naive", {"samples": 5, "eta": 0.3, "order": 4}, "--eta, --order, --samples"),
        ("ple-naive", {"seed": 3}, "--seed"),
        ("ple-bipartition", {"iters": 100}, "--iters"),
        ("ple-sgd", {"max_epochs": 3, "thin": 2}, "--max-epochs, --thin"),
        ("mcle", {"tol": 1e-3}, "--tol"),
        ("mle", {"seed": 1, "grad_tol": 1e-3}, "--grad-tol, --seed"),
    ]

    @pytest.mark.parametrize("estimator, options, named", UNREAD_OPTIONS)
    @pytest.mark.parametrize("by_file", [False, True], ids=["flag", "config"])
    def test_option_the_estimator_never_reads_exits_validation(
        self, workspace, monkeypatch, capsys, estimator, options, named, by_file
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("a fit started")

        monkeypatch.setattr(cli, "_run_estimator", no_run)
        tmp = workspace["tmp"]
        out, conf = tmp / f"unread-{estimator}.json", tmp / f"unread-{estimator}.conf.json"
        conf.write_text(json.dumps(options))
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in options.items()]
        rc, _ = run_cli(
            "fit", "--data", str(workspace["data"]), "--spec", str(workspace["spec1"]),
            "--estimator", estimator, "--out", str(out), *(["--config", str(conf)] if by_file else flags),
        )
        assert rc == cli.EXIT_VALIDATION
        assert f"--estimator {estimator} never reads {named}" in capsys.readouterr().err
        assert not out.exists()

    def test_option_table_names_fit_options_and_config_fields(self):
        actions = cli.build_parser().parse_args(["fit"]).options
        assert set(cli._ESTIMATOR_OPTIONS) == set(cli.ESTIMATORS)
        for table in cli._ESTIMATOR_OPTIONS.values():
            for key, dest in table.items():
                # errors name an option by its flag, spelled from its key
                assert actions[key].option_strings == [f"--{key.replace('_', '-')}"]
                if dest is not None:
                    cls, field = dest
                    assert field in {f.name for f in dataclasses.fields(cls)}

    @pytest.mark.parametrize("estimator", cli.ESTIMATORS)
    def test_estimator_reads_are_the_options_its_run_reads(self, workspace, estimator):
        read = set()

        class Recording(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        def recording(record):
            cls = type(record)

            class Record(cls):
                def __getattribute__(self, name):
                    read.add((cls, name))
                    return super().__getattribute__(name)

            return Record(**{f.name: getattr(record, f.name) for f in dataclasses.fields(record)})

        table = cli._ESTIMATOR_OPTIONS[estimator]
        conf = {key: value for key, value in dict(order=1, samples=300, max_iters=2, iters=100).items() if key in table}
        built = cli._estimator_configs(estimator, conf, estimator, seed=0)
        configs = Recording((key, recording(value) if isinstance(key, type) else value) for key, value in built.items())
        read.clear()
        series = core.TimeSeries.from_csv(workspace["data"])
        cli._run_estimator(estimator, series, core.ar_spec(1), configs)
        # a record's seed travels inside it; cmd_fit writes the diagnostics
        as_is = {key for key, dest in table.items() if dest is None} - {"diagnostics"}
        records = {dest[0] for dest in table.values() if dest is not None}
        assert {key for key in read if not isinstance(key, tuple)} == as_is | records
        assert {dest for dest in table.values() if dest is not None} <= read

    @pytest.mark.parametrize("value", [1, 0, -1, 0.5])
    @pytest.mark.parametrize("option", sorted(cli._ESTIMATOR_SPECIFIC - {"seed", "diagnostics"}))
    @pytest.mark.parametrize("estimator", cli.ESTIMATORS)
    def test_fit_and_manifest_take_the_same_options(self, workspace, tmp_path, monkeypatch, estimator, option, value):
        runs = []

        def stub(estimator, series, spec, configs):
            runs.append(estimator)
            return np.zeros(1), {}, None

        monkeypatch.setattr(cli, "_run_estimator", stub)
        rc_fit, _ = run_cli(
            "fit", "--data", str(workspace["data"]), "--spec", str(workspace["spec1"]), "--estimator", estimator,
            f"--{option.replace('_', '-')}={value}", "--out", str(tmp_path / "fit.json"),
        )
        manifest = {"repetitions": 1, "cells": [options_cell(estimator, {option: value})]}
        (tmp_path / "man.json").write_text(json.dumps(manifest))
        rc_bench, _ = run_cli("benchmark", "--manifest", str(tmp_path / "man.json"), "--out", str(tmp_path / "bench"))
        assert rc_fit == rc_bench in (cli.EXIT_OK, cli.EXIT_VALIDATION)
        assert runs == ([estimator] * 2 if rc_fit == cli.EXIT_OK else [])

    INVALID_OPTIONS = [
        ("ple-sgd", "--eta", "0"),
        ("ple-sgd", "--eta", "nan"),
        ("ple-sgd", "--eta", "inf"),
        ("ple-sgd", "--iters", "0"),
        ("mcle", "--thin", "0"),
        ("mcle", "--grad-tol", "0"),
        ("mcle", "--grad-tol", "nan"),
        ("mcle", "--grad-tol", "inf"),
        ("ple-naive", "--max-epochs", "0"),
        ("ple-naive", "--tol", "0"),
        ("ple-naive", "--tol", "nan"),
        ("ple-naive", "--tol", "inf"),
        ("mle", "--order", "0"),
        ("ple-naive", "--time-limit-s", "0"),
        ("ple-naive", "--time-limit-s", "-1"),
        ("ple-naive", "--time-limit-s", "nan"),
        ("ple-naive", "--time-limit-s", "inf"),
    ]

    @pytest.mark.parametrize(
        "estimator, flag, value",
        INVALID_OPTIONS,
        # a zero value keeps the id "estimator-flag"; others append the value
        ids=[f"{e}-{f}" if v == "0" else f"{e}-{f}-{v}" for e, f, v in INVALID_OPTIONS],
    )
    def test_zero_valued_option_exits_validation(self, workspace, estimator, flag, value):
        out = workspace["tmp"] / f"invalid{flag}-{value}.json"
        rc, _ = run_cli(
            "fit", "--data", str(workspace["data"]), "--spec", str(workspace["spec1"]),
            "--estimator", estimator, flag, value, "--out", str(out),
        )
        assert rc == cli.EXIT_VALIDATION
        assert not out.exists()

    def test_result_reports_solver_end(self, workspace):
        out = workspace["tmp"] / "solver.json"
        rc, _ = run_cli(
            "fit", "--data", str(workspace["data"]), "--spec", str(workspace["spec1"]),
            "--estimator", "ple-bipartition", "--max-epochs", "3", "--out", str(out),
        )
        assert rc == 0
        result = json.loads(out.read_text())
        assert result["config"]["max_epochs"] == 3
        assert 1 <= result["iterations"] <= 3
        assert result["grad_norm"] >= 0.0 and isinstance(result["converged"], bool)

    def test_result_reports_stage_times(self, workspace):
        out = workspace["tmp"] / "stages.json"
        rc, _ = run_cli(
            "fit", "--data", str(workspace["data"]), "--spec", str(workspace["spec1"]),
            "--estimator", "ple-naive", "--out", str(out),
        )
        assert rc == 0
        result = json.loads(out.read_text())
        stages = result["stages"]
        assert set(stages) == {"pairs_s", "solver_s", "log_pl_s", "pilot_s"}
        assert all(v >= 0.0 for v in stages.values())
        assert sum(stages.values()) <= result["wall_time_s"]

    def test_result_echoes_the_configuration_that_ran(self, workspace):
        data, spec = str(workspace["data"]), str(workspace["spec1"])
        naive, mle = workspace["tmp"] / "echo_naive.json", workspace["tmp"] / "echo_mle.json"
        assert run_cli("fit", "--data", data, "--spec", spec, "--estimator", "ple-naive", "--out", str(naive))[0] == 0
        assert run_cli("fit", "--data", data, "--estimator", "mle", "--order", "1", "--out", str(mle))[0] == 0
        # the shared options, then only what the estimator read, as it ran
        shared = {"data": data, "time_limit_s": None}
        gd = ple.GdConfig()
        assert json.loads(naive.read_text())["config"] == {
            **shared, "spec": spec, "estimator": "ple-naive", "max_epochs": gd.max_epochs, "tol": gd.tol
        }
        assert json.loads(mle.read_text())["config"] == {**shared, "spec": None, "estimator": "mle", "order": 1}

    def test_sgd_result_has_null_convergence(self, workspace):
        out = workspace["tmp"] / "sgd.json"
        rc, _ = run_cli(
            "fit", "--data", str(workspace["data"]), "--spec", str(workspace["spec1"]),
            "--estimator", "ple-sgd", "--iters", "300", "--out", str(out),
        )
        assert rc == 0
        result = json.loads(out.read_text())
        assert result["converged"] is None and result["grad_norm"] is None
        assert result["iterations"] == 300

    def test_mle_requires_order(self, workspace):
        rc, _ = run_cli("fit", "--data", str(workspace["data"]), "--estimator", "mle")
        assert rc == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("estimator", ["mle", "ple-naive"])
    def test_spec_component_beyond_the_data_exits_validation(self, workspace, capsys, estimator):
        spec = workspace["tmp"] / "kron2.spec"
        spec.write_text(core.kron_spec(2, [(1, 1, 1)]).to_text())
        out = workspace["tmp"] / f"component_{estimator}.json"
        rc, _ = run_cli(
            "fit", "--data", str(workspace["data"]), "--spec", str(spec),
            "--estimator", estimator, "--out", str(out),
        )
        assert rc == cli.EXIT_VALIDATION
        assert "spec component 1 out of range for 1-column data" in capsys.readouterr().err
        assert not out.exists()

    def test_mle_echoes_the_order_that_ran(self, workspace):
        data, spec2 = str(workspace["data"]), str(workspace["spec2"])
        derived, given = workspace["tmp"] / "mle_spec.json", workspace["tmp"] / "mle_spec_order1.json"
        assert run_cli("fit", "--data", data, "--estimator", "mle", "--spec", spec2, "--out", str(derived))[0] == 0
        assert run_cli("fit", "--data", data, "--estimator", "mle", "--spec", spec2, "--order", "1", "--out", str(given))[0] == 0
        derived, given = json.loads(derived.read_text()), json.loads(given.read_text())
        assert derived["config"]["order"] == 2 and len(derived["theta"]) == 2
        assert given["config"]["order"] == 1 and len(given["theta"]) == 1

    def test_mcle_echoes_the_burn_in_that_ran(self, workspace):
        out = workspace["tmp"] / "mcle_burn_in.json"
        rc, _ = run_cli(
            "fit", "--data", str(workspace["data"]), "--spec", str(workspace["spec1"]), "--estimator", "mcle",
            "--samples", "305", "--max-iters", "1", "--out", str(out),
        )
        assert rc == 0
        config = json.loads(out.read_text())["config"]
        assert config["burn_in"] == 305 // 10 and config["samples"] == 305

    def test_nan_data_exits_validation(self, workspace):
        bad = workspace["tmp"] / "bad.csv"
        bad.write_text("1.0\nnan\n2.0\n")
        rc, _ = run_cli(
            "fit", "--data", str(bad), "--spec", str(workspace["spec1"]),
            "--estimator", "ple-naive",
        )
        assert rc == cli.EXIT_VALIDATION

    @pytest.mark.parametrize(
        "meta, named",
        [([1, 2], "must hold a JSON object"), ({"kinds": "real"}, "kinds takes a list of strings")],
        ids=["list", "kinds-string"],
    )
    def test_malformed_sidecar_exits_validation(self, workspace, capsys, meta, named):
        data = workspace["tmp"] / "sidecar.csv"
        data.write_text(workspace["data"].read_text())
        Path(f"{data}.meta.json").write_text(json.dumps(meta))
        out = workspace["tmp"] / "sidecar_fit.json"
        rc, _ = run_cli(
            "fit", "--data", str(data), "--spec", str(workspace["spec1"]),
            "--estimator", "ple-naive", "--out", str(out),
        )
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{data}.meta.json" in err and named in err
        assert not out.exists()

    def test_time_limit_exit_code(self, workspace):
        out = workspace["tmp"] / "slow.json"
        rc, _ = run_cli(
            "fit", "--data", str(workspace["data"]), "--spec", str(workspace["spec1"]),
            "--estimator", "ple-naive", "--time-limit-s", "1e-9", "--out", str(out),
        )
        assert rc == cli.EXIT_TIMEOUT
        result = json.loads(out.read_text())
        assert result["status"] == "timeout" and result["converged"] is None
        ok = workspace["tmp"] / "in_time.json"
        rc, _ = run_cli(
            "fit", "--data", str(workspace["data"]), "--spec", str(workspace["spec1"]),
            "--estimator", "ple-naive", "--time-limit-s", "600", "--out", str(ok),
        )
        assert rc == cli.EXIT_OK
        result = json.loads(ok.read_text())
        assert result["status"] == "ok" and result["converged"] is True

    def test_config_file_precedence(self, workspace):
        conf = workspace["tmp"] / "conf.json"
        conf.write_text(json.dumps({"estimator": "ple-sgd", "iters": 500, "eta": 0.05}))
        out = workspace["tmp"] / "conf_fit.json"
        rc, _ = run_cli(
            "fit", "--config", str(conf), "--data", str(workspace["data"]),
            "--spec", str(workspace["spec1"]), "--eta", "0.01", "--out", str(out),
        )
        assert rc == 0
        result = json.loads(out.read_text())
        assert result["estimator"] == "ple-sgd"  # from config file
        assert result["config"]["eta"] == 0.01  # flag wins over file
        assert result["config"]["iters"] == 500

    def test_config_file_null_seed_keeps_the_default(self, workspace):
        conf = workspace["tmp"] / "null_seed.json"
        conf.write_text(json.dumps({"seed": None}))
        fit = ["fit", "--data", str(workspace["data"]), "--spec", str(workspace["spec1"])]
        fit += ["--estimator", "ple-bipartition"]
        results = []
        for i, extra in enumerate((["--config", str(conf)], ["--config", str(conf)], ["--seed", "0"])):
            out = workspace["tmp"] / f"null_seed_{i}.json"
            assert run_cli(*fit, *extra, "--out", str(out))[0] == 0
            results.append(json.loads(out.read_text()))
        assert [r["config"]["seed"] for r in results] == [0, 0, 0]
        assert results[0]["theta"] == results[1]["theta"] == results[2]["theta"]

    @pytest.mark.parametrize(
        "content, named",
        [
            ({"lr0": 1.0, "max_epoch": 0}, "lr0, max_epoch"),
            ([1, 2], "JSON object"),
            ({"max_epochs": "5"}, "--max-epochs"),
            ({"tol": "x"}, "--tol"),
            ({"estimator": "ple-fast"}, "--estimator"),
            ({"seed": [1]}, "--seed"),
            # json writes and reads NaN and Infinity
            ({"time_limit_s": float("nan")}, "--time-limit-s must be finite and > 0"),
            ({"time_limit_s": float("inf")}, "--time-limit-s must be finite and > 0"),
            ({"time_limit_s": 0}, "--time-limit-s must be finite and > 0"),
            ({"time_limit_s": -1}, "--time-limit-s must be finite and > 0"),
        ],
    )
    def test_config_file_without_such_option_exits_validation(self, workspace, capsys, content, named):
        conf = workspace["tmp"] / "unknown_conf.json"
        conf.write_text(json.dumps(content))
        out = workspace["tmp"] / "unknown_conf_fit.json"
        rc, _ = run_cli(
            "fit", "--config", str(conf), "--data", str(workspace["data"]),
            "--spec", str(workspace["spec1"]), "--estimator", "ple-naive", "--out", str(out),
        )
        assert rc == cli.EXIT_VALIDATION
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestSelect:
    def test_duplicate_spec_gets_identical_scores(self, workspace):
        out = workspace["tmp"] / "dup.csv"
        rc, _ = run_cli(
            "select", "--data", str(workspace["data"]),
            "--spec", str(workspace["spec1"]), "--spec", str(workspace["spec1"]),
            "--seed", "1", "--out", str(out),
        )
        assert rc == 0
        header, *lines = out.read_text().splitlines()
        assert header == "spec,K,log_pl,aic,pic,converged,best_aic,best_pic,error"
        rows = [line.split(",") for line in lines]
        assert rows[0][1:5] == rows[1][1:5]
        # every one of the 9 default splits converged
        assert rows[0][5] == rows[1][5] == "9"

    def test_table_and_csv_count_the_converged_splits(self, workspace):
        # two passes per fit are too few to reach select's tol of 1e-8
        out = workspace["tmp"] / "unconverged.csv"
        rc, text = run_cli(
            "select", "--data", str(workspace["data"]), "--spec", str(workspace["spec1"]),
            "--spec", str(workspace["spec2"]), "--seed", "1", "--splits", "3", "--max-epochs", "2", "--out", str(out),
        )
        assert rc == 0
        header, _, *table = text.splitlines()
        assert header.split() == ["spec", "K", "log_pl", "aic", "pic", "converged", "best"]
        assert [line.split()[5] for line in table] == ["0", "0"]
        with open(out, newline="", encoding="utf-8") as fh:
            assert [row["converged"] for row in csv.DictReader(fh)] == ["0", "0"]

    def test_csv_quotes_a_spec_path_with_a_comma(self, workspace):
        odd = workspace["tmp"] / 'a,1 "x".spec'
        odd.write_text(workspace["spec1"].read_text())
        out = workspace["tmp"] / "quoted.csv"
        rc, _ = run_cli(
            "select", "--data", str(workspace["data"]),
            "--spec", str(workspace["spec1"]), "--spec", str(odd), "--seed", "1", "--out", str(out),
        )
        assert rc == 0
        with open(out, newline="", encoding="utf-8") as fh:
            plain, quoted = csv.DictReader(fh)
        assert quoted["spec"] == str(odd)
        assert quoted["error"] == "" and quoted["best_aic"] in ("True", "False")
        # the same spec, so the same scores, read from the same columns
        for key in ("K", "log_pl", "aic", "pic", "converged"):
            assert quoted[key] == plain[key] != ""

    @pytest.mark.parametrize(
        "option",
        [["--max-epochs", "0"], ["--tol", "0"], ["--lr0", "1.0"], ["--estimator", "ple-naive"]],
    )
    def test_invalid_or_removed_solver_option_exits_validation(self, workspace, option):
        rc, _ = run_cli(
            "select", "--data", str(workspace["data"]),
            "--spec", str(workspace["spec1"]), "--spec", str(workspace["spec2"]), *option,
        )
        assert rc == cli.EXIT_VALIDATION

    def test_removed_option_in_config_file_exits_validation(self, workspace, capsys):
        conf = workspace["tmp"] / "select_conf.json"
        conf.write_text(json.dumps({"estimator": "ple-naive"}))
        rc, _ = run_cli(
            "select", "--config", str(conf), "--data", str(workspace["data"]),
            "--spec", str(workspace["spec1"]), "--spec", str(workspace["spec2"]),
        )
        assert rc == cli.EXIT_VALIDATION
        assert "estimator" in capsys.readouterr().err

    def test_config_file_spec_must_be_a_list(self, workspace, capsys):
        conf = workspace["tmp"] / "select_spec_conf.json"
        conf.write_text(json.dumps({"spec": str(workspace["spec1"])}))
        rc, _ = run_cli("select", "--config", str(conf), "--data", str(workspace["data"]))
        assert rc == cli.EXIT_VALIDATION
        assert "--spec takes a list" in capsys.readouterr().err

    def test_requires_two_specs(self, workspace):
        rc, _ = run_cli("select", "--data", str(workspace["data"]), "--spec", str(workspace["spec1"]))
        assert rc == cli.EXIT_VALIDATION

    def test_every_spec_failed_gives_each_reason(self, workspace, capsys):
        data, spec = overflow_files(workspace, "a")
        out = workspace["tmp"] / "all_failed.csv"
        rc, stdout = run_cli(
            "select", "--data", str(data), "--spec", str(spec), "--spec", str(workspace["spec2"]), "--out", str(out)
        )
        assert rc == cli.EXIT_VALIDATION and stdout == "" and not out.exists()
        reason = (
            "pair statistics of term 0:0^1*1:0^1 are not all below 1.34e+154 in magnitude, past which "
            "their squares overflow; standardize the series first (core.standard_scale)"
        )
        assert capsys.readouterr().err == (
            f"error: every spec failed to fit: {spec}: {reason}; {workspace['spec2']}: {reason}\n"
        )

    def test_constant_series_fails_every_spec(self, workspace, capsys):
        data, out = constant_file(workspace), workspace["tmp"] / "constant_select.csv"
        spec1, spec2 = workspace["spec1"], workspace["spec2"]
        rc, stdout = run_cli("select", "--data", str(data), "--spec", str(spec1), "--spec", str(spec2), "--out", str(out))
        assert rc == cli.EXIT_VALIDATION and stdout == "" and not out.exists()
        reason = "every pair statistic is zero, so theta is not identified"
        assert capsys.readouterr().err == f"error: every spec failed to fit: {spec1}: {reason}; {spec2}: {reason}\n"

    def test_failed_spec_recorded_not_fatal(self, workspace):
        big = workspace["tmp"] / "huge_order.spec"
        big.write_text("0:0^1*250:0^1\n")  # order 250 on n=600: no spaced positions
        out = workspace["tmp"] / "failrow.csv"
        rc, _ = run_cli(
            "select", "--data", str(workspace["data"]),
            "--spec", str(workspace["spec1"]), "--spec", str(workspace["spec2"]),
            "--spec", str(big), "--seed", "1", "--out", str(out),
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        good = [line.split(",") for line in lines[1:3]]
        for row in good:
            assert np.isfinite(float(row[3]))  # aic column
        failed_row = lines[3].split(",")
        assert failed_row[1] == "" and failed_row[5] == "" and "too large" in lines[3]

    def test_programming_error_is_not_a_failed_row(self, workspace, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bad call")

        monkeypatch.setattr(ple, "fit_pairs", broken)
        out = workspace["tmp"] / "select_bug.csv"
        with pytest.raises(TypeError, match="bad call"):
            run_cli(
                "select", "--data", str(workspace["data"]),
                "--spec", str(workspace["spec1"]), "--spec", str(workspace["spec2"]),
                "--out", str(out),
            )
        assert not out.exists()

    def test_bivariate_binary_real_four_specs(self, workspace, tmp_path):
        rng = np.random.default_rng(42)
        n = 400
        z = gaussian.simulate_ar(gaussian.ClassicalARParams([0.6], 0.5), n, seed=9).data[:, 0]
        prob = 1.0 / (1.0 + np.exp(-(np.roll(z, 1))))
        b = (rng.random(n) < prob).astype(float)
        data = np.column_stack([b, z])
        path = tmp_path / "bi.csv"
        core.TimeSeries(data, kinds=("binary", "real")).to_csv(path)
        (tmp_path / "bi.csv.meta.json").write_text(json.dumps({"kinds": ["binary", "real"]}))

        blocks = {
            "k4": [(1, 1, 1)],
            "k8a": [(1, 1, 1), (1, 1, 2)],
            "k8b": [(1, 1, 1), (1, 2, 1)],
            "k16": [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)],
        }
        spec_paths = []
        for name, blk in blocks.items():
            spec_path = tmp_path / f"{name}.spec"
            core.kron_spec(2, blk).save(spec_path)
            spec_paths.append(str(spec_path))
        out = tmp_path / "bi_sel.csv"
        args = ["select", "--data", str(path), "--seed", "5", "--splits", "5", "--out", str(out)]
        for sp in spec_paths:
            args += ["--spec", sp]
        rc, text = run_cli(*args)
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 4
        aics = [float(r[3]) for r in rows]
        assert all(np.isfinite(aics))
        assert len({r[1] for r in rows}) >= 2  # K column distinguishes the specs


class TestParser:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_consecutive_calls_write_what_fresh_parsers_write(self, workspace, tmp_path):
        data, spec1, spec2 = (str(workspace[key]) for key in ("data", "spec1", "spec2"))
        calls = [
            ["select", "--data", data, "--spec", spec1, "--spec", spec2, "--seed", "3"],
            ["select", "--data", data, "--spec", spec2, "--spec", spec1, "--spec", spec1, "--splits", "2"],
            ["fit", "--data", data, "--estimator", "ple-fast"],  # a failed parse
            ["select", "--data", data, "--spec", spec1, "--spec", spec2],
            ["fit", "--data", data, "--spec", spec1, "--estimator", "ple-bipartition", "--seed", "2"],
        ]

        def outputs(fresh):
            written = []
            for i, argv in enumerate(calls):
                if fresh:
                    cli.build_parser.cache_clear()
                out = tmp_path / f"{'fresh' if fresh else 'kept'}-{i}.out"
                rc, text = run_cli(*argv, "--out", str(out))
                body = out.read_text() if out.exists() else None
                if body is not None and argv[0] == "fit":
                    body = json.loads(body)
                    del body["wall_time_s"], body["stages"]  # the run's own timings
                written.append((rc, text, body))
            return written

        kept = outputs(fresh=False)
        assert [rc for rc, _, _ in kept] == [0, 0, cli.EXIT_VALIDATION, 0, 0]
        assert kept == outputs(fresh=True)


@pytest.mark.parametrize(
    "argv, message",
    [
        ("simulate --ar 0.5 --sigma2 0.5", "simulate requires --n and --out"),
        (
            "simulate --ar 0.5 --sigma2 0.5 --theta 1 --tau2 1 --n 10 --out {tmp}/x.csv",
            "choose exactly one of --params, --ar/--sigma2, --theta/--tau2, --var1",
        ),
        ("simulate --ar 0.5 --n 10 --out {tmp}/x.csv", "--ar requires --sigma2"),
        ("simulate --theta 1 --n 10 --out {tmp}/x.csv", "--theta requires --tau2"),
        ("fit --data {data}", "fit requires --data and --estimator"),
        ("fit --data {data} --estimator ple-naive", "ple-naive requires --spec"),
        ("fit --data {tmp}/two.csv --estimator mle --order 2", "mle reports minimum-information weights only for order 1"),
        ("select --data {data} --spec {spec1} --spec {tmp}/missing.spec", "cannot load spec {tmp}/missing.spec: "),
        ("benchmark --out {tmp}/bench.csv", "benchmark requires --manifest and --out"),
    ],
    ids=["simulate-no-n", "two-sources", "ar-no-sigma2", "theta-no-tau2", "fit-no-estimator",
         "no-spec", "mle-var2", "missing-spec", "benchmark-no-manifest"],
)
def test_refusal_exits_2_with_one_error_line(workspace, capsys, argv, message):
    core.TimeSeries(np.random.default_rng(0).standard_normal((60, 2))).to_csv(workspace["tmp"] / "two.csv")
    rc, stdout = run_cli(*argv.format(**workspace).split())
    err = capsys.readouterr().err
    assert rc == cli.EXIT_VALIDATION and stdout == ""
    assert err.startswith("error: " + message.format(**workspace)) and err.count("\n") == 1
    assert not (workspace["tmp"] / "x.csv").exists()


class TestBenchmark:
    def test_small_manifest(self, workspace):
        man = workspace["tmp"] / "man.json"
        man.write_text(
            json.dumps(
                {
                    "seed": 99,
                    "repetitions": 3,
                    "time_limit_s": 300,
                    "cells": [
                        {
                            "label": "AR(1)",
                            "model": {"kind": "ar", "phi": [0.5], "sigma2": 0.5},
                            "n": 200,
                            "estimators": ["mle", "ple-bipartition", "ple-sgd"],
                            "estimator_options": {"ple-sgd": {"eta": 0.01, "iters": 2000}},
                        }
                    ],
                }
            )
        )
        prefix = workspace["tmp"] / "bench"
        rc, text = run_cli("benchmark", "--manifest", str(man), "--out", str(prefix))
        assert rc == 0
        rows = (prefix.parent / "bench.csv").read_text().splitlines()
        assert rows[0] == (
            "label,estimator,n,reps,mean_error,mean_time_s,status,"
            "pairs_s,solver_s,log_pl_s,pilot_s,sampler_s,diagnostics_s,solve_s"
        )
        assert len(rows) == 4
        for row in rows[1:]:
            assert float(row.split(",")[4]) < 1.0
        # per-cell median stage seconds; empty where the estimator has no such stage
        stages = {row.split(",")[1]: row.split(",")[7:] for row in rows[1:]}
        assert stages["mle"] == [""] * 7
        for estimator, n_stages in (("ple-bipartition", 4), ("ple-sgd", 3)):
            assert all(float(v) >= 0.0 for v in stages[estimator][:n_stages])
            assert stages[estimator][n_stages:] == [""] * (7 - n_stages)
        text = (prefix.parent / "bench.txt").read_text()
        assert "pairs_s" in text.splitlines()[0] and "solve_s" in text.splitlines()[0]

    def test_mcle_stage_columns(self, workspace):
        man = workspace["tmp"] / "man_mcle.json"
        cell = {
            "label": "AR(1)",
            "model": {"kind": "ar", "phi": [0.5], "sigma2": 0.5},
            "n": 60,
            "estimators": ["mcle"],
            "estimator_options": {"mcle": {"samples": 300, "max_iters": 2}},
        }
        man.write_text(json.dumps({"seed": 5, "repetitions": 2, "cells": [cell]}))
        prefix = workspace["tmp"] / "bench_mcle"
        rc, _ = run_cli("benchmark", "--manifest", str(man), "--out", str(prefix))
        assert rc == 0
        header, row = (prefix.parent / "bench_mcle.csv").read_text().splitlines()
        stages = dict(zip(header.split(",")[7:], row.split(",")[7:]))
        assert [stages[k] for k in ("pairs_s", "solver_s", "log_pl_s", "pilot_s")] == [""] * 4
        assert all(float(stages[k]) >= 0.0 for k in ("sampler_s", "diagnostics_s", "solve_s"))

    def test_timeout_writes_dashes(self, workspace):
        man = workspace["tmp"] / "man_slow.json"
        man.write_text(
            json.dumps(
                {
                    "seed": 1,
                    "repetitions": 2,
                    "cells": [
                        {
                            "label": "slow",
                            "model": {"kind": "ar", "phi": [0.5], "sigma2": 0.5},
                            "n": 200,
                            "estimators": ["ple-naive"],
                            "time_limit_s": 1e-9,
                        }
                    ],
                }
            )
        )
        prefix = workspace["tmp"] / "bench_slow"
        rc, _ = run_cli("benchmark", "--manifest", str(man), "--out", str(prefix))
        assert rc == 0
        body = (prefix.parent / "bench_slow.csv").read_text()
        assert "--,--" in body and "timeout" in body

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("where", ["flag", "manifest", "cell"])
    def test_invalid_time_limit_exits_validation(self, workspace, capsys, where, value):
        cell = {"label": "x", "model": {"kind": "ar", "phi": [0.5], "sigma2": 0.5}, "n": 100, "estimators": ["mle"]}
        manifest = {"repetitions": 1, "cells": [cell]}
        if where == "manifest":
            manifest["time_limit_s"] = float(value)
        elif where == "cell":
            cell["time_limit_s"] = float(value)
        man = workspace["tmp"] / f"man_limit_{where}{value}.json"
        man.write_text(json.dumps(manifest))  # writes NaN / Infinity, which json reads back
        prefix = workspace["tmp"] / f"bench_limit_{where}{value}"
        flag = ["--time-limit-s", value] if where == "flag" else []
        rc, _ = run_cli("benchmark", "--manifest", str(man), *flag, "--out", str(prefix))
        assert rc == cli.EXIT_VALIDATION
        assert "must be finite and > 0" in capsys.readouterr().err
        assert not (prefix.parent / f"{prefix.name}.csv").exists()

    @pytest.mark.parametrize("where", ["manifest", "cell"])
    def test_null_time_limit_is_unset(self, tmp_path, where):
        cell = {"label": "x", "model": {"kind": "ar", "phi": [0.5], "sigma2": 0.5}, "n": 100, "estimators": ["mle"]}
        manifest = {"repetitions": 1, "cells": [cell]}
        (manifest if where == "manifest" else cell)["time_limit_s"] = None
        (tmp_path / "man.json").write_text(json.dumps(manifest))
        rc, _ = run_cli("benchmark", "--manifest", str(tmp_path / "man.json"), "--out", str(tmp_path / "bench"))
        assert rc == cli.EXIT_OK
        with open(tmp_path / "bench.csv", newline="", encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        assert row["status"] == "ok"

    GOOD_CELL = {"label": "x", "model": {"kind": "ar", "phi": [0.5], "sigma2": 0.5}, "n": 100, "estimators": ["mle"]}
    VAR2_MODEL = {"kind": "var", "A": [[[0.3, 0.0], [0.0, 0.3]], [[0.2, 0.0], [0.0, 0.2]]], "Sigma": [[0.5, 0.0], [0.0, 0.5]]}

    @pytest.mark.parametrize(
        "manifest, named",
        [
            ([GOOD_CELL], "manifest must hold a JSON object"),
            ({"cells": [GOOD_CELL, [1]]}, "cell 1 must be a JSON object"),
            ({"repetitions": "3", "cells": [GOOD_CELL]}, "manifest repetitions must be an integer >= 1"),
            ({"cells": [{**GOOD_CELL, "repetitions": 0}]}, "cell 0 repetitions must be an integer >= 1"),
            ({"cells": [{**GOOD_CELL, "n": "50"}]}, "cell 0 n must be an integer >= 1"),
            ({"cells": [{**GOOD_CELL, "n": True}]}, "cell 0 n must be an integer >= 1"),
            ({"cells": [GOOD_CELL, {**GOOD_CELL, "estimators": ["mle", "nope"]}]}, "cell 1 estimators"),
            ({"cells": [{**GOOD_CELL, "estimators": []}]}, "cell 0 estimators"),
            ({"cells": [{**GOOD_CELL, "model": [0.5]}]}, "cell 0 model"),
            ({"cells": [{**GOOD_CELL, "estimator_options": {"mle": 3}}]}, "cell 0 estimator_options"),
            ({"seed": "7", "cells": [GOOD_CELL]}, "manifest seed"),
            ({"cells": []}, "manifest has no cells"),
            (
                {"cells": [options_cell("ple-naive", {"eta": 0.3, "samples": 5, "bogus": 1})]},
                "cell 0 estimator ple-naive has no option 'bogus'",
            ),
            (
                {"cells": [options_cell("ple-naive", {"max_epochs": "5"})]},
                "cell 0 estimator ple-naive option max_epochs: --max-epochs takes int values, got '5'",
            ),
            ({"cells": [options_cell("mle", {"order": 0})]}, "cell 0 estimator mle: --order must be an integer >= 1"),
            ({"cells": [options_cell("mle", {"max_epochs": 3})]}, "cell 0 estimator mle never reads --max-epochs"),
            (
                {"cells": [GOOD_CELL, options_cell("ple-sgd", {"eta": 0})]},
                "cell 1 estimator ple-sgd: eta must be finite and > 0",
            ),
            (
                {"cells": [{**GOOD_CELL, "estimator_options": {"ple-sgd": {"eta": 0.1}}}]},
                "cell 0 estimator_options must map its estimators to JSON objects, got {'ple-sgd'",
            ),
            (
                {"cells": [{**GOOD_CELL, "estimator_options": {"nope": {}}}]},
                "cell 0 estimator_options must map its estimators to JSON objects, got {'nope'",
            ),
            ({"cells": [options_cell("ple-sgd", {"seed": 1})]}, "cell 0 estimator ple-sgd has no option 'seed'"),
            (
                {"cells": [options_cell("mcle", {"diagnostics": "d.csv"})]},
                "cell 0 estimator mcle has no option 'diagnostics'",
            ),
            ({"cells": [{**GOOD_CELL, "label": ["x"]}]}, "cell 0 label takes a string, got ['x']"),
            ({"cells": [GOOD_CELL, {**GOOD_CELL, "model": {"kind": "ma"}}]}, "cell 1 model: unknown model kind 'ma'"),
            ({"cells": [{**GOOD_CELL, "model": {"kind": "ar", "sigma2": 0.5}}]}, "cell 0 model: 'phi'"),
            # an AR(1) cell, then a VAR(2) cell, which has no true theta
            (
                {"repetitions": 3, "cells": [options_cell("ple-naive", {}), {**GOOD_CELL, "model": VAR2_MODEL}]},
                "cell 1 model: expected VAR(1), got order 2",
            ),
            (
                {"cells": [{**GOOD_CELL, "model": {"kind": "ar", "phi": [0.5], "sigma2": "0.5"}}]},
                "cell 0 model: sigma2 must be finite and > 0, got '0.5'",
            ),
        ],
        ids=[
            "not-an-object", "cell-not-an-object", "repetitions-string", "cell-repetitions-zero",
            "n-string", "n-bool", "unknown-estimator", "no-estimators", "model-list",
            "options-not-objects", "seed-string", "no-cells", "unknown-option", "option-string",
            "order-zero", "unread-option", "invalid-value-after-a-good-cell", "options-of-an-estimator-not-run",
            "options-of-no-estimator", "seed-option", "diagnostics-option", "label-list",
            "unknown-model-kind", "model-without-phi", "var2-after-a-good-cell", "sigma2-string",
        ],
    )
    def test_invalid_manifest_exits_validation_before_any_run(self, tmp_path, capsys, monkeypatch, manifest, named):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "_run_estimator", no_run)
        man = tmp_path / "man.json"
        man.write_text(json.dumps(manifest))
        rc, _ = run_cli("benchmark", "--manifest", str(man), "--out", str(tmp_path / "bench"))
        assert rc == cli.EXIT_VALIDATION
        assert named in capsys.readouterr().err
        assert not (tmp_path / "bench.csv").exists() and not (tmp_path / "bench.txt").exists()

    def test_negative_seed_flag_exits_validation_before_any_run(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "_simulate", no_run)
        monkeypatch.setattr(cli, "_run_estimator", no_run)
        man = tmp_path / "man.json"
        man.write_text(json.dumps({"seed": 3, "cells": [self.GOOD_CELL]}))
        rc, _ = run_cli("benchmark", "--manifest", str(man), "--seed", "-1", "--out", str(tmp_path / "bench"))
        assert rc == cli.EXIT_VALIDATION
        assert "--seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "bench.csv").exists() and not (tmp_path / "bench.txt").exists()

    def test_readme_manifest_runs(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        after = readme.split("A benchmark manifest looks like", 1)[1]
        man = tmp_path / "readme_manifest.json"
        man.write_text(after.split("```json\n", 1)[1].split("```", 1)[0])
        rc, _ = run_cli("benchmark", "--manifest", str(man), "--reps", "1", "--out", str(tmp_path / "bench"))
        assert rc == cli.EXIT_OK
        with open(tmp_path / "bench.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(row["status"] == "ok" for row in rows)

    def test_reps_flag_overrides_manifest(self, workspace):
        man = workspace["tmp"] / "man_reps.json"
        man.write_text(
            json.dumps(
                {
                    "seed": 2,
                    "repetitions": 30,
                    "cells": [
                        {
                            "label": "quick",
                            "model": {"kind": "ar", "phi": [0.5], "sigma2": 0.5},
                            "n": 120,
                            "estimators": ["mle"],
                        }
                    ],
                }
            )
        )
        prefix = workspace["tmp"] / "bench_reps"
        rc, _ = run_cli("benchmark", "--manifest", str(man), "--reps", "2", "--out", str(prefix))
        assert rc == 0
        row = (prefix.parent / "bench_reps.csv").read_text().splitlines()[1]
        assert row.split(",")[3] == "2"

    def test_zero_repetitions_rejected(self, workspace):
        man = workspace["tmp"] / "man_zero.json"
        man.write_text(
            json.dumps(
                {
                    "repetitions": 0,
                    "cells": [
                        {
                            "label": "x",
                            "model": {"kind": "ar", "phi": [0.5], "sigma2": 0.5},
                            "n": 100,
                            "estimators": ["mle"],
                        }
                    ],
                }
            )
        )
        rc, _ = run_cli("benchmark", "--manifest", str(man), "--out", str(workspace["tmp"] / "z"))
        assert rc == cli.EXIT_VALIDATION

    def test_var_cell(self, workspace):
        man = workspace["tmp"] / "man_var.json"
        man.write_text(
            json.dumps(
                {
                    "seed": 5,
                    "repetitions": 2,
                    "cells": [
                        {
                            "label": "VAR(1)",
                            "model": {
                                "kind": "var",
                                "A": [[0.5, 0.1], [0.1, 0.5]],
                                "Sigma": [[0.5, 0.0], [0.0, 0.5]],
                            },
                            "n": 300,
                            "estimators": ["mle", "ple-bipartition"],
                        }
                    ],
                }
            )
        )
        prefix = workspace["tmp"] / "bench_var"
        rc, _ = run_cli("benchmark", "--manifest", str(man), "--out", str(prefix))
        assert rc == 0
        with open(prefix.parent / "bench_var.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 and all(row["status"] == "ok" for row in rows)

    def test_csv_quotes_a_label_with_a_comma(self, workspace):
        label = 'AR(1), "short"'
        cell = {"label": label, "model": {"kind": "ar", "phi": [0.5], "sigma2": 0.5}, "n": 100, "estimators": ["mle"]}
        man = workspace["tmp"] / "man_label.json"
        man.write_text(json.dumps({"seed": 1, "repetitions": 2, "cells": [cell]}))
        prefix = workspace["tmp"] / "bench_label"
        rc, _ = run_cli("benchmark", "--manifest", str(man), "--out", str(prefix))
        assert rc == 0
        with open(prefix.parent / "bench_label.csv", newline="", encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        assert row["label"] == label and row["estimator"] == "mle" and row["status"] == "ok"
        assert row["reps"] == "2" and 0.0 <= float(row["mean_error"]) < 1.0 and row["pairs_s"] == ""

    @staticmethod
    def one_cell_manifest(path):
        path.write_text(
            json.dumps(
                {
                    "seed": 3,
                    "repetitions": 1,
                    "cells": [
                        {
                            "label": "AR(1)",
                            "model": {"kind": "ar", "phi": [0.5], "sigma2": 0.5},
                            "n": 100,
                            "estimators": ["ple-bipartition"],
                        }
                    ],
                }
            )
        )
        return path

    def test_numerical_failure_becomes_failed_row(self, workspace, monkeypatch):
        def fail(*args, **kwargs):
            raise NoSolutionFoundError("no maximizer")

        monkeypatch.setattr(ple, "fit_bipartition", fail)
        man = self.one_cell_manifest(workspace["tmp"] / "man_fail.json")
        prefix = workspace["tmp"] / "bench_fail"
        rc, _ = run_cli("benchmark", "--manifest", str(man), "--out", str(prefix))
        assert rc == 0
        row = (prefix.parent / "bench_fail.csv").read_text().splitlines()[1]
        assert "failed: no maximizer" in row

    def test_programming_error_is_not_a_failed_row(self, workspace, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bad call")

        monkeypatch.setattr(ple, "fit_bipartition", broken)
        man = self.one_cell_manifest(workspace["tmp"] / "man_bug.json")
        prefix = workspace["tmp"] / "bench_bug"
        # uncaught, so the process exits non-zero with the traceback
        with pytest.raises(TypeError, match="bad call"):
            run_cli("benchmark", "--manifest", str(man), "--out", str(prefix))
        assert not (prefix.parent / "bench_bug.csv").exists()


# every result of ``mimm verify``, in report order
VERIFY_CHECKS = list(VERIFY_TOLERANCES)


class TestVerify:
    def test_fault_injection_breaks_roundtrip(self, workspace, monkeypatch):
        exact = gaussian.mininfo_to_var1

        def perturbed(params):
            good = exact(params)
            Sigma = good.Sigma * (1.0 + 1e-6)
            return gaussian.ClassicalVARParams(A=good.A, Sigma=Sigma)

        monkeypatch.setattr(gaussian, "mininfo_to_var1", perturbed)
        out = workspace["tmp"] / "verify_bad.json"
        rc, text = run_cli("verify", "--out", str(out))
        assert rc == cli.EXIT_NUMERICAL
        report = json.loads(out.read_text())
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert "roundtrip_var1" in failed
        assert [c["name"] for c in report["checks"]] == VERIFY_CHECKS

    def test_ordering_law_checks_see_a_missing_ordering(self, monkeypatch):
        # both checks read the oracle's enumeration, so one ordering fewer
        # must show in each of them
        from mimm import oracle, verify

        enumerate_all = oracle.permutation_statistics
        monkeypatch.setattr(oracle, "permutation_statistics", lambda spec, series: enumerate_all(spec, series)[:-1])
        for check in (verify._check_conditional_normalization, verify._check_score_zero_mean):
            [result] = check()
            assert not result.passed and result.measured > 1e-4

    def test_check_table_runs_every_check(self):
        # a check defined but missing from the table would never run
        from mimm import verify

        defined = [name for name in vars(verify) if name.startswith("_check_")]
        assert [check.__name__ for check in verify._CHECKS] == defined

    def test_riccati_rtol_flag_is_gone(self, workspace):
        out = workspace["tmp"] / "verify_flag.json"
        rc, _ = run_cli("verify", "--riccati-rtol", "1e-2", "--out", str(out))
        assert rc == cli.EXIT_VALIDATION
        assert not out.exists()

    def test_riccati_rtol_config_key_is_gone(self, workspace, capsys):
        conf = workspace["tmp"] / "verify_conf.json"
        conf.write_text(json.dumps({"riccati_rtol": 1e-2}))
        out = workspace["tmp"] / "verify_conf_out.json"
        rc, _ = run_cli("verify", "--config", str(conf), "--out", str(out))
        assert rc == cli.EXIT_VALIDATION
        assert "riccati_rtol" in capsys.readouterr().err
        assert not out.exists()


SCIPY_FREE_RUN = """
import contextlib, io, json, sys
from pathlib import Path

def loaded():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

seen = {}
import mimm
seen["import mimm"] = loaded()
from mimm import cli, core
seen["import mimm.cli"] = loaded()
tmp = Path(sys.argv[1])
spec1, spec2, data = tmp / "ar1.spec", tmp / "ar2.spec", tmp / "ar1.csv"
spec1.write_text(core.ar_spec(1).to_text())
spec2.write_text(core.ar_spec(2).to_text())
runs = [
    ["simulate", "--ar", "0.5", "--sigma2", "0.5", "--n", "300", "--seed", "1", "--out", str(data)],
    ["simulate", "--ar", "0.5", "0.3", "--sigma2", "0.5", "--n", "300", "--out", str(tmp / "ar2.csv")],
]
for est in ("ple-naive", "ple-bipartition", "ple-sgd", "mcle", "mle"):
    runs.append(["fit", "--estimator", est, "--spec", str(spec1), "--data", str(data), "--out", str(tmp / f"{est}.json")])
runs.append(["select", "--data", str(data), "--spec", str(spec1), "--spec", str(spec2), "--out", str(tmp / "select.csv")])
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    seen[" ".join(argv[:4])] = loaded() if rc == 0 else f"exit {rc}"
print(json.dumps(seen))
"""


def test_common_commands_load_no_scipy(tmp_path):
    # importing the package and the CLI, simulating an AR(1) and an AR(2),
    # every fit estimator and select on the AR(1) data run without scipy,
    # which is most of a cold start's import time
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_RUN, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert len(seen) == 10
    assert seen == {step: [] for step in seen}


def test_cli_import_does_not_load_verify():
    # only `mimm verify` runs the checks; the other commands skip their import
    code = "import sys, mimm.cli; sys.exit('mimm.verify' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    # the sh block under "## CLI", run in order: its printf lines write the
    # spec files and every simulate, fit and select line exits 0; the --var1
    # simulate needs matrix files, and benchmark and verify have their own tests
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    ran = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:1] == ["printf"]:
            fmt, redirect, path = argv[1:]
            assert redirect == ">"
            Path(path).write_text(fmt.replace("\\n", "\n"))
        elif argv[:1] == ["mimm"] and argv[1] in ("simulate", "fit", "select") and "--var1" not in argv:
            assert run_cli(*argv[1:])[0] == cli.EXIT_OK, line
            ran.append(argv[1])
    assert ran.count("simulate") == 2 and ran.count("fit") >= 4 and ran.count("select") == 1


def test_cli_reads_no_private_library_name():
    # the CLI uses the library through its public names only, but for the
    # two input rules it shares with the config records
    library = {"core", "gaussian", "mcle", "oracle", "ple", "verify"}
    rules = ["core._check_count", "core._check_positive"]
    tree = ast.parse((SRC / "mimm" / "cli.py").read_text(encoding="utf-8"))
    private = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in library
        and node.attr.startswith("_")
    ]
    private += [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in library
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert sorted(set(private)) == rules

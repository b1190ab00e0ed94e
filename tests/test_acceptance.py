"""Acceptance gate: one test per criterion, each at its stated tolerance,
printing a pass/fail line with the measured values (run with -s to see them).

Criteria 1-4 run the checks of ``mimm verify`` with their tolerances pinned.
The heavy criteria (6-8) are 30-repetition sweeps at fixed seeds; the full
module takes about 12 s on 2 vCPUs.
"""

import contextlib
import io
import json
import time

import numpy as np
import pytest
from scipy.special import logsumexp

from mimm import cli, core, gaussian, mcle, oracle, ple, verify

AR1 = gaussian.ClassicalARParams([0.5], 0.5)
SPEC1 = core.ar_spec(1)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def mean_error_sweep(fit_fn, n, reps, seed_base, truth=1.0):
    errs = []
    for s in range(reps):
        series = gaussian.simulate_ar(AR1, n, seed=seed_base + s)
        errs.append(abs(float(fit_fn(series, s)) - truth))
    return float(np.mean(errs))


def report_checks(criterion, check, tolerances, seconds):
    """Criteria 1-4 are invariants of ``mimm verify``: run its ``check``, pin
    each result's tolerance by check name, and require every result to pass
    and the run to take under ``seconds``."""
    start = time.perf_counter()
    results = check()
    results = [results] if isinstance(results, verify.CheckResult) else list(results)
    elapsed = time.perf_counter() - start
    assert {c.name: c.tolerance for c in results} == tolerances
    ok = all(c.passed and c.measured < c.tolerance for c in results) and elapsed < seconds
    measured = ", ".join(f"{c.name} {c.measured:.2e} < {c.tolerance:.0e}" for c in results)
    report(criterion, ok, f"{measured}, {elapsed:.2f}s < {seconds}s")


def test_criterion_01_transform_exactness():
    tols = {"transform_anchor_values": 1e-15}
    report_checks("criterion 1 (transform exactness)", verify._check_transform_anchors, tols, 1)


def test_criterion_02_roundtrip_suite():
    tols = {"roundtrip_ar1": 1e-10, "roundtrip_ar2": 1e-10, "roundtrip_ard": 1e-9,
            "roundtrip_var1": 1e-10, "riccati_residual": 1e-8}
    report_checks("criterion 2 (round trips)", verify._check_roundtrips, tols, 10)


def test_criterion_03_fisher_information():
    tols = {"fisher_info_quadrature": 1e-6, "fisher_orthogonality": 1e-6}
    report_checks("criterion 3 (Fisher information)", verify._check_fisher, tols, 10)


def test_criterion_04_pythagorean_identity():
    tols = {"pythagorean_identity": 1e-8}
    report_checks("criterion 4 (Pythagorean identity)", verify._check_pythagorean, tols, 5)


def test_criterion_05_exact_oracle_equivalence():
    start = time.perf_counter()
    worst_fit = worst_norm = 0.0
    for seed in (5, 6, 19):
        series = gaussian.simulate_ar(AR1, 8, seed=seed)
        stats = oracle.permutation_statistics(SPEC1, series)
        h_id = core.total_statistic(SPEC1, series)

        target = oracle.exact_cle(SPEC1, series)
        fit = mcle.fisher_scoring(
            SPEC1,
            series,
            scoring_config=mcle.ScoringConfig(max_iters=200, grad_tol=1e-9),
            moment_fn=lambda th, s=series, st=stats: oracle.enumeration_moments(
                SPEC1, s, th, stats=st
            ),
        )
        grid = np.arange(-10.0, 10.0001, 1e-3)
        logf = grid * h_id[0] - logsumexp(grid[:, None] * stats[:, 0][None, :], axis=1)
        best = grid[np.argmax(logf)]
        worst_fit = max(worst_fit, abs(fit.theta[0] - target[0]), abs(fit.theta[0] - best))
        for th in (-1.0, 0.0, 0.7):
            logits = stats @ np.array([th])
            probs = np.exp(logits - logsumexp(logits))
            worst_norm = max(worst_norm, abs(probs.sum() - 1.0))
    elapsed = time.perf_counter() - start
    report(
        "criterion 5 (exact-oracle equivalence)",
        worst_fit < 1e-3 and worst_norm < 1e-12 and elapsed < 30.0,
        f"scoring vs exact maximizer vs grid {worst_fit:.2e} < 1e-3, "
        f"normalization {worst_norm:.1e} < 1e-12, {elapsed:.1f}s < 30s",
    )


def test_criterion_06_benchmark_error_bands():
    ple_100 = mean_error_sweep(
        lambda s, _: ple.fit_naive(SPEC1, s).theta[0], n=100, reps=30, seed_base=1000
    )
    ple_1000 = mean_error_sweep(
        lambda s, _: ple.fit_naive(SPEC1, s).theta[0], n=1000, reps=30, seed_base=1000
    )
    mle_1000 = mean_error_sweep(
        lambda s, _: oracle.mle_ols_ar(s, 1)[1].theta[0], n=1000, reps=30, seed_base=1000
    )
    mcle_100 = mean_error_sweep(
        lambda s, i: mcle.fisher_scoring(
            SPEC1, s, exchange_config=mcle.ExchangeConfig(n_samples=10_000, seed=9000 + i)
        ).theta[0],
        n=100,
        reps=30,
        seed_base=1000,
    )
    ok = (
        0.1 <= ple_100 <= 0.4
        and 0.03 <= ple_1000 <= 0.15
        and 0.03 <= mle_1000 <= 0.12
        and 0.15 <= mcle_100 <= 0.6
        and ple_100 > ple_1000  # error decreases with sample size
    )
    report(
        "criterion 6 (benchmark error bands)",
        ok,
        f"PLE n=100 {ple_100:.3f} in [0.1,0.4] (published 0.211); "
        f"PLE n=1000 {ple_1000:.4f} in [0.03,0.15] (0.0692); "
        f"MLE n=1000 {mle_1000:.4f} in [0.03,0.12] (0.0625); "
        f"MCLE n=100 {mcle_100:.3f} in [0.15,0.6] (0.310)",
    )


def test_criterion_07_online_sgd_budgets():
    start = time.perf_counter()
    means = {}
    for iters in (10**3, 10**4, 10**5):
        means[iters] = mean_error_sweep(
            lambda s, i, it=iters: ple.fit_online_sgd(
                SPEC1, s, ple.SgdConfig(eta=0.001, n_iters=it, seed=i)
            ).theta[0],
            n=1000,
            reps=30,
            seed_base=2000,
        )
    tuned = mean_error_sweep(
        lambda s, i: ple.fit_online_sgd(
            SPEC1, s, ple.SgdConfig(eta=0.01, n_iters=10_000, seed=i)
        ).theta[0],
        n=1000,
        reps=30,
        seed_base=2000,
    )
    elapsed = time.perf_counter() - start
    ok = (
        means[10**3] > means[10**4] > means[10**5]
        and tuned <= 0.2
        and elapsed < 600.0
    )
    report(
        "criterion 7 (online SGD budgets)",
        ok,
        f"eta=0.001 errors {means[10**3]:.3f} > {means[10**4]:.3f} > "
        f"{means[10**5]:.4f} (published 0.649/0.127/0.0752); eta=0.01 at 1e4 "
        f"iters {tuned:.4f} <= 0.2 (0.0892); {elapsed:.0f}s < 600s",
    )


def test_criterion_08_bipartition_speedup():
    errs, times = [], []
    for s in range(30):
        series = gaussian.simulate_ar(AR1, 10_000, seed=3000 + s)
        fit = ple.fit_bipartition(SPEC1, series, seed=s)
        errs.append(abs(float(fit.theta[0]) - 1.0))
        times.append(fit.wall_time_s)
    bip_err = float(np.mean(errs))
    bip_time = float(np.mean(times))

    # wall-time ordering: even a 2-epoch naive run dwarfs a full bipartition
    # fit (absolute seconds are hardware-dependent and not asserted)
    series = gaussian.simulate_ar(AR1, 10_000, seed=3000)
    naive = ple.fit_naive(SPEC1, series, ple.GdConfig(max_epochs=2))
    ok = bip_err <= 0.07 and bip_time < naive.wall_time_s
    report(
        "criterion 8 (bipartition speedup)",
        ok,
        f"bipartition mean error {bip_err:.4f} <= 0.07 at n=1e4 (published "
        f"0.0327); mean wall {bip_time:.3f}s < naive 2-epoch wall "
        f"{naive.wall_time_s:.1f}s",
    )


def test_criterion_09_information_criteria_and_selection(tmp_path):
    # (a) formula check against the published row; the published log
    # pseudo-likelihood is rounded to 1e-2, so -2x carries +-0.01
    aic, pic = ple.aic_pic(-343262.87, K=1, n=1000, d=1)
    formula_ok = abs(aic - 686527.75) < 0.02 and abs(pic - 686538.85) < 0.02

    # (b) selection property over 20 seeded replicates through the CLI
    spec1_path = tmp_path / "ar1.spec"
    spec1_path.write_text(core.ar_spec(1).to_text())
    spec2_path = tmp_path / "ar2.spec"
    spec2_path.write_text(core.ar_spec(2).to_text())
    wins = 0
    for s in range(20):
        data = tmp_path / f"rep{s}.csv"
        gaussian.simulate_ar(AR1, 1000, seed=5000 + s).to_csv(data)
        out = tmp_path / f"sel{s}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(
                [
                    "select",
                    "--data", str(data),
                    "--spec", str(spec1_path),
                    "--spec", str(spec2_path),
                    "--seed", str(s),
                    "--out", str(out),
                ]
            )
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        aics = {row[0]: float(row[3]) for row in rows}
        wins += aics[str(spec1_path)] < aics[str(spec2_path)]

    # (c) bivariate binary/real end-to-end with the four product-form specs
    rng = np.random.default_rng(17)
    n = 1007
    z = gaussian.simulate_ar(gaussian.ClassicalARParams([0.6], 0.5), n, seed=23).data[:, 0]
    b = (rng.random(n) < 1.0 / (1.0 + np.exp(-np.roll(z, 1)))).astype(float)
    bi = core.TimeSeries(np.column_stack([b, z]), kinds=("binary", "real"))
    data_path = tmp_path / "bi.csv"
    bi.to_csv(data_path)
    (tmp_path / "bi.csv.meta.json").write_text(json.dumps({"kinds": ["binary", "real"]}))
    blocks = [
        [(1, 1, 1)],
        [(1, 1, 1), (1, 1, 2)],
        [(1, 1, 1), (1, 2, 1)],
        [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)],
    ]
    spec_args = []
    for i, blk in enumerate(blocks):
        path = tmp_path / f"bi{i}.spec"
        core.kron_spec(2, blk).save(path)
        spec_args += ["--spec", str(path)]
    out = tmp_path / "bi_sel.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(
            ["select", "--data", str(data_path), *spec_args, "--seed", "3", "--out", str(out)]
        )
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    bi_aics = [float(r[3]) for r in rows]
    smoke_ok = rc == 0 and len(bi_aics) == 4 and all(np.isfinite(bi_aics))

    report(
        "criterion 9 (AIC/PIC and model selection)",
        formula_ok and wins >= 16 and smoke_ok,
        f"AIC {aic:.2f} ~ 686527.75, PIC {pic:.2f} ~ 686538.85; AR(1) spec "
        f"selected {wins}/20 (need >= 16); bivariate 4-spec run finite: {bi_aics}",
    )


def test_criterion_10_verify_gate():
    start = time.perf_counter()
    results = list(verify.run_checks())
    elapsed = time.perf_counter() - start
    failures = [c.name for c in results if not c.passed]
    names = {c.name for c in results}
    required = {
        "permutation_invariant_remainder",
        "swap_delta_recompute",
        "logpl_gradient_fd",
        "zero_theta_acceptance",
        "logpl_zero_value",
    }
    ok = not failures and required <= names and elapsed < 120.0
    report(
        "criterion 10 (verify gate)",
        ok,
        f"{len(results)} checks pass in {elapsed:.1f}s < 120s "
        f"(failures: {failures or 'none'})",
    )

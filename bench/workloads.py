"""The four fit workloads: inputs, the timed call into mimm, and the checks.

Every workload is a fixed list of seeded jobs run in a closed loop by one
client: a job starts when the previous one returns.  Job ``k`` draws all of
its randomness (series, chain seed, matching seed, split seed) from child
``k`` of ``np.random.SeedSequence(seed)``, so the same seed gives the same
inputs and the same operation counts.  The list length is ``--seconds``
times the workload's :attr:`Workload.jobs_per_second`, so two commits always
run identical lists and a faster commit finishes the list sooner.  The warm-up job done during set-up uses a fixed input, so set-up
time does not depend on the seed.

Accuracy is ``|theta_hat - theta*|`` against the closed-form truth
``gaussian.ard_to_mininfo(AR(1): phi=0.5, sigma2=0.5).theta = [1.0]``.

Each workload lists its layer predictions: which per-layer metric should
move which end-to-end metric.  A change aimed at one layer should move the
named end-to-end metric on the workloads listed and leave the others alone.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mimm import cli, core, gaussian, mcle, oracle, ple

AR1 = gaussian.ClassicalARParams([0.5], 0.5)
THETA_STAR = np.asarray(gaussian.ard_to_mininfo(AR1).theta, dtype=float)
SPEC1 = core.ar_spec(1)
WARMUP_ENTROPY = 20260101
MIN_JOBS = 11  # the tail percentile needs at least 10 jobs beyond it
SCORING_ITERATIONS = 9
# grad_tol so small that scoring never stops early: every job does the same work
FIXED_SCORING = mcle.ScoringConfig(max_iters=SCORING_ITERATIONS, grad_tol=1e-12)
DEFAULT_SCORING = mcle.ScoringConfig()


@dataclass
class Outcome:
    """What the harness learned from one job's output."""

    errors: dict = field(default_factory=dict)  # estimator -> |theta_hat - theta*|
    problems: list = field(default_factory=list)  # failed checks
    hit: bool | None = None  # select: AIC picked the true AR(1) spec
    converged: bool | None = None  # mcle: reached the default scoring tolerance


@dataclass(frozen=True)
class Band:
    """One edge of an acceptance criterion's band, checked on the run's
    mean error (or, for selection, the run's hit fraction)."""

    label: str
    estimator: str
    limit: float
    lower_is_better: bool = True


def check_theta(out: Outcome, label: str, theta) -> None:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != THETA_STAR.shape or not np.all(np.isfinite(theta)):
        out.problems.append(f"{label}: theta {theta!r} is not a finite {THETA_STAR.shape} vector")
        return
    out.errors[label] = float(np.linalg.norm(theta - THETA_STAR))


def check_log_pl(out: Outcome, label: str, value) -> None:
    if not (math.isfinite(value) and value <= 0.0):
        out.problems.append(f"{label}: log_pl {value!r} is not a finite value <= 0")


class Workload:
    name = ""
    # list length per second of --seconds; near the baseline job rate on a
    # 2-vCPU x86_64 VM, so a run of the parent commit lasts about --seconds
    jobs_per_second = 1.0
    predictions: dict = {}
    bands: tuple = ()

    def __init__(self, workdir: Path, tiny: bool):
        self.workdir = workdir
        self.tiny = tiny

    def job_count(self, seconds: float) -> int:
        return MIN_JOBS if self.tiny else max(MIN_JOBS, round(seconds * self.jobs_per_second))

    def make_jobs(self, seed, n_jobs: int, tag: str = "job") -> list:
        children = np.random.SeedSequence(seed).spawn(n_jobs)
        return [self.make_job(child, f"{tag}{k}") for k, child in enumerate(children)]

    def warmup_job(self):
        return self.make_jobs(WARMUP_ENTROPY, 1, tag="warmup")[0]

    def install(self) -> None:
        """Hook for output capture the job needs; undone by uninstall."""

    def uninstall(self) -> None:
        pass

    def make_job(self, child: np.random.SeedSequence, key: str):
        raise NotImplementedError

    def run(self, job):
        raise NotImplementedError

    def check(self, job, output) -> Outcome:
        raise NotImplementedError


class Ar1AllPairs(Workload):
    """Criterion 6 PLE cell: ``fit_naive`` to convergence at n=1000 over all
    ~5e5 interior pairs.  The batched swap-delta path builds the pair matrix
    once and the GD ascent makes ~100 epochs over it; this is where factored
    pair statistics (ROADMAP item 2) and a Newton solver (item 3) show."""

    name = "ar1-allpairs"
    # jobs take about 1 s but GD epochs vary 55-170 between series, so the
    # list runs ~1.3x --seconds for the median to settle
    jobs_per_second = 1.3
    predictions = {
        "core.swap_deltas.s": "job_s_p50 and peak_rss_mib",
        "core.swap_deltas.peak_alloc_mib": "peak_rss_mib",
        "ple.gd.epochs": "job_s_p50 (bulk matvec per epoch)",
        "ple.gd.epoch_s": "job_s_p50",
        "ple.fit_naive.self_s": "job_s_p50",
        "mcle.*, cli.*, ple.fit_online_sgd.*": "no move",
    }
    bands = (Band("criterion 6: PLE n=1000 mean error <= 0.15", "ple-naive", 0.15),)

    def make_job(self, child, key):
        n = 60 if self.tiny else 1000
        return gaussian.simulate_ar(AR1, n, seed=child)

    def run(self, job):
        return ple.fit_naive(SPEC1, job)

    def check(self, job, output):
        out = Outcome()
        check_theta(out, "ple-naive", output.theta)
        check_log_pl(out, "ple-naive", output.log_pl)
        return out


class Ar1Exchange(Workload):
    """Criterion 6 MCLE cell: Fisher scoring with 10k-sample exchange chains
    at n=100.  Every step is one scalar swap delta under a changing
    permutation; no batched pair statistics and no PL ascent run, so a
    primitive that is faster in batch but slower one step at a time shows
    here and only here.

    Scoring runs a fixed budget of :data:`SCORING_ITERATIONS` iterations
    (9 x 11k = 99k MH steps, the job profiled for the ROADMAP baseline).  Run
    to its default tolerance, chain noise spreads the iteration count over
    3-20, so job time sits on discrete levels and the median job time of a
    run jumps between them (IQR/median 0.2 over five seeds).  Whether a job
    reached the default tolerance is still reported, from its score trace.
    """

    name = "ar1-exchange"
    jobs_per_second = 1.2
    predictions = {
        "mcle.exchange_sample.steps_per_s": "job_s_p50",
        "mcle.exchange_sample.s": "job_s_p50",
        "mcle.fisher_scoring.self_s": "job_s_p50 (scoring loop outside the chains)",
        "mcle.exchange.accept_frac, mcle.converged_frac": "theta_err_mean",
        "core.swap_deltas.*, ple.*, cli.*": "no move",
    }
    bands = (Band("criterion 6: MCLE n=100 mean error <= 0.6", "mcle", 0.6),)

    def make_job(self, child, key):
        data_seed, chain_seed = child.spawn(2)
        n = 30 if self.tiny else 100
        series = gaussian.simulate_ar(AR1, n, seed=data_seed)
        samples = 500 if self.tiny else 10_000
        return series, mcle.ExchangeConfig(n_samples=samples, seed=chain_seed)

    def run(self, job):
        series, config = job
        return mcle.fisher_scoring(SPEC1, series, exchange_config=config, scoring_config=FIXED_SCORING)

    def check(self, job, output):
        series, _ = job
        out = Outcome()
        check_theta(out, "mcle", output.theta)
        if output.iterations != FIXED_SCORING.max_iters:
            out.problems.append(f"mcle: {output.iterations} scoring iterations, budget {FIXED_SCORING.max_iters}")
        # the stopping rule of the default ScoringConfig
        h_scale = 1.0 + float(np.linalg.norm(core.total_statistic(SPEC1, series)))
        out.converged = min(output.score_norm_trace) < DEFAULT_SCORING.grad_tol * h_scale
        return out


KRON_BLOCKS = (
    ((1, 1, 1),),
    ((1, 1, 1), (1, 1, 2)),
    ((1, 1, 1), (1, 2, 1)),
    ((1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)),
)


class SelectCli(Workload):
    """Criterion 9b/9c through the CLI: ``mimm select`` ranks AR(1) against
    AR(2) on an AR(1) series, then the four ``kron_spec`` candidates on a
    binary/real bivariate series.  Few pairs per fit but hundreds of epochs
    each, so time goes to per-epoch solver overhead, multi-term monomial
    evaluation and file I/O; swap_deltas is a few percent."""

    name = "select-cli"
    jobs_per_second = 3.5
    predictions = {
        "ple.gd.epoch_s": "job_s_p50 (per-epoch overhead, not bulk matvec)",
        "core.window_statistics.s": "job_s_p50",
        "cli.main.self_s": "job_s_p50",
        "cli.select.fits": "job_s_p50",
        "core.swap_deltas.s": "small share of job_s_p50 (~8% in the baseline trace)",
        "mcle.*, ple.fit_online_sgd.*": "no move",
    }
    bands = (Band("criterion 9b: AIC picks AR(1) in >= 0.8 of jobs", "select-hit", 0.8, False),)

    def __init__(self, workdir, tiny):
        super().__init__(workdir, tiny)
        self.ar_specs = [workdir / "ar1.spec", workdir / "ar2.spec"]
        self.bi_specs = [workdir / f"bi{i}.spec" for i in range(len(KRON_BLOCKS))]
        self.captured: list = []
        self._original_fit_pairs = None

    def make_jobs(self, seed, n_jobs, tag="job"):
        core.ar_spec(1).save(self.ar_specs[0])
        core.ar_spec(2).save(self.ar_specs[1])
        for path, blocks in zip(self.bi_specs, KRON_BLOCKS):
            core.kron_spec(2, blocks).save(path)
        return super().make_jobs(seed, n_jobs, tag)

    def make_job(self, child, key):
        ar_seed, z_seed, b_seed, select_seed = child.spawn(4)
        n = 200 if self.tiny else 1000
        ar_path = self.workdir / f"{key}-ar.csv"
        gaussian.simulate_ar(AR1, n, seed=ar_seed).to_csv(ar_path)
        # criterion 9c's generator: a binary column driven by the lagged
        # real column of an AR(1)
        n_bi = n + 7
        z = gaussian.simulate_ar(gaussian.ClassicalARParams([0.6], 0.5), n_bi, seed=z_seed).data[:, 0]
        rng = np.random.default_rng(b_seed)
        b = (rng.random(n_bi) < 1.0 / (1.0 + np.exp(-np.roll(z, 1)))).astype(float)
        bi_path = self.workdir / f"{key}-bi.csv"
        core.TimeSeries(np.column_stack([b, z]), kinds=("binary", "real")).to_csv(bi_path)
        Path(str(bi_path) + ".meta.json").write_text(json.dumps({"kinds": ["binary", "real"]}))
        seed = str(int(select_seed.generate_state(1)[0]))
        ar_args = ["select", "--data", str(ar_path), "--seed", seed, "--out", f"{ar_path}.out"]
        bi_args = ["select", "--data", str(bi_path), "--seed", seed, "--out", f"{bi_path}.out"]
        if self.tiny:
            ar_args += ["--splits", "1"]
            bi_args += ["--splits", "1"]
        for path in self.ar_specs:
            ar_args += ["--spec", str(path)]
        for path in self.bi_specs:
            bi_args += ["--spec", str(path)]
        return ar_args, bi_args, f"{ar_path}.out", f"{bi_path}.out"

    def install(self):
        # the CLI keeps the selected theta to itself; record the AR(1) fits'
        # theta as ple.fit_pairs returns them (select averages them over
        # splits for its row)
        original = self._original_fit_pairs = ple.fit_pairs
        captured = self.captured

        def fit_pairs(spec, *args, **kwargs):
            result = original(spec, *args, **kwargs)
            if spec.terms == SPEC1.terms:
                captured.append(result.theta)
            return result

        ple.fit_pairs = fit_pairs

    def uninstall(self):
        if self._original_fit_pairs is not None:
            ple.fit_pairs = self._original_fit_pairs
            self._original_fit_pairs = None

    def run(self, job):
        ar_args, bi_args, _, _ = job
        self.captured.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            rc_ar = cli.main(ar_args)
            ar_thetas = list(self.captured)
            rc_bi = cli.main(bi_args)
        return rc_ar, rc_bi, ar_thetas

    @staticmethod
    def _rows(out, label, path, n_specs):
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as err:
            out.problems.append(f"{label}: cannot read {path}: {err}")
            return []
        if len(rows) != n_specs:
            out.problems.append(f"{label}: {len(rows)} rows for {n_specs} specs")
        for row in rows:
            try:
                aic = float(row["aic"])
                log_pl = float(row["log_pl"])
            except (KeyError, TypeError, ValueError):
                out.problems.append(f"{label}: unparsable row {row!r}")
                continue
            if not math.isfinite(aic):
                out.problems.append(f"{label}: non-finite AIC in {row['spec']}")
            check_log_pl(out, label, log_pl)
        return rows

    def check(self, job, output):
        _, _, ar_out, bi_out = job
        rc_ar, rc_bi, ar_thetas = output
        out = Outcome()
        for label, rc in (("select-ar", rc_ar), ("select-bi", rc_bi)):
            if rc != 0:
                out.problems.append(f"{label}: exit code {rc}")
        rows = self._rows(out, "select-ar", ar_out, len(self.ar_specs))
        self._rows(out, "select-bi", bi_out, len(self.bi_specs))
        best = [row["spec"] for row in rows if row.get("best_aic") == "True"]
        out.hit = best == [str(self.ar_specs[0])]
        if ar_thetas:
            check_theta(out, "select-ar1", np.mean(ar_thetas, axis=0))
        else:
            out.problems.append("select-ar1: no AR(1) fit observed")
        return out


class Ar1LinearN1e4(Workload):
    """The O(n) estimators at n=1e4: ``fit_bipartition`` (criterion 8),
    ``fit_online_sgd`` with eta=0.001 and 1e5 iterations (criterion 7's
    largest budget) and the OLS oracle.  The sequential SGD update loop is
    about two thirds of the job; there is no GD at scale here."""

    name = "ar1-linear-n1e4"
    jobs_per_second = 6.5
    predictions = {
        "ple.sgd.iters_per_s": "job_s_p50",
        "ple.fit_online_sgd.self_s": "job_s_p50",
        "core.swap_deltas.s": "job_s_p50 (1e5 SGD pairs + 5e3 matched pairs)",
        "ple.fit_bipartition.self_s": "job_s_p50",
        "oracle.mle_ols_ar.s": "job_s_p50",
        "mcle.*, cli.*, ple.fit_naive.*": "no move",
    }
    bands = (
        Band("criterion 8: bipartition n=1e4 mean error <= 0.07", "ple-bipartition", 0.07),
        Band("criterion 7: SGD 1e5 iters mean error <= 0.127 (the 1e4-iteration error)", "ple-sgd", 0.127),
        Band("criterion 6: OLS mean error <= 0.12 (MLE band upper edge)", "mle-ols", 0.12),
    )

    def make_job(self, child, key):
        data_seed, match_seed, sgd_seed = child.spawn(3)
        n = 500 if self.tiny else 10_000
        iters = 2_000 if self.tiny else 100_000
        series = gaussian.simulate_ar(AR1, n, seed=data_seed)
        return series, match_seed, ple.SgdConfig(eta=0.001, n_iters=iters, seed=sgd_seed)

    def run(self, job):
        series, match_seed, sgd_config = job
        bip = ple.fit_bipartition(SPEC1, series, seed=match_seed)
        sgd = ple.fit_online_sgd(SPEC1, series, sgd_config)
        _, mle = oracle.mle_ols_ar(series, 1)
        return bip, sgd, mle

    def check(self, job, output):
        bip, sgd, mle = output
        out = Outcome()
        check_theta(out, "ple-bipartition", bip.theta)
        check_log_pl(out, "ple-bipartition", bip.log_pl)
        check_theta(out, "ple-sgd", sgd.theta)
        check_log_pl(out, "ple-sgd", sgd.log_pl)
        check_theta(out, "mle-ols", mle.theta)
        return out


WORKLOADS = {w.name: w for w in (Ar1AllPairs, Ar1Exchange, SelectCli, Ar1LinearN1e4)}


def band_results(workload: Workload, outcomes: list) -> list:
    """(label, value, ok) for every band of the workload, on the run's mean."""
    results = []
    for band in workload.bands:
        if band.estimator == "select-hit":
            hits = [o.hit for o in outcomes if o.hit is not None]
            value = sum(hits) / len(hits) if hits else 0.0
        else:
            errs = [o.errors[band.estimator] for o in outcomes if band.estimator in o.errors]
            value = statistics.fmean(errs) if errs else math.inf
        ok = value <= band.limit if band.lower_is_better else value >= band.limit
        results.append((band.label, value, ok))
    return results

"""Fit benchmark for mimm: one client, closed loop, one process per workload.

Run from the repository root:

    python3 bench/run.py --workload ar1-allpairs --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload's job list with no instrumentation and
prints the end-to-end metrics, scaled to a reference host speed by the
calibration pass measured between jobs (``calibration.py``).  ``--trace 1`` runs the same list twice, first
untimed by any wrapper and then with span tracing (``tracing.py``), and
prints the per-layer metrics together with the tracing overhead (traced
minus untraced scaled job time, over untraced).  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

mimm is imported from ``src/`` next to this directory; BLAS is pinned to one
thread before numpy loads.  Inputs are written under ``.bench_work/`` and
removed at exit; traced runs leave their spans in ``.bench_out/``.
``--tiny`` shrinks every job for the harness self-test (``selftest.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile keeps this many jobs above it

END_TO_END_UNITS = {
    "job_s_p50": "s",
    "job_s_tail": "s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


PER_LAYER_UNITS = {
    "core.swap_deltas.calls": "count",
    "core.swap_deltas.s": "s",
    "core.swap_deltas.pairs": "count",
    "core.swap_deltas.pairs_per_s": "1/s",
    "core.swap_deltas.peak_alloc_mib": "MiB",
    "core.window_statistics.calls": "count",
    "core.window_statistics.s": "s",
    "ple.gd.epochs": "count",
    "ple.gd.epoch_s": "s",
    "ple.fit_naive.self_s": "s",
    "ple.fit_pairs.self_s": "s",
    "ple.fit_bipartition.self_s": "s",
    "ple.log_pl.s": "s",
    "ple.converged_frac": "fraction",
    "ple.fit_online_sgd.self_s": "s",
    "ple.sgd.iters_per_s": "1/s",
    "mcle.exchange_sample.calls": "count",
    "mcle.exchange_sample.s": "s",
    "mcle.exchange_sample.steps": "count",
    "mcle.exchange_sample.steps_per_s": "1/s",
    "mcle.exchange.accept_frac": "fraction",
    "mcle.fisher_scoring.iterations": "count",
    "mcle.fisher_scoring.self_s": "s",
    "mcle.converged_frac": "fraction",
    "gaussian.simulate.s": "s",
    "oracle.mle_ols_ar.s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.select.fits": "count",
    "theta_err_mean": "abs",
    "select_hit_frac": "fraction",
    "failed_frac": "fraction",
    "trace.overhead_frac": "fraction",
    "jobs.count": "count",
    "job_s_tail.pct": "percentile",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny jobs for the self-test")
    return parser.parse_args(argv)


def import_program():
    """Import mimm from this checkout's src/ (never an installed copy) and
    the harness modules that depend on it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mimm

    found = Path(mimm.__file__).resolve().parent
    if found != (src / "mimm").resolve():
        raise ImportError(f"mimm resolved to {found}, not {src / 'mimm'}")
    import calibration
    import tracing
    import workloads

    return workloads, tracing, calibration


def set_up(tracing, calibration, workload, seed, n_jobs, tracer):
    """Build the job list and run one warm-up job, SETUP_REPEATS times.
    Returns the jobs and each repeat's (wall seconds, scaled seconds)."""
    repeats = []
    if tracer is not None:
        tracer.job = "setup"
        tracer.install(tracing.SETUP_TARGETS, count_epochs=False)
    try:
        before = calibration.measure()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            jobs = workload.make_jobs(seed, n_jobs)
            workload.run(workload.warmup_job())
            wall = time.perf_counter() - start
            after = calibration.measure()
            repeats.append((wall, calibration.scale(wall, before, after)))
            before = after
    finally:
        if tracer is not None:
            tracer.uninstall()
    return jobs, repeats


def run_jobs(calibration, workload, jobs, tracer=None):
    """Closed loop: each job starts when the previous one returns, after a
    calibration pass.  A job that raises is kept as its exception and the
    loop goes on.  Returns wall times, scaled times and outputs."""
    times, scaled, outputs = [], [], []
    before = calibration.measure()
    for k, job in enumerate(jobs):
        start = time.perf_counter()
        try:
            if tracer is None:
                output = workload.run(job)
            else:
                tracer.job = k
                output = tracer.span("job", workload.run, job)
        except Exception as err:  # counted as a failed job, not fatal
            traceback.print_exc(file=sys.stderr)
            output = err
        wall = time.perf_counter() - start
        after = calibration.measure()
        times.append(wall)
        scaled.append(calibration.scale(wall, before, after))
        outputs.append(output)
        before = after
    return times, scaled, outputs


def check_all(workloads, workload, jobs, outputs):
    outcomes = []
    for job, output in zip(jobs, outputs):
        if isinstance(output, Exception):
            outcomes.append(workloads.Outcome(problems=[f"raised {output!r}"]))
            continue
        try:
            outcomes.append(workload.check(job, output))
        except Exception as err:  # malformed output counts as a failed check
            outcomes.append(workloads.Outcome(problems=[f"check raised {err!r}"]))
    return outcomes


def tail(times):
    """(value, percentile): the highest nearest-rank percentile with at
    least TAIL_BEYOND jobs above it."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def environment(seed) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
    }


def summarize(workload, args, times, outcomes, bands):
    _, pct = tail(times)
    errors = {}
    for outcome in outcomes:
        for label, err in outcome.errors.items():
            errors.setdefault(label, []).append(err)
    print(f"# workload {workload.name} seed {args.seed} jobs {len(times)} tail p{pct:.1f} "
          f"({TAIL_BEYOND} jobs beyond) {json.dumps(environment(args.seed), sort_keys=True)}")
    for label, errs in sorted(errors.items()):
        print(f"# mean |theta_hat - theta*| {label}: {statistics.fmean(errs):.5f} over {len(errs)} jobs")
    for label, value, ok in bands:
        print(f"# band {'ok' if ok else 'FAILED'}: {label} (run mean {value:.5f})")
    for k, outcome in enumerate(outcomes):
        for problem in outcome.problems:
            print(f"# job {k} failed check: {problem}")


def measure(workloads, tracing, calibration, args, workdir, import_s) -> dict:
    workload = workloads.WORKLOADS[args.workload](workdir, args.tiny)
    n_jobs = workload.job_count(args.seconds)
    tracer = tracing.Tracer() if args.trace else None
    workload.install()
    try:
        import_scaled = calibration.scale(import_s, *(2 * [calibration.measure()]))
        jobs, repeats = set_up(tracing, calibration, workload, args.seed, n_jobs, tracer)
        times, scaled, outputs = run_jobs(calibration, workload, jobs)
        outcomes = check_all(workloads, workload, jobs, outputs)
        if tracer is not None:
            tracer.install()
            try:
                _, traced_scaled, traced_outputs = run_jobs(calibration, workload, jobs, tracer)
            finally:
                tracer.uninstall()
            outcomes += check_all(workloads, workload, jobs, traced_outputs)
    finally:
        workload.uninstall()

    bands = [] if args.tiny else workloads.band_results(workload, outcomes[:n_jobs])
    summarize(workload, args, times, outcomes, bands)
    setup_s = import_scaled + statistics.median(s for _, s in repeats)
    print(f"# wall seconds: job p50 {statistics.median(times):.4f}, tail {tail(times)[0]:.4f}, "
          f"jobs/s {len(times) / sum(times):.4f}, setup {import_s + statistics.median(w for w, _ in repeats):.4f} "
          f"(import {import_s:.4f}, repeats {', '.join(f'{w:.4f}' for w, _ in repeats)}); "
          f"scale {statistics.median(s / t for s, t in zip(scaled, times)):.4f}")
    failed = sum(bool(o.problems) for o in outcomes)
    result = {
        "correct": failed == 0 and all(ok for _, _, ok in bands),
        "attempted": len(outcomes),
        "failed": failed,
    }
    if tracer is None:
        values = {
            "job_s_p50": statistics.median(scaled),
            "job_s_tail": tail(scaled)[0],
            "jobs_per_s": len(scaled) / sum(scaled),
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload.name}-seed{args.seed}.json")
        values = tracing.layer_metrics(tracer, set(range(n_jobs)), SETUP_REPEATS)
        traced = outcomes[n_jobs:]
        errs = [e for o in traced for e in o.errors.values()]
        hits = [o.hit for o in traced if o.hit is not None]
        converged = [o.converged for o in traced if o.converged is not None]
        values.update(
            {
                "theta_err_mean": statistics.fmean(errs) if errs else 0.0,
                "select_hit_frac": sum(hits) / len(hits) if hits else 0.0,
                "mcle.converged_frac": sum(converged) / len(converged) if converged else 0.0,
                "failed_frac": failed / len(outcomes),
                "trace.overhead_frac": (sum(traced_scaled) - sum(scaled)) / sum(scaled),
                "jobs.count": n_jobs,
                "job_s_tail.pct": tail(times)[1],
            }
        )
        units = PER_LAYER_UNITS
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    start = time.perf_counter()
    try:
        workloads, tracing, calibration = import_program()
    except ImportError as err:
        print(f"error: cannot import the program from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = measure(workloads, tracing, calibration, args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

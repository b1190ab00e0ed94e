"""Spans and counters recorded from outside the library.

The traced run replaces public mimm functions with timing wrappers at the
module attribute their callers look them up through.  ``from .core import
swap_deltas`` binds the name into ``mimm.ple`` at import time, so the wrapper
is installed on ``mimm.ple.swap_deltas`` as well as ``mimm.core.swap_deltas``;
the same holds for every other name in :data:`TARGETS`.

A span is ``(name, start, end, parent, job)``.  Spans stay in memory and are
written once, when the run ends.  A span's self time is its duration minus
the durations of its direct children (calls are strictly nested, so the
children never overlap).

GD epochs are counted without touching the solver: the pseudo-likelihood
ascent calls ``mimm.ple.expit`` exactly once per epoch when the pair matrix
is materialized.  If pair statistics are recomputed inside a fit after its
first epoch (the streaming ascent), ``expit`` runs once per chunk and the
count is no longer an epoch count; the tracer then marks epochs unavailable.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc

# (module, attribute, span name)
TARGETS = (
    ("mimm.core", "swap_deltas", "core.swap_deltas"),
    ("mimm.ple", "swap_deltas", "core.swap_deltas"),
    ("mimm.core", "window_statistics", "core.window_statistics"),
    ("mimm.ple", "window_statistics", "core.window_statistics"),
    ("mimm.ple", "fit_naive", "ple.fit_naive"),
    ("mimm.ple", "fit_pairs", "ple.fit_pairs"),
    ("mimm.ple", "fit_bipartition", "ple.fit_bipartition"),
    ("mimm.ple", "fit_online_sgd", "ple.fit_online_sgd"),
    ("mimm.ple", "log_pl", "ple.log_pl"),
    ("mimm.mcle", "exchange_sample", "mcle.exchange_sample"),
    ("mimm.mcle", "fisher_scoring", "mcle.fisher_scoring"),
    ("mimm.oracle", "mle_ols_ar", "oracle.mle_ols_ar"),
    ("mimm.cli", "main", "cli.main"),
)
SETUP_TARGETS = (("mimm.gaussian", "simulate_ar", "gaussian.simulate"),)
GD_FITS = ("ple.fit_naive", "ple.fit_pairs", "ple.fit_bipartition")

MIB = 1024.0 * 1024.0


class Tracer:
    """Records spans of wrapped calls; install/uninstall restore every
    attribute they replaced."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.results: list = []  # return value per span index (None on error)
        self.peaks: dict = {}  # (spec, n, batch) -> peak bytes of one call
        self.job = None
        self.expit_calls = 0
        self.epochs_clean = True
        self._probing = False  # inside a peak-allocation repeat: record nothing
        self._pending: list[tuple] = []  # call shapes to repeat after the job
        self._seen: set = set()
        self._stack: list[int] = []
        self._fit_expit: list[int] = []  # expit count when each open GD fit began
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.results.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[idx] = (name, start, end, parent, self.job)

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a root span (one job), then measure the peak
        allocation of the call shapes the job used for the first time."""
        idx = self._open(name)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, name, start, time.perf_counter())
            self._probe_pending()

    def _wrap(self, name: str, fn):
        tracer = self
        fit = name in GD_FITS
        pairs = name == "core.swap_deltas"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._probing:
                return fn(*args, **kwargs)
            if pairs and tracer._fit_expit and tracer.expit_calls > tracer._fit_expit[-1]:
                tracer.epochs_clean = False  # pair statistics recomputed between epochs
            if fit:
                tracer._fit_expit.append(tracer.expit_calls)
            idx = tracer._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, name, start, time.perf_counter())
                if fit:
                    tracer._fit_expit.pop()
            tracer.results[idx] = result
            if pairs:
                key = (args[0], args[1].n, len(result))
                if key not in tracer._seen:
                    tracer._seen.add(key)
                    tracer._pending.append((key, fn, args, kwargs))
            return result

        return wrapper

    def _probe_pending(self) -> None:
        """Repeat each new call shape once under tracemalloc, outside every
        span: tracemalloc slows each Python allocation several-fold, so no
        timed call runs under it."""
        while self._pending:
            key, fn, args, kwargs = self._pending.pop()
            self._probing = True
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                self.peaks[key] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                self._probing = False

    def _counting_expit(self, fn):
        tracer = self

        @functools.wraps(fn)
        def expit(*args, **kwargs):
            tracer.expit_calls += 1
            return fn(*args, **kwargs)

        return expit

    # -- patching ----------------------------------------------------------

    def install(self, targets=TARGETS, count_epochs=True) -> None:
        for module_name, attr, name in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        if count_epochs:
            module = importlib.import_module("mimm.ple")
            self._patches.append((module, "expit", module.expit))
            module.expit = self._counting_expit(module.expit)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        rows = [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "job": s[4]}
            for s in self.spans
            if s is not None
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, jobs: set, setup_repeats: int) -> dict:
    """Per-layer totals over the spans of ``jobs`` plus the set-up spans.

    Times are inclusive unless the name ends in ``self_s``.  Rates divide a
    count by the time of the layer that did the work.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for span in spans:
        if span is not None and span[3] is not None:
            child[span[3]] += span[2] - span[1]

    total = {}
    own = {}
    calls = {}
    by_name: dict[str, list[int]] = {}
    setup_sim = 0.0
    for idx, span in enumerate(spans):
        if span is None:
            continue
        name, start, end, _, job = span
        if job == "setup":
            if name == "gaussian.simulate":
                setup_sim += end - start
            continue
        if job not in jobs:
            continue
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start - child[idx])
        calls[name] = calls.get(name, 0) + 1
        by_name.setdefault(name, []).append(idx)

    def results(name):
        return [tracer.results[i] for i in by_name.get(name, ()) if tracer.results[i] is not None]

    pairs = sum(int(r.shape[0]) for r in results("core.swap_deltas"))
    peak = max(tracer.peaks.values(), default=0)
    gd = [r for name in GD_FITS for r in results(name)]
    gd_self = sum(own.get(name, 0.0) for name in GD_FITS)
    epochs = tracer.expit_calls if tracer.epochs_clean else -1
    sgd_iters = sum(int(r.n_pairs_used) for r in results("ple.fit_online_sgd"))
    chains = results("mcle.exchange_sample")
    steps = sum(int(r.n_steps) for r in chains)
    accepted = sum(r.acceptance_rate * r.n_steps for r in chains)
    scoring = results("mcle.fisher_scoring")

    cli_fits = 0
    for name in GD_FITS:
        for i in by_name.get(name, ()):
            parent = spans[i][3]
            while parent is not None and spans[parent][0] != "cli.main":
                parent = spans[parent][3]
            cli_fits += parent is not None

    return {
        "core.swap_deltas.calls": calls.get("core.swap_deltas", 0),
        "core.swap_deltas.s": total.get("core.swap_deltas", 0.0),
        "core.swap_deltas.pairs": pairs,
        "core.swap_deltas.pairs_per_s": _ratio(pairs, total.get("core.swap_deltas", 0.0)),
        "core.swap_deltas.peak_alloc_mib": peak / MIB,
        "core.window_statistics.calls": calls.get("core.window_statistics", 0),
        "core.window_statistics.s": total.get("core.window_statistics", 0.0),
        "ple.gd.epochs": epochs,
        "ple.gd.epoch_s": _ratio(gd_self, epochs) if epochs > 0 else 0.0,
        "ple.fit_naive.self_s": own.get("ple.fit_naive", 0.0),
        "ple.fit_pairs.self_s": own.get("ple.fit_pairs", 0.0),
        "ple.fit_bipartition.self_s": own.get("ple.fit_bipartition", 0.0),
        "ple.log_pl.s": total.get("ple.log_pl", 0.0),
        "ple.converged_frac": _ratio(sum(bool(r.converged) for r in gd), len(gd)),
        "ple.fit_online_sgd.self_s": own.get("ple.fit_online_sgd", 0.0),
        "ple.sgd.iters_per_s": _ratio(sgd_iters, own.get("ple.fit_online_sgd", 0.0)),
        "mcle.exchange_sample.calls": calls.get("mcle.exchange_sample", 0),
        "mcle.exchange_sample.s": total.get("mcle.exchange_sample", 0.0),
        "mcle.exchange_sample.steps": steps,
        "mcle.exchange_sample.steps_per_s": _ratio(steps, total.get("mcle.exchange_sample", 0.0)),
        "mcle.exchange.accept_frac": _ratio(accepted, steps),
        "mcle.fisher_scoring.iterations": sum(int(r.iterations) for r in scoring),
        "mcle.fisher_scoring.self_s": own.get("mcle.fisher_scoring", 0.0),
        "gaussian.simulate.s": setup_sim / setup_repeats,
        "oracle.mle_ols_ar.s": total.get("oracle.mle_ols_ar", 0.0),
        "cli.main.calls": calls.get("cli.main", 0),
        "cli.main.self_s": own.get("cli.main", 0.0),
        "cli.select.fits": cli_fits,
    }

"""Pseudo-likelihood estimation: pair statistics, the three fitters, and
information criteria."""

import dataclasses
import inspect
import json
import math
import re
import threading
import time
import tracemalloc
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import brentq, linprog, minimize
from scipy.special import expit
from test_acceptance import assert_verify_passes
from test_core import OVERFLOWING, overflowing_input

from mimm import core, gaussian, ple, verify
from mimm.exceptions import (
    BoundaryViolationError,
    InsufficientDataError,
    InsufficientInteriorError,
    MimmError,
    ParameterDomainError,
    SeparationWarning,
    ShapeMismatchError,
)

AR1 = gaussian.ClassicalARParams([0.5], 0.5)
SPEC1 = core.ar_spec(1)


class TestPairStatistic:
    """The explanatory vector of a pseudo-likelihood factor is minus the
    swap delta of its pair."""

    def test_equal_values_give_zero(self):
        series = core.TimeSeries([1.0, 4.0, 4.0, 2.0])
        np.testing.assert_array_equal(core.swap_delta(SPEC1, series, 1, 2), [0.0])

    def test_worked_example(self):
        series = core.TimeSeries([1.0, 2.0, 3.0, 4.0])
        assert core.swap_delta(SPEC1, series, 1, 2) == pytest.approx([-3.0])

    def test_sign_antisymmetry_under_swapped_series(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal(12)
        series = core.TimeSeries(data)
        s1, s2 = 3, 7
        delta = core.swap_delta(SPEC1, series, s1, s2)
        swapped = data.copy()
        swapped[[s1, s2]] = swapped[[s2, s1]]
        delta_rev = core.swap_delta(SPEC1, core.TimeSeries(swapped), s1, s2)
        np.testing.assert_array_equal(delta_rev, -delta)

    def test_equals_negated_swap_delta_exactly(self):
        rng = np.random.default_rng(1)
        spec = core.ar_spec(2)
        series = core.TimeSeries(rng.standard_normal(25))
        s1, s2 = np.sort([rng.choice(range(2, 23), size=2, replace=False) for _ in range(15)]).T
        ((X,),) = ple._PairDesign(spec, series, [s1], [s2])()
        np.testing.assert_array_equal(X, -core.swap_deltas(spec, series, s1, s2))
        scalar = np.array([core.swap_delta(spec, series, int(a), int(b)) for a, b in zip(s1, s2)])
        np.testing.assert_allclose(X, -scalar, rtol=0.0, atol=1e-12)


class TestLogPl:
    def test_zero_theta_value(self):
        assert_verify_passes(verify._check_logpl_zero, "logpl_zero_value")

    def test_single_pair_high_precision(self):
        import mpmath

        rng = np.random.default_rng(3)
        with mpmath.workdps(60):
            for _ in range(20):
                margin = float(rng.uniform(-30, 30))
                ours = ple.log_pl(np.array([1.0]), np.array([[margin]]))
                exact = float(-mpmath.log(1 + mpmath.exp(-mpmath.mpf(margin))))
                assert ours == pytest.approx(exact, rel=1e-13, abs=1e-300)

    def test_overflow_safe(self):
        value = ple.log_pl(np.array([1.0]), np.array([[-1e4], [1e4]]))
        assert np.isfinite(value) and value <= 0.0

    def test_monotone_in_margins(self):
        X = np.array([[1.0], [2.0], [0.5]])
        lo = ple.log_pl(np.array([0.3]), X)
        hi = ple.log_pl(np.array([0.9]), X)
        assert hi > lo

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            ple.log_pl(np.zeros(1), np.empty((0, 1)))

    def test_pair_width_must_match_theta(self):
        with pytest.raises(ShapeMismatchError, match=r"pair width 2 != len\(theta\) 1"):
            ple.log_pl(np.zeros(1), np.ones((3, 2)))

    def test_gradient_matches_finite_differences(self):
        assert_verify_passes(verify._check_logpl_gradient, "logpl_gradient_fd")

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(float, st.integers(1, 64), elements=st.floats()))
    def test_negated_abs_is_bitwise_copysign(self, m):
        # the kernel takes -|m| as abs then negative; copysign(m, -1.0) gave
        # the same bits for every margin, signed zeros, infinities and nan
        a = np.empty_like(m)
        np.abs(m, out=a)
        np.negative(a, out=a)
        assert a.view(np.uint64).tolist() == np.copysign(m, -1.0).view(np.uint64).tolist()

    def test_bitwise_equal_to_the_copysign_kernel_on_benchmark_inputs(self):
        # the 26 series the ar1-allpairs workload fits at seed 1 and
        # --seconds 20, each at zero, at its fitted theta and past the
        # softplus cut-off
        for child in np.random.SeedSequence(1).spawn(26):
            series = gaussian.simulate_ar(AR1, 1000, seed=child)
            X = all_pairs_matrix(SPEC1, series)
            for theta in (np.zeros(1), ple.fit_naive(SPEC1, series).theta, np.array([-800.0])):
                assert ple.log_pl(theta, X) == copysign_log_pl(theta, X)


def copysign_log_pl(theta, X):
    """The sliced log-PL kernel as it took -|m| before, by copysign."""
    total = 0.0
    for start in range(0, X.shape[0], ple._SLICE_ROWS):
        Xb = X[start : start + ple._SLICE_ROWS]
        m = np.dot(Xb, theta)
        a = np.copysign(m, -1.0)
        np.exp(a, out=a)
        np.log1p(a, out=a)
        np.minimum(m, 0.0, out=m)
        m -= a
        total += m.sum()
    return float(total)


def reference_newton_pass(X, theta):
    """The single-shot pass the sliced kernel replaced: gradient and Fisher
    matrix from one ``expit`` over all rows."""
    p = expit(X @ theta)
    q = 1.0 - p
    return q @ X, (X.T * (p * q)) @ X


def reference_log_pl(X, theta):
    return float(-np.logaddexp(0.0, -(X @ theta)).sum())


def reference_pair_chunks(lo, hi, chunk):
    """The row-by-row pair generator the vectorized one replaced."""
    buf1, buf2, count = [], [], 0
    for s1 in range(lo, hi - 1):
        s2 = np.arange(s1 + 1, hi, dtype=np.intp)
        buf1.append(np.full(len(s2), s1, dtype=np.intp))
        buf2.append(s2)
        count += len(s2)
        if count >= chunk:
            yield np.concatenate(buf1), np.concatenate(buf2)
            buf1, buf2, count = [], [], 0
    if count:
        yield np.concatenate(buf1), np.concatenate(buf2)


def chunk_case(lo, hi):
    """An AR(lo) spec and a series whose interior is [lo, hi)."""
    rng = np.random.default_rng(1000 * lo + hi)
    return core.ar_spec(lo), core.TimeSeries(rng.standard_normal(hi + lo))


def reference_chunk_deltas(lo, hi, chunk):
    """Swap deltas of the row-by-row generator's chunks, from ``swap_deltas``."""
    spec, series = chunk_case(lo, hi)
    return [core.swap_deltas(spec, series, s1, s2) for s1, s2 in reference_pair_chunks(lo, hi, chunk)]


B = ple._SLICE_ROWS


@st.composite
def logistic_designs(draw):
    """A pair matrix cut into 1-3 blocks and a theta whose largest margin
    is ``scale``; row counts sit on and around the slice boundaries."""
    K = draw(st.integers(1, 4))
    n = draw(st.sampled_from([1, 2, B - 1, B, B + 1, 2 * B + 3]))
    scale = draw(st.sampled_from([1e-3, 1.0, 40.0, 800.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, K))
    theta = rng.standard_normal(K)
    theta *= scale / max(np.abs(X @ theta).max(), 1e-300)
    cuts = np.sort(rng.integers(0, n + 1, size=draw(st.integers(0, 2))))
    return X, theta, np.split(X, cuts)


class TestSlicedKernels:
    """The sliced Newton pass and log-PL against the single-shot formulas.

    q = 1 - p and p q are known to the reference only up to ~1e-16 per row
    (1 - expit(m) cancels for large m), so the gradient and Fisher sums are
    compared relative to the largest value they could take, sum |x| and
    sum |x| |x|'.  Every log-PL term has the same sign, so the log-PL is
    compared relative to itself.
    """

    @settings(max_examples=60, deadline=None)
    @given(logistic_designs())
    def test_matches_single_shot_formulas(self, design):
        X, theta, blocks = design
        grad, info = ple._newton_pass(lambda: blocks, theta)
        ref_grad, ref_info = reference_newton_pass(X, theta)
        A = np.abs(X)
        assert np.all(np.abs(grad - ref_grad) <= 1e-12 * A.sum(axis=0))
        assert np.all(np.abs(info - ref_info) <= 1e-12 * (A.T @ A))
        ref = reference_log_pl(X, theta)
        assert abs(ple.log_pl(theta, X) - ref) <= 1e-12 * abs(ref)

    def test_extreme_margins_raise_no_warning(self):
        X = np.array([[800.0, 1.0], [-800.0, 2.0], [1e6, 0.0], [-1e6, 0.5], [0.0, -1.0]])
        theta = np.array([1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grad, info = ple._newton_pass(lambda: (X,), theta)
            value = ple.log_pl(theta, X)
            ref_grad, ref_info = reference_newton_pass(X, theta)
        A = np.abs(X)
        assert np.all(np.abs(grad - ref_grad) <= 1e-12 * A.sum(axis=0))
        assert np.all(np.abs(info - ref_info) <= 1e-12 * (A.T @ A))
        assert value == pytest.approx(-800.0 - 1e6 + math.log(0.5), rel=1e-15)

    def test_no_rows_give_zero_gradient(self):
        grad, info = ple._newton_pass(lambda: (np.empty((0, 2)),), np.ones(2))
        np.testing.assert_array_equal(grad, np.zeros(2))
        np.testing.assert_array_equal(info, np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "lo, hi, chunk",
        [(1, 999, 500_000), (1, 999, 100_000), (2, 60, 7), (1, 4, 1), (3, 5, 10), (1, 50, 0), (1, 3, 1)],
    )
    def test_pair_chunks_match_row_loop(self, lo, hi, chunk):
        got = list(core._all_pairs_blocks(*chunk_case(lo, hi), chunk))
        ref = reference_chunk_deltas(lo, hi, chunk)
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(2, 80), st.integers(1, 400))
    def test_pair_chunks_match_row_loop_random(self, lo, m, chunk):
        got = list(core._all_pairs_blocks(*chunk_case(lo, lo + m), chunk))
        ref = reference_chunk_deltas(lo, lo + m, chunk)
        assert [a.tolist() for a in got] == [b.tolist() for b in ref]


class TestFitNaive:
    def test_recovers_ar1_weight(self):
        series = gaussian.simulate_ar(AR1, 1000, seed=21)
        fit = ple.fit_naive(SPEC1, series)
        assert fit.converged
        assert abs(fit.theta[0] - 1.0) < 0.3
        assert fit.n_pairs_used == ple.n_interior_pairs(1000, 1)
        assert fit.log_pl <= 0.0
        assert fit.aic == pytest.approx(-2 * fit.log_pl + 2)

    def test_ar2_error_band(self):
        ar2 = gaussian.ClassicalARParams([0.5, 0.3], 0.5)
        truth = gaussian.ard_to_mininfo(ar2).theta
        spec = core.ar_spec(2)
        errs = []
        for s in range(10):
            series = gaussian.simulate_ar(ar2, 1000, seed=7100 + s)
            errs.append(float(np.linalg.norm(ple.fit_naive(spec, series).theta - truth)))
        assert 0.04 <= float(np.mean(errs)) <= 0.18  # published mean 0.0876

    def test_null_dependence_stays_near_zero(self):
        estimates = []
        for s in range(30):
            series = gaussian.simulate_ar(gaussian.ClassicalARParams([0.0], 1.0), 300, seed=600 + s)
            estimates.append(float(ple.fit_naive(SPEC1, series).theta[0]))
        estimates = np.asarray(estimates)
        se = estimates.std(ddof=1) / math.sqrt(len(estimates))
        assert abs(estimates.mean()) < 2 * se + 1e-9

    def test_objective_never_decreases_with_small_rate(self):
        series = gaussian.simulate_ar(AR1, 150, seed=15)
        fit = ple.fit_naive(SPEC1, series, ple.GdConfig(max_epochs=80))
        X = all_pairs_matrix(SPEC1, series)
        trace = [ple.log_pl(theta, X) for theta in fit.theta_trace]
        assert fit.theta_trace[-1] == tuple(fit.theta)
        assert trace[-1] == pytest.approx(fit.log_pl, rel=1e-12)
        assert np.all(np.diff(trace) >= -1e-12)

    # a near-unit-root series with cubic monomials: theta runs to ~300,
    # a full Newton step passes the maximum along its direction and the
    # line search halves it
    CUBIC_SPEC = core.DependenceSpec(
        order=1,
        dim=1,
        terms=(
            core.MonomialTerm(((0, 0, 1), (1, 0, 1))),
            core.MonomialTerm(((0, 0, 2), (1, 0, 1))),
            core.MonomialTerm(((0, 0, 1), (1, 0, 3))),
        ),
    )

    @staticmethod
    def cubic_series():
        return gaussian.simulate_ar(gaussian.ClassicalARParams([0.97], 0.1), 16, seed=29)

    def test_damped_steps_keep_the_objective_monotone(self, monkeypatch):
        series = self.cubic_series()
        calls = []
        log_pl = ple._log_pl
        monkeypatch.setattr(ple, "_log_pl", lambda *args: calls.append(log_pl(*args)) or calls[-1])
        fit = ple.fit_naive(self.CUBIC_SPEC, series)
        assert fit.converged
        values = [v for (v,) in calls]  # one design: each call gives one value
        X = all_pairs_matrix(self.CUBIC_SPEC, series)
        trace = [ple.log_pl(theta, X) for theta in fit.theta_trace]
        # the line search rejected a step well below the optimum, not
        # roundoff there
        rejected = [v for v in values if v not in trace]
        assert min(rejected) < trace[-1] - 1.0
        assert np.all(np.diff(trace) >= -1e-12)

    def test_budget_spent_on_a_damped_step_keeps_the_last_iterate(self, monkeypatch):
        # the first backtrack follows pass 10, so with a 10-pass budget no
        # pass is left for the gradient at the damped point: the fit
        # returns the iterate before the step, with its gradient
        series = self.cubic_series()
        calls = []
        log_pl = ple._log_pl
        monkeypatch.setattr(ple, "_log_pl", lambda *args: calls.append(log_pl(*args)) or calls[-1])
        config = ple.GdConfig(max_epochs=10)
        fit = ple.fit_naive(self.CUBIC_SPEC, series, config)
        assert fit.iterations == config.max_epochs and not fit.converged
        # the line search ran before the final log-PL and stepped back
        assert len(calls) > 2 and len(fit.theta_trace) == config.max_epochs - 1
        assert fit.theta_trace[-1] == tuple(fit.theta)
        X = all_pairs_matrix(self.CUBIC_SPEC, series)
        grad = X.T @ expit(-(X @ fit.theta))
        assert fit.grad_norm == pytest.approx(np.linalg.norm(grad) / len(X), rel=1e-9)

    def test_no_ascent_along_the_step_keeps_the_last_iterate(self, monkeypatch):
        # with no certificate and every trial point read below the base,
        # the line search after the first overshoot (pass 8 here, pass 10
        # with the certificate) halves down to its smallest step and gives
        # up: the fit returns the iterate before the step, unconverged,
        # with its log-PL and gradient
        series = self.cubic_series()
        log_pl = ple._log_pl
        seen = []  # the base value is read first; one design, so thetas (1, K)

        def lowered(theta, X):
            seen.append(theta.copy())
            return log_pl(theta, X) if np.array_equal(theta, seen[0]) else np.full(len(theta), -math.inf)

        monkeypatch.setattr(ple, "_certificate", lambda *args: (False, math.inf))
        monkeypatch.setattr(ple, "_log_pl", lowered)
        fit = ple.fit_naive(self.CUBIC_SPEC, series)
        assert not fit.converged
        # one pass per accepted iterate, then the overshoot's pass
        assert fit.iterations == len(fit.theta_trace) + 1 < ple.GdConfig().max_epochs
        assert len(seen) > 2  # the base and at least two trial points
        assert fit.theta_trace[-1] == tuple(fit.theta) == tuple(seen[0][0])
        X = all_pairs_matrix(self.CUBIC_SPEC, series)
        assert fit.log_pl == pytest.approx(log_pl(fit.theta, X), rel=1e-12)
        grad = X.T @ expit(-(X @ fit.theta))
        assert fit.grad_norm == pytest.approx(np.linalg.norm(grad) / len(X), rel=1e-9)

    def test_streamed_fit_pass_count(self, monkeypatch):
        # a 2-epoch streamed fit reads the pairs three times: two Newton
        # passes and the final objective
        series = gaussian.simulate_ar(AR1, 60, seed=17)
        rows = []
        all_pairs_deltas = core._all_pairs_deltas

        def counting(*args):
            block = all_pairs_deltas(*args)
            rows.append(len(block))
            return block

        monkeypatch.setattr(core, "_all_pairs_deltas", counting)
        monkeypatch.setattr(ple, "_MATERIALIZE_LIMIT", 0)
        monkeypatch.setattr(ple, "_CHUNK_PAIRS", 400)
        fit = ple.fit_naive(SPEC1, series, ple.GdConfig(max_epochs=2))
        assert fit.iterations == 2 and not fit.converged
        assert len(rows) > 3  # streamed in several chunks
        assert sum(rows) == 3 * ple.n_interior_pairs(60, 1)

    def test_streaming_matches_materialized(self, monkeypatch):
        series = gaussian.simulate_ar(AR1, 300, seed=16)
        cfg = ple.GdConfig(max_epochs=40)
        a = ple.fit_naive(SPEC1, series, cfg)
        monkeypatch.setattr(ple, "_MATERIALIZE_LIMIT", 0)
        monkeypatch.setattr(ple, "_CHUNK_PAIRS", 5000)
        b = ple.fit_naive(SPEC1, series, cfg)
        assert a.theta[0] == pytest.approx(b.theta[0], abs=1e-10)
        assert a.log_pl == pytest.approx(b.log_pl, rel=1e-10)

    def test_held_chunks_match_streamed_fit_bitwise(self, monkeypatch):
        # a held design keeps one block per chunk, so the Newton passes and
        # the log-PL visit the same rows in the same order as a streamed fit
        series = gaussian.simulate_ar(AR1, 300, seed=16)
        monkeypatch.setattr(ple, "_CHUNK_PAIRS", 400)
        held = ple.fit_naive(SPEC1, series)
        monkeypatch.setattr(ple, "_MATERIALIZE_LIMIT", 0)
        streamed = ple.fit_naive(SPEC1, series)
        assert held.iterations == streamed.iterations and held.converged == streamed.converged
        np.testing.assert_array_equal(held.theta, streamed.theta)
        assert (held.log_pl, held.aic, held.pic, held.grad_norm) == (
            streamed.log_pl, streamed.aic, streamed.pic, streamed.grad_norm
        )

    def test_interior_too_small(self):
        with pytest.raises(InsufficientInteriorError):
            ple.fit_naive(core.ar_spec(2), core.TimeSeries([1.0, 2.0, 3.0, 4.0, 5.0]))

    def test_held_fit_peak_memory_under_twice_the_pair_matrix(self):
        # the held design is built by row tiles: no pair index arrays as
        # large as the matrix sit beside it
        series = gaussian.simulate_ar(AR1, 1000, seed=21)
        tracemalloc.start()
        try:
            fit = ple.fit_naive(SPEC1, series)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix_bytes = fit.n_pairs_used * SPEC1.n_terms * 8
        assert fit.converged
        assert peak <= 2 * matrix_bytes

    def test_strided_design_peak_memory_is_its_blocks_plus_a_few_blocks(self, monkeypatch):
        # a pilot's design, every 64th pair, is cut into blocks of whole
        # rows like the full one: building it holds its blocks, the rows'
        # pair counts and one block's temporaries, about 10 blocks' bytes
        # above the held ones; built as one block of all 125k kept pairs,
        # its index arrays took about 90
        series = gaussian.simulate_ar(AR1, 4000, seed=21)
        monkeypatch.setattr(ple, "_CHUNK_PAIRS", 4000)
        design = ple._PairDesign(SPEC1, series).every(64)
        SPEC1._table._swap_tables(series)  # the cached tables, built before the trace
        tracemalloc.start()
        try:
            blocks = list(design._deltas())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(b.nbytes for b in blocks)
        assert len(blocks) > 30 and sum(b.shape[1] for b in blocks) == design.n_pairs
        assert max(b.shape[1] for b in blocks) <= 4000 + 4000 // 64 + 1  # a chunk plus one row
        # 16 blocks' bytes cover the count arrays (n = 4000 entries) and the
        # index arrays and swap_deltas temporaries of one block, and stay
        # far below the one-block build's 90
        assert peak - held <= 16 * 4000 * 8


def all_pairs_matrix(spec, series):
    lo, hi = spec.order, series.n - spec.order
    s1, s2 = np.triu_indices(hi - lo, 1)
    return -core.swap_deltas(spec, series, s1 + lo, s2 + lo)


def fit_first_pairs(spec, series):
    """fit_pairs on the first disjoint pairs of the interior."""
    s1 = np.arange(spec.order, series.n - spec.order - 1, 2)
    return ple.fit_pairs(spec, series, s1, s1 + 1)


def binary_real_series(n, seed):
    """Binary column driven by the lagged real column of an AR(1)."""
    z_seed, b_seed = np.random.SeedSequence(seed).spawn(2)
    z = gaussian.simulate_ar(gaussian.ClassicalARParams([0.6], 0.5), n, seed=z_seed).data[:, 0]
    b = np.random.default_rng(b_seed).random(n) < 1.0 / (1.0 + np.exp(-np.roll(z, 1)))
    return core.TimeSeries(np.column_stack([b.astype(float), z]), kinds=("binary", "real"))


def ar_series(d, n, seed):
    params = gaussian.ClassicalARParams([0.5] if d == 1 else [0.5, 0.3], 0.5)
    return gaussian.simulate_ar(params, n, seed=seed)


def separable(X):
    """Whether some e has X e >= 0 on every row and 1'X e = 1, so that the
    log-PL rises along e without bound and has no maximizer; decided by an
    LP (HiGHS)."""
    N, K = X.shape
    lp = linprog(
        np.zeros(K), A_ub=-X, b_ub=np.zeros(N), A_eq=X.sum(axis=0)[None], b_eq=[1.0],
        bounds=(None, None), method="highs",
    )
    assert lp.status in (0, 2), lp.message  # feasible or infeasible, nothing else
    return lp.status == 0


# The design strategies return the length and seed they drew, not the
# series, so that a falsifying example names a reproducible input.


@st.composite
def ar_designs(draw):
    """AR(1)/AR(2) lag monomials x_t^a x_{t-l}^b, a, b <= 3, with the length
    and seed of an :func:`ar_series`."""
    d = draw(st.integers(1, 2))
    exponents = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=d, max_size=d))
    terms = tuple(
        core.MonomialTerm(((0, 0, a), (lag, 0, b))) for lag, (a, b) in enumerate(exponents, start=1)
    )
    spec = core.DependenceSpec(order=d, dim=1, terms=terms)
    return spec, draw(st.integers(30, 70)), draw(st.integers(0, 2**32 - 1))


@st.composite
def binary_kron_designs(draw):
    """p = 2 kron specs with the length and seed of a
    :func:`binary_real_series`; any squared block makes columns collinear
    (b**2 == b)."""
    extra = draw(st.lists(st.sampled_from([(1, 1, 2), (1, 2, 1), (1, 2, 2)]), unique=True))
    spec = core.kron_spec(2, [(1, 1, 1), *extra])
    return spec, draw(st.integers(40, 80)), draw(st.integers(0, 2**32 - 1))


class TestNewtonAgainstBfgs:
    """The Newton fit against scipy BFGS from theta = 0 on -log_pl.  BFGS
    from 0 stays in the row space of the pair matrix, so on rank-deficient
    designs both land on the same (minimum-norm) maximizer.  On a separable
    design there is no maximizer, and on any design a BFGS run that reports
    failure only bounds the supremum from below: the log-PL is concave, so
    the Newton fit must reach the BFGS value, up to what the stopping rule
    leaves (on a separable design the log-PL still rises along the
    separating direction by about the stopping gradient, N * tol)."""

    @staticmethod
    def check(spec, series):
        # tight tol: the comparison is about the maximizer, not the stopping rule
        fit = ple.fit_naive(spec, series, ple.GdConfig(tol=1e-9))
        X = all_pairs_matrix(spec, series)
        oracle = minimize(
            lambda t: -ple.log_pl(t, X),
            np.zeros(spec.n_terms),
            jac=lambda t: -reference_newton_pass(X, t)[0],
            method="BFGS",
            options={"gtol": 1e-10 * len(X), "maxiter": 10_000},
        )
        assert fit.converged
        if oracle.success and not separable(X):
            assert np.linalg.norm(fit.theta - oracle.x) <= 1e-5 * (1.0 + np.linalg.norm(fit.theta))
            assert fit.log_pl == pytest.approx(-oracle.fun, rel=1e-8)
        else:
            assert fit.log_pl >= -oracle.fun - 1e-8 * abs(oracle.fun)
        return oracle

    @settings(max_examples=25, deadline=None)
    @given(ar_designs())
    def test_ar_specs(self, design):
        spec, n, seed = design
        self.check(spec, ar_series(spec.order, n, seed))

    @settings(max_examples=25, deadline=None)
    @given(binary_kron_designs())
    def test_binary_kron_specs(self, design):
        spec, n, seed = design
        self.check(spec, binary_real_series(n, seed))

    @pytest.mark.parametrize("seed, negative", [(99, 12), (209, 0)], ids=["near-separable", "separable"])
    def test_binary_kron_design_where_bfgs_fails(self, seed, negative):
        # column 0 (b_t b_{t-1}) of the pair matrix is negative on 12 of the
        # 703 pairs, or on none: then theta_0 has no finite maximizer, and
        # BFGS runs on to 36 where Newton stops at 20.5.  BFGS stops on
        # precision loss in both.
        spec = core.kron_spec(2, [(1, 1, 1)])
        series = binary_real_series(40, seed)
        X = all_pairs_matrix(spec, series)
        assert np.sum(X[:, 0] < 0) == negative
        assert separable(X) == (negative == 0)
        assert not self.check(spec, series).success

    def test_separable_binary_kron_design_where_bfgs_succeeds(self):
        # column 0 is >= 0 on all 703 pairs, so theta_0 has no finite
        # maximizer; BFGS reports success at 36.2 where Newton stops at
        # 20.2, and only the log-PL bound holds
        spec = core.kron_spec(2, [(1, 1, 1)])
        series = binary_real_series(40, 1035)
        assert separable(all_pairs_matrix(spec, series))
        oracle = self.check(spec, series)
        assert oracle.success
        assert oracle.x[0] > ple.fit_naive(spec, series, ple.GdConfig(tol=1e-9)).theta[0] + 10.0

    def test_full_step_below_the_objective_rounding_converges(self):
        # the full Newton step (4.2e-9) raises the log-PL by about 3e-15,
        # below the rounding of the two sums a line search compares: halved
        # steps crawled through all 500 passes at gradient 1.16e-9 > tol;
        # the certificate keeps the full step
        spec = core.DependenceSpec(order=1, dim=1, terms=(core.MonomialTerm(((0, 0, 2), (1, 0, 2))),))
        series = gaussian.simulate_ar(AR1, 53, seed=127729)
        self.check(spec, series)
        assert ple.fit_naive(spec, series, ple.GdConfig(tol=1e-9)).iterations <= 10

    def test_rank_deficient_design_gives_finite_min_norm_theta(self):
        spec = core.kron_spec(2, [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)])
        series = binary_real_series(120, 9)
        X = all_pairs_matrix(spec, series)
        assert np.linalg.matrix_rank(X) < spec.n_terms
        with warnings.catch_warnings():
            warnings.simplefilter("error", SeparationWarning)
            fit = ple.fit_naive(spec, series)
        assert fit.converged and np.all(np.isfinite(fit.theta))
        # no component along the null space of X
        row_space = np.linalg.pinv(X) @ X
        np.testing.assert_allclose(row_space @ fit.theta, fit.theta, atol=1e-8)


def forbid_newton_solves(monkeypatch):
    """Make the Newton step's linear algebra (the range basis's eigh and the
    step's solve) fail the test if it runs."""
    for name in ("eigh", "solve"):
        monkeypatch.setattr(np.linalg, name, mock.Mock(side_effect=AssertionError(f"np.linalg.{name} ran")))


@st.composite
def step_cases(draw):
    """The gradient and information of ``_newton_pass`` at a theta with
    margins up to +-5: on all pairs of an AR(1)/AR(2) design or of a
    binary/real kron design (collinear columns), either with one column
    duplicated; or an all-zero information with any gradient."""
    kind = draw(st.sampled_from(["ar", "kron", "zero"]))
    if kind == "zero":
        K = draw(st.integers(1, 16))
        return draw(hnp.arrays(float, K, elements=st.floats(-1e3, 1e3))), np.zeros((K, K))
    spec, n, seed = draw(ar_designs() if kind == "ar" else binary_kron_designs())
    series = ar_series(spec.order, n, seed) if kind == "ar" else binary_real_series(n, seed)
    X = all_pairs_matrix(spec, series)
    if draw(st.booleans()):
        X = np.column_stack([X, X[:, draw(st.integers(0, X.shape[1] - 1))]])
    theta = np.random.default_rng(seed).standard_normal(X.shape[1])
    top = np.abs(X @ theta).max()
    theta *= draw(st.floats(0.0, 5.0)) / top if top > 0.0 else 0.0
    return ple._newton_pass(lambda: (X,), theta)


class TestRangeStep:
    """The Newton step solves the information restricted to the range of
    the first pass's: lstsq's minimum-norm step while that range holds,
    with the basis taken again when it does not."""

    @settings(max_examples=200, deadline=None)
    @given(step_cases())
    def test_step_is_the_minimum_norm_least_squares_solution(self, case):
        grad, info = case
        expected = np.linalg.lstsq(info, grad, rcond=ple._RCOND)[0]
        step = ple._range_step(ple._range_basis(info[None])[0], info, grad)
        assert np.linalg.norm(step - expected) <= 1e-10 * (1.0 + np.linalg.norm(expected))

    def test_full_rank_basis_is_the_identity(self):
        assert ple._range_basis(np.diag([2.0, 1e-9])[None]) == [None]
        assert ple._range_basis(np.diag([2.0, 1e-11])[None])[0].shape == (2, 1)
        assert ple._range_basis(np.zeros((1, 3, 3)))[0].shape == (3, 0)

    def test_information_that_loses_a_direction_is_rebased(self, monkeypatch):
        # f(theta) = 3 theta_0 - exp(theta_0), flat in theta_1, from (2, 0):
        # the first pass's information also holds theta_1, every later one
        # only theta_0, so the first basis (the identity) turns singular
        def pass_fn(theta):
            passes.append(theta)
            return np.array([3.0 - math.exp(theta[0]), 0.0]), np.diag([math.exp(theta[0]), 0.0])

        def value_fn(theta):
            return 3.0 * theta[0] - math.exp(theta[0])

        passes, basis = [], mock.Mock(side_effect=ple._range_basis)
        monkeypatch.setattr(ple, "_range_basis", basis)
        theta = np.array([2.0, 0.0])
        first = (np.array([3.0 - math.exp(2.0), 0.0]), np.diag([math.exp(2.0), 1.0]))

        def stacked_pass(points):  # one design: B = 1
            grad, info = pass_fn(points[0])
            return grad[None], info[None]

        (ascent,) = ple._newton(
            stacked_pass, lambda points: np.array([value_fn(points[0])]),
            [theta], (first[0][None], first[1][None]), ple.GdConfig(tol=1e-12), 1.0,
        )
        assert ascent.converged and ascent.theta[0] == pytest.approx(math.log(3.0), abs=1e-12)
        assert basis.call_count == 2 and basis.call_args.args[0][0, 1, 1] == 0.0
        # every step is lstsq's minimum-norm step on its pass's information
        infos = [first] + [pass_fn(t) for t in passes[: len(ascent.trace) - 2]]
        for (grad, info), a, b in zip(infos, ascent.trace, ascent.trace[1:]):
            expected = np.linalg.lstsq(info, grad, rcond=ple._RCOND)[0]
            # theta's own rounding, about 2e-16, bounds the step read back from the trace
            np.testing.assert_allclose(np.subtract(b, a), expected, rtol=1e-12, atol=1e-15)
        assert all(t[1] == 0.0 for t in ascent.trace)


class TestCutBasisTakenAgain:
    """A first range basis that dropped a direction is taken again from the
    current information as the ascent goes on: a direction cut at theta 0
    can carry weight later, where a basis kept from theta 0 never lets the
    fit converge."""

    CUBIC = core.DependenceSpec.from_text("0:0^1*1:0^1\n0:0^3*1:0^1\n0:0^1*1:0^3\n0:0^3*1:0^3\n")

    @staticmethod
    def heavy_tailed_series(seed):
        # AR(1), phi 0.5, t(2) innovations, the first 200 values dropped
        e = np.random.default_rng(seed).standard_t(2, size=800)
        x = np.empty(800)
        x[0] = e[0]
        for i in range(1, 800):
            x[i] = 0.5 * x[i - 1] + e[i]
        return core.TimeSeries(x[200:])

    @pytest.mark.parametrize("seed", [0, 1, 6, 8, 9])
    def test_heavy_tailed_cubic_fit_converges(self, seed):
        # with the basis of theta 0 kept, seeds 0 and 6 stopped unconverged
        # at 500 passes, their gradient norms 0.43 and above; seeds 1, 8
        # and 9 did so while a basis retaken at full rank was taken again
        # at every later step
        series = self.heavy_tailed_series(seed)
        _, (info,) = ple._newton_pass(ple._PairDesign(self.CUBIC, series), np.zeros((1, 4)))
        assert ple._range_basis(info[None])[0].shape == (4, 3)  # the first basis cuts a direction
        fit = ple.fit_naive(self.CUBIC, series)
        assert fit.converged and fit.iterations < 100

    def test_a_structural_null_direction_is_not_taken_again(self, monkeypatch):
        # b**2 == b: two of the 8 columns copy others, and the fit runs on
        # the 6 distinct statistics (ple._distinct_terms), whose
        # information is full rank: the first pass's one basis is the
        # identity and serves every step
        spec, series = core.kron_spec(2, [(1, 1, 1), (1, 2, 1)]), binary_real_series(400, 3)
        bases, range_basis = [], ple._range_basis

        def recording(infos):
            bases.append(range_basis(infos))
            return bases[-1]

        monkeypatch.setattr(ple, "_range_basis", recording)
        fit = ple.fit_naive(spec, series)
        assert fit.converged and fit.iterations > 2 and bases == [[None]]


@st.composite
def repeated_statistic_designs(draw):
    """A spec and a series whose pair design may have equal columns: a
    :func:`binary_kron_designs` draw, or x_t x_{t-1} listed twice, with
    x_t x_{t-2} between the copies or not, on an AR(1) series."""
    if draw(st.booleans()):
        spec, n, seed = draw(binary_kron_designs())
        return spec, binary_real_series(n, seed)
    text = draw(st.sampled_from(["0:0^1*1:0^1\n0:0^1*1:0^1\n", "0:0^1*1:0^1\n0:0^1*2:0^1\n0:0^1*1:0^1\n"]))
    return core.DependenceSpec.from_text(text), ar_series(1, draw(st.integers(30, 70)), draw(st.integers(0, 2**32 - 1)))


def statistic_groups(spec, kinds):
    """The term indices of each distinct statistic: terms that agree once
    every binary-column factor's exponent is 1 (b**e == b on 0/1 values)."""
    groups = {}
    for k, term in enumerate(spec.terms):
        key = tuple((lag, c, 1 if kinds[c] == "binary" else e) for lag, c, e in term.factors)
        groups.setdefault(key, []).append(k)
    return list(groups.values())


class TestDistinctStatistics:
    """A Newton fit runs on one column per distinct statistic, each scaled
    by the square root of its copies, and reports the K-term fit: equal
    weights on equal columns, the log-PL and gradient of the full design."""

    @settings(max_examples=60, deadline=None)
    @given(repeated_statistic_designs())
    def test_fit_is_the_full_designs(self, case):
        spec, series = case
        X = all_pairs_matrix(spec, series)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SeparationWarning)
            fit = ple.fit_naive(spec, series)
        trace = np.array(fit.theta_trace)
        for group in statistic_groups(spec, series.kinds):
            for k in group[1:]:
                assert X[:, k].tobytes() == X[:, group[0]].tobytes()
                assert fit.theta[k].tobytes() == fit.theta[group[0]].tobytes()
                assert trace[:, k].tobytes() == trace[:, group[0]].tobytes()
        np.testing.assert_array_equal(trace[-1], fit.theta)
        assert fit.log_pl == pytest.approx(ple.log_pl(fit.theta, X), rel=1e-12)
        if fit.converged:
            # the stop read the norm of the K-term gradient, up to the
            # rounding of two sums of the pairs' terms (each at most |x|):
            # a fit that ends at a gradient of 1e-7 differs by 1e-9 of it
            exact = np.linalg.norm(reference_newton_pass(X, fit.theta)[0]) / len(X)
            rounding = np.finfo(float).eps * np.abs(X).sum() / len(X)
            assert exact <= fit.grad_norm * (1.0 + 1e-9) + rounding

    @pytest.mark.parametrize("n", [300, 800], ids=["cold", "piloted"])
    def test_a_term_listed_twice_splits_the_one_term_theta(self, n):
        # the minimum-norm split of the one-term maximizer: half on each copy
        series = ar_series(1, n, 11)
        one = ple.fit_naive(SPEC1, series)
        twice = ple.fit_naive(core.DependenceSpec.from_text("0:0^1*1:0^1\n" * 2), series)
        assert one.converged and twice.converged and twice.iterations == one.iterations
        assert (one.stages["pilot_s"] > 0.0) == (twice.stages["pilot_s"] > 0.0) == (n == 800)
        np.testing.assert_allclose(twice.theta, [one.theta[0] / 2.0] * 2, rtol=1e-12)
        assert twice.log_pl == pytest.approx(one.log_pl, rel=1e-12)

    @pytest.mark.parametrize(
        "scale, message", [(1e160, "pair statistics of term"), (5e152, "pair sums of term")], ids=["statistics", "sums"]
    )
    def test_an_overflowing_merged_fit_names_the_users_term(self, scale, message):
        # b**2 z' and b**3 z' are one statistic, b z'; the refusal names
        # the first of the spec's own terms
        rng = np.random.default_rng(5)
        data = np.column_stack([rng.random(200) < 0.5, rng.standard_normal(200) * scale])
        series = core.TimeSeries(data, kinds=("binary", "real"))
        spec = core.DependenceSpec.from_text("0:0^2*1:1^1\n0:0^3*1:1^1\n")
        assert ple._distinct_terms(spec, series.kinds).spec.terms == spec.terms[:1]
        with pytest.raises(ParameterDomainError, match=rf"^{message} 0:0\^2\*1:1\^1 "):
            ple.fit_naive(spec, series)


class TestTelemetry:
    def test_newton_fit_reports_passes_and_gradient(self):
        series = gaussian.simulate_ar(AR1, 300, seed=18)
        fit = ple.fit_naive(SPEC1, series)
        X = all_pairs_matrix(SPEC1, series)
        expected = np.linalg.norm(reference_newton_pass(X, fit.theta)[0]) / len(X)
        assert fit.converged and 2 <= fit.iterations <= 20
        # a fit the certificate ends reports its bound on the exact norm
        assert expected <= fit.grad_norm <= ple.GdConfig().tol
        record = fit.to_dict()
        assert record["iterations"] == fit.iterations
        assert record["grad_norm"] == fit.grad_norm

    def test_epoch_budget_bounds_iterations(self):
        series = gaussian.simulate_ar(AR1, 300, seed=18)
        fit = ple.fit_bipartition(SPEC1, series, seed=1, config=ple.GdConfig(max_epochs=1))
        # the one pass is the gradient at theta = 0; no step is left to check
        assert fit.iterations == 1 and not fit.converged
        assert fit.grad_norm > ple.GdConfig().tol
        assert fit.theta[0] == 0.0

    def test_sgd_reports_no_convergence_verdict(self):
        series = gaussian.simulate_ar(AR1, 300, seed=19)
        fit = ple.fit_online_sgd(SPEC1, series, ple.SgdConfig(n_iters=500, seed=2))
        assert fit.converged is None and fit.grad_norm is None
        assert fit.iterations == 500
        record = json.loads(json.dumps(fit.to_dict()))
        assert record["converged"] is None and record["iterations"] == 500

    def test_sgd_refuses_pair_statistics_past_the_float_range(self):
        # at 1e200 every margin would be nan, fail the _EXP_MAX test and skip
        # its update: theta 0 with no word of it; at 1e100 the statistics are
        # finite, theta reached 1.1e198 and the log-PL -inf.  No overflow
        # warning comes first: this suite makes warnings errors
        for case in "ab":
            series, spec = overflowing_input(case)
            with pytest.raises(
                ParameterDomainError, match=r"pair statistics of term 0:0\^1\*1:0\^1 .*core\.standard_scale"
            ):
                ple.fit_online_sgd(spec, series, ple.SgdConfig(seed=1))

    @pytest.mark.parametrize("case", sorted(OVERFLOWING))
    @pytest.mark.parametrize("fit", [ple.fit_naive, ple.fit_bipartition], ids=["naive", "bipartition"])
    def test_newton_fits_refuse_statistics_past_the_square_limit(self, fit, case, monkeypatch):
        # the solve failed inside LAPACK ("SVD did not converge"), which
        # printed to stdout; the first pass is checked before any solve
        series, spec = overflowing_input(case)
        forbid_newton_solves(monkeypatch)
        label = re.escape(spec.terms[0].label())
        with pytest.raises(ParameterDomainError, match=rf"^pair statistics of term {label} .*core\.standard_scale"):
            fit(spec, series)

    def test_a_pilot_checks_its_own_first_pass(self, monkeypatch):
        # 318 003 pairs: the pilot on every 64th pair runs first, and its
        # first pass is the one refused
        series = core.TimeSeries(np.random.default_rng(0).standard_normal(800) * 1e200)
        passes = mock.Mock(side_effect=ple._newton_pass)
        monkeypatch.setattr(ple, "_newton_pass", passes)
        with pytest.raises(ParameterDomainError, match=r"^pair statistics of term 0:0\^1\*1:0\^1 "):
            ple.fit_naive(SPEC1, series)
        assert passes.call_count == 1
        assert passes.call_args.args[0].n_pairs == -(-ple.n_interior_pairs(800, 1) // ple._PILOT_STRIDE)

    @pytest.mark.parametrize(
        "fit, n",
        [(ple.fit_naive, 50), (ple.fit_bipartition, 50), (fit_first_pairs, 50), (ple.fit_naive, 800)],
        ids=["naive", "bipartition", "pairs", "naive-piloted"],
    )
    def test_constant_series_is_refused(self, fit, n, monkeypatch):
        # each returned theta [0.0] "converged" with grad_norm 0.0; all
        # pairs of 800 values are enough for a pilot, whose own first pass
        # is the one refused
        forbid_newton_solves(monkeypatch)
        with pytest.raises(InsufficientDataError, match="^every pair statistic is zero, so theta is not identified$"):
            fit(SPEC1, core.TimeSeries(np.full(n, 2.0)))

    def test_constant_column_is_refused_for_its_own_terms(self):
        # a constant real column leaves only the other column's terms to fit
        rng = np.random.default_rng(3)
        series = core.TimeSeries(np.column_stack([np.full(60, -1.5), rng.standard_normal(60)]))
        on_constant = core.DependenceSpec(order=1, dim=2, terms=SPEC1.terms)
        with pytest.raises(InsufficientDataError, match="every pair statistic is zero"):
            ple.fit_naive(on_constant, series)
        assert ple.fit_naive(core.DependenceSpec.from_text("0:1^1*1:1^1\n"), series).converged

    def test_ordinary_fits_never_scan_for_zero_statistics(self, monkeypatch):
        check = mock.Mock(side_effect=ple._check_identified)
        monkeypatch.setattr(ple, "_check_identified", check)
        series = gaussian.simulate_ar(AR1, 200, seed=5)
        ple.fit_naive(SPEC1, series)
        ple.fit_bipartition(core.ar_spec(2), series, seed=1)
        assert check.call_count == 0

    def test_sums_that_overflow_name_the_term(self):
        # every pair statistic is in range, but the Fisher sum over the
        # pairs overflows: refused before the solve, which failed in LAPACK
        series = core.TimeSeries(np.random.default_rng(0).standard_normal(300) * 1e76)
        assert np.abs(all_pairs_matrix(SPEC1, series)).max() <= core._STATISTIC_LIMIT
        with pytest.raises(ParameterDomainError, match=r"^pair sums of term 0:0\^1\*1:0\^1 overflow.*core\.standard_scale"):
            ple.fit_naive(SPEC1, series)

    def test_record_holds_every_field_but_the_trace(self):
        fit = ple.fit_naive(SPEC1, gaussian.simulate_ar(AR1, 100, seed=21))
        record = fit.to_dict()
        fields = {field.name for field in dataclasses.fields(fit)}
        assert set(record) == fields - {"theta_trace"} | {"schema_version"}
        assert record["schema_version"] == 1 and record["theta"] == fit.theta.tolist()
        assert json.loads(json.dumps(record)) == record

    def test_a_field_added_in_a_subclass_is_written(self):
        @dataclasses.dataclass(frozen=True, eq=False)
        class RankedResult(ple.PleResult):
            rank: int | None = None

        fit = ple.fit_online_sgd(SPEC1, gaussian.simulate_ar(AR1, 100, seed=22), ple.SgdConfig(n_iters=50, seed=1))
        ranked = RankedResult(**{field.name: getattr(fit, field.name) for field in dataclasses.fields(fit)}, rank=2)
        assert ranked.to_dict() == fit.to_dict() | {"rank": 2}

    def test_stages_are_nonnegative_and_within_wall_time(self, monkeypatch):
        series = gaussian.simulate_ar(AR1, 200, seed=20)
        fits = [
            ple.fit_naive(SPEC1, series),
            ple.fit_bipartition(SPEC1, series, seed=1),
            ple.fit_pairs(SPEC1, series, *ple.spaced_matching(200, 1, seed=2)),
            ple.fit_online_sgd(SPEC1, series, ple.SgdConfig(n_iters=500, seed=3)),
        ]
        monkeypatch.setattr(ple, "_MATERIALIZE_LIMIT", 0)
        monkeypatch.setattr(ple, "_CHUNK_PAIRS", 3000)
        fits.append(ple.fit_naive(SPEC1, series))
        for fit in fits:
            newton = {"pilot_s"} if fit.method != "ple-sgd" else set()
            assert set(fit.stages) == {"pairs_s", "solver_s", "log_pl_s"} | newton
            assert all(v >= 0.0 for v in fit.stages.values())
            assert sum(fit.stages.values()) <= fit.wall_time_s
            assert json.loads(json.dumps(fit.to_dict()))["stages"] == fit.stages

    def test_sgd_pair_draw_time_counts_as_pair_time(self, monkeypatch):
        series = gaussian.simulate_ar(AR1, 60, seed=17)
        calls = []
        default_rng = np.random.default_rng

        class SlowDraws:
            def __init__(self, seed):
                self._rng = default_rng(seed)

            def integers(self, *args, **kwargs):
                calls.append(1)
                time.sleep(0.05)
                return self._rng.integers(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", SlowDraws)
        fit = ple.fit_online_sgd(SPEC1, series, ple.SgdConfig(n_iters=200, seed=3))
        assert calls
        assert fit.stages["pairs_s"] >= 0.05 * len(calls)
        assert fit.stages["solver_s"] < 0.05
        assert sum(fit.stages.values()) <= fit.wall_time_s

    def test_streamed_pair_time_is_summed_over_passes(self, monkeypatch):
        series = gaussian.simulate_ar(AR1, 60, seed=17)
        calls = []
        all_pairs_deltas = core._all_pairs_deltas

        def slow(*args):
            calls.append(1)
            time.sleep(0.005)
            return all_pairs_deltas(*args)

        monkeypatch.setattr(core, "_all_pairs_deltas", slow)
        monkeypatch.setattr(ple, "_MATERIALIZE_LIMIT", 0)
        monkeypatch.setattr(ple, "_CHUNK_PAIRS", 400)
        fit = ple.fit_naive(SPEC1, series, ple.GdConfig(max_epochs=2))
        assert fit.stages["pairs_s"] >= 0.005 * len(calls)
        assert sum(fit.stages.values()) <= fit.wall_time_s

    def test_pair_index_time_counts_as_pair_time(self, monkeypatch):
        series = gaussian.simulate_ar(AR1, 60, seed=17)
        calls = []
        all_pairs_deltas = core._all_pairs_deltas

        def slow(*args):
            calls.append(1)
            time.sleep(0.05)
            return all_pairs_deltas(*args)

        monkeypatch.setattr(core, "_all_pairs_deltas", slow)
        for limit, cfg in ((ple._MATERIALIZE_LIMIT, ple.GdConfig()), (0, ple.GdConfig(max_epochs=2))):
            monkeypatch.setattr(ple, "_MATERIALIZE_LIMIT", limit)
            calls.clear()
            fit = ple.fit_naive(SPEC1, series, cfg)
            assert calls
            assert fit.stages["pairs_s"] >= 0.05 * len(calls)
            assert fit.stages["solver_s"] < 0.05
            assert sum(fit.stages.values()) <= fit.wall_time_s


def spy_fits(monkeypatch):
    """Record every result ``ple._fit`` returns, pilots included."""
    results, fit = [], ple._fit

    def recording(*args, start=None):
        fits = fit(*args, start=start)
        results.extend(fits)
        return fits

    monkeypatch.setattr(ple, "_fit", recording)
    return results


def one_design(spec, series, s1, s2):
    """The ``_PairDesign`` of every interior pair (s1 None) or of one list."""
    return ple._PairDesign(spec, series) if s1 is None else ple._PairDesign(spec, series, [s1], [s2])


def design_rows(blocks):
    """The pair rows of a one-design ``_PairDesign`` pass, as one matrix."""
    return np.concatenate(tuple(blocks), axis=1)[0]


def assert_same_fit(a, b):
    assert (a.iterations, a.converged, a.log_pl, a.grad_norm) == (b.iterations, b.converged, b.log_pl, b.grad_norm)
    np.testing.assert_array_equal(a.theta, b.theta)


@st.composite
def pair_designs(draw):
    """A spec, a series, its interior pairs (s1 None) or a random list of
    them, a chunk size and two strides."""
    spec = draw(
        st.sampled_from([SPEC1, core.ar_spec(2), core.kron_spec(2, [(1, 1, 1)]), core.kron_spec(2, [(1, 1, 1), (1, 2, 2)])])
    )
    d = spec.order
    n = draw(st.integers(2 * d + 2, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    series = core.TimeSeries(rng.standard_normal((n, spec.dim)))
    s1 = s2 = None
    if draw(st.booleans()):
        s1, s2 = core._uniform_pairs(rng, d, n - d, draw(st.integers(1, 200)))
    return spec, series, s1, s2, draw(st.integers(1, 300)), draw(st.integers(1, 70)), draw(st.integers(1, 70))


class TestPilotStart:
    """A design of at least _PILOT_STRIDE * _PILOT_MIN_PAIRS pairs starts
    its Newton ascent from a converged fit on every 64th pair."""

    @pytest.mark.parametrize("chunk", [400, 5000])
    def test_deltas_stride_matches_strided_rows_held_and_streamed(self, monkeypatch, chunk):
        # each fitter's design.every(k) is every k-th row of its design
        monkeypatch.setattr(ple, "_CHUNK_PAIRS", chunk)
        captured, fit = [], ple._fit

        def capturing(design, *rest, start=None):
            captured.append(design)
            return fit(design, *rest, start=start)

        monkeypatch.setattr(ple, "_fit", capturing)
        for spec, series in (
            (SPEC1, gaussian.simulate_ar(AR1, 120, seed=5)),
            (core.ar_spec(2), gaussian.simulate_ar(gaussian.ClassicalARParams([0.5, 0.3], 0.5), 120, seed=6)),
            (core.kron_spec(2, [(1, 1, 1)]), binary_real_series(120, 7)),
        ):
            X = all_pairs_matrix(spec, series)
            s1, s2 = np.triu_indices(series.n - 2 * spec.order, 1)
            s1, s2 = s1[::3] + spec.order, s2[::3] + spec.order
            captured.clear()
            ple.fit_naive(spec, series)
            ple.fit_pairs(spec, series, s1, s2)
            ple.fit_bipartition(spec, series, seed=4)
            expected = (X, X[::3], None)
            for limit in (ple._MATERIALIZE_LIMIT, 0):
                monkeypatch.setattr(ple, "_MATERIALIZE_LIMIT", limit)
                for design, rows in zip(captured, expected):
                    full = design_rows(design.every(1)())
                    if rows is not None:
                        np.testing.assert_array_equal(full, rows)
                    for k in (1, 7, 64):
                        thinned = design.every(k)
                        assert thinned.n_pairs == -(-design.n_pairs // k)
                        blocks = thinned()
                        assert isinstance(blocks, tuple) == (limit > 0)
                        np.testing.assert_array_equal(design_rows(blocks), full[::k])

    @settings(max_examples=60, deadline=None)
    @given(pair_designs())
    def test_every_keeps_every_kth_row_held_and_streamed(self, case):
        spec, series, s1, s2, chunk, j, k = case
        full = all_pairs_matrix(spec, series) if s1 is None else -core.swap_deltas(spec, series, s1, s2)
        for limit in (ple._MATERIALIZE_LIMIT, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ple, "_CHUNK_PAIRS", chunk)
                mp.setattr(ple, "_MATERIALIZE_LIMIT", limit)
                design = one_design(spec, series, s1, s2)
                cases = ((design, full), (design.every(k), full[::k]), (design.every(j).every(k), full[:: j * k]))
                for thinned, rows in cases:
                    assert thinned.n_pairs == len(rows)
                    np.testing.assert_array_equal(design_rows(thinned()), rows)

    def test_held_and_streamed_fits_bitwise_equal_with_the_pilot(self, monkeypatch):
        # 400-pair chunks are no multiple of the stride, so the pilot's
        # pairs fall at every offset within the design's chunks; the
        # 692-pair pilot runs a pilot of its own
        series = gaussian.simulate_ar(AR1, 300, seed=16)
        monkeypatch.setattr(ple, "_PILOT_MIN_PAIRS", 8)
        monkeypatch.setattr(ple, "_CHUNK_PAIRS", 400)
        results = spy_fits(monkeypatch)
        held = ple.fit_naive(SPEC1, series, ple.GdConfig(tol=1e-10))
        assert [r.n_pairs_used for r in results] == [11, 692, 44253]
        assert held.stages["pilot_s"] > 0.0 and held.converged
        monkeypatch.setattr(ple, "_MATERIALIZE_LIMIT", 0)
        streamed = ple.fit_naive(SPEC1, series, ple.GdConfig(tol=1e-10))
        assert_same_fit(held, streamed)
        for a, b in zip(results[:3], results[3:]):
            assert_same_fit(a, b)

    @pytest.mark.parametrize("design", ["ar1", "ar2", "binary-kron"])
    def test_pilot_start_agrees_with_cold_start(self, monkeypatch, design):
        config = ple.GdConfig(tol=1e-10)
        spec, series = {
            "ar1": lambda: (SPEC1, gaussian.simulate_ar(AR1, 800, seed=31)),
            "ar2": lambda: (
                core.ar_spec(2),
                gaussian.simulate_ar(gaussian.ClassicalARParams([0.5, 0.3], 0.5), 800, seed=32),
            ),
            "binary-kron": lambda: (core.kron_spec(2, [(1, 1, 1)]), binary_real_series(800, 33)),
        }[design]()
        warm = ple.fit_naive(spec, series, config)
        monkeypatch.setattr(ple, "_PILOT_MIN_PAIRS", 10**12)
        cold = ple.fit_naive(spec, series, config)
        assert warm.stages["pilot_s"] > 0.0 and cold.stages["pilot_s"] == 0.0
        assert min(warm.stages.values()) >= 0.0 and sum(warm.stages.values()) <= warm.wall_time_s
        assert warm.converged and cold.converged
        assert warm.iterations < cold.iterations
        np.testing.assert_allclose(warm.theta, cold.theta, rtol=0.0, atol=1e-9)

    def test_unconverged_pilot_is_discarded(self, monkeypatch):
        series = gaussian.simulate_ar(AR1, 300, seed=16)
        config = ple.GdConfig(max_epochs=2)
        monkeypatch.setattr(ple, "_PILOT_MIN_PAIRS", 64)
        results = spy_fits(monkeypatch)
        fit = ple.fit_naive(SPEC1, series, config)
        pilot = results[0]
        assert pilot.n_pairs_used == 692 and pilot.iterations == 2 and not pilot.converged
        monkeypatch.setattr(ple, "_PILOT_MIN_PAIRS", 10**12)
        assert_same_fit(fit, ple.fit_naive(SPEC1, series, config))

    def test_pilot_warnings_other_than_separation_reach_the_caller(self, monkeypatch):
        # each Newton pass warns with its design's row count: the 692-pair
        # pilot's warnings must reach the caller with the full design's
        series = gaussian.simulate_ar(AR1, 300, seed=16)
        monkeypatch.setattr(ple, "_PILOT_MIN_PAIRS", 64)
        newton_pass = ple._newton_pass

        def warning_pass(blocks, theta):
            warnings.warn(f"pass over {sum(X.shape[-2] for X in blocks())} rows", RuntimeWarning)
            return newton_pass(blocks, theta)

        monkeypatch.setattr(ple, "_newton_pass", warning_pass)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ple.fit_naive(SPEC1, series)
        assert {str(w.message) for w in caught} == {"pass over 692 rows", "pass over 44253 rows"}
        assert all(w.category is RuntimeWarning for w in caught)

    def test_pilot_stopped_at_the_divergence_cap_is_discarded_silently(self, monkeypatch):
        # every 64th pair has x = 1e-3, so the pilot design is separable and
        # its theta runs past the cap while the mean gradient is still about
        # 1e-4; the rest (x = +-1, three to one) bound the full fit's theta
        x = np.where(np.arange(4096) % 4 == 3, -1.0, 1.0)
        x[::64] = 1e-3

        class SyntheticDesign(ple._PairDesign):
            # pair i's row is x[i]; the listed positions only set the count
            def _deltas(self):
                return (-x[None, :: self._stride, None],)

        design = SyntheticDesign(SPEC1, core.TimeSeries(np.zeros(4)), [np.arange(len(x))], [np.arange(len(x))])
        monkeypatch.setattr(ple, "_PILOT_MIN_PAIRS", 64)
        results = spy_fits(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (fit,) = ple._fit(design, ple.GdConfig(), "ple-test")
        pilot = results[0]
        assert pilot.n_pairs_used == 64 and not pilot.converged
        assert np.linalg.norm(pilot.theta) > ple._THETA_CAP
        assert fit.converged
        monkeypatch.setattr(ple, "_PILOT_MIN_PAIRS", 10**12)
        assert_same_fit(fit, ple._fit(design.every(1), ple.GdConfig(), "ple-test")[0])

    def test_requested_fit_at_the_divergence_cap_warns_at_its_caller(self, monkeypatch):
        # every pair has x = 1e-3: separable, so theta runs past the cap
        # while the mean gradient is still about 1e-4
        x = np.full(64, 1e-3)

        class SyntheticDesign(ple._PairDesign):
            def _deltas(self):
                return (-x[None, :: self._stride, None],)

        monkeypatch.setattr(ple, "_PairDesign", SyntheticDesign)
        positions = np.arange(len(x))
        with pytest.warns(SeparationWarning, match="^theta norm exceeded the divergence cap") as caught:
            line = inspect.currentframe().f_lineno + 1
            fit = ple.fit_pairs(SPEC1, core.TimeSeries(np.zeros(4)), positions, positions)
        assert len(caught) == 1
        assert (caught[0].filename, caught[0].lineno) == (__file__, line)
        assert not fit.converged and np.linalg.norm(fit.theta) > ple._THETA_CAP

    def test_threaded_pilot_fits_match_serial_without_a_warnings_filter(self):
        # n = 800 gives 318003 pairs, so each fit runs a pilot; no fit
        # touches the process-wide warnings filter.  Two threads fit one
        # spec on two series, so they replace each other's entry in the
        # spec's one swap-table cache
        series = gaussian.simulate_ar(AR1, 800, seed=21)
        other = gaussian.simulate_ar(AR1, 800, seed=22)

        def select_like(data):  # nine small fits, as select_specs runs them
            return [ple.fit_pairs(SPEC1, data, *ple.spaced_matching(800, 1, seed)) for seed in range(9)]

        jobs = [
            *(partial(ple.fit_naive, spec, data) for spec, data in ((SPEC1, series), (core.ar_spec(2), series), (SPEC1, other))),
            partial(select_like, series),
            partial(select_like, other),
        ]
        serial = [job() for job in jobs]
        assert all(fit.stages["pilot_s"] > 0.0 for fit in serial[:3])
        threaded = [None] * len(jobs)

        def run(i):
            threaded[i] = jobs[i]()

        workers = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
        # patched only while the threads run: pytest's own reporting uses it
        with mock.patch.object(warnings, "catch_warnings", side_effect=AssertionError("filter swapped")):
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        assert not any(worker.is_alive() for worker in workers)
        for a, b in zip(threaded[:3] + threaded[3] + threaded[4], serial[:3] + serial[3] + serial[4]):
            assert_same_fit(a, b)
            assert a.theta_trace == b.theta_trace


@st.composite
def certificate_cases(draw):
    """A pair design of K = 1-4 columns, real or with binary-monomial
    values in {-1, 0, 1}; theta with margins up to +-40; a step along the
    Newton direction or a random one, scaled to rho = |s| max |x| from 1e-3
    to 3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    K, N = draw(st.integers(1, 4)), draw(st.integers(2, 40))
    columns = []
    for _ in range(K):
        if draw(st.booleans()):
            columns.append(rng.integers(-1, 2, N).astype(float))
        else:
            columns.append(draw(st.floats(0.1, 10.0)) * rng.standard_normal(N) + draw(st.floats(-1.0, 1.0)))
    X = np.column_stack(columns)
    theta = rng.standard_normal(K)
    top = np.abs(X @ theta).max()
    theta *= draw(st.floats(0.0, 40.0)) / top if top > 0.0 else 0.0
    grad, info = ple._newton_pass(lambda: (X,), theta)
    if draw(st.booleans()):
        step = np.linalg.lstsq(info, grad, rcond=ple._RCOND)[0]
    else:
        step = rng.standard_normal(K)
    row_norm = float(np.sqrt((X * X).sum(axis=1)).max())
    length = float(np.linalg.norm(step)) * row_norm
    if length > 0.0:
        step *= 10.0 ** draw(st.floats(-3.0, math.log10(3.0))) / length
    return X, theta, step, grad, info, row_norm


class TestCertifiedStep:
    """The self-concordance certificate never accepts a step that lowers the
    log-PL, and its gradient bound holds at the step's end."""

    @staticmethod
    def assert_no_descent(X, theta, step):
        before = ple.log_pl(theta, X)
        assert ple.log_pl(theta + step, X) >= before - 1e-12 * (1.0 + abs(before))

    @settings(max_examples=300, deadline=None)
    @given(certificate_cases())
    def test_certified_steps_never_lower_the_log_pl(self, case):
        X, theta, step, grad, info, row_norm = case
        if ple._certificate(grad, info, step, row_norm)[0]:
            self.assert_no_descent(X, theta, step)

    @settings(max_examples=300, deadline=None)
    @given(certificate_cases())
    def test_gradient_bound_holds(self, case):
        # the bound is on the exact gradient at theta + step; the slack
        # covers the rounding of the sums both sides are computed from
        X, theta, step, grad, info, row_norm = case
        bound = ple._certificate(grad, info, step, row_norm)[1]
        exact = np.linalg.norm(reference_newton_pass(X, theta + step)[0])
        scale = np.abs(X).sum()
        assert exact <= bound + 1e-12 * scale

    def test_psi(self):
        assert ple._psi(0.0) == 0.5
        assert ple._psi(1e-3 * (1 - 1e-12)) == pytest.approx(ple._psi(1e-3), rel=1e-12)
        grid = np.linspace(0.0, 5.0, 501)
        assert np.all(np.diff([ple._psi(r) for r in grid]) > 0.0)
        assert brentq(lambda r: ple._psi(r) - 1.0, 1.0, 3.0) == pytest.approx(1.7933, abs=1e-4)
        assert ple._psi(1e4) == math.inf

    def test_zero_rho(self):
        X = np.array([[1.0, -2.0], [0.5, 3.0], [-1.0, 1.0]])
        theta = np.array([0.3, -0.2])
        grad, info = ple._newton_pass(lambda: (X,), theta)
        assert ple._certificate(grad, info, np.zeros(2), 3.2)[0]
        # a design of zero rows: no step moves a margin
        Z = np.zeros((4, 2))
        grad, info = ple._newton_pass(lambda: (Z,), theta)
        assert ple._certificate(grad, info, np.array([5.0, -1.0]), 0.0)[0]
        self.assert_no_descent(Z, theta, np.array([5.0, -1.0]))

    @pytest.mark.parametrize("side", [-0.01, 0.01])
    def test_newton_step_on_either_side_of_rho_star(self, side):
        # x = +1 on three pairs in four, -1 on the rest: the Newton step from
        # theta0 < log 3 has rho = |s|, which falls as theta0 rises
        X = np.array([[1.0], [1.0], [1.0], [-1.0]])

        def newton(theta0):
            grad, info = ple._newton_pass(lambda: (X,), np.array([theta0]))
            return grad, info, grad / info[0]

        rho_star = brentq(lambda r: ple._psi(r) - 1.0, 1.0, 3.0)
        theta0 = brentq(lambda t: abs(newton(t)[2][0]) - (rho_star + side), -3.0, math.log(3.0) - 1e-6)
        grad, info, step = newton(theta0)
        assert ple._certificate(grad, info, step, 1.0)[0] == (side < 0)
        if side < 0:
            self.assert_no_descent(X, np.array([theta0]), step)


@st.composite
def large_designs(draw):
    """An AR spec of :func:`ar_designs` or a binary/real kron spec, with a
    series whose design has more than ``_SLICE_ROWS`` pairs: every interior
    pair or a uniform list of them; a tolerance."""
    if draw(st.booleans()):
        spec = draw(ar_designs())[0]
        series = ar_series(spec.order, draw(st.integers(190, 320)), draw(st.integers(0, 2**32 - 1)))
    else:
        spec = draw(binary_kron_designs())[0]
        series = binary_real_series(draw(st.integers(190, 320)), draw(st.integers(0, 2**32 - 1)))
    s1 = s2 = None
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        count = draw(st.integers(ple._SLICE_ROWS + 1, 30_000))
        s1, s2 = core._uniform_pairs(rng, spec.order, series.n - spec.order, count)
    return spec, series, s1, s2, ple.GdConfig(tol=draw(st.sampled_from([1e-6, 1e-9])))


def spy_certificate_calls(monkeypatch):
    """For each certificate call, whether its gradient is the last Newton
    pass's, that is, whether the call precedes the pass at theta + step."""
    calls, last = [], []
    newton_pass, certificate = ple._newton_pass, ple._certificate

    def recording_pass(blocks, theta):
        last[:] = [newton_pass(blocks, theta)]
        return last[0]

    def recording_certificate(grad, *rest):
        calls.append(any(np.array_equal(grad, row) for row in last[0][0]))  # a design's row of that pass
        return certificate(grad, *rest)

    monkeypatch.setattr(ple, "_newton_pass", recording_pass)
    monkeypatch.setattr(ple, "_certificate", recording_certificate)
    return calls


class TestCertifiedStop:
    """On a design of more than _SLICE_ROWS pairs the fit stops without the
    pass at theta + step when the certificate bounds the gradient there by
    tol; it returns the theta and log-PL that pass would have confirmed."""

    @settings(max_examples=20, deadline=None)
    @given(large_designs())
    def test_stop_saves_at_most_one_pass_and_changes_nothing_else(self, case):
        spec, series, s1, s2, config = case
        X = all_pairs_matrix(spec, series) if s1 is None else -core.swap_deltas(spec, series, s1, s2)
        certificate = ple._certificate
        for limit in (ple._MATERIALIZE_LIMIT, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ple, "_MATERIALIZE_LIMIT", limit)
                mp.setattr(ple, "_CHUNK_PAIRS", 7000)
                (fit,) = ple._fit(one_design(spec, series, s1, s2), config, "ple-test")
                mp.setattr(ple, "_certificate", lambda *args: (certificate(*args)[0], math.inf))
                (full,) = ple._fit(one_design(spec, series, s1, s2), config, "ple-test")
            assert fit.theta.tobytes() == full.theta.tobytes()
            assert (fit.log_pl, fit.converged) == (full.log_pl, full.converged)
            assert fit.theta_trace == full.theta_trace
            assert fit.iterations in (full.iterations, full.iterations - 1)
            if fit.iterations < full.iterations:
                # the slack is the rounding of the reference sum, as in
                # TestCertifiedStep.test_gradient_bound_holds
                exact = np.linalg.norm(reference_newton_pass(X, fit.theta)[0])
                assert exact <= fit.grad_norm * len(X) + 1e-12 * np.abs(X).sum()
                assert fit.grad_norm * len(X) <= config.tol * len(X)

    @settings(max_examples=40, deadline=None)
    @given(pair_designs())
    def test_max_row_norm_is_the_largest_row_norm_held_and_streamed(self, case):
        # held or streamed, a design takes it during its first sweep
        spec, series, s1, s2, chunk, _, _ = case
        X = all_pairs_matrix(spec, series) if s1 is None else -core.swap_deltas(spec, series, s1, s2)
        norms = []
        for limit in (ple._MATERIALIZE_LIMIT, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ple, "_CHUNK_PAIRS", chunk)
                mp.setattr(ple, "_MATERIALIZE_LIMIT", limit)
                design = one_design(spec, series, s1, s2)
                assert design.max_row_norm is None
                for _ in design():
                    pass
                (norm,) = design.max_row_norm
                norms.append(norm)
        assert norms[0] == norms[1] == pytest.approx(np.linalg.norm(X, axis=1).max(), rel=1e-14)

    @pytest.mark.parametrize("limit", [ple._MATERIALIZE_LIMIT, 0], ids=["held", "streamed"])
    def test_stop_ends_a_large_fit_one_pass_sooner(self, monkeypatch, limit):
        series = gaussian.simulate_ar(AR1, 300, seed=18)
        monkeypatch.setattr(ple, "_MATERIALIZE_LIMIT", limit)
        fit = ple.fit_naive(SPEC1, series)
        certificate = ple._certificate
        monkeypatch.setattr(ple, "_certificate", lambda *args: (certificate(*args)[0], math.inf))
        full = ple.fit_naive(SPEC1, series)
        assert fit.converged and fit.iterations == full.iterations - 1
        assert fit.theta.tobytes() == full.theta.tobytes() and fit.log_pl == full.log_pl
        assert full.grad_norm < fit.grad_norm <= ple.GdConfig().tol

    def test_a_bound_without_proven_ascent_does_not_stop_the_fit(self, monkeypatch):
        series = gaussian.simulate_ar(AR1, 300, seed=18)
        fits = []
        for bound in (math.inf, 0.0):
            monkeypatch.setattr(ple, "_certificate", lambda *args, bound=bound: (False, bound))
            fits.append(ple.fit_naive(SPEC1, series))
        assert fits[0].converged and fits[0].iterations > 1
        assert_same_fit(*fits)

    @pytest.mark.parametrize("count", [ple._SLICE_ROWS, ple._SLICE_ROWS + 1])
    def test_small_designs_take_the_certificate_only_after_a_pass(self, monkeypatch, count):
        series = gaussian.simulate_ar(AR1, 300, seed=18)
        s1, s2 = core._uniform_pairs(np.random.default_rng(3), 1, 299, count)
        calls = spy_certificate_calls(monkeypatch)
        ple.fit_pairs(SPEC1, series, s1, s2)
        assert any(calls) == (count > ple._SLICE_ROWS)

    def test_overshoots_on_a_large_design_reuse_the_certificate_of_the_step(self, monkeypatch):
        series = TestFitNaive.cubic_series()
        s1, s2 = core._uniform_pairs(np.random.default_rng(0), 1, series.n - 1, ple._SLICE_ROWS + 1)
        grads, searched = [], []
        certificate, log_pl = ple._certificate, ple._log_pl
        monkeypatch.setattr(ple, "_certificate", lambda g, *rest: grads.append(g.copy()) or certificate(g, *rest))
        monkeypatch.setattr(ple, "_log_pl", lambda *args: searched.append(1) or log_pl(*args))
        fit = ple.fit_pairs(TestFitNaive.CUBIC_SPEC, series, s1, s2)
        assert fit.converged and searched  # some step overshot and was backtracked
        assert not any(np.array_equal(a, b) for i, a in enumerate(grads) for b in grads[:i])

    def test_overshoots_on_a_small_design_take_the_certificate_after_the_pass(self, monkeypatch):
        calls = spy_certificate_calls(monkeypatch)
        fit = ple.fit_naive(TestFitNaive.CUBIC_SPEC, TestFitNaive.cubic_series())
        assert fit.converged and calls and not any(calls)

    @pytest.mark.parametrize(
        "spec, series",
        [
            (SPEC1, gaussian.simulate_ar(AR1, 300, seed=18)),
            (TestFitNaive.CUBIC_SPEC, TestFitNaive.cubic_series()),
        ],
        ids=["ar1-stop", "cubic-line-search"],
    )
    def test_streamed_design_sweeps_once_per_pass_and_objective(self, monkeypatch, spec, series):
        # the largest row norm is taken during the first sweep, so no sweep
        # is made for it alone
        n_pairs = ple.n_interior_pairs(series.n, spec.order)
        built, read = [], []
        all_pairs_deltas, log_pl = core._all_pairs_deltas, ple._log_pl

        def counting(*args):
            block = all_pairs_deltas(*args)
            built.append(len(block))
            return block

        def reading(theta, X):
            read.append(X.shape[-2])
            return log_pl(theta, X)

        monkeypatch.setattr(core, "_all_pairs_deltas", counting)
        monkeypatch.setattr(ple, "_log_pl", reading)
        monkeypatch.setattr(ple, "_MATERIALIZE_LIMIT", 0)
        monkeypatch.setattr(ple, "_CHUNK_PAIRS", max(10, n_pairs // 5))
        calls = spy_certificate_calls(monkeypatch)
        fit = ple.fit_naive(spec, series)
        assert fit.converged and calls  # the row norm was needed
        assert len(built) > 2 * (sum(built) // n_pairs)  # streamed in several chunks
        objectives, rest = divmod(sum(read), n_pairs)
        sweeps, partial = divmod(sum(built), n_pairs)
        assert rest == partial == 0
        assert sweeps == fit.iterations + objectives


class TestFitBipartition:
    def test_pair_count_even_and_odd_interior(self):
        even = gaussian.simulate_ar(AR1, 10, seed=1)  # interior 8
        odd = gaussian.simulate_ar(AR1, 11, seed=1)  # interior 9
        assert ple.fit_bipartition(SPEC1, even, seed=0).n_pairs_used == 4
        assert ple.fit_bipartition(SPEC1, odd, seed=0).n_pairs_used == 4

    def test_different_seeds_agree_within_noise(self):
        series = gaussian.simulate_ar(AR1, 4000, seed=22)
        a = ple.fit_bipartition(SPEC1, series, seed=1)
        b = ple.fit_bipartition(SPEC1, series, seed=2)
        assert a.theta[0] != b.theta[0]  # different matchings
        assert abs(a.theta[0] - b.theta[0]) < 0.5

    def test_estimate_close_to_truth(self):
        series = gaussian.simulate_ar(AR1, 5000, seed=23)
        fit = ple.fit_bipartition(SPEC1, series, seed=3)
        assert abs(fit.theta[0] - 1.0) < 0.25
        assert fit.aic is None and fit.pic is None


class TestMatching:
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 10, 11, 9998, 9999])
    def test_equal_to_rowwise_min_and_max(self, count):
        # the permutation paired off in rows of two, reduced row by row
        positions = np.arange(7, 7 + count, dtype=np.intp)
        paired = np.random.default_rng(count).permutation(positions)[: count // 2 * 2].reshape(-1, 2)
        s1, s2 = ple._matching(np.random.default_rng(count), positions)
        for got, expected in ((s1, paired.min(axis=1)), (s2, paired.max(axis=1))):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


class TestFitPairs:
    def test_matches_bipartition_on_same_pairs(self):
        series = gaussian.simulate_ar(AR1, 500, seed=31)
        rng = np.random.default_rng(5)
        interior = rng.permutation(np.arange(1, 499))
        paired = interior[:400].reshape(200, 2)
        s1 = paired.min(axis=1)
        s2 = paired.max(axis=1)
        fit = ple.fit_pairs(SPEC1, series, s1, s2)
        assert fit.n_pairs_used == 200
        assert fit.log_pl <= 0.0 and fit.converged

    def test_empty_design_rejected(self):
        series = gaussian.simulate_ar(AR1, 50, seed=31)
        with pytest.raises(MimmError, match="empty"):
            ple.fit_pairs(SPEC1, series, [], [])

    def test_lists_of_unequal_length_rejected(self, monkeypatch):
        # 8 pairs are two whole chunks of 4, so chunk-wise checks miss s2's ninth
        series = gaussian.simulate_ar(AR1, 50, seed=31)
        monkeypatch.setattr(ple, "_CHUNK_PAIRS", 4)
        s1 = np.arange(1, 9)
        with pytest.raises(ShapeMismatchError):
            ple.fit_pairs(SPEC1, series, s1, np.append(s1 + 10, 40))

    @pytest.mark.parametrize("s1, s2", [([1.7, 5.2], [3.9, 9.1]), ([True], [3]), ([True, 5], [3, 9])])
    def test_non_integer_positions_rejected(self, s1, s2):
        series = gaussian.simulate_ar(AR1, 50, seed=31)
        with pytest.raises(BoundaryViolationError, match="integers"):
            ple.fit_pairs(SPEC1, series, s1, s2)


class TestListedPairsStreaming:
    """fit_pairs and fit_bipartition build their pair list in chunks of
    _CHUNK_PAIRS pairs, held or regenerated on every pass as fit_naive's."""

    @staticmethod
    def fitters(series):
        s1 = np.arange(1, 1501)
        s2 = s1 + np.arange(1500) % 5 + 1  # near and far pairs
        return {
            "bipartition": lambda: ple.fit_bipartition(SPEC1, series, seed=4),
            "pairs": lambda: ple.fit_pairs(SPEC1, series, s1, s2),
        }

    @pytest.mark.parametrize("fitter", ["bipartition", "pairs"])
    def test_streamed_blocks_are_chunks_and_fit_bitwise_equal_to_held(self, monkeypatch, fitter):
        series = gaussian.simulate_ar(AR1, 3002, seed=8)
        fit = self.fitters(series)[fitter]
        rows, swap_deltas = [], ple.swap_deltas

        def recording(spec, series, s1, s2):
            rows.append(len(s1))
            return swap_deltas(spec, series, s1, s2)

        monkeypatch.setattr(ple, "swap_deltas", recording)
        monkeypatch.setattr(ple, "_PILOT_MIN_PAIRS", 8)  # a 24-pair pilot on every 64th pair
        monkeypatch.setattr(ple, "_CHUNK_PAIRS", 400)
        results = spy_fits(monkeypatch)
        held = fit()
        assert [r.n_pairs_used for r in results] == [24, 1500]
        monkeypatch.setattr(ple, "_MATERIALIZE_LIMIT", 0)
        rows.clear()
        streamed = fit()
        assert_same_fit(held, streamed)
        assert_same_fit(results[0], results[2])
        assert max(rows) == 400 and sum(rows) > 3 * 1500  # several passes, each in chunks

    @pytest.mark.parametrize("fitter", ["bipartition", "pairs"])
    def test_a_list_within_one_chunk_is_one_block(self, monkeypatch, fitter):
        series = gaussian.simulate_ar(AR1, 3002, seed=8)
        rows, swap_deltas = [], ple.swap_deltas

        def recording(spec, series, s1, s2):
            rows.append(len(s1))
            return swap_deltas(spec, series, s1, s2)

        monkeypatch.setattr(ple, "swap_deltas", recording)
        self.fitters(series)[fitter]()
        assert rows == [1500]


def _reference_pair_rows(spec, series, config):
    """Online SGD's pair matrix, drawn as first written: the same uniform
    interior pairs as ``core._uniform_pairs``, as numpy rows of -swap_delta."""
    d = spec.order
    m = series.n - 2 * d
    rng = np.random.default_rng(config.seed)
    a = rng.integers(0, m, size=config.n_iters)
    b = rng.integers(0, m - 1, size=config.n_iters)
    b = b + (b >= a)
    return -core.swap_deltas(spec, series, np.minimum(a, b) + d, np.maximum(a, b) + d)


def reference_sgd_theta(spec, series, config, margins=None, weights=None):
    """Online SGD as a plain loop: one update per numpy row of the pair
    matrix, with the weight eta / (1 + exp(margin)) and no update at a
    margin of 700 or more.  Each update's margin is appended to ``margins``
    and its weight (None when skipped) to ``weights`` when lists are given."""
    theta = [0.0] * spec.n_terms
    for row in _reference_pair_rows(spec, series, config):
        margin = 0.0
        for k in range(spec.n_terms):
            margin += theta[k] * row[k]
        w = config.eta / (1.0 + math.exp(margin)) if margin < 700.0 else None
        if margins is not None:
            margins.append(margin)
        if weights is not None:
            weights.append(w)
        if w is not None:
            for k in range(spec.n_terms):
                theta[k] += w * row[k]
    return np.asarray(theta)


def reference_sgd_theta_first_written(spec, series, config):
    """Online SGD with the weight as first written,
    eta * (1 - 1 / (1 + exp(-margin))), and eta itself below a margin of -36."""
    theta = [0.0] * spec.n_terms
    for row in _reference_pair_rows(spec, series, config):
        margin = 0.0
        for k in range(spec.n_terms):
            margin += theta[k] * row[k]
        if margin < -36.0:
            w = config.eta
        else:
            w = config.eta * (1.0 - 1.0 / (1.0 + math.exp(-margin)))
        for k in range(spec.n_terms):
            theta[k] += w * row[k]
    return np.asarray(theta)


@st.composite
def sgd_designs(draw):
    """An online SGD run: AR(1) (K = 1), AR(2) (K = 2) or a binary/real kron
    spec; budgets on both sides of the list-chunk boundaries; step sizes
    log-uniform up to 50, large enough for margins below -36.7; univariate
    series rounded to a coarse grid with some values zeroed, so pair
    statistics repeat and vanish."""
    kind = draw(st.sampled_from(["ar1", "ar2", "kron"]))
    n = draw(st.integers(12, 120))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "kron":
        spec = core.kron_spec(2, [(1, 1, 1), (2, 2, 1), (2, 1, 2)])
        series = binary_real_series(n, seed)
    else:
        spec = core.ar_spec(1 if kind == "ar1" else 2)
        x = gaussian.simulate_ar(AR1, n, seed=seed).data[:, 0].copy()
        grid = draw(st.sampled_from([0.0, 0.5, 1.0]))
        if grid:
            x = np.round(x / grid) * grid
        x[np.random.default_rng(seed).random(n) < draw(st.sampled_from([0.0, 0.2, 0.5]))] = 0.0
        series = core.TimeSeries(x)
    rows = ple._SGD_LIST_ROWS
    n_iters = draw(
        st.one_of(
            st.integers(1, 3 * rows + 5),
            st.sampled_from([rows - 1, rows, rows + 1, 2 * rows, 2 * rows + 1]),
        )
    )
    eta = 10.0 ** draw(st.floats(-4.0, math.log10(50.0)))
    return spec, series, ple.SgdConfig(eta=eta, n_iters=n_iters, seed=draw(st.integers(0, 2**32 - 1)))


class TestFitOnlineSgd:
    def test_estimate_close_to_truth(self):
        series = gaussian.simulate_ar(AR1, 1000, seed=24)
        fit = ple.fit_online_sgd(SPEC1, series, ple.SgdConfig(eta=0.01, n_iters=10_000, seed=6))
        assert abs(fit.theta[0] - 1.0) < 0.4
        assert fit.n_pairs_used == 10_000

    def test_constant_series_is_refused(self):
        # it returned theta [0.0]: no update moves theta when every pair
        # statistic is zero
        series = core.TimeSeries(np.ones(50) * 2.5)
        with pytest.raises(InsufficientDataError, match="^every pair statistic is zero, so theta is not identified$"):
            ple.fit_online_sgd(SPEC1, series, ple.SgdConfig(eta=0.1, n_iters=500, seed=7))

    SGD_ROW_LOOP_CASES = [
        (SPEC1, 3 * ple._SGD_LIST_ROWS + 5),
        (core.ar_spec(2), 3000),
        (core.kron_spec(2, [(1, 1, 1), (2, 2, 1), (2, 1, 2)]), 3000),
    ]

    @staticmethod
    def row_loop_case(spec, n_iters):
        series = binary_real_series(300, 26) if spec.dim == 2 else gaussian.simulate_ar(AR1, 300, seed=26)
        return series, ple.SgdConfig(eta=0.01, n_iters=n_iters, seed=9)

    @pytest.mark.parametrize("spec, n_iters", SGD_ROW_LOOP_CASES)
    def test_theta_bitwise_equal_to_numpy_row_loop(self, spec, n_iters):
        series, config = self.row_loop_case(spec, n_iters)
        fit = ple.fit_online_sgd(spec, series, config)
        np.testing.assert_array_equal(fit.theta, reference_sgd_theta(spec, series, config))

    @pytest.mark.parametrize("spec, n_iters", SGD_ROW_LOOP_CASES)
    def test_theta_close_to_first_written_weight(self, spec, n_iters):
        series, config = self.row_loop_case(spec, n_iters)
        theta = ple.fit_online_sgd(spec, series, config).theta
        first = reference_sgd_theta_first_written(spec, series, config)
        np.testing.assert_array_less(np.abs(theta - first), 1e-12 * (1.0 + np.abs(first)))

    def test_theta_close_to_first_written_weight_at_criterion_7_budget(self):
        series = gaussian.simulate_ar(AR1, 10_000, seed=28)
        config = ple.SgdConfig(eta=0.001, n_iters=100_000, seed=12)
        theta = ple.fit_online_sgd(SPEC1, series, config).theta
        first = reference_sgd_theta_first_written(SPEC1, series, config)
        np.testing.assert_array_less(np.abs(theta - first), 1e-12 * (1.0 + np.abs(first)))

    @settings(max_examples=40, deadline=None)
    @given(sgd_designs())
    def test_theta_bitwise_equal_to_numpy_row_loop_random(self, design):
        spec, series, config = design
        if not _reference_pair_rows(spec, series, config).any():
            # a short budget on sparse data can draw only pairs whose swap
            # changes nothing: refused as a constant series is
            with pytest.raises(InsufficientDataError, match="every pair statistic is zero"):
                ple.fit_online_sgd(spec, series, config)
            return
        fit = ple.fit_online_sgd(spec, series, config)
        np.testing.assert_array_equal(fit.theta, reference_sgd_theta(spec, series, config))
        assert fit.n_pairs_used == fit.iterations == config.n_iters

    def test_theta_bitwise_equal_past_both_ends_of_the_weight(self):
        series = gaussian.simulate_ar(AR1, 60, seed=27)
        config = ple.SgdConfig(eta=50.0, n_iters=2 * ple._SGD_LIST_ROWS + 7, seed=11)
        margins, weights = [], []
        expected = reference_sgd_theta(SPEC1, series, config, margins, weights)
        assert min(margins) < -36.8 and max(margins) > 700.0
        # 1 + exp(m) rounds to 1 below m = log(2**-53) ~ -36.74, so the weight is eta itself
        assert {w for m, w in zip(margins, weights) if m < -36.8} == {config.eta}
        assert all(w is None for m, w in zip(margins, weights) if m >= 700.0)
        np.testing.assert_array_equal(ple.fit_online_sgd(SPEC1, series, config).theta, expected)

    def test_theta_bitwise_equal_with_slices_on_both_sides_of_the_range_bound(self):
        # one value of 1e5 in a long AR(1) series: the one slice of the
        # budget whose pairs touch it fails the bound (|theta| + eta
        # sum |x|) max |x| < _EXP_MAX / 2 and runs the checked loop, where
        # an update's margin passes _EXP_MAX and is skipped; the other
        # slices run without the per-update range test
        x = gaussian.simulate_ar(AR1, 20_000, seed=29).data[:, 0].copy()
        x[10_000] = 1e5
        series = core.TimeSeries(x)
        rows = ple._SGD_LIST_ROWS
        config = ple.SgdConfig(eta=0.001, n_iters=4 * rows + 5, seed=9)
        margins, weights = [], []
        expected = reference_sgd_theta(SPEC1, series, config, margins, weights)
        column = _reference_pair_rows(SPEC1, series, config)[:, 0]
        bounded, th = [], 0.0
        for sl in range(0, config.n_iters, rows):
            size = np.abs(column[sl : sl + rows])
            bounded.append((abs(th) + config.eta * size.sum()) * size.max() < ple._EXP_MAX / 2)
            for w, value in zip(weights[sl : sl + rows], column[sl : sl + rows].tolist()):
                if w is not None:
                    th += w * value
        assert th == expected[0]
        assert bounded == [True, False, True, True, True]
        assert [i // rows for i, w in enumerate(weights) if w is None] == [1]
        np.testing.assert_array_equal(ple.fit_online_sgd(SPEC1, series, config).theta, expected)

    def test_deterministic_given_seed(self):
        series = gaussian.simulate_ar(AR1, 400, seed=25)
        a = ple.fit_online_sgd(SPEC1, series, ple.SgdConfig(eta=0.01, n_iters=2000, seed=8))
        b = ple.fit_online_sgd(SPEC1, series, ple.SgdConfig(eta=0.01, n_iters=2000, seed=8))
        assert a.theta[0] == b.theta[0]


class TestConfigs:
    def test_gd_config_validation(self):
        with pytest.raises(ValueError):
            ple.GdConfig(max_epochs=0)
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                ple.GdConfig(tol=tol)

    def test_sgd_config_validation(self):
        for eta in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="eta"):
                ple.SgdConfig(eta=eta)
        with pytest.raises(ValueError):
            ple.SgdConfig(n_iters=0)

    def test_result_rejects_positive_log_pl(self):
        with pytest.raises(ValueError):
            ple.PleResult(
                theta=np.zeros(1),
                log_pl=1.0,
                aic=None,
                pic=None,
                n_pairs_used=1,
                wall_time_s=0.0,
                converged=True,
                method="test",
            )


class TestAicPic:
    def test_published_row_anchor(self):
        # the published log pseudo-likelihood is rounded to 1e-2, so the
        # doubled value carries +-0.01 of input rounding
        aic, pic = ple.aic_pic(-343262.87, K=1, n=1000, d=1)
        assert aic == pytest.approx(686527.75, abs=0.02)
        assert pic == pytest.approx(686538.85, abs=0.02)

    def test_k_zero_forbidden(self):
        with pytest.raises(ValueError):
            ple.aic_pic(-10.0, K=0, n=100, d=1)

    def test_interior_too_short_raises_insufficient_interior(self):
        with pytest.raises(InsufficientInteriorError, match="need n - 2d >= 2"):
            ple.aic_pic(-10.0, K=1, n=5, d=2)

    def test_aic_linear_in_k(self):
        base, _ = ple.aic_pic(-50.0, K=3, n=100, d=1)
        double, _ = ple.aic_pic(-50.0, K=6, n=100, d=1)
        assert double - base == pytest.approx(6.0)

    def test_pic_penalty_uses_interior_pair_count(self):
        _, pic = ple.aic_pic(-50.0, K=2, n=100, d=2)
        assert pic == pytest.approx(100.0 + 2 * math.log(math.comb(96, 2)))


@st.composite
def split_batches(draw):
    """A spec, a series, B equal-size spaced matchings (B in 0..4) and a
    start: zero, a converged fit's theta, that theta pushed out, whose
    first step overshoots, or one start per design, every other design at
    the pushed one, so the designs of a batch stop at different passes.
    The binary/real kron specs have singular information."""
    if draw(st.booleans()):
        spec = core.ar_spec(draw(st.integers(1, 2)))
        series = ar_series(spec.order, draw(st.integers(60, 400)), draw(st.integers(0, 2**32 - 1)))
    else:
        # about n / 6 pairs for up to 16 terms: on fewer pairs a fit ends in
        # directions so flat that rounding alone moves its theta and passes
        spec, n, seed = draw(binary_kron_designs())
        series = binary_real_series(10 * n, seed)
    pairs = [ple.spaced_matching(series.n, spec.order, draw(st.integers(0, 2**32 - 1))) for _ in range(draw(st.integers(0, 4)))]
    start = draw(st.sampled_from([None, "fit", "pushed", "mixed"]))
    if start is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SeparationWarning)
            fit = ple.fit_pairs(spec, series, *ple.spaced_matching(series.n, spec.order, 0), ple.SELECT_CONFIG)
        scale = {"fit": 1.0, "pushed": 3.0, "mixed": np.array([[1.0], [3.0]] * 2)[: len(pairs)]}[start]
        start = fit.theta * scale if fit.converged else None
    return spec, series, pairs, start


def fit_batch(spec, series, pairs, start, config=ple.SELECT_CONFIG):
    """``select_specs``' batch of the pair lists ``pairs`` (one length):
    one ``_fit`` of one ``_PairDesign`` of them all, from ``start``, one
    theta or one per list."""
    n = len(pairs[0][0]) if pairs else 0
    s1, s2 = (np.array([p[i] for p in pairs], dtype=np.intp).reshape(len(pairs), n) for i in (0, 1))
    return ple._fit(ple._PairDesign(spec, series, s1, s2), config, "ple-pairs", start=start)



@st.composite
def stacked_points(draw):
    """A ``_PairDesign`` of B = 1-4 pair lists of one length, on an
    AR(1)/AR(2) monomial spec or a binary/real kron spec, with a (B, K)
    array of points, some rows zero."""
    kind = draw(st.sampled_from(["ar", "kron"]))
    spec, n, seed = draw(ar_designs() if kind == "ar" else binary_kron_designs())
    series = ar_series(spec.order, n, seed) if kind == "ar" else binary_real_series(n, seed)
    rng = np.random.default_rng(seed)
    B, count = draw(st.integers(1, 4)), draw(st.integers(1, 200))
    s1, s2 = np.array([core._uniform_pairs(rng, spec.order, n - spec.order, count) for _ in range(B)]).swapaxes(0, 1)
    points = draw(hnp.arrays(float, (B, spec.n_terms), elements=st.floats(-3.0, 3.0)))
    points[draw(hnp.arrays(bool, B))] = 0.0
    return spec, series, s1, s2, points


class TestBatchKernels:
    """Row b of a Newton pass or log-PL over a stack of designs is the
    call on design b alone at its point, bit for bit: every kernel call of
    a batch covers the whole batch."""

    @settings(max_examples=100, deadline=None)
    @given(stacked_points())
    def test_each_row_is_its_design_alone(self, case):
        spec, series, s1, s2, points = case
        design = ple._PairDesign(spec, series, s1, s2)
        grads, infos = ple._newton_pass(design, points)
        values = sum(ple._log_pl(points, X) for X in design())
        for b, point in enumerate(points):
            alone = ple._PairDesign(spec, series, [s1[b]], [s2[b]])
            (grad,), (info,) = ple._newton_pass(alone, point[None])
            (value,) = sum(ple._log_pl(point[None], X) for X in alone())
            assert grads[b].tobytes() == grad.tobytes() and infos[b].tobytes() == info.tobytes()
            assert values[b].tobytes() == value.tobytes()


class TestFitBatch:
    """``select_specs`` fits splits 2..S as one batch: each design of it
    takes the steps and passes ``fit_pairs`` takes alone from the same
    start, under the same chunk, hold and slice rules."""

    @staticmethod
    def assert_batch_is_fits_alone(batch, alone):
        assert len(batch) == len(alone)
        for fit, ref in zip(batch, alone):
            assert fit.converged == ref.converged and fit.n_pairs_used == ref.n_pairs_used
            if not ref.converged:
                # a separable design has no maximizer: theta runs to the
                # cap along a direction that amplifies rounding, so runs
                # that sum in another order agree only on the verdict
                continue
            assert fit.iterations == ref.iterations
            # |theta| is the norm, as for the cap: on a singular design the
            # restricted solve spreads its rounding over every term
            assert np.linalg.norm(fit.theta - ref.theta) <= 1e-10 * (1.0 + np.linalg.norm(ref.theta))
            # near separation a fit can stop converged at a large theta,
            # with a log-PL of tiny terms (-3e-7 seen): there 1e-15 absolute
            assert fit.log_pl == pytest.approx(ref.log_pl, rel=1e-12, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(split_batches())
    def test_each_design_is_its_fit_alone(self, case):
        spec, series, pairs, start = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SeparationWarning)
            try:
                starts = [None] * len(pairs) if start is None else np.broadcast_to(start, (len(pairs), spec.n_terms))
                alone = [fit_batch(spec, series, [pair], start)[0] for pair, start in zip(pairs, starts)]
            except RuntimeWarning:
                # a pushed start on a separable design can step theta past
                # the float range alone too (the cap is read after the step)
                assume(False)
            batch = fit_batch(spec, series, pairs, start)
        self.assert_batch_is_fits_alone(batch, alone)
        # a list within one slice of the batch is summed as alone: equal
        for fit, ref in zip(batch, alone):
            assert_same_fit(fit, ref)
            assert fit.theta_trace == ref.theta_trace

    def test_a_pushed_start_overshoots_in_the_batch_too(self, monkeypatch):
        series = ar_series(1, 300, 7)
        pairs = [ple.spaced_matching(300, 1, seed) for seed in range(3)]
        start = ple.fit_pairs(SPEC1, series, *pairs[0], ple.SELECT_CONFIG).theta * 3.0
        values = mock.Mock(side_effect=ple._log_pl)
        monkeypatch.setattr(ple, "_log_pl", values)
        batch = fit_batch(SPEC1, series, pairs, start)
        # the line search ran on the designs together: each call holds
        # every design
        assert all(fit.converged for fit in batch) and values.call_count > 1
        assert len(values.call_args_list[0].args[0]) == 3

    def test_a_batch_keeps_the_chunk_hold_and_slice_rules(self, monkeypatch):
        # 3 lists of 150 pairs, streamed in chunks and slices: the batch
        # under chunks of 120 pairs and slices of 48 rows over all lists,
        # with a limit of 2 lists' statistics, sums in the order of each
        # list alone under chunks of 40, slices of 16 and a limit of 149
        series = ar_series(1, 900, 7)
        pairs = [ple.spaced_matching(900, 1, seed) for seed in range(3)]
        built, shapes, swap_deltas, slices = [], [], ple.swap_deltas, ple._slices

        def recording_deltas(spec, series, s1, s2):
            built.append(len(s1))
            return swap_deltas(spec, series, s1, s2)

        def recording_slices(X):
            for Xb in slices(X):
                shapes.append(Xb.shape)
                yield Xb

        monkeypatch.setattr(ple, "swap_deltas", recording_deltas)
        monkeypatch.setattr(ple, "_slices", recording_slices)
        for chunk, rows, limit in ((40, 16, 149), (120, 48, 2 * 150)):
            monkeypatch.setattr(ple, "_CHUNK_PAIRS", chunk)
            monkeypatch.setattr(ple, "_SLICE_ROWS", rows)
            monkeypatch.setattr(ple, "_MATERIALIZE_LIMIT", limit)
            if chunk == 40:
                alone = [ple.fit_pairs(SPEC1, series, a, b, ple.SELECT_CONFIG) for a, b in pairs]
            else:
                built.clear()
                shapes.clear()
                batch = fit_batch(SPEC1, series, pairs, None)
        assert max(built) == 120 and sum(built) >= 3 * 3 * 150  # chunks, built again on every pass
        # per chunk of 40 pairs a list: slices of 16, 16 and 8 rows; 30 in the last
        assert {shape[:2] for shape in shapes} == {(3, 16), (3, 8), (3, 14)}
        for fit, ref in zip(batch, alone):
            assert_same_fit(fit, ref)
            assert fit.theta_trace == ref.theta_trace

    def test_each_list_of_a_batch_runs_its_pilot(self, monkeypatch):
        # 500 pairs a list reach a pilot threshold of 64 * 4 pairs: each
        # list starts from the fit on its every 64th pair, as alone
        series = ar_series(1, 3000, 7)
        pairs = [ple.spaced_matching(3000, 1, seed) for seed in range(3)]
        monkeypatch.setattr(ple, "_PILOT_MIN_PAIRS", 4)
        results = spy_fits(monkeypatch)
        alone = [ple.fit_pairs(SPEC1, series, a, b, ple.SELECT_CONFIG) for a, b in pairs]
        pilots_alone = results[::2]
        results.clear()
        batch = fit_batch(SPEC1, series, pairs, None)
        assert [fit.n_pairs_used for fit in results] == [8] * 3 + [len(pairs[0][0])] * 3
        assert any(pilot.converged for pilot in pilots_alone)
        for fit, ref in zip(results, pilots_alone + alone):
            assert_same_fit(fit, ref)
        assert batch == results[3:]


def select_ci_input(name):
    """The series and specs of CI's "Select is reproducible" step: AR(1)
    against AR(2) on an AR(1) series, or the four kron specs on the
    binary/real series."""
    if name == "ar":
        series = gaussian.simulate_ar(AR1, 300, seed=1)
        return series, [core.DependenceSpec.from_text(t) for t in ("0:0^1*1:0^1\n", "0:0^1*1:0^1\n0:0^1*2:0^1\n")]
    z = gaussian.simulate_ar(gaussian.ClassicalARParams([0.6], 0.5), 307, seed=2).data[:, 0]
    b = (np.random.default_rng(3).random(307) < 1.0 / (1.0 + np.exp(-np.roll(z, 1)))).astype(float)
    series = core.TimeSeries(np.column_stack([b, z]), kinds=("binary", "real"))
    blocks = [[(1, 1, 1)], [(1, 1, 1), (1, 1, 2)], [(1, 1, 1), (1, 2, 1)], [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)]]
    return series, [core.kron_spec(2, block) for block in blocks]


# Per select with seed 1 on each input of select_ci_input: the Newton
# passes of each split design (per spec, its anchor, then its batch of the
# other 8 splits), and the calls of the two kernels.  A log-PL call is a
# final value (two per spec) or a line-search step: on the binary/real
# input, 8 finals and 26 search calls.  A change of these counts is a
# change of the solver's work: record it with the new table.
SELECT_CALLS = {
    "ar": {
        "passes": [[5], [5, 3, 4, 6, 5, 6, 3, 5], [5], [5, 4, 5, 6, 5, 6, 5, 5]],
        "newton_pass": 22,
        "log_pl": 4,
    },
    "bi": {
        "passes": [
            [8], [7, 7, 7, 5, 7, 8, 6, 7], [9], [8, 8, 8, 5, 8, 9, 7, 7],
            [9], [8, 8, 8, 7, 9, 9, 7, 9], [9], [9, 11, 10, 9, 9, 9, 10, 10],
        ],
        "newton_pass": 75,
        "log_pl": 34,
    },
}


@pytest.mark.parametrize("name", sorted(SELECT_CALLS))
def test_select_call_counts(name, monkeypatch):
    series, specs = select_ci_input(name)
    passes, newton = [], ple._newton

    def counted(*args, **kwargs):
        ascents = newton(*args, **kwargs)
        passes.append([ascent.passes for ascent in ascents])
        return ascents

    kernel, values = mock.Mock(side_effect=ple._newton_pass), mock.Mock(side_effect=ple._log_pl)
    monkeypatch.setattr(ple, "_newton", counted)
    monkeypatch.setattr(ple, "_newton_pass", kernel)
    monkeypatch.setattr(ple, "_log_pl", values)
    rows = ple.select_specs(series, specs, seed=1)
    assert all(row.error is None for row in rows)
    counts = {"passes": passes, "newton_pass": kernel.call_count, "log_pl": values.call_count}
    assert counts == SELECT_CALLS[name]


class TestSelectSpecs:
    SERIES = gaussian.simulate_ar(AR1, 300, seed=41)

    def test_spaced_matching_needs_two_positions(self):
        # n = 4, d = 1 leaves one position at spacing 2d + 1
        with pytest.raises(InsufficientInteriorError, match=r"n=4, d=1"):
            ple.spaced_matching(4, 1, 0)

    def test_row_is_the_mean_log_pl_over_spaced_designs(self):
        # split 1 of each spec is fitted from zero, the anchor; every other
        # split starts from the anchor's theta when it converged.  The
        # other splits are fitted as one batch, which sums a list within
        # one slice as fit_pairs sums it alone: the same mean, bitwise
        (row1, row2) = ple.select_specs(self.SERIES, [SPEC1, core.ar_spec(2)], seed=4, splits=3)
        padded = core.DependenceSpec(order=2, dim=1, terms=SPEC1.terms)
        designs = [ple.spaced_matching(300, 2, child) for child in np.random.SeedSequence(4).spawn(3)]
        anchor = ple.fit_pairs(padded, self.SERIES, *designs[0], ple.SELECT_CONFIG)
        assert anchor.converged
        fits = [anchor] + [fit_batch(padded, self.SERIES, [d], anchor.theta)[0] for d in designs[1:]]
        assert row1.K == 1 and row2.K == 2
        assert row1.log_pl == float(np.mean([fit.log_pl for fit in fits]))
        assert (row1.aic, row1.pic) == ple.aic_pic(row1.log_pl, 1, 300, 2)
        assert row1.error is None and row2.error is None
        assert row1.converged == row2.converged == 3

    def test_an_unconverged_split_passes_no_start(self, monkeypatch):
        # the anchor of the first spec is reported unconverged: that spec's
        # batch starts from zero, the second spec's from its anchor's theta
        fit_pairs, fit, anchors, starts = ple.fit_pairs, ple._fit, [], []

        def spy(spec, series, s1, s2, config):
            anchors.append(fit_pairs(spec, series, s1, s2, config))
            return dataclasses.replace(anchors[-1], converged=False) if len(anchors) == 1 else anchors[-1]

        def batch_spy(design, config, method, requested=True, start=None):
            if design.B > 1:  # the batch, not an anchor's fit
                starts.append(start)
            return fit(design, config, method, requested, start)

        monkeypatch.setattr(ple, "fit_pairs", spy)
        monkeypatch.setattr(ple, "_fit", batch_spy)
        rows = ple.select_specs(self.SERIES, [SPEC1, core.ar_spec(2)], seed=4, splits=4)
        assert [row.converged for row in rows] == [3, 4]
        assert starts[0] is None
        np.testing.assert_array_equal(starts[1], anchors[1].theta)

    def test_warm_started_rows_match_rows_fitted_from_zero(self):
        assert_verify_passes(verify._check_select_warm_start, "select_warm_start")

    def test_swap_tables_built_once_per_spec(self, monkeypatch):
        # 9 splits x 2 specs: each spec's anchor fit builds the tables, and
        # its batch of the other 8 splits reads them in one swap_deltas call
        build = mock.Mock(side_effect=core._factored_tables)
        monkeypatch.setattr(core, "_factored_tables", build)
        fits = mock.Mock(side_effect=ple.fit_pairs)
        monkeypatch.setattr(ple, "fit_pairs", fits)
        deltas = mock.Mock(side_effect=core.swap_deltas)
        monkeypatch.setattr(ple, "swap_deltas", deltas)
        rows = ple.select_specs(self.SERIES, [SPEC1, core.ar_spec(2)], seed=4)
        assert all(row.error is None for row in rows)
        assert fits.call_count == 2 and build.call_count == 2 and deltas.call_count == 4

    @pytest.mark.parametrize("splits", [1, 2, 9])
    def test_fit_pairs_runs_once_per_feasible_spec(self, monkeypatch, splits):
        # bench/ reads the AR(1) theta through ple.fit_pairs: one anchor
        # per feasible spec, whatever the split count; the infeasible spec
        # makes no call
        build = mock.Mock(side_effect=core._factored_tables)
        monkeypatch.setattr(core, "_factored_tables", build)
        fits = mock.Mock(side_effect=ple.fit_pairs)
        monkeypatch.setattr(ple, "fit_pairs", fits)
        specs = [SPEC1, core.ar_spec(75), core.ar_spec(2)]
        rows = ple.select_specs(self.SERIES, specs, seed=4, splits=splits)
        assert [row.error is None for row in rows] == [True, False, True]
        assert [call.args[0].terms for call in fits.call_args_list] == [SPEC1.terms, core.ar_spec(2).terms]
        assert build.call_count == 2

    def test_duplicate_spec_gets_identical_rows(self):
        rows = ple.select_specs(self.SERIES, [SPEC1, core.ar_spec(2), SPEC1], seed=1, splits=2)
        assert rows[0] == rows[2]
        assert rows[0] != rows[1]

    def test_infeasible_spec_becomes_error_row(self):
        # order 75 leaves one spaced position on n=300: 75 + 151 >= 300 - 75
        rows = ple.select_specs(self.SERIES, [SPEC1, core.ar_spec(75)], splits=1)
        assert rows[0].error is None and np.isfinite(rows[0].aic)
        assert "too large" in rows[1].error
        assert rows[1][:4] == (None, None, None, None)

    def test_constant_series_gives_every_spec_an_error_row(self):
        # AR(1) and AR(2) both scored log-PL -3.4657 and ranked by list order
        rows = ple.select_specs(core.TimeSeries(np.full(50, 2.0)), [SPEC1, core.ar_spec(2)], splits=2)
        assert rows == [ple.SelectRow(error="every pair statistic is zero, so theta is not identified")] * 2

    def test_all_specs_infeasible_raises(self):
        with pytest.raises(InsufficientInteriorError):
            ple.select_specs(self.SERIES, [core.ar_spec(75), core.ar_spec(80)])

    def test_empty_spec_list_raises(self):
        with pytest.raises(ValueError, match="need at least one spec"):
            ple.select_specs(self.SERIES, [])

    def test_zero_splits_raises(self):
        with pytest.raises(ValueError, match="splits"):
            ple.select_specs(self.SERIES, [SPEC1, core.ar_spec(2)], splits=0)

    def test_numerical_failure_becomes_error_row(self, monkeypatch):
        fit_pairs = ple.fit_pairs

        def failing_for_k2(spec, *args, **kwargs):
            if spec.n_terms == 2:
                raise np.linalg.LinAlgError("singular")
            return fit_pairs(spec, *args, **kwargs)

        monkeypatch.setattr(ple, "fit_pairs", failing_for_k2)
        rows = ple.select_specs(self.SERIES, [SPEC1, core.ar_spec(2)], splits=1)
        assert rows[0].error is None
        assert rows[1] == ple.SelectRow(error="singular")

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bad call")

        monkeypatch.setattr(ple, "fit_pairs", broken)
        with pytest.raises(TypeError, match="bad call"):
            ple.select_specs(self.SERIES, [SPEC1, core.ar_spec(2)], splits=1)

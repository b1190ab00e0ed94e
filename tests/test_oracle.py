"""Reference implementations: OLS fits, exhaustive enumeration, quadrature."""

import itertools
import math

import numpy as np
import pytest
from scipy.special import logsumexp
from test_acceptance import assert_verify_passes

from mimm import core, gaussian, oracle, verify
from mimm.exceptions import (
    EnumerationBudgetError,
    InsufficientDataError,
    NoSolutionFoundError,
    RankError,
    ShapeMismatchError,
)

AR1 = gaussian.ClassicalARParams([0.5], 0.5)
SPEC1 = core.ar_spec(1)


class TestOlsAr:
    def test_noiseless_recursion_recovery(self):
        rng = np.random.default_rng(0)
        x = [1.0]
        for _ in range(199):
            x.append(0.5 * x[-1] + 1e-8 * rng.standard_normal())
        # keep the scale alive so the design is well conditioned
        data = np.asarray(x) + 0.0
        data[::7] += 1e-6 * rng.standard_normal(len(data[::7]))
        classical, _ = oracle.mle_ols_ar(core.TimeSeries(data), 1)
        assert classical.phi[0] == pytest.approx(0.5, abs=1e-3)

    def test_ar1_estimate_distribution(self):
        errs = []
        for s in range(30):
            series = gaussian.simulate_ar(AR1, 1000, seed=700 + s)
            _, mininfo = oracle.mle_ols_ar(series, 1)
            errs.append(abs(float(mininfo.theta[0]) - 1.0))
        assert 0.03 <= float(np.mean(errs)) <= 0.12

    def test_ar3_error_band(self):
        ar3 = gaussian.ClassicalARParams([0.5, 0.3, 0.1], 0.5)
        truth = gaussian.ard_to_mininfo(ar3).theta
        errs = []
        for s in range(30):
            series = gaussian.simulate_ar(ar3, 1000, seed=7300 + s)
            _, mininfo = oracle.mle_ols_ar(series, 3)
            errs.append(float(np.linalg.norm(mininfo.theta - truth)))
        assert 0.06 <= float(np.mean(errs)) <= 0.25  # published mean 0.120

    def test_rank_error_on_constant_series(self):
        with pytest.raises(RankError):
            oracle.mle_ols_ar(core.TimeSeries(np.zeros(50)), 2)

    def test_refuses_two_columns_and_short_series(self):
        with pytest.raises(ShapeMismatchError, match="p=2"):
            oracle.mle_ols_ar(core.TimeSeries(np.ones((20, 2))), 1)
        with pytest.raises(InsufficientDataError, match=r"need n >= 2d \+ 2 = 6, got 5"):
            oracle.mle_ols_ar(core.TimeSeries(np.arange(5.0)), 2)

    def test_sigma2_denominator(self):
        series = gaussian.simulate_ar(AR1, 400, seed=9)
        classical, _ = oracle.mle_ols_ar(series, 1)
        x = series.data[:, 0]
        resid = x[1:] - classical.phi[0] * x[:-1]
        assert classical.sigma2 == pytest.approx(float(resid @ resid) / 399, rel=1e-12)


class TestOlsVar:
    def test_zero_truth(self):
        params = gaussian.ClassicalVARParams(A=np.zeros((1, 2, 2)), Sigma=np.eye(2))
        series = gaussian.simulate_var(params, 4000, seed=10)
        _, mininfo = oracle.mle_ols_var(series, 1)
        assert np.abs(mininfo.Theta).max() < 0.12

    def test_transform_consistency(self):
        A = np.array([[0.5, 0.1], [0.1, 0.5]])
        params = gaussian.ClassicalVARParams(A=A[None], Sigma=0.5 * np.eye(2))
        series = gaussian.simulate_var(params, 2000, seed=11)
        classical, mininfo = oracle.mle_ols_var(series, 1)
        back = gaussian.mininfo_to_var1(mininfo)
        np.testing.assert_allclose(back.A[0], classical.A[0], atol=1e-10)
        np.testing.assert_allclose(back.Sigma, classical.Sigma, atol=1e-10)

    def test_table_style_error_band(self):
        A = np.array([[0.5, 0.1], [0.1, 0.5]])
        truth = gaussian.var1_to_mininfo(
            gaussian.ClassicalVARParams(A=A[None], Sigma=0.5 * np.eye(2))
        ).Theta.reshape(-1, order="F")
        errs = []
        for s in range(10):
            series = gaussian.simulate_var(
                gaussian.ClassicalVARParams(A=A[None], Sigma=0.5 * np.eye(2)), 1000, seed=800 + s
            )
            _, mininfo = oracle.mle_ols_var(series, 1)
            errs.append(float(np.linalg.norm(mininfo.Theta.reshape(-1, order="F") - truth)))
        assert 0.06 <= float(np.mean(errs)) <= 0.25


class TestEnumeration:
    def test_uniform_law_at_zero_theta(self):
        series = gaussian.simulate_ar(AR1, 8, seed=5)
        value = oracle.exact_conditional_likelihood(SPEC1, series, [0.0])
        assert value == pytest.approx(1.0 / math.factorial(6), rel=1e-12)

    def test_two_permutation_closed_form(self):
        series = core.TimeSeries([0.4, 1.0, -2.0, 0.7])
        delta = core.swap_delta(SPEC1, series, 1, 2)
        for th in (-1.5, 0.3, 2.0):
            value = oracle.exact_conditional_likelihood(SPEC1, series, [th])
            assert value == pytest.approx(1.0 / (1.0 + math.exp(th * delta[0])), rel=1e-12)

    def test_normalization(self):
        assert_verify_passes(verify._check_conditional_normalization, "conditional_law_normalization")

    def test_budget_refusal(self):
        series = gaussian.simulate_ar(AR1, 30, seed=7)
        with pytest.raises(EnumerationBudgetError):
            oracle.exact_conditional_likelihood(SPEC1, series, [0.0])

    def test_moments_match_direct_weights(self):
        series = gaussian.simulate_ar(AR1, 7, seed=8)
        stats = oracle.permutation_statistics(SPEC1, series)
        theta = np.array([0.9])
        mu, cov = oracle.enumeration_moments(SPEC1, series, theta, stats=stats)
        logits = stats @ theta
        w = np.exp(logits - logsumexp(logits))
        np.testing.assert_allclose(mu, w @ stats, atol=1e-12)
        centered = stats - mu
        np.testing.assert_allclose(cov, (centered * w[:, None]).T @ centered, atol=1e-12)


class TestExactCle:
    def test_zero_score_data(self):
        series = core.TimeSeries([1.0, 2.0, 5.0, 1.0])
        theta = oracle.exact_cle(SPEC1, series)
        assert theta[0] == 0.0

    def test_matches_dense_grid(self):
        assert_verify_passes(verify._check_enumeration_equivalence, "enumeration_equivalence")

    def test_sorted_data_is_unbounded(self):
        # sorted data maximizes the adjacent-product statistic over all
        # orderings (rearrangement), so the maximizer runs off to infinity
        series = core.TimeSeries(np.arange(1.0, 9.0))
        with pytest.raises(NoSolutionFoundError) as err:
            oracle.exact_cle(SPEC1, series)
        assert err.value.direction is not None

    def test_data_at_the_minimum_is_unbounded(self):
        # the interior ordering of least statistic: the maximizer runs off to -infinity
        x = [0.5, 3.0, -2.0, 1.0, -1.0, 0.2]
        orderings = [core.TimeSeries([x[0], *perm, x[-1]]) for perm in itertools.permutations(x[1:-1])]
        lowest = min(orderings, key=lambda series: core.total_statistic(SPEC1, series)[0])
        with pytest.raises(NoSolutionFoundError, match="minimum") as err:
            oracle.exact_cle(SPEC1, lowest)
        np.testing.assert_array_equal(err.value.direction, [-1.0])


class TestQuadratureFisher:
    def test_matches_closed_form_on_grid(self):
        assert_verify_passes(verify._check_fisher, "fisher_info_quadrature")

    def test_off_diagonal_small_everywhere(self):
        for th in (-2.0, -0.5, 0.0, 0.5, 2.0):
            for t2 in (0.1, 0.5, 1.0, 4.0):
                assert abs(oracle.ar1_fisher_info_numeric(th, t2)[0, 1]) < 1e-6

    def test_zero_theta_reduction(self):
        numeric = oracle.ar1_fisher_info_numeric(0.0, 1.5)
        assert numeric[0, 0] == pytest.approx(1.5**2, abs=1e-7)
        assert numeric[1, 1] == pytest.approx(1.0 / (2 * 1.5**2), abs=1e-7)

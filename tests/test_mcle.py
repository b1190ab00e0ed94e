"""Exchange sampler and Fisher scoring for conditional likelihood."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_core import kron_binary_specs, random_specs

from mimm import core, gaussian, mcle, oracle
from mimm.exceptions import IllConditionedError, InsufficientInteriorError, ShapeMismatchError

AR1 = gaussian.ClassicalARParams([0.5], 0.5)
SPEC1 = core.ar_spec(1)


class TestLogRatio:
    def test_null_swap(self):
        assert mcle.log_ratio_swap([1.5], [0.0]) == 0.0

    def test_zero_theta(self):
        assert mcle.log_ratio_swap([0.0, 0.0], [3.0, -2.0]) == 0.0

    def test_worked_example(self):
        series = core.TimeSeries([1.0, 2.0, 3.0, 4.0])
        delta = core.swap_delta(SPEC1, series, 1, 2)
        assert mcle.log_ratio_swap([1.0], delta) == pytest.approx(-3.0)

    def test_detailed_balance(self):
        rng = np.random.default_rng(1)
        spec = core.ar_spec(2)
        series = core.TimeSeries(rng.standard_normal(20))
        theta = rng.standard_normal(2)
        for _ in range(10):
            s1, s2 = sorted(rng.choice(range(2, 18), size=2, replace=False))
            fwd = core.swap_delta(spec, series, int(s1), int(s2))
            order = list(range(20))
            order[s1], order[s2] = order[s2], order[s1]
            rev = core.swap_delta(spec, series, int(s1), int(s2), order=order)
            assert mcle.log_ratio_swap(theta, fwd) == -mcle.log_ratio_swap(theta, rev)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            mcle.log_ratio_swap([1.0], [1.0, 2.0])


class TestExchangeSampler:
    def test_zero_theta_accepts_everything(self):
        series = gaussian.simulate_ar(AR1, 50, seed=0)
        res = mcle.exchange_sample(SPEC1, series, [0.0], mcle.ExchangeConfig(n_samples=3000, seed=1))
        assert res.acceptance_rate == 1.0

    def test_uniform_mean_matches_enumeration(self):
        series = gaussian.simulate_ar(AR1, 8, seed=5)
        stats = oracle.permutation_statistics(SPEC1, series)
        mu_exact = stats.mean(axis=0)
        res = mcle.exchange_sample(
            SPEC1, series, [0.0], mcle.ExchangeConfig(n_samples=20_000, seed=2)
        )
        mu_chain = res.stats.mean(axis=0)
        # generous effective-sample-size discount for chain autocorrelation
        se = stats.std() / math.sqrt(len(res.stats) / 20.0)
        assert abs(mu_chain[0] - mu_exact[0]) < 3.0 * se

    def test_two_state_chain_law(self):
        series = core.TimeSeries([0.3, 1.2, -0.8, 0.5])
        delta = core.swap_delta(SPEC1, series, 1, 2)
        theta = np.array([1.3])
        logr = float(theta @ delta)
        a = min(1.0, math.exp(logr))
        b = min(1.0, math.exp(-logr))
        pi_b = a / (a + b)
        res = mcle.exchange_sample(
            SPEC1, series, theta, mcle.ExchangeConfig(n_samples=40_000, burn_in=2000, seed=9)
        )
        h_swapped = core.total_statistic(SPEC1, series) + delta
        frac_b = float(np.mean(np.abs(res.stats[:, 0] - h_swapped[0]) < 1e-9))
        var = pi_b * (1 - pi_b) * (2 - a - b) / (a + b) / len(res.stats)
        assert abs(frac_b - pi_b) < 3.0 * math.sqrt(var)

    def test_acceptance_declines_with_order(self):
        params = {
            1: gaussian.ClassicalARParams([0.5], 0.5),
            2: gaussian.ClassicalARParams([0.5, 0.3], 0.5),
            3: gaussian.ClassicalARParams([0.5, 0.3, 0.1], 0.5),
        }
        means = []
        for d in (1, 2, 3):
            spec = core.ar_spec(d)
            theta = gaussian.ard_to_mininfo(params[d]).theta
            accs = [
                mcle.exchange_sample(
                    spec,
                    gaussian.simulate_ar(params[d], 200, seed=100 + s),
                    theta,
                    mcle.ExchangeConfig(n_samples=4000, seed=31 + s),
                ).acceptance_rate
                for s in range(8)
            ]
            means.append(float(np.mean(accs)))
        assert means[0] > means[1] > means[2]

    def test_insufficient_interior(self):
        series = core.TimeSeries([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(InsufficientInteriorError):
            mcle.exchange_sample(core.ar_spec(2), series, [0.0, 0.0])

    def test_statistics_track_the_running_permutation(self):
        # every recorded statistic must equal the statistic of some interior
        # permutation of the data (cross-checked by enumeration at n=7)
        series = gaussian.simulate_ar(AR1, 7, seed=3)
        stats = oracle.permutation_statistics(SPEC1, series)
        res = mcle.exchange_sample(
            SPEC1, series, [0.8], mcle.ExchangeConfig(n_samples=500, seed=4)
        )
        for value in res.stats[:, 0]:
            assert np.min(np.abs(stats[:, 0] - value)) < 1e-9

    def test_running_statistic_is_refreshed_every_8192_steps(self, monkeypatch):
        # call j of total_statistic (j = 0 is the chain's start) reads 1000 j
        # high; moves do not depend on the running statistic, so the chain
        # records exactly 1000 more from each refresh on
        series = gaussian.simulate_ar(AR1, 100, seed=5)
        config = mcle.ExchangeConfig(n_samples=19_800, burn_in=0, seed=6)
        plain = mcle.exchange_sample(SPEC1, series, [0.5], config)
        calls = []
        total_statistic = mcle.total_statistic

        def drifting(*args):
            calls.append(1)
            return total_statistic(*args) + 1000.0 * (len(calls) - 1)

        monkeypatch.setattr(mcle, "total_statistic", drifting)
        shifted = mcle.exchange_sample(SPEC1, series, [0.5], config)
        offset = 1000.0 * (np.arange(1, config.n_samples + 1) // 8192)
        assert len(calls) == 3 and offset[-1] == 2000.0
        np.testing.assert_allclose(shifted.stats[:, 0] - plain.stats[:, 0], offset, rtol=0.0, atol=1e-9)


def reference_chain(spec, series, theta, config, rng, moves=None):
    """The exchange sampler with every step re-evaluated by the scalar
    window path under a position -> data index map; returns the recorded
    statistics and the accepted count.  ``moves``, when given, receives the
    step number (from 1) of every accepted move."""
    d, n = spec.order, series.n
    m = n - 2 * d
    K = spec.n_terms
    th = [float(v) for v in theta]
    order = list(range(n))
    current = [float(v) for v in core.total_statistic(spec, series)]
    burn = config.effective_burn_in
    total_steps = burn + config.n_samples * config.thin
    stats = np.empty((config.n_samples, K))
    accepted = recorded = 0
    block = mcle._PROPOSAL_BLOCK
    for step in range(total_steps):
        if step % block == 0:
            block_a = rng.integers(0, m, size=block)
            block_b = rng.integers(0, m - 1, size=block)
            block_logu = np.log(rng.random(size=block))
        a, b, logu = block_a[step % block], block_b[step % block], block_logu[step % block]
        if b >= a:
            b += 1
        s1, s2 = (a, b) if a < b else (b, a)
        s1 += d
        s2 += d
        delta = core.swap_delta(spec, series, s1, s2, order=order).tolist()
        logr = 0.0
        for k in range(K):
            logr += th[k] * delta[k]
        if logu <= logr:
            order[s1], order[s2] = order[s2], order[s1]
            for k in range(K):
                current[k] += delta[k]
            accepted += 1
            if moves is not None:
                moves.append(step + 1)
        if (step + 1) % mcle._RECOMPUTE_EVERY == 0:
            permuted = core.TimeSeries(series.data[order], kinds=series.kinds)
            current = [float(v) for v in core.total_statistic(spec, permuted)]
        offset = step + 1 - burn
        if offset >= 1 and offset % config.thin == 0 and recorded < config.n_samples:
            stats[recorded] = current
            recorded += 1
    return stats, accepted


def _kron_binary_case():
    rng = np.random.default_rng(21)
    data = np.column_stack([rng.integers(0, 2, size=40), rng.standard_normal(40)])
    series = core.TimeSeries(data, kinds=("binary", "real"))
    spec = core.kron_spec(2, [(1, 1, 1), (2, 1, 2)])
    return spec, series, 0.3 * rng.standard_normal(spec.n_terms)


def _ar_case(phi, n, seed):
    params = gaussian.ClassicalARParams(phi, 0.5)
    series = gaussian.simulate_ar(params, n, seed=seed)
    return core.ar_spec(len(phi)), series, gaussian.ard_to_mininfo(params).theta


@st.composite
def chain_cases(draw, specs):
    """A spec, a series of values in [-1.5, 1.5] (column 0 binary on
    request when p = 2), weights and a chain config.  Every chain crosses a
    proposal-block boundary; with thin = 2 most also pass the refresh at
    step 8192."""
    spec = draw(specs)
    d = spec.order
    n = draw(st.integers(2 * d + 2, 2 * d + 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.uniform(-1.5, 1.5, size=(n, spec.dim))
    kinds = ["real"] * spec.dim
    if spec.dim == 2 and draw(st.booleans()):
        data[:, 0] = rng.integers(0, 2, size=n)
        kinds[0] = "binary"
    theta = 0.3 * rng.standard_normal(spec.n_terms)
    config = mcle.ExchangeConfig(
        n_samples=draw(st.integers(3800, 4600)),
        thin=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    assert config.effective_burn_in + config.n_samples * config.thin > mcle._PROPOSAL_BLOCK
    return spec, core.TimeSeries(data, kinds=kinds), theta, config


class TestChainEquivalence:
    """Factored far-pair steps take the same accept/reject decisions as the
    scalar reference chain, so the chains agree to rounding."""

    @pytest.mark.parametrize(
        "case, config",
        [
            (_ar_case([0.5], 60, 1), mcle.ExchangeConfig(n_samples=3000, seed=11)),
            (_ar_case([0.5, 0.3], 60, 2), mcle.ExchangeConfig(n_samples=3000, seed=12)),
            (_kron_binary_case(), mcle.ExchangeConfig(n_samples=2000, seed=13)),
            (_ar_case([0.5], 40, 3), mcle.ExchangeConfig(n_samples=1500, burn_in=0, thin=3, seed=14)),
            # 9900 steps: past the running-statistic refresh at 8192 and
            # across two proposal-block boundaries
            (_ar_case([0.5], 100, 4), mcle.ExchangeConfig(n_samples=9000, seed=15)),
            # past the refresh at 8192, burn-in not a multiple of thin
            (_ar_case([0.5], 60, 5), mcle.ExchangeConfig(n_samples=4200, burn_in=7, thin=2, seed=16)),
            (_ar_case([0.5, 0.3], 60, 6), mcle.ExchangeConfig(n_samples=2800, burn_in=5, thin=3, seed=17)),
        ],
        ids=["ar1", "ar2", "kron-binary", "thin3-no-burn-in", "long", "thin2-odd-burn-in", "thin3-burn-in-5"],
    )
    def test_same_chain_as_scalar_reference(self, case, config):
        spec, series, theta = case
        ref_stats, ref_accepted = reference_chain(spec, series, theta, config, np.random.default_rng(config.seed))
        res = mcle.exchange_sample(spec, series, theta, config)
        assert res.n_steps == config.effective_burn_in + config.n_samples * config.thin
        assert round(res.acceptance_rate * res.n_steps) == ref_accepted
        assert 0 < ref_accepted < res.n_steps
        assert res.stats.shape == ref_stats.shape
        np.testing.assert_allclose(res.stats, ref_stats, rtol=0.0, atol=1e-9)

    def test_zero_theta_records_every_step(self):
        # every move is accepted, so the event log holds one event per step
        spec, series, _ = _ar_case([0.5], 60, 7)
        config = mcle.ExchangeConfig(n_samples=8500, burn_in=3, seed=18)
        ref_stats, ref_accepted = reference_chain(spec, series, [0.0], config, np.random.default_rng(config.seed))
        res = mcle.exchange_sample(spec, series, [0.0], config)
        assert res.acceptance_rate == 1.0 and ref_accepted == res.n_steps
        np.testing.assert_allclose(res.stats, ref_stats, rtol=0.0, atol=1e-9)

    def test_accepted_move_on_the_refresh_step(self, monkeypatch):
        # the move accepted at step 8192 and the refresh after it share a
        # step; the record of step 8192 must read the refreshed statistic,
        # here made 1000 high by a drifting total_statistic
        spec, series, theta = _ar_case([0.5], 100, 8)
        config = mcle.ExchangeConfig(n_samples=9000, seed=2)
        moves = []
        ref_stats, ref_accepted = reference_chain(
            spec, series, theta, config, np.random.default_rng(config.seed), moves
        )
        assert mcle._RECOMPUTE_EVERY in moves
        res = mcle.exchange_sample(spec, series, theta, config)
        assert round(res.acceptance_rate * res.n_steps) == ref_accepted
        np.testing.assert_allclose(res.stats, ref_stats, rtol=0.0, atol=1e-9)
        calls = []
        total_statistic = mcle.total_statistic

        def drifting(*args):
            calls.append(1)
            return total_statistic(*args) + 1000.0 * (len(calls) - 1)

        monkeypatch.setattr(mcle, "total_statistic", drifting)
        shifted = mcle.exchange_sample(spec, series, theta, config)
        at = mcle._RECOMPUTE_EVERY - config.effective_burn_in - 1  # the record of step 8192
        shift = shifted.stats[:, 0] - res.stats[:, 0]
        np.testing.assert_allclose(shift[at - 1 : at + 1], [0.0, 1000.0], rtol=0.0, atol=1e-9)

    @staticmethod
    def check_against_reference(spec, series, theta, config):
        ref_stats, ref_accepted = reference_chain(spec, series, theta, config, np.random.default_rng(config.seed))
        res = mcle.exchange_sample(spec, series, theta, config)
        assert round(res.acceptance_rate * res.n_steps) == ref_accepted
        np.testing.assert_allclose(res.stats, ref_stats, rtol=0.0, atol=1e-9)

    # several components at one lag, exponents 1-3, lag-0-only terms (fewer
    # far-step groups than terms, or none), p = 2
    @settings(max_examples=12, deadline=None)
    @given(chain_cases(random_specs()))
    def test_random_specs(self, case):
        self.check_against_reference(*case)

    @settings(max_examples=8, deadline=None)
    @given(chain_cases(kron_binary_specs()))
    def test_kron_specs_with_binary_column(self, case):
        self.check_against_reference(*case)

    def test_kernel_is_compiled_once_per_spec(self):
        spec = core.ar_spec(2)
        kernel = mcle._exchange_kernel(spec)
        assert mcle._exchange_kernel(spec) is kernel
        assert mcle._exchange_kernel(core.ar_spec(2)) is kernel  # equal specs share it
        assert mcle._exchange_kernel(core.ar_spec(1)) is not kernel


def _ar1_sequence(rho, n, seed):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = noise[0] / math.sqrt(1.0 - rho**2)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + noise[t]
    return x


class TestChainDiagnostics:
    def test_ess_of_ar1_sequence(self):
        rho, n = 0.5, 20_000
        ess = mcle.effective_sample_size(_ar1_sequence(rho, n, seed=3))
        assert ess.shape == (1,)
        assert ess[0] == pytest.approx(n * (1 - rho) / (1 + rho), rel=0.15)

    def test_ess_per_column(self):
        rng = np.random.default_rng(4)
        x = np.column_stack([rng.standard_normal(5000), _ar1_sequence(0.9, 5000, seed=5), np.ones(5000)])
        ess = mcle.effective_sample_size(x)
        assert ess[0] == pytest.approx(5000, rel=0.15)
        assert ess[1] < 0.1 * 5000
        assert math.isnan(ess[2])
        # too short to estimate: nan, not a division by log10(1) = 0
        assert np.isnan(mcle.effective_sample_size(np.arange(3.0))).all()
        assert np.isnan(mcle.split_rhat(np.arange(3.0))).all()

    def test_split_rhat(self):
        rng = np.random.default_rng(6)
        stationary = rng.standard_normal(20_000)
        trending = stationary + np.linspace(0.0, 3.0, 20_000)
        rhat = mcle.split_rhat(np.column_stack([stationary, trending]))
        assert rhat[0] == pytest.approx(1.0, abs=0.01)
        assert rhat[1] > 1.1

    def test_exchange_result_reports_diagnostics(self):
        series = gaussian.simulate_ar(AR1, 60, seed=7)
        res = mcle.exchange_sample(SPEC1, series, [1.0], mcle.ExchangeConfig(n_samples=4000, seed=8))
        np.testing.assert_array_equal(res.ess, mcle.effective_sample_size(res.stats))
        np.testing.assert_array_equal(res.split_rhat, mcle.split_rhat(res.stats))
        assert 0.0 < res.ess[0] < 4000
        assert np.isfinite(res.split_rhat[0]) and res.split_rhat[0] > 0.0


class TestConfigs:
    def test_exchange_config_validation(self):
        with pytest.raises(ValueError):
            mcle.ExchangeConfig(n_samples=0)
        with pytest.raises(ValueError):
            mcle.ExchangeConfig(thin=0)
        assert mcle.ExchangeConfig(n_samples=1000).effective_burn_in == 100

    def test_scoring_config_validation(self):
        for grad_tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="grad_tol"):
                mcle.ScoringConfig(grad_tol=grad_tol)
        with pytest.raises(ValueError):
            mcle.ScoringConfig(max_iters=0)

    def test_result_validates_acceptance_rate(self):
        with pytest.raises(ValueError):
            mcle.McleResult(
                theta=np.zeros(1),
                iterations=1,
                final_acceptance_rate=1.5,
                score_norm_trace=(),
                theta_trace=(),
                acceptance_trace=(),
                converged=True,
                wall_time_s=0.0,
            )


class TestFisherScoring:
    def test_exact_moments_match_enumeration_maximizer(self):
        series = gaussian.simulate_ar(AR1, 8, seed=5)
        stats = oracle.permutation_statistics(SPEC1, series)
        fit = mcle.fisher_scoring(
            SPEC1,
            series,
            scoring_config=mcle.ScoringConfig(max_iters=200, grad_tol=1e-9),
            moment_fn=lambda th: oracle.enumeration_moments(SPEC1, series, th, stats=stats),
        )
        target = oracle.exact_cle(SPEC1, series)
        assert fit.converged
        assert fit.theta[0] == pytest.approx(target[0], abs=1e-3)

    def test_zero_score_fixed_point(self):
        # boundary values equal, interior swap changes nothing: the observed
        # statistic equals the permutation mean, so theta stays at zero
        series = core.TimeSeries([1.0, 2.0, 5.0, 1.0])
        fit = mcle.fisher_scoring(
            SPEC1,
            series,
            moment_fn=lambda th: oracle.enumeration_moments(SPEC1, series, th),
        )
        assert fit.converged and fit.iterations == 1
        assert fit.theta[0] == 0.0

    def test_mcmc_estimate_close_to_truth(self):
        series = gaussian.simulate_ar(AR1, 150, seed=8)
        fit = mcle.fisher_scoring(
            SPEC1,
            series,
            exchange_config=mcle.ExchangeConfig(n_samples=8000, seed=13),
        )
        assert 0.0 <= fit.final_acceptance_rate <= 1.0
        assert abs(fit.theta[0] - 1.0) < 0.8
        assert len(fit.score_norm_trace) == fit.iterations

    def test_telemetry(self):
        series = gaussian.simulate_ar(AR1, 80, seed=9)
        config = mcle.ExchangeConfig(n_samples=1500, seed=10)
        fit = mcle.fisher_scoring(
            SPEC1, series, exchange_config=config, scoring_config=mcle.ScoringConfig(max_iters=4, grad_tol=1e-12)
        )
        assert fit.iterations == 4
        assert fit.n_steps == 4 * (150 + 1500)
        assert set(fit.stages) == {"sampler_s", "diagnostics_s", "solve_s"}
        assert all(v >= 0.0 for v in fit.stages.values())
        assert sum(fit.stages.values()) <= fit.wall_time_s
        assert len(fit.ess_trace) == len(fit.split_rhat_trace) == 4
        assert all(0.0 < ess[0] <= 1500 * math.log10(1500) for ess in fit.ess_trace)

    def test_zero_covariance_takes_a_finite_step_after_the_ridge_bump(self):
        # tr(cov) = 0 gives a zero ridge, so the first solve is singular and
        # the ridge is raised to its floor of 1e-12: one unit of score moves
        # theta by 1e12
        series = gaussian.simulate_ar(AR1, 30, seed=5)
        h_obs = mcle.total_statistic(SPEC1, series)
        fit = mcle.fisher_scoring(
            SPEC1,
            series,
            scoring_config=mcle.ScoringConfig(max_iters=1),
            moment_fn=lambda th: (h_obs - 1.0, np.zeros((1, 1))),
        )
        assert np.all(np.isfinite(fit.theta))
        assert fit.theta[0] == pytest.approx(1e12, rel=1e-12)

    def test_nan_covariance_raises_ill_conditioned(self):
        series = gaussian.simulate_ar(AR1, 30, seed=5)
        h_obs = mcle.total_statistic(SPEC1, series)
        with pytest.raises(IllConditionedError, match="not invertible"):
            mcle.fisher_scoring(
                SPEC1,
                series,
                moment_fn=lambda th: (h_obs - 1.0, np.full((1, 1), np.nan)),
            )

    def test_exact_moments_have_no_chain_telemetry(self):
        series = gaussian.simulate_ar(AR1, 7, seed=5)
        fit = mcle.fisher_scoring(
            SPEC1,
            series,
            scoring_config=mcle.ScoringConfig(max_iters=3, grad_tol=1e-12),
            moment_fn=lambda th: oracle.enumeration_moments(SPEC1, series, th),
        )
        assert fit.n_steps == 0
        assert all(math.isnan(ess[0]) for ess in fit.ess_trace)
        assert sum(fit.stages.values()) <= fit.wall_time_s

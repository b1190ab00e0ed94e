"""Exchange sampler and Fisher scoring for conditional likelihood."""

import math
import re
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_acceptance import assert_verify_passes
from test_core import _bits, kron_binary_specs, overflowing_input, random_specs

from mimm import core, gaussian, mcle, oracle, ple, verify
from mimm.exceptions import (
    IllConditionedError,
    InsufficientDataError,
    InsufficientInteriorError,
    ParameterDomainError,
    ShapeMismatchError,
)

AR1 = gaussian.ClassicalARParams([0.5], 0.5)
SPEC1 = core.ar_spec(1)


class TestLogRatio:
    # the normalizers cancel: a swap's log conditional-likelihood ratio is theta . delta
    def test_worked_example(self):
        series = core.TimeSeries([1.0, 2.0, 3.0, 4.0])
        delta = core.swap_delta(SPEC1, series, 1, 2)
        assert np.array([1.0]) @ delta == pytest.approx(-3.0)

    def test_detailed_balance(self):
        assert_verify_passes(verify._check_detailed_balance, "detailed_balance_log_ratio")


class TestExchangeSampler:
    def test_zero_theta_accepts_everything(self):
        assert_verify_passes(verify._check_zero_theta_acceptance, "zero_theta_acceptance")

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

    @pytest.mark.parametrize(
        "theta, error, message",
        [([0.0, 0.0], ShapeMismatchError, "does not match K = 1"), ([math.nan], ValueError, "non-finite")],
    )
    def test_theta_of_wrong_shape_or_not_finite_rejected(self, theta, error, message):
        series = gaussian.simulate_ar(AR1, 20, seed=0)
        with pytest.raises(error, match=message):
            mcle.exchange_sample(SPEC1, series, theta)

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
    window path (``core._swap_delta_rows``) on the list of data rows in the
    current order; returns the recorded statistics and the accepted count.
    ``moves``, when given, receives the step number (from 1) of every
    accepted move."""
    d, n = spec.order, series.n
    m = n - 2 * d
    K = spec.n_terms
    th = [float(v) for v in theta]
    terms = core._term_factor_tuples(spec)
    rows = list(series.rows())
    current = [float(v) for v in core.total_statistic(spec, series)]
    burn = config.burn_in
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
        delta = core._swap_delta_rows(rows, d, terms, s1, s2)
        logr = 0.0
        for k in range(K):
            logr += th[k] * delta[k]
        if logu <= logr:
            rows[s1], rows[s2] = rows[s2], rows[s1]
            for k in range(K):
                current[k] += delta[k]
            accepted += 1
            if moves is not None:
                moves.append(step + 1)
        if (step + 1) % mcle._RECOMPUTE_EVERY == 0:
            permuted = core.TimeSeries(rows, kinds=series.kinds)
            current = [float(v) for v in core.total_statistic(spec, permuted)]
        offset = step + 1 - burn
        if offset >= 1 and offset % config.thin == 0 and recorded < config.n_samples:
            stats[recorded] = current
            recorded += 1
    return stats, accepted


def chain_moves(spec, series, theta, config):
    """``exchange_sample``'s result and the step number (from 1) of every
    move it accepted, read off each block's K x steps table (a step with a
    written entry) by wrapping ``mcle._statistic_path``."""
    moves, seen, path_of = [], 0, mcle._statistic_path

    def recording(table, start):
        nonlocal seen
        written = np.flatnonzero(~np.isnan(table).all(axis=0))
        moves.extend((seen + 1 + written).tolist())
        seen += table.shape[1]
        return path_of(table, start)

    with mock.patch.object(mcle, "_statistic_path", recording):
        res = mcle.exchange_sample(spec, series, theta, config)
    return res, moves


def _kron_binary_case():
    rng = np.random.default_rng(21)
    data = np.column_stack([rng.integers(0, 2, size=40), rng.standard_normal(40)])
    series = core.TimeSeries(data, kinds=("binary", "real"))
    spec = core.kron_spec(2, [(1, 1, 1), (2, 1, 2)])
    return spec, series, 0.3 * rng.standard_normal(spec.n_terms)


def _wide_kron_case():
    # K = 289 terms: the generated kernel's log-ratio sums run past one
    # line (at most 256 terms a line)
    rng = np.random.default_rng(22)
    spec = core.kron_spec(17, [(1, 1, 1)])
    series = core.TimeSeries(rng.standard_normal((12, 17)))
    return spec, series, 0.05 * rng.standard_normal(spec.n_terms)


def _ar_case(phi, n, seed):
    params = gaussian.ClassicalARParams(phi, 0.5)
    series = gaussian.simulate_ar(params, n, seed=seed)
    return core.ar_spec(len(phi)), series, gaussian.ard_to_mininfo(params).theta


def _squared_case():
    # component 0 enters only squared: the table adds its value column,
    # which the near-pair lines read and the refresh rebuilds the ordering from
    spec = core.DependenceSpec.from_text("0:0^2*1:0^2\n")
    assert spec._table.exps == (1, 2) and spec._table.values == (0,)
    series = gaussian.simulate_ar(AR1, 100, seed=8)
    return spec, series, [-0.3]


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
    assert config.burn_in + config.n_samples * config.thin > mcle._PROPOSAL_BLOCK
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
            (_wide_kron_case(), mcle.ExchangeConfig(n_samples=300, seed=19)),
            # past the refresh at 8192
            (_squared_case(), mcle.ExchangeConfig(n_samples=9000, seed=20)),
        ],
        ids=[
            "ar1", "ar2", "kron-binary", "thin3-no-burn-in", "long", "thin2-odd-burn-in", "thin3-burn-in-5",
            "kron-289-terms", "squared-only",
        ],
    )
    def test_same_chain_as_scalar_reference(self, case, config):
        spec, series, theta = case
        ref_moves = []
        ref_stats, ref_accepted = reference_chain(
            spec, series, theta, config, np.random.default_rng(config.seed), ref_moves
        )
        res, moves = chain_moves(spec, series, theta, config)
        assert res.n_steps == config.burn_in + config.n_samples * config.thin
        assert moves == ref_moves
        assert round(res.acceptance_rate * res.n_steps) == ref_accepted
        assert 0 < ref_accepted < res.n_steps
        assert res.stats.shape == ref_stats.shape
        np.testing.assert_allclose(res.stats, ref_stats, rtol=0.0, atol=1e-9)

    def test_zero_theta_records_every_step(self):
        # every move is accepted, so every step writes its entries
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
        at = mcle._RECOMPUTE_EVERY - config.burn_in - 1  # the record of step 8192
        shift = shifted.stats[:, 0] - res.stats[:, 0]
        np.testing.assert_allclose(shift[at - 1 : at + 1], [0.0, 1000.0], rtol=0.0, atol=1e-9)

    @staticmethod
    def check_against_reference(spec, series, theta, config):
        ref_moves = []
        ref_stats, ref_accepted = reference_chain(
            spec, series, theta, config, np.random.default_rng(config.seed), ref_moves
        )
        res, moves = chain_moves(spec, series, theta, config)
        assert moves == ref_moves
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

    def test_one_lag_terms_count_their_far_moves(self):
        # terms that each touch one lag leave the far step no group: its
        # moves change nothing and are always accepted, and they must count
        T = core.MonomialTerm
        spec = core.DependenceSpec(2, 2, (T(((0, 0, 2),)), T(((0, 0, 1), (0, 1, 1)))))
        assert spec._table.groups == ()
        series = core.TimeSeries(np.random.default_rng(23).uniform(-1.5, 1.5, size=(40, 2)))
        config = mcle.ExchangeConfig(n_samples=5000, seed=24)
        ref_stats, ref_accepted = reference_chain(spec, series, [0.4, -0.3], config, np.random.default_rng(config.seed))
        res = mcle.exchange_sample(spec, series, [0.4, -0.3], config)
        assert round(res.acceptance_rate * res.n_steps) == ref_accepted
        np.testing.assert_allclose(res.stats, ref_stats, rtol=0.0, atol=1e-9)

    def test_recording_is_a_read_off_of_one_chain(self):
        # the same seed runs the same chain whatever the thinning and
        # burn-in, so two runs agree bit for bit at the steps both record;
        # the terms have two far-step groups, one and none, and the chains
        # cross the block edges at 4096 and 8192 and the refresh at 8192
        T = core.MonomialTerm
        spec = core.DependenceSpec(1, 1, tuple(T.parse(t) for t in ("0:0^1*1:0^2", "0:0^1*1:0^1", "0:0^2")))
        assert [k for k, _, _ in spec._table.groups] == [0, 0, 1]
        series = gaussian.simulate_ar(AR1, 60, seed=21)
        theta = [0.2, 0.5, -0.1]

        def run(**kwargs):
            return mcle.exchange_sample(spec, series, theta, mcle.ExchangeConfig(seed=22, **kwargs)).stats

        every = run(n_samples=9000, burn_in=0)  # steps 1 .. 9000
        assert _bits(run(n_samples=3000, burn_in=0, thin=3)) == _bits(every[2::3])  # steps 3, 6, .. 9000
        assert _bits(run(n_samples=9000, burn_in=7)[:-7]) == _bits(every[7:])  # steps 8 .. 9000
        assert len(np.unique(every[:, 0])) > 1000  # the chain moves

    def test_kernel_is_compiled_once_per_spec(self):
        spec = core.ar_spec(2)
        kernel = mcle._exchange_kernel(spec)
        assert mcle._exchange_kernel(spec) is kernel
        assert mcle._exchange_kernel(core.ar_spec(2)) is kernel  # equal specs share it
        assert mcle._exchange_kernel(core.ar_spec(1)) is not kernel


class TestSegmentState:
    def test_column_lists_follow_the_ordering(self):
        # p = 2, d = 2, component 1 only cubed: the table adds its value
        # column, which the near lines read and raise to the cube
        T = core.MonomialTerm
        spec = core.DependenceSpec(
            2, 2, (T(((0, 0, 1), (1, 0, 1))), T(((0, 0, 1), (1, 1, 3))), T(((0, 0, 2), (2, 1, 3))))
        )
        table = spec._table
        assert list(zip(table.comps.tolist(), table.exps)) == [(0, 1), (0, 2), (1, 1), (1, 3)]
        assert table.values == (0, 2)
        d, n = spec.order, 40
        rng = np.random.default_rng(3)
        series = core.TimeSeries(rng.uniform(-1.2, 1.2, size=(n, 2)))
        B = mcle._PROPOSAL_BLOCK
        s1, s2 = core._uniform_pairs(rng, d, n - d, B)
        logu = np.log(rng.random(B))
        proposals = list(zip(range(B), s1.tolist(), s2.tolist(), logu.tolist()))
        columns = mcle._chain_columns(spec, series.data)
        start = core.total_statistic(spec, series)
        deltas = np.full((spec.n_terms, B), np.nan)
        mcle._exchange_kernel(spec)(columns, [0.3, -0.2, 0.1], proposals, [memoryview(row) for row in deltas])
        # an accepted move writes its terms' entries, a rejected one none
        moves = [p for p, written in zip(proposals, ~np.isnan(deltas).all(axis=0)) if written]
        path, accepted = mcle._statistic_path(deltas, start)
        current = path[-1]
        assert len(moves) == accepted
        near = sum(b - a <= d for _, a, b, _ in moves)
        assert near >= 200 and len(moves) - near >= 1000
        # the value columns hold an interior permutation of the data rows
        rows = list(zip(*(columns[q] for q in table.values)))
        original = series.rows()
        assert rows[:d] + rows[n - d :] == [*original[:d], *original[n - d :]]
        assert sorted(rows) == sorted(original) and rows != list(original)
        # and every power column is a power of its value column
        permuted = core.TimeSeries(rows)
        for q, (comp, exp) in enumerate(zip(table.comps.tolist(), table.exps)):
            value = np.array(columns[table.values[comp]])
            assert _bits(np.array(columns[q])) == _bits(value**exp)
        np.testing.assert_allclose(current, core.total_statistic(spec, permuted), rtol=1e-12, atol=1e-12)


def _ar1_sequence(rho, n, seed):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = noise[0] / math.sqrt(1.0 - rho**2)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + noise[t]
    return x


def _geyer_ess_by_dots(x):
    """The oracle of effective_sample_size on one column: Geyer's initial
    monotone sequence from autocovariances taken lag by lag as dot products.
    Returns the ESS and the pair sums the sequence read, through the first
    one that is not positive (None for a constant column)."""
    L = len(x)
    if x.min() == x.max():
        return math.nan, None
    xc = x - x.mean()
    acov = np.array([np.dot(xc[: L - t], xc[t:]) for t in range(L - L % 2)])
    pairs = (acov / acov[0]).reshape(-1, 2).sum(axis=1)
    stop = np.flatnonzero(pairs <= 0.0)
    read, kept = (pairs[: stop[0] + 1], pairs[: stop[0]]) if stop.size else (pairs, pairs)
    tau = -1.0 + 2.0 * np.minimum.accumulate(kept).sum()
    return L / max(tau, 1.0 / math.log10(L)), read


def _column(kind, L, rng):
    """One chain column: an AR(1) path (a float coefficient), a random walk,
    an antithetic chain or a constant."""
    noise = rng.standard_normal(L)
    if kind == "constant":
        return np.full(L, 2.5)
    if kind == "antithetic":  # alternates between two states, with noise
        return np.where(np.arange(L) % 2, 1.0, -1.0) + 0.1 * noise
    phi = 1.0 if kind == "walk" else kind
    x = np.empty(L)
    x[0] = noise[0]
    for t in range(1, L):
        x[t] = phi * x[t - 1] + noise[t]
    return x


def _batched_ess(x):
    """effective_sample_size as one transform of all centred columns at
    their own scale: the windowed transform, then the full one for a column
    whose pair sums stay positive through the window."""
    L, K = x.shape
    out = np.full(K, np.nan)
    xc = x - x.mean(axis=0)
    short = min(n << ((L + L // 8 - 1) // n).bit_length() for n in (1, 3))
    window = mcle._autocovariance(xc, short, min(short - L + 1, L) // 2 * 2)
    step = 1 << max(0, (2 * L - 1).bit_length() - 4)
    full = mcle._autocovariance(xc, -(-(2 * L - 1) // step) * step, L - L % 2)
    for k in range(K):
        if x[:, k].min() != x[:, k].max():
            tau, stopped = mcle._initial_monotone_tau(window[:, k])
            if not stopped:
                tau = mcle._initial_monotone_tau(full[:, k])[0]
            out[k] = L / max(tau, 1.0 / math.log10(L))
    return out


COLUMN_KINDS = st.one_of(
    st.sampled_from(["constant", "antithetic", "walk", 0.999, 0.99, -0.9]),
    st.floats(-0.95, 0.999),
)


def unscaled_split_rhat(samples):
    """:func:`mcle.split_rhat` without its power-of-two column scaling."""
    x = np.asarray(samples, dtype=float).reshape(len(samples), -1)
    h = len(x) // 2
    halves = np.stack([x[:h], x[len(x) - h :]])
    within = halves.var(axis=1, ddof=1).mean(axis=0)
    between = halves.mean(axis=1).var(axis=0, ddof=1)
    return np.sqrt(((h - 1) / h * within + between) / within)


class TestChainDiagnostics:
    @settings(max_examples=80, deadline=None)
    @given(
        L=st.one_of(st.integers(4, 40), st.integers(41, 3000)),
        kinds=st.lists(COLUMN_KINDS, min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ess_matches_lag_by_lag_oracle(self, L, kinds, seed):
        # short window or full-length fallback, the value is Geyer's
        # estimator on exact lags; drawn only where no pair sum the
        # sequence reads lies within rounding of zero, so both sides stop
        # at the same pair
        rng = np.random.default_rng(seed)
        x = np.column_stack([_column(kind, L, rng) for kind in kinds])
        expected = []
        for k in range(x.shape[1]):
            ess, read = _geyer_ess_by_dots(x[:, k])
            assume(read is None or np.abs(read).min() > 1e-9)
            expected.append(ess)
        np.testing.assert_allclose(mcle.effective_sample_size(x), expected, rtol=1e-12, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        L=st.one_of(st.integers(4, 40), st.integers(41, 3000)),
        kinds=st.lists(COLUMN_KINDS, min_size=1, max_size=3),
        scale=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ess_column_by_column_equals_one_batched_transform(self, L, kinds, scale, seed):
        # each column alone, scaled by a power of two, gives the bits of
        # the batched transform of every column at its own scale
        rng = np.random.default_rng(seed)
        x = scale * np.column_stack([_column(kind, L, rng) for kind in kinds])
        np.testing.assert_array_equal(mcle.effective_sample_size(x), _batched_ess(x))

    @pytest.mark.parametrize("scale", [1e75, 1e-160])
    def test_chains_at_extreme_scales_warn_nothing(self, scale):
        # at 1e75 the batched transform's squares overflowed, at 1e-160 the
        # statistics are subnormal and its lag-0 autocovariance was 0; this
        # suite makes any warning an error
        series = core.TimeSeries(np.random.default_rng(0).standard_normal(300) * scale)
        config = mcle.ExchangeConfig(n_samples=2000, seed=1)
        fit = mcle.fisher_scoring(SPEC1, series, config, mcle.ScoringConfig(max_iters=2))
        assert all(np.isfinite(ess).all() and ess[0] > 0.0 for ess in fit.ess_trace)

    def test_window_and_fallback_columns_in_one_call(self, monkeypatch):
        # at L = 1820 the short transform has 2048 points and gives lags
        # 0 .. 228 (114 pair sums) exactly; a column whose sequence reads
        # further then takes the 3840-point transform.  Each live column is
        # transformed alone, scaled into [0.5, 1); the constant column is
        # not transformed and is nan
        L = 1820
        rng = np.random.default_rng(11)
        kinds = [0.0, "walk", "constant", 0.999, "antithetic"]
        x = np.column_stack([_column(kind, L, rng) for kind in kinds])
        oracle = [_geyer_ess_by_dots(x[:, k]) for k in range(len(kinds))]
        fallback = sum(read is not None and len(read) > 114 for _, read in oracle)
        assert 1 <= fallback <= 3  # both paths in one call
        calls = []
        autocovariance = mcle._autocovariance

        def spy(xc, size, lags):
            assert xc.shape == (L,) and 0.5 <= np.abs(xc).max() < 1.0
            calls.append((size, lags))
            return autocovariance(xc, size, lags)

        monkeypatch.setattr(mcle, "_autocovariance", spy)
        ess = mcle.effective_sample_size(x)
        expected = []
        for kind, (_, read) in zip(kinds, oracle):
            expected += [] if kind == "constant" else [(2048, 228)]
            expected += [(3840, 1820)] if read is not None and len(read) > 114 else []
        assert calls == expected
        np.testing.assert_allclose(ess, [value for value, _ in oracle], rtol=1e-12, atol=0.0)
        assert math.isnan(ess[2])
        assert ess[4] == pytest.approx(L * math.log10(L), rel=1e-12)  # tau at Stan's floor

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

    def test_split_rhat_of_a_subnormal_chain(self):
        # statistics near 1e-320: unscaled, the within-half variances
        # underflow to 0 and R-hat read nan beside a finite ESS
        series = core.TimeSeries(np.random.default_rng(0).standard_normal(300) * 1e-160)
        fit = mcle.fisher_scoring(
            SPEC1, series, mcle.ExchangeConfig(n_samples=2000, seed=1), mcle.ScoringConfig(max_iters=2)
        )
        assert np.isfinite(fit.split_rhat_trace).all() and np.isfinite(fit.ess_trace).all()
        assert 0.9 < fit.split_rhat_trace[0][0] < 2.0

    def test_split_rhat_scaling_keeps_its_bits(self):
        # the chains of the first ar1-exchange jobs of seed 1 (data and chain
        # seeds from child k of SeedSequence(1), 9 fixed scoring iterations):
        # power-of-two scaling is exact, so R-hat is the unscaled formula's
        chains = []
        sample = mcle.exchange_sample

        def record(*args, **kwargs):
            chains.append(sample(*args, **kwargs))
            return chains[-1]

        for child in np.random.SeedSequence(1).spawn(2):
            data_seed, chain_seed = child.spawn(2)
            series = gaussian.simulate_ar(AR1, 100, seed=data_seed)
            config = mcle.ExchangeConfig(n_samples=10_000, seed=chain_seed)
            with mock.patch.object(mcle, "exchange_sample", record):
                fit = mcle.fisher_scoring(SPEC1, series, config, mcle.ScoringConfig(max_iters=9, grad_tol=1e-12))
            rhats = [tuple(float(v) for v in unscaled_split_rhat(chain.stats)) for chain in chains[-9:]]
            assert np.array(fit.split_rhat_trace).tobytes() == np.array(rhats).tobytes()
        assert len(chains) == 18

    def test_split_rhat_of_constant_halves(self):
        assert np.isnan(mcle.split_rhat(np.ones((10, 2)))).all()
        assert mcle.split_rhat(np.repeat([1e-310, 2e-310], 5))[0] == math.inf

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
        assert mcle.ExchangeConfig(n_samples=1000).burn_in == 100
        with pytest.raises(ValueError):
            mcle.ExchangeConfig(burn_in=-1)

    def test_default_burn_in_is_resolved_at_construction(self):
        # the record holds the steps the chain discards, so it echoes them
        config = mcle.ExchangeConfig(n_samples=1005, seed=3)
        assert config.burn_in == 100
        assert config == mcle.ExchangeConfig(n_samples=1005, burn_in=100, seed=3)
        assert mcle.ExchangeConfig(n_samples=1005, burn_in=0).burn_in == 0
        series = gaussian.simulate_ar(gaussian.ClassicalARParams([0.5], 0.5), 40, seed=1)
        default = mcle.exchange_sample(SPEC1, series, [0.4], config)
        explicit = mcle.exchange_sample(SPEC1, series, [0.4], mcle.ExchangeConfig(n_samples=1005, burn_in=100, seed=3))
        assert default.n_steps == explicit.n_steps == 1105
        np.testing.assert_array_equal(default.stats, explicit.stats)

    def test_scoring_config_validation(self):
        for grad_tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="grad_tol"):
                mcle.ScoringConfig(grad_tol=grad_tol)
        with pytest.raises(ValueError):
            mcle.ScoringConfig(max_iters=0)

    def test_derived_fields_are_not_arguments(self):
        # the iteration count and the last acceptance rate are read off the
        # traces, so they cannot disagree with them
        traces = dict(score_norm_trace=(2.0, 1.0), theta_trace=((0.0,), (0.5,)), acceptance_trace=(0.25, 0.5))
        result = mcle.McleResult(theta=np.zeros(1), converged=True, wall_time_s=0.0, **traces)
        assert result.iterations == 2 and result.final_acceptance_rate == 0.5
        for derived in ({"iterations": 2}, {"final_acceptance_rate": 0.5}):
            with pytest.raises(TypeError):
                mcle.McleResult(theta=np.zeros(1), converged=True, wall_time_s=0.0, **traces, **derived)


class TestFisherScoring:
    def test_exact_moments_match_enumeration_maximizer(self):
        assert_verify_passes(verify._check_enumeration_equivalence, "enumeration_equivalence")

    def test_zero_score_design_is_refused(self):
        # boundary values equal, the one interior swap changes nothing: the
        # score and covariance are 0 at every theta, which returned theta 0
        # "converged"; the pair fitters refuse the same data
        series = core.TimeSeries([1.0, 2.0, 5.0, 1.0])
        with pytest.raises(InsufficientDataError, match="^every pair statistic is zero, so theta is not identified$"):
            mcle.fisher_scoring(SPEC1, series, moment_fn=lambda th: oracle.enumeration_moments(SPEC1, series, th))
        with pytest.raises(InsufficientDataError, match="every pair statistic is zero"):
            ple.fit_naive(SPEC1, series)

    @pytest.mark.parametrize("value", [2.0, 0.3, 0.0])
    @pytest.mark.parametrize("moments", ["chain", "enumeration"])
    def test_constant_series_is_refused(self, value, moments):
        # each returned theta [0.0] "converged"; at 0.3 the chain's mean of
        # equal statistics rounds, so the score (8.9e-16) and covariance
        # (7.9e-31) are not exactly 0
        series = core.TimeSeries(np.full(50 if moments == "chain" else 9, value))
        moment_fn = None if moments == "chain" else (lambda th: oracle.enumeration_moments(SPEC1, series, th))
        with pytest.raises(InsufficientDataError, match="^every pair statistic is zero, so theta is not identified$"):
            mcle.fisher_scoring(SPEC1, series, mcle.ExchangeConfig(n_samples=2000, seed=1), moment_fn=moment_fn)

    def test_long_constant_series_is_refused_at_a_bounded_cost(self, monkeypatch):
        # n = 1e5 has 5e9 interior pairs; the scan reads at most 2 x 16384
        scanned = []

        def counted(fn):
            def wrapper(*args):
                out = fn(*args)
                scanned.append(len(out))
                return out

            return wrapper

        monkeypatch.setattr(core, "swap_deltas", counted(core.swap_deltas))
        monkeypatch.setattr(core, "_all_pairs_deltas", counted(core._all_pairs_deltas))
        start = time.perf_counter()
        with pytest.raises(InsufficientDataError, match="every pair statistic is zero"):
            mcle.fisher_scoring(SPEC1, core.TimeSeries(np.full(100_000, 2.0)), mcle.ExchangeConfig(n_samples=500, seed=1))
        assert 0 < sum(scanned) <= 2 * core._SWAP_BLOCK
        assert time.perf_counter() - start < 10.0

    def test_constant_column_is_refused_for_its_own_terms(self):
        rng = np.random.default_rng(3)
        series = core.TimeSeries(np.column_stack([np.full(60, -1.5), rng.standard_normal(60)]))
        config = mcle.ExchangeConfig(n_samples=2000, seed=1)
        with pytest.raises(InsufficientDataError, match="every pair statistic is zero"):
            mcle.fisher_scoring(core.DependenceSpec(order=1, dim=2, terms=SPEC1.terms), series, config)
        assert mcle.fisher_scoring(core.DependenceSpec.from_text("0:1^1*1:1^1\n"), series, config).iterations > 1

    def test_ordinary_fits_never_scan_for_zero_statistics(self, monkeypatch):
        check = mock.Mock(side_effect=mcle._check_identified)
        monkeypatch.setattr(mcle, "_check_identified", check)
        series = gaussian.simulate_ar(AR1, 100, seed=5)
        mcle.fisher_scoring(SPEC1, series, mcle.ExchangeConfig(n_samples=2000, seed=1))
        small = gaussian.simulate_ar(AR1, 9, seed=5)
        mcle.fisher_scoring(SPEC1, small, moment_fn=lambda th: oracle.enumeration_moments(SPEC1, small, th))
        assert check.call_count == 0

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
        # tr(cov) = 0 puts the ridge at its floor of 1e-12: one unit of
        # score moves theta by 1e12
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

    def test_statistics_past_the_float_range_refused_before_any_chain(self, monkeypatch):
        # at 1e100 the statistics are finite but their squares are not: the
        # fit ran and wrote theta 0 with every score norm inf.  No overflow
        # warning comes first: this suite makes warnings errors
        monkeypatch.setattr(mcle, "exchange_sample", mock.Mock(side_effect=AssertionError("a chain ran")))
        for case in "abc":
            series, spec = overflowing_input(case)
            label = re.escape(spec.terms[0].label())
            with pytest.raises(ParameterDomainError, match=rf"^observed statistics of term {label} .*core\.standard_scale"):
                mcle.fisher_scoring(spec, series)

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
        # no chain ran, so there is no acceptance rate to report either
        assert len(fit.acceptance_trace) == 3
        assert all(math.isnan(acc) for acc in fit.acceptance_trace)
        assert math.isnan(fit.final_acceptance_rate)
        assert sum(fit.stages.values()) <= fit.wall_time_s

    def test_record_and_diagnostics_of_exact_moments(self):
        series = gaussian.simulate_ar(AR1, 7, seed=5)
        fit = mcle.fisher_scoring(
            SPEC1,
            series,
            scoring_config=mcle.ScoringConfig(max_iters=3, grad_tol=1e-12),
            moment_fn=lambda th: oracle.enumeration_moments(SPEC1, series, th),
        )
        record = fit.to_dict()
        assert set(record) == {"iterations", "acceptance_rate", "converged", "score_norm_trace", "n_steps", "stages"}
        assert record["iterations"] == 3 and record["n_steps"] == 0 and math.isnan(record["acceptance_rate"])
        assert record["score_norm_trace"] == list(fit.score_norm_trace)
        head, rows = fit.diagnostics()
        assert head == ["iter", "theta_0", "score_norm", "acceptance_rate", "ess", "split_rhat"]
        assert [row[0] for row in rows] == [1, 2, 3]
        for row, theta, norm in zip(rows, fit.theta_trace, fit.score_norm_trace):
            assert row[1:3] == [*theta, norm]
            # no chain ran: no acceptance rate, ESS or split-R-hat
            assert len(row) == 6 and all(math.isnan(v) for v in row[3:])

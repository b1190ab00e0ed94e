"""Gaussian ground truth: simulation, parameter transforms, Fisher
information, kernels, and divergence rates."""

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from test_acceptance import assert_verify_passes

from mimm import gaussian, verify
from mimm.exceptions import (
    ParameterDomainError,
    ShapeMismatchError,
    StationarityError,
)


def random_stationary_ar2(rng, margin=0.02):
    while True:
        f1 = rng.uniform(-1.9, 1.9)
        f2 = rng.uniform(-0.95, 0.95)
        if 1 + f2 > margin and 1 - f1 - f2 > margin and 1 + f1 - f2 > margin:
            return f1, f2


def random_stationary_var1(rng, p):
    W = rng.standard_normal((p, p))
    rho = np.max(np.abs(np.linalg.eigvals(W)))
    A = W * (rng.uniform(0.2, 0.92) / max(rho, 1e-12))
    Z = rng.standard_normal((p, p))
    Sigma = Z @ Z.T / p + 0.1 * np.eye(p)
    return A, Sigma


class TestParamRecords:
    def test_ar_rejects_nonstationary(self):
        with pytest.raises(StationarityError):
            gaussian.ClassicalARParams([1.01], 1.0)
        with pytest.raises(StationarityError):
            gaussian.ClassicalARParams([0.8, 0.3], 1.0)

    def test_ar_stationarity_is_the_step_down_rule(self):
        # a double root 1 - 1e-10: its companion eigenvalues round inside the
        # unit circle, but the step-down that forms its stationary law meets
        # a partial autocorrelation of 1, so the record is refused
        with pytest.raises(StationarityError, match="partial autocorrelation"):
            gaussian.ClassicalARParams(-np.poly([1 - 1e-10] * 2)[1:], 1.0)

    def test_ar_rejects_bad_sigma(self):
        for sigma2 in (0.0, float("nan"), True, "0.5"):
            with pytest.raises(ParameterDomainError, match="sigma2 must be finite and > 0"):
                gaussian.ClassicalARParams([0.5], sigma2)

    def test_var_rejects_asymmetric_sigma(self):
        A = 0.3 * np.eye(2)
        with pytest.raises(ParameterDomainError):
            gaussian.ClassicalVARParams(A=A[None], Sigma=np.array([[1.0, 0.2], [0.1, 1.0]]))

    def test_mininfo_domain_is_unconstrained(self):
        params = gaussian.MinInfoARParams([25.0], 9.0)  # far outside |phi|<1 image? no: any theta is fine
        assert params.tau2 == 9.0

    def test_kernel_takes_no_stationary_law(self):
        # B = F B F' + S fixes the law, so a third argument could only disagree
        with pytest.raises(TypeError):
            gaussian.GaussianKernel([[0.5]], [[0.5]], [[1.0]])
        with pytest.raises(TypeError):
            gaussian.GaussianKernel([[0.5]], [[0.5]], stationary_cov=[[2.0 / 3.0]])

    @pytest.mark.parametrize("p", [1, 3])
    def test_kernel_law_is_the_lyapunov_solve(self, p):
        rng = np.random.default_rng(p)
        F = 0.4 * rng.standard_normal((p, p)) / math.sqrt(p)
        root = rng.standard_normal((p, p))
        S = root @ root.T + p * np.eye(p)
        kernel = gaussian.GaussianKernel(F, S)
        B = kernel.stationary_cov
        assert B.tobytes() == gaussian.stationary_cov_var1(F, S).tobytes()
        assert kernel.stationary_cov is B and not B.flags.writeable

    def test_unstable_kernel_is_built_without_a_law(self):
        kernel = gaussian.GaussianKernel([[1.5]], [[1.0]])
        assert kernel.dim == 1
        with pytest.raises(StationarityError):
            kernel.stationary_cov


class TestSimulation:
    def test_iid_variance(self):
        series = gaussian.simulate_ar(gaussian.ClassicalARParams([0.0], 1.0), 100_000, seed=0)
        assert series.data.var() == pytest.approx(1.0, rel=0.03)

    def test_ar1_stationary_variance(self):
        series = gaussian.simulate_ar(gaussian.ClassicalARParams([0.5], 0.5), 100_000, seed=1)
        assert series.data.var() == pytest.approx(2.0 / 3.0, rel=0.03)

    def test_ar2_lag1_autocorrelation(self):
        series = gaussian.simulate_ar(gaussian.ClassicalARParams([0.5, 0.3], 0.5), 100_000, seed=2)
        x = series.data[:, 0]
        ac1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert ac1 == pytest.approx(0.5 / 0.7, rel=0.03)

    def test_seed_reproducibility(self):
        p = gaussian.ClassicalARParams([0.3, 0.2], 1.0)
        a = gaussian.simulate_ar(p, 500, seed=7)
        b = gaussian.simulate_ar(p, 500, seed=7)
        np.testing.assert_array_equal(a.data, b.data)

    def test_var_iid_case(self):
        params = gaussian.ClassicalVARParams(A=np.zeros((1, 2, 2)), Sigma=np.eye(2))
        series = gaussian.simulate_var(params, 100_000, seed=3)
        cov = np.cov(series.data.T, bias=True)
        np.testing.assert_allclose(cov, np.eye(2), atol=0.03)

    def test_var_stationary_covariance(self):
        A = np.array([[0.5, 0.1], [0.1, 0.5]])
        params = gaussian.ClassicalVARParams(A=A[None], Sigma=0.5 * np.eye(2))
        series = gaussian.simulate_var(params, 100_000, seed=4)
        sample = np.cov(series.data.T, bias=True)
        B = gaussian.stationary_cov_var1(A, params.Sigma)
        assert np.abs(sample - B).max() <= 0.03 * np.abs(B).max()

    def test_var_block_diagonal_reduces_to_ar1(self):
        params = gaussian.ClassicalVARParams(A=(0.5 * np.eye(2))[None], Sigma=0.5 * np.eye(2))
        series = gaussian.simulate_var(params, 100_000, seed=5)
        for j in range(2):
            x = series.data[:, j]
            assert x.var() == pytest.approx(2.0 / 3.0, rel=0.03)
            assert np.corrcoef(x[:-1], x[1:])[0, 1] == pytest.approx(0.5, abs=0.02)


def ar_from_roots(roots, sigma2=1.0):
    """The AR(d) whose characteristic polynomial has these roots."""
    return gaussian.ClassicalARParams(-np.poly(roots).real[1:], sigma2)


@st.composite
def stationary_ar(draw, max_order=4, min_order=1, max_modulus=0.98):
    """AR(d), d = min_order..max_order, from real roots and conjugate pairs
    of modulus at most ``max_modulus``."""
    d = draw(st.integers(min_order, max_order))
    roots = []
    while len(roots) < d:
        r = draw(st.floats(0.0, max_modulus))
        if d - len(roots) >= 2 and draw(st.booleans()):
            w = draw(st.floats(0.0, math.pi))
            roots += [r * np.exp(1j * w), r * np.exp(-1j * w)]
        else:
            roots.append(r * draw(st.sampled_from([-1.0, 1.0])))
    sigma2 = draw(st.floats(1e-2, 1e2))
    try:
        return ar_from_roots(roots, sigma2)
    except StationarityError:  # repeated near-unit roots, rounded past 1
        reject()


@st.composite
def stationary_var(draw, orders=(1, 2)):
    """VAR(d), p = 2-3, with companion spectral radius 0.2-0.95: scaling
    block k by c**k scales every companion eigenvalue by c."""
    p = draw(st.integers(2, 3))
    d = draw(st.sampled_from(orders))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((d, p, p))
    rho = np.max(np.abs(np.linalg.eigvals(gaussian.companion_matrix(A))))
    c = draw(st.floats(0.2, 0.95)) / max(rho, 1e-12)
    A *= (c ** np.arange(1, d + 1))[:, None, None]
    Z = rng.standard_normal((p, p))
    return gaussian.ClassicalVARParams(A=A, Sigma=Z @ Z.T / p + 0.1 * np.eye(p))


def simulate(params, n, **kwargs):
    if isinstance(params, gaussian.ClassicalARParams):
        return gaussian.simulate_ar(params, n, **kwargs).data
    return gaussian.simulate_var(params, n, **kwargs).data


def reference_ar1(params, n, burn_in, seed):
    """The AR(1) simulator before the shared one: closed-form stationary
    start, noise drawn as one vector."""
    rng = np.random.default_rng(seed)
    phi = params.phi
    tau2 = params.sigma2 / (1.0 - phi[0] ** 2)
    state = math.sqrt(tau2) * rng.standard_normal()
    steps = burn_in + n
    eps = rng.standard_normal(steps) * math.sqrt(params.sigma2)
    out = np.empty(steps)
    for t in range(steps):
        state = eps[t] + float(phi[0]) * state
        out[t] = state
    return out[burn_in:, None]


def per_step_recursion(xs, coef, noise):
    """The AR recursion as the simulator ran it before the compiled loop:
    per step, the noise value plus one pass over the lags, a_1 x_{t-1}
    first.  ``xs`` ends with the start, oldest first."""
    xs = list(xs)
    lags = [(float(a), -1 - k) for k, a in enumerate(coef)]
    for val in noise:
        for a, k in lags:
            val += a * xs[k]
        xs.append(val)
    return xs


def parent_ar1(phi, sigma2, n, burn_in, seed):
    """The AR(1) simulator before the step-down start: the 1x1 Lyapunov
    solve, its Cholesky factor times the first normal, then the noise as a
    matrix product and :func:`per_step_recursion`."""
    rng = np.random.default_rng(seed)
    F = np.array([[phi]])
    G = np.linalg.solve(np.eye(1) - np.kron(F, F), np.array([sigma2])).reshape(1, 1)
    start = np.linalg.cholesky((G + G.T) / 2.0) @ rng.standard_normal(1)
    eps = rng.standard_normal((burn_in + n, 1)) @ np.linalg.cholesky(np.array([[sigma2]])).T
    xs = per_step_recursion(start.tolist(), [phi], eps[:, 0].tolist())
    return np.array(xs[1 + burn_in :])[:, None]


def reference_var1(params, n, burn_in, seed):
    """The VAR(1) simulator before the shared one."""
    rng = np.random.default_rng(seed)
    A = params.A[0]
    B = gaussian.stationary_cov_var1(A, params.Sigma)
    state = np.linalg.cholesky(B) @ rng.standard_normal(params.dim)
    steps = burn_in + n
    eps = rng.standard_normal((steps, params.dim)) @ np.linalg.cholesky(params.Sigma).T
    out = np.empty((steps, params.dim))
    for t in range(steps):
        state = eps[t] + A @ state
        out[t] = state
    return out[burn_in:]


class TestOneSimulator:
    """Every AR(d)/VAR(d) starts from its exact stationary law and discards
    exactly ``burn_in`` steps."""

    @settings(max_examples=80, deadline=None)
    @given(
        params=st.one_of(stationary_ar(), stationary_var()),
        n=st.integers(1, 40),
        burn_in=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_burn_in_is_the_head_of_a_longer_run(self, params, n, burn_in, seed):
        short = simulate(params, n, burn_in=burn_in, seed=seed)
        long = simulate(params, n + burn_in, seed=seed)
        assert short.tobytes() == long[burn_in:].tobytes()

    def test_ar3_near_unit_root_starts_stationary(self):
        params = ar_from_roots([0.999, 0.5, -0.3])
        x0 = [gaussian.simulate_ar(params, 1, seed=s).data[0, 0] for s in range(2000)]
        ratio = np.mean(np.square(x0)) / gaussian.stationary_variance(params)
        assert abs(ratio - 1.0) <= 0.15

    def test_var2_slow_component_starts_stationary(self):
        # two uncoupled AR(2) components, roots (0.999, 0.2) and (0.5, 0.3)
        A = np.array([np.diag([1.199, 0.8]), np.diag([-0.1998, -0.15])])
        params = gaussian.ClassicalVARParams(A=A, Sigma=np.eye(2))
        tau2 = [gaussian.ar2_to_mininfo(gaussian.ClassicalARParams(A[:, j, j], 1.0)).tau2 for j in range(2)]
        x0 = np.array([gaussian.simulate_var(params, 1, seed=s).data[0] for s in range(2000)])
        ratio = np.mean(np.square(x0), axis=0) / tau2
        assert np.all(np.abs(ratio - 1.0) <= 0.15)

    @pytest.mark.parametrize("phi, sigma2", [(0.5, 0.5), (0.6, 0.5), (0.0, 1.0), (0.4, 1.0)])
    def test_ar1_is_the_reference_on_fixed_inputs(self, phi, sigma2):
        # the parameter values the benchmark workloads, demos and CLI tests simulate
        params = gaussian.ClassicalARParams([phi], sigma2)
        seeds = list(range(40)) + np.random.SeedSequence(1401).spawn(20)
        for seed, n, burn_in in zip(seeds, [1, 100, 1000, 37] * 15, [0, 0, 7, 0, 3] * 12):
            got = gaussian.simulate_ar(params, n, burn_in=burn_in, seed=seed).data
            assert got.tobytes() == reference_ar1(params, n, burn_in, seed).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        phi=st.floats(-0.999, 0.999),
        sigma2=st.floats(1e-3, 1e3),
        n=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(phi=-0.7746980094690843, sigma2=2.6245965343097484, n=20, seed=198)
    def test_ar1_is_the_reference(self, phi, sigma2, n, seed):
        params = gaussian.ClassicalARParams([phi], sigma2)
        got = gaussian.simulate_ar(params, n, seed=seed).data
        want = reference_ar1(params, n, 0, seed)
        if phi**2 == phi * phi:
            assert got.tobytes() == want.tobytes()
        else:
            # the reference squares with pow, which can be one ulp off
            # phi * phi; the step-down's 1 - phi * phi then moves the start
            # by about an ulp
            tau = math.sqrt(sigma2 / (1.0 - phi * phi))
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * tau)

    @settings(max_examples=100, deadline=None)
    @given(
        phi=st.floats(-0.9999, 0.9999),
        sigma2=st.floats(1e-3, 1e3),
        n=st.integers(1, 60),
        burn_in=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ar1_is_the_parent_simulator(self, phi, sigma2, n, burn_in, seed):
        # the step-down start sqrt(sigma2 / (1 - phi * phi)) z_0 and the
        # compiled loop give the Lyapunov-and-Cholesky simulator's bits,
        # through both entry points
        want = parent_ar1(phi, sigma2, n, burn_in, seed).tobytes()
        ar = gaussian.ClassicalARParams([phi], sigma2)
        var = gaussian.ClassicalVARParams(A=[[[phi]]], Sigma=[[sigma2]])
        assert gaussian.simulate_ar(ar, n, burn_in=burn_in, seed=seed).data.tobytes() == want
        assert gaussian.simulate_var(var, n, burn_in=burn_in, seed=seed).data.tobytes() == want

    @settings(max_examples=100, deadline=None)
    @given(
        params=stationary_ar(max_order=8, max_modulus=0.999),
        n=st.integers(1, 300),
        burn_in=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_recursion_is_the_per_step_loop(self, params, n, burn_in, seed):
        # from a given start, the straight-line loop adds in the per-step
        # loop's order: the same bits on every draw
        d = params.order
        start = gaussian.simulate_ar(params, d, seed=seed).data[:, 0].tolist()
        noise = (np.random.default_rng(seed).standard_normal(burn_in + n) * math.sqrt(params.sigma2)).tolist()
        coef = params.phi.tolist()
        got = gaussian._ar_recursion(d)(list(start), coef, noise)[d + burn_in :]
        want = per_step_recursion(start, coef, noise)[d + burn_in :]
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(params=stationary_var(orders=(1,)), n=st.integers(1, 60), burn_in=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    def test_var1_is_the_reference(self, params, n, burn_in, seed):
        got = gaussian.simulate_var(params, n, burn_in=burn_in, seed=seed).data
        assert got.tobytes() == reference_var1(params, n, burn_in, seed).tobytes()

    @pytest.mark.parametrize(
        "roots",
        [[0.95 * np.exp(0.5j)] * 4 + [0.95 * np.exp(-0.5j)] * 4, [0.99] * 4],
        ids=["ar8-fourfold-pairs", "ar4-fourfold-root"],
    )
    def test_repeated_poles_simulate_finite_values(self, roots):
        # the step-down start forms no state covariance: repeated poles
        # draw finite values, with no warning
        x = gaussian.simulate_ar(ar_from_roots(roots), 200, seed=1).data
        assert x.shape == (200, 1) and np.all(np.isfinite(x))

    def test_eightfold_root_starts_stationary(self):
        # an eightfold root 0.9: its state covariance has condition number
        # 2.5e16 and no Cholesky factor in doubles; the step-down start
        # needs none, and the first value has the variance gamma0
        params = ar_from_roots([0.9] * 8)
        x0 = [gaussian.simulate_ar(params, 1, seed=s).data[0, 0] for s in range(2000)]
        ratio = np.mean(np.square(x0)) / gaussian.stationary_variance(params)
        assert abs(ratio - 1.0) <= 0.15

    @pytest.mark.parametrize("n, burn_in", [(0, 0), (5, -1)])
    def test_rejects_bad_lengths(self, n, burn_in):
        with pytest.raises(ParameterDomainError):
            gaussian.simulate_ar(gaussian.ClassicalARParams([0.5], 1.0), n, burn_in=burn_in)
        with pytest.raises(ParameterDomainError):
            gaussian.simulate_var(gaussian.ClassicalVARParams(A=0.5 * np.eye(2), Sigma=np.eye(2)), n, burn_in=burn_in)


def state_cov_and_warnings(solve, coef, noise):
    """``solve``'s state covariance and the categories of its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cov = solve(coef, noise)
    return cov, [w.category for w in caught]


def scipy_state_cov(coef, noise):
    """The reference: scipy's Lyapunov solve on the same companion system."""
    return scipy.linalg.solve_discrete_lyapunov(*companion_system(coef, noise))


def companion_system(coef, noise):
    """The companion matrix F of ``coef`` and the state noise Q, whose
    stationary state covariance G solves G = F G F' + Q."""
    F = gaussian.companion_matrix(coef)
    Q = np.zeros_like(F)
    Q[: len(noise), : len(noise)] = noise
    return F, Q


def backward_error(G, F, Q):
    """||G - F G F' - Q|| / (||G|| (1 + ||F||^2) + ||Q||): how far the
    Lyapunov equation must move for G to solve it exactly."""
    norm = np.linalg.norm
    return norm(G - F @ G @ F.T - Q) / (norm(G) * (1.0 + norm(F) ** 2) + norm(Q))


@st.composite
def larger_states(draw):
    """VAR(1-2) with p = 2-3, and VAR(2-12) with p = 1 (the coefficients of
    an AR(2-12) with roots up to modulus 0.9999, some repeated): companion
    states of dimension 2-12, from well to badly conditioned."""
    if draw(st.booleans()):
        params = draw(stationary_var())
        return params.A, params.Sigma
    if draw(st.booleans()):
        params = draw(stationary_ar(min_order=2, max_order=12, max_modulus=0.9999))
    else:
        r = draw(st.floats(0.5, 0.9999)) * draw(st.sampled_from([-1.0, 1.0]))
        try:
            params = ar_from_roots([r] * draw(st.integers(2, 12)), draw(st.floats(1e-2, 1e2)))
        except StationarityError:  # the rounded coefficients put a root past 1
            reject()
    return params.phi[:, None, None], np.array([[params.sigma2]])


def yule_walker(phi, sigma2):
    """The autocovariances gamma_0 .. gamma_d of the AR(phi, sigma2) from a
    60-digit Yule-Walker solve, rounded to floats, and the condition number
    of gamma_0: 1 + sum_j |phi_j d gamma_0 / d phi_j| / gamma_0, the 1 being
    its relative sensitivity to sigma2."""
    d = len(phi)
    with mpmath.workdps(60):
        M = mpmath.eye(d + 1)
        for k in range(d + 1):
            for j in range(1, d + 1):
                M[k, abs(k - j)] -= mpmath.mpf(float(phi[j - 1]))
        gamma = mpmath.lu_solve(M, mpmath.matrix([mpmath.mpf(float(sigma2))] + [0] * d))
        cond = mpmath.mpf(1)
        for j in range(1, d + 1):
            # M (d gamma / d phi_j) = (gamma_{|k - j|})_k
            slope = mpmath.lu_solve(M, mpmath.matrix([gamma[abs(k - j)] for k in range(d + 1)]))[0]
            cond += abs(float(phi[j - 1]) * slope) / gamma[0]
        return [float(g) for g in gamma], float(cond)


def assert_variance_within_cond_eps(params):
    """stationary_variance within 10 cond * eps of the Yule-Walker gamma_0."""
    gamma, cond = yule_walker(params.phi, params.sigma2)
    got = gaussian.stationary_variance(params)
    assert abs(got - gamma[0]) <= 10.0 * cond * np.finfo(float).eps * gamma[0]
    return got


CLUSTERED_ROOTS = pytest.mark.parametrize(
    "roots",
    [[0.9] * 8, list(np.linspace(0.9, 0.99, 7)), [0.99] * 4, [0.95 * np.exp(0.5j)] * 4 + [0.95 * np.exp(-0.5j)] * 4],
    ids=["eightfold-0.9", "seven-near-unit", "fourfold-0.99", "fourfold-pairs"],
)


class TestStationaryCovariance:
    @settings(max_examples=300, deadline=None)
    @given(phi=st.floats(-0.9999, 0.9999), sigma2=st.floats(1e-3, 1e3))
    @example(phi=0.5, sigma2=0.5)
    def test_dimension_one_is_scipys_solve_bitwise(self, phi, sigma2):
        # a 1x1 kernel's law is scipy's, bitwise, with no warning
        coef, noise = np.array([[[phi]]]), np.array([[sigma2]])
        got, got_warned = state_cov_and_warnings(gaussian._stationary_state_cov, coef, noise)
        want, want_warned = state_cov_and_warnings(scipy_state_cov, coef, noise)
        assert got.tobytes() == want.tobytes()
        assert got_warned == want_warned == []

    @settings(max_examples=300, deadline=None)
    @given(state=larger_states())
    @example(state=(ar_from_roots([-0.9375] * 10, 1.0).phi[:, None, None], np.array([[1.0]])))
    @example(state=(ar_from_roots([0.9999, -0.9999] + [0.0] * 10, 1.0).phi[:, None, None], np.array([[1.0]])))
    def test_larger_states_are_scipys_solve(self, state):
        # from dimension 2 up, against scipy's solve: the backward error is
        # at most twice scipy's plus one eps per state dimension (ours read
        # at most 0.77 eps over 3000 draws, scipy's up to 4.8e5 eps); ours
        # never warns, where scipy's may.  On a tenfold root scipy's
        # bilinear transform perturbs an eigenvalue pair that sums to zero
        # and says so with a RuntimeWarning.  The entry error against
        # scipy's is no oracle: on the AR(12) whose only coefficient is
        # phi_2 = 0.9999^2 the exact covariance is gamma_|i-j|, with
        # gamma_2k = phi_2^k / (1 - phi_2^2) and odd lags 0; ours is
        # 8.1e-14 from it and scipy's 2.8e-9, past 100 cond eps (1.7e-9),
        # with backward errors 0 and 1.1e-13
        coef, noise = state
        got, got_warned = state_cov_and_warnings(gaussian._stationary_state_cov, coef, noise)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            warnings.filterwarnings("ignore", "Input \"a\" has an eigenvalue pair whose sum", RuntimeWarning)
            want = scipy_state_cov(coef, noise)
        F, Q = companion_system(coef, noise)
        bound = 2.0 * backward_error(want, F, Q) + len(F) * np.finfo(float).eps
        assert backward_error(got, F, Q) <= bound
        assert got_warned == []

    @CLUSTERED_ROOTS
    def test_ill_conditioned_states_are_scipys_solve(self, roots):
        # clustered near-unit poles, as a VAR(d) with p = 1: the state
        # covariance's backward error ||G - F G F' - Q|| / (||G|| (1 +
        # ||F||^2) + ||Q||) is at most twice scipy's (1.23x at most here)
        params = ar_from_roots(roots)
        coef, noise = params.phi[:, None, None], np.array([[1.0]])
        F, Q = companion_system(coef, noise)
        got = gaussian._stationary_state_cov(coef, noise)
        with pytest.warns(scipy.linalg.LinAlgWarning):
            want = scipy_state_cov(coef, noise)
        assert backward_error(got, F, Q) <= 2.0 * backward_error(want, F, Q)

    def test_large_nonnormal_var1_solves_the_lyapunov_equation(self):
        # strongly non-normal A: a truncated power series of A^k Sigma A'^k
        # leaves a 1.9e-7 relative residual here
        p = 16
        A = 0.6 * np.eye(p) + 3.0 * np.eye(p, k=1)
        Sigma = np.eye(p)
        B = gaussian.stationary_cov_var1(A, Sigma)
        resid = np.linalg.norm(B - A @ B @ A.T - Sigma, "fro")
        assert resid <= 1e-12 * np.linalg.norm(B, "fro")
        kernel = gaussian.GaussianKernel(A, Sigma)
        assert kernel.dim == p
        np.testing.assert_array_equal(kernel.stationary_cov, B)

    def test_var1_covariance_checks_its_inputs(self):
        A = 0.5 * np.eye(2)
        with pytest.raises(ParameterDomainError, match="Sigma is not positive definite"):
            gaussian.stationary_cov_var1(A, -np.eye(2))
        with pytest.raises(ParameterDomainError, match="Sigma is not symmetric"):
            gaussian.stationary_cov_var1(A, [[1.0, 0.9], [0.0, 1.0]])
        with pytest.raises(ShapeMismatchError, match="Sigma shape"):
            gaussian.stationary_cov_var1(A, np.eye(3))
        with pytest.raises(ShapeMismatchError, match="A must be square"):
            gaussian.stationary_cov_var1(np.zeros((2, 3)), np.eye(2))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6))
    def test_ar_companion_is_the_one_by_one_block_case(self, phi):
        phi = np.asarray(phi)
        np.testing.assert_array_equal(
            gaussian.companion_matrix(phi), gaussian.companion_matrix(phi[:, None, None])
        )

    def test_var2_companion_blocks(self):
        A = np.arange(8.0).reshape(2, 2, 2)
        F = gaussian.companion_matrix(A)
        np.testing.assert_array_equal(F[:2], np.hstack([A[0], A[1]]))
        np.testing.assert_array_equal(F[2:], [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


class TestStepDown:
    """``stationary_variance`` and the simulator's start read gamma0 and
    the predictors of :func:`gaussian._levinson`."""

    @settings(max_examples=200, deadline=None)
    @given(params=stationary_ar(max_order=8, max_modulus=0.999))
    def test_variance_is_the_yule_walker_solve(self, params):
        assert_variance_within_cond_eps(params)

    @CLUSTERED_ROOTS
    def test_clustered_roots_keep_their_digits(self, roots):
        # the Lyapunov solve lost all its digits here (0.93 relative on the
        # eightfold root, a negative variance on the seven near-unit roots)
        params = ar_from_roots(roots)
        assert gaussian.ard_to_mininfo(params).tau2 == assert_variance_within_cond_eps(params)

    @settings(max_examples=300, deadline=None)
    @given(phi=st.floats(-0.9999, 0.9999), sigma2=st.floats(1e-3, 1e3))
    @example(phi=0.5, sigma2=0.5)
    def test_ar1_variance_is_the_closed_form_bitwise(self, phi, sigma2):
        assert gaussian.stationary_variance(gaussian.ClassicalARParams([phi], sigma2)) == sigma2 / (1.0 - phi * phi)

    @settings(max_examples=100, deadline=None)
    @given(params=stationary_ar(max_order=6, max_modulus=0.9))
    def test_predictors_solve_the_yule_walker_equations(self, params):
        # the order-k predictor and its error variance satisfy
        # gamma_i = sum_j c_j gamma_{|i - j|} (i = 1..k) and
        # v_k = gamma_0 - sum_j c_j gamma_j, with the exact autocovariances
        kappa, predictors, variances, gamma0 = gaussian._levinson(params.phi, params.sigma2)
        d = params.order
        gamma, _ = yule_walker(params.phi, params.sigma2)
        assert len(kappa) == d and len(predictors) == len(variances) == d + 1
        assert predictors[d] == params.phi.tolist() and variances[d] == params.sigma2 and gamma0 == variances[0]
        for k, (c, v) in enumerate(zip(predictors, variances)):
            assert len(c) == k and (k == 0 or c[-1] == kappa[k - 1])
            for i in range(k + 1):
                # i = 0 is the variance equation; normwise, since the step-down
                # is accurate relative to the largest coefficient of a pair
                resid = gamma[i] - math.fsum(c[j - 1] * gamma[abs(i - j)] for j in range(1, k + 1))
                assert abs(resid - (v if i == 0 else 0.0)) <= 1e-9 * gamma[0] * (1.0 + np.abs(c).sum())

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(2, 8),
        data=st.data(),
        gap=st.floats(-12.0, -5.0),
    )
    def test_every_record_that_builds_has_a_stationary_law(self, d, data, gap):
        # a root 1 - 10^gap repeated 1 to d times, the other roots in
        # (-0.9, 0.9): a record that builds has a finite stationary variance,
        # a forward transform and a simulated start
        repeats = data.draw(st.integers(1, d))
        others = data.draw(st.lists(st.floats(-0.9, 0.9), min_size=d - repeats, max_size=d - repeats))
        try:
            params = ar_from_roots([1.0 - 10.0**gap] * repeats + others)
        except StationarityError:
            return
        gamma0 = gaussian.stationary_variance(params)
        assert math.isfinite(gamma0) and gamma0 >= params.sigma2
        assert gaussian.ard_to_mininfo(params).tau2 == gamma0
        assert np.isfinite(gaussian.simulate_ar(params, 2, seed=0).data).all()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-0.999, 0.999), min_size=1, max_size=8))
    def test_step_up_inverts_the_step_down(self, kappa):
        # the rounding of the step-up and the step-down grows with each
        # 2 / (1 - |kappa_k|)
        phi, _ = gaussian._step_up(kappa)
        bound = np.finfo(float).eps * math.prod(2.0 / (1.0 - abs(k)) for k in kappa)
        try:
            back = gaussian._levinson(phi, 1.0)[0]
        except StationarityError:
            # only where the bound lets the rounding carry a kappa_k past +-1
            assert bound >= 1.0 - max(abs(k) for k in kappa)
            return
        assert np.abs(np.subtract(back, kappa)).max() <= bound

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-0.999, 0.999), min_size=1, max_size=8))
    def test_step_up_slopes_are_central_differences(self, kappa):
        # phi is affine in each kappa_k, so a central difference is exact
        # but for rounding
        _, slopes = gaussian._step_up(kappa)
        h = 1e-4
        for k in range(len(kappa)):
            up, down = list(kappa), list(kappa)
            up[k] += h
            down[k] -= h
            diff = (gaussian._step_up(up)[0] - gaussian._step_up(down)[0]) / (2.0 * h)
            assert np.abs(diff - slopes[:, k]).max() <= 1e-8 * (1.0 + np.abs(slopes).max())

    def test_a_unit_partial_autocorrelation_is_refused(self):
        with pytest.raises(StationarityError, match="partial autocorrelation"):
            gaussian._levinson([0.5, 1.0], 1.0)


class TestAr1Transform:
    def test_anchor_values(self):
        assert_verify_passes(verify._check_transform_anchors, "transform_anchor_values")

    def test_inverse_formulas(self):
        back = gaussian.mininfo_to_ar1(gaussian.MinInfoARParams([1.0], 2.0 / 3.0))
        assert back.sigma2 == pytest.approx(0.5, abs=1e-15)
        assert back.phi[0] == pytest.approx(0.5, abs=1e-15)

    def test_independence_case(self):
        for s in (0.3, 1.0, 4.2):
            mi = gaussian.ar1_to_mininfo(gaussian.ClassicalARParams([0.0], s))
            assert mi.theta[0] == 0.0 and mi.tau2 == s
            back = gaussian.mininfo_to_ar1(gaussian.MinInfoARParams([0.0], s))
            assert back.phi[0] == 0.0 and back.sigma2 == s

    def test_round_trip_sweep(self):
        assert_verify_passes(verify._check_roundtrips, "roundtrip_ar1")


class TestAr2Transform:
    def test_anchor_values(self):
        assert_verify_passes(verify._check_transform_anchors, "transform_anchor_values")

    def test_round_trip_sweep(self):
        assert_verify_passes(verify._check_roundtrips, "roundtrip_ar2")

    def test_round_trip_near_every_boundary_case(self):
        # exercise all sign cases of the bracket, including |theta1| > 4|theta2|
        cases = [
            (0.9, -0.05, 1.0),
            (-0.9, -0.05, 0.7),
            (0.4, 0.5, 0.3),
            (-0.4, 0.5, 2.0),
            (0.8, 0.0, 1.3),
            (-0.8, 0.0, 0.2),
            (0.0, 0.9, 1.0),
            (0.0, -0.9, 1.0),
        ]
        for f1, f2, s2 in cases:
            p = gaussian.ClassicalARParams([f1, f2], s2)
            back = gaussian.mininfo_to_ar(gaussian.ar2_to_mininfo(p))
            np.testing.assert_allclose(back.phi, [f1, f2], atol=1e-10)

    def test_independence_case(self):
        back = gaussian.mininfo_to_ar(gaussian.MinInfoARParams([0.0, 0.0], 1.7))
        np.testing.assert_array_equal(back.phi, [0.0, 0.0])
        assert back.sigma2 == 1.7

    def test_nonstationary_forward_rejected(self):
        with pytest.raises(StationarityError):
            gaussian.ar2_to_mininfo(gaussian.ClassicalARParams([0.9, 0.3], 1.0))


class TestArdTransform:
    def test_anchor_values(self):
        assert_verify_passes(verify._check_transform_anchors, "transform_anchor_values")

    def test_reduces_to_ar1(self):
        p = gaussian.ClassicalARParams([0.37], 0.8)
        np.testing.assert_allclose(
            gaussian.ard_to_mininfo(p).theta, gaussian.ar1_to_mininfo(p).theta, atol=1e-15
        )
        assert gaussian.ard_to_mininfo(p).tau2 == pytest.approx(
            gaussian.ar1_to_mininfo(p).tau2, abs=1e-12
        )

    def test_reduces_to_ar2(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            f1, f2 = random_stationary_ar2(rng)
            p = gaussian.ClassicalARParams([f1, f2], rng.uniform(0.1, 3.0))
            a = gaussian.ard_to_mininfo(p)
            b = gaussian.ar2_to_mininfo(p)
            np.testing.assert_allclose(a.theta, b.theta, atol=1e-12)
            assert a.tau2 == pytest.approx(b.tau2, rel=1e-12)

    def test_newton_inverse_anchor_round_trip(self):
        p = gaussian.ClassicalARParams([0.5, 0.3, 0.1], 0.5)
        back = gaussian.mininfo_to_ar(gaussian.ard_to_mininfo(p))
        np.testing.assert_allclose(back.phi, p.phi, atol=1e-8)
        assert back.sigma2 == pytest.approx(0.5, abs=1e-8)

    def test_newton_inverse_zero_theta(self):
        back = gaussian.mininfo_to_ar(gaussian.MinInfoARParams([0.0, 0.0, 0.0], 1.3))
        np.testing.assert_allclose(back.phi, np.zeros(3), atol=1e-10)
        assert back.sigma2 == pytest.approx(1.3, rel=1e-9)

    def test_newton_inverse_random_round_trips(self):
        rng = np.random.default_rng(40)
        done = 0
        while done < 50:
            d = int(rng.integers(3, 6))
            phi = rng.uniform(-0.6, 0.6, size=d)
            rho = np.max(np.abs(np.linalg.eigvals(gaussian.companion_matrix(phi))))
            if rho >= 0.9:
                continue
            p = gaussian.ClassicalARParams(phi, rng.uniform(0.1, 2.0))
            back = gaussian.mininfo_to_ar(gaussian.ard_to_mininfo(p))
            np.testing.assert_allclose(back.phi, phi, atol=1e-8)
            assert back.sigma2 == pytest.approx(p.sigma2, rel=1e-8)
            done += 1


def assert_round_trips(params):
    """mininfo_to_ar inverts the forward map of params within its 1e-8
    check: log tau2, and theta relative to the inverse spectrum's constant
    term b0 = sum_j a_j^2 / sigma2, a = (1, -phi)."""
    mi = gaussian.ard_to_mininfo(params)
    back = gaussian.ard_to_mininfo(gaussian.mininfo_to_ar(mi))
    b0 = (1.0 + float(params.phi @ params.phi)) / params.sigma2
    assert abs(math.log(back.tau2 / mi.tau2)) <= 1e-8
    assert np.abs(back.theta - mi.theta).max() <= 1e-8 * b0


class TestArInverseNearTheUnitCircle:
    """The inverse resolves every model that double precision does; cond is
    the relative condition number of tau2 from :func:`yule_walker`."""

    @pytest.mark.parametrize(
        "phi, sigma2, cond_eps",
        [
            (-np.poly([0.95 * np.exp(0.5j)] * 4 + [0.95 * np.exp(-0.5j)] * 4).real[1:], 1.0, 4.0e-9),
            (
                [-4.173178403739022, -7.963555350247212, -9.862922377046615, -9.544041075931059,
                 -7.196406378036956, -3.4966351404660116, -0.7712159711629487],
                3.5666709469244187,
                1.4e-11,
            ),
        ],
        ids=["fourfold-pairs-ar8", "near-unit-ar7"],
    )
    def test_clustered_near_unit_roots_round_trip(self, phi, sigma2, cond_eps):
        params = gaussian.ClassicalARParams(phi, sigma2)
        _, cond = yule_walker(params.phi, params.sigma2)
        assert cond * np.finfo(float).eps == pytest.approx(cond_eps, rel=0.05)
        assert_round_trips(params)

    # draws with two or three roots at modulus 0.999 whose path once
    # stalled just short of t = 1, each retry aimed at t = 1 from a base
    # accepted at a misfit of 1e-3
    @settings(max_examples=300, deadline=None)
    @given(params=stationary_ar(min_order=2, max_order=8, max_modulus=0.999))
    @example(params=gaussian.ClassicalARParams([-2.73627535, -2.73353907, -0.997003, 0, 0, 0, 0, 0], 1.0))
    @example(
        params=gaussian.ClassicalARParams(
            [-2.778480532314123, -3.570546547030085, -2.736070424244001, -0.9517679214477538], 1.0
        )
    )
    @example(
        params=gaussian.ClassicalARParams(
            [3.7524099586569646, -5.752067507355271, 4.434763037362548, -1.6844173861745764, 0.24925074974999992],
            1.0,
        )
    )
    @example(
        params=gaussian.ClassicalARParams(
            [1.6046608353769645, -1.0502257568531053, -0.05427508827079364, 0.49850149950000006, -0.0], 1.0
        )
    )
    def test_every_resolvable_model_round_trips(self, params):
        _, cond = yule_walker(params.phi, params.sigma2)
        if cond * np.finfo(float).eps < 1e-9:
            assert_round_trips(params)
        else:  # double precision may not resolve it: a refusal is allowed
            try:
                assert_round_trips(params)
            except ParameterDomainError:
                pass


class TestVar1Transform:
    def test_anchor_values(self):
        assert_verify_passes(verify._check_transform_anchors, "transform_anchor_values")

    def test_zero_dependence(self):
        B = np.array([[2.0, 0.3], [0.3, 1.0]])
        back = gaussian.mininfo_to_var1(gaussian.MinInfoVARParams(Theta=np.zeros((2, 2)), B=B))
        np.testing.assert_array_equal(back.A[0], np.zeros((2, 2)))
        np.testing.assert_allclose(back.Sigma, B, atol=1e-12)

    def test_round_trip_sweep(self):
        assert_verify_passes(verify._check_roundtrips, "roundtrip_var1", "riccati_residual")

    def test_theta_definition(self):
        rng = np.random.default_rng(51)
        A, Sigma = random_stationary_var1(rng, 3)
        mi = gaussian.var1_to_mininfo(gaussian.ClassicalVARParams(A=A[None], Sigma=Sigma))
        np.testing.assert_allclose(mi.Theta, A.T @ np.linalg.inv(Sigma), atol=1e-10)


class TestFisherInformation:
    def test_zero_theta_closed_form(self):
        for t2 in (0.25, 1.0, 4.0):
            G = gaussian.ar1_fisher_info(0.0, t2)
            assert G[0, 0] == pytest.approx(t2**2, rel=1e-12)
            assert G[1, 1] == pytest.approx(1.0 / (2.0 * t2**2), rel=1e-12)
            assert G[0, 1] == 0.0

    def test_off_diagonal_exactly_zero_on_grid(self):
        for th in (-2.0, -1.0, 0.0, 1.0, 2.0):
            for t2 in (0.1, 0.25, 1.0, 4.0):
                assert gaussian.ar1_fisher_info(th, t2)[0, 1] == 0.0

    def test_rejects_bad_tau2(self):
        with pytest.raises(ParameterDomainError):
            gaussian.ar1_fisher_info(1.0, -1.0)


class TestDependenceKernel:
    def test_independence_case(self):
        kern = gaussian.DependenceKernel(0.0, 0.5)
        assert kern.cross == 0.0
        assert kern.stationary_var == pytest.approx(1.0, rel=1e-12)

    def test_matches_ar1_kernel(self):
        # decay chosen so the stationary variance equals 2/3
        decay = math.sqrt(1.0 + 0.5625)
        kern = gaussian.DependenceKernel(1.0, decay).as_gaussian()
        star = gaussian.mininfo_to_ar1(gaussian.MinInfoARParams([1.0], 2.0 / 3.0))
        ar = gaussian.GaussianKernel([star.phi], [[star.sigma2]])
        assert kern.mean_map[0, 0] == pytest.approx(ar.mean_map[0, 0], abs=1e-10)
        assert kern.noise_cov[0, 0] == pytest.approx(ar.noise_cov[0, 0], abs=1e-10)
        assert kern.stationary_cov[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_density_normalizes(self):
        from scipy.integrate import quad

        rng = np.random.default_rng(60)
        for _ in range(20):
            th = rng.uniform(-2.0, 2.0)
            decay = abs(th) + float(np.exp(rng.uniform(-1.0, 1.5)))
            kern = gaussian.DependenceKernel(th, decay)
            x = rng.uniform(-2.0, 2.0)
            total, _ = quad(lambda y: math.exp(kern.log_density(y, x)), -np.inf, np.inf)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_domain_error(self):
        with pytest.raises(ParameterDomainError):
            gaussian.DependenceKernel(1.0, 0.9)

    def test_derived_fields_are_not_arguments(self):
        # cross and log_norm follow from (theta, decay), so they cannot disagree
        with pytest.raises(TypeError):
            gaussian.DependenceKernel(2.0, 3.0, cross=0.0)


class TestDivergenceRate:
    def test_self_divergence_is_zero(self):
        assert_verify_passes(verify._check_divergence_nonneg, "divergence_nonnegative")

    def test_monte_carlo_oracle(self):
        p = gaussian.GaussianKernel([[0.5]], [[0.5]])
        q = gaussian.GaussianKernel([[0.0]], [[1.0]])
        closed = gaussian.divergence_rate(p, q)

        rng = np.random.default_rng(70)
        n = 10_000_000
        x = math.sqrt(2.0 / 3.0) * rng.standard_normal(n)
        y = 0.5 * x + math.sqrt(0.5) * rng.standard_normal(n)
        log_p = -0.5 * (np.log(2 * np.pi * 0.5) + (y - 0.5 * x) ** 2 / 0.5)
        log_q = -0.5 * (np.log(2 * np.pi * 1.0) + y**2)
        mc = float(np.mean(log_p - log_q))
        assert closed == pytest.approx(mc, abs=1e-3)

    def test_asymmetry(self):
        p = gaussian.GaussianKernel([[0.5]], [[0.5]])
        q = gaussian.GaussianKernel([[0.0]], [[1.0]])
        assert gaussian.divergence_rate(p, q) != pytest.approx(
            gaussian.divergence_rate(q, p), abs=1e-6
        )

    def test_nonnegative_random_pairs(self):
        assert_verify_passes(verify._check_divergence_nonneg, "divergence_nonnegative")

    def test_unstable_kernel_has_no_divergence_rate(self):
        # the rate averages over p's stationary law, which an unstable p lacks
        p = gaussian.GaussianKernel([[1.0]], [[0.5]])
        q = gaussian.GaussianKernel([[0.5]], [[0.5]])
        with pytest.raises(StationarityError):
            gaussian.divergence_rate(p, q)
        assert gaussian.divergence_rate(q, p) > 0.0

    def test_kernels_of_different_dimension_rejected(self):
        p = gaussian.GaussianKernel([[0.5]], [[0.5]])
        q = gaussian.GaussianKernel(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(ShapeMismatchError, match="1 vs 2"):
            gaussian.divergence_rate(p, q)


class TestPythagoreanIdentity:
    def test_randomized_configurations(self):
        assert_verify_passes(verify._check_pythagorean, "pythagorean_identity")


_unit = st.floats(-1.0, 1.0)


@st.composite
def parameter_records(draw):
    """Any of the four records: AR d = 1-5, VAR d = 1-3 and p = 1-4, with
    stationary coefficients (sum of row-sum norms below 1) and SPD
    covariances."""
    kind = draw(st.sampled_from(["ar", "mininfo-ar", "var", "mininfo-var"]))
    positive = draw(st.floats(1e-3, 1e3))
    if kind in ("ar", "mininfo-ar"):
        d = draw(st.integers(1, 5))
        coef = np.asarray(draw(st.lists(_unit, min_size=d, max_size=d)))
        if kind == "ar":
            return gaussian.ClassicalARParams(coef * (0.9 / d), positive)
        return gaussian.MinInfoARParams(coef * 50.0, positive)
    d = 1 if kind == "mininfo-var" else draw(st.integers(1, 3))
    p = draw(st.integers(1, 4))
    coef = np.asarray(draw(st.lists(_unit, min_size=d * p * p, max_size=d * p * p)))
    Z = np.asarray(draw(st.lists(_unit, min_size=p * p, max_size=p * p))).reshape(p, p)
    cov = (Z @ Z.T + 0.5 * np.eye(p)) * positive
    cov = (cov + cov.T) / 2.0
    if kind == "var":
        return gaussian.ClassicalVARParams(coef.reshape(d, p, p) * (0.9 / (d * p)), cov)
    return gaussian.MinInfoVARParams(coef.reshape(p, p) * 10.0, cov)


class TestParamSerialization:
    @pytest.mark.parametrize(
        "params",
        [
            gaussian.ClassicalARParams([0.5, 0.3], 0.5),
            gaussian.MinInfoARParams([0.7, 0.6], 1.12),
            gaussian.ClassicalVARParams(
                A=np.array([[[0.5, 0.1], [0.1, 0.5]]]), Sigma=0.5 * np.eye(2)
            ),
            gaussian.MinInfoVARParams(
                Theta=np.array([[1.0, 0.2], [0.2, 1.0]]),
                B=np.array([[0.689, 0.093], [0.093, 0.689]]),
            ),
        ],
    )
    def test_round_trip(self, params):
        text = gaussian.params_to_text(params)
        back = gaussian.params_from_text(text)
        assert type(back) is type(params)
        for field in ("phi", "sigma2", "theta", "tau2", "A", "Sigma", "Theta", "B"):
            if hasattr(params, field):
                np.testing.assert_array_equal(
                    np.asarray(getattr(params, field)), np.asarray(getattr(back, field))
                )

    @pytest.mark.parametrize(
        "text, named",
        [
            ("A.1.1.1=0.5\n", "A"),
            ("phi.1=0.5\nphi.3=0.1\nsigma2=1.0\n", "phi.2"),
            ("phi.1=0.5\nsigma2=1.0\nbogus=3\n", "bogus"),
            ("phi.1=0.5\ntheta.1=0.5\nsigma2=1.0\n", "theta"),
            ("Theta.1.1=0.5\nTheta.2.2=0.5\nB.1.1=1.0\nB.1.2=0.0\nB.2.1=0.0\nB.2.2=1.0\n", "Theta.1.2"),
            ("phi.1=0.5\nsigma2.1=1.0\n", "sigma2"),
            ("phi=0.5\nsigma2=1.0\n", "phi"),
            ("phi.0=0.5\nsigma2=1.0\n", "phi.0"),
            ("phi.1=0.5\nphi.1=0.4\nsigma2=1.0\n", "phi.1"),
        ],
        ids=[
            "var-without-sigma", "phi-gap", "unknown-name", "two-records", "theta-gap",
            "indexed-scalar", "unindexed-array", "zero-index", "duplicate-key",
        ],
    )
    def test_malformed_records_are_rejected(self, text, named):
        with pytest.raises(ValueError, match=named.replace(".", r"\.")):
            gaussian.params_from_text(text)

    @settings(max_examples=150, deadline=None)
    @given(parameter_records())
    def test_text_round_trip_is_exact(self, params):
        text = gaussian.params_to_text(params)
        back = gaussian.params_from_text(text)
        assert type(back) is type(params)
        for field in dataclasses.fields(params):
            a, b = getattr(params, field.name), getattr(back, field.name)
            assert type(a) is type(b)
            np.testing.assert_array_equal(a, b)
        assert gaussian.params_to_text(back) == text

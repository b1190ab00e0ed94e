"""Inverse transforms on inputs that are not outputs of the forward map:
random (theta, tau2) and (Theta, B) pairs, AR(d) round trips up to d = 8,
and the d = 1 / p = 1 reductions to the closed-form AR(1) inverse."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimm import gaussian
from mimm.exceptions import ParameterDomainError


def spectral_radius(mat):
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


def random_ar(rng, d):
    """AR(d) coefficients whose characteristic roots have modulus in
    [1.05, 5]: conjugate pole pairs, plus one real pole for odd d."""
    radius = 1.0 / rng.uniform(1.05, 5.0, size=(d + 1) // 2)
    pairs = radius[: d // 2] * np.exp(1j * rng.uniform(0.0, np.pi, size=d // 2))
    poles = np.concatenate([pairs, pairs.conj(), radius[d // 2 :] * rng.choice([-1.0, 1.0])])
    return -np.poly(poles).real[1:]


class TestArInverseOnRandomInputs:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8),
        st.floats(0.05, 10.0),
    )
    def test_forward_of_inverse_is_identity(self, theta, tau2):
        ar = gaussian.mininfo_to_ar(gaussian.MinInfoARParams(theta, tau2))
        assert spectral_radius(gaussian.companion_matrix(ar.phi)) < 1.0
        back = gaussian.ard_to_mininfo(ar)
        # theta relative to the scale of the inverse spectrum, whose constant
        # term is at least max(|theta_i|, 1 / tau2)
        scale = max(float(np.abs(theta).max()), 1.0 / tau2)
        assert np.abs(back.theta - theta).max() <= 1e-8 * scale
        assert back.tau2 == pytest.approx(tau2, rel=1e-8)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_round_trips(self, d):
        rng = np.random.default_rng(900 + d)
        tol = 1e-10 if d <= 2 else 1e-9
        for _ in range(40):
            params = gaussian.ClassicalARParams(random_ar(rng, d), rng.uniform(0.05, 4.0))
            back = gaussian.mininfo_to_ar(gaussian.ard_to_mininfo(params))
            np.testing.assert_allclose(back.phi, params.phi, rtol=0.0, atol=tol)
            assert back.sigma2 == pytest.approx(params.sigma2, rel=0.0, abs=tol)

    def test_order_one_matches_closed_form(self):
        # d = 1 is the closed form itself; a zero second weight sends the
        # same AR(1) through the Newton path
        rng = np.random.default_rng(91)
        for _ in range(200):
            theta, tau2 = rng.uniform(-2.0, 2.0), rng.uniform(0.05, 10.0)
            closed = gaussian.mininfo_to_ar1(gaussian.MinInfoARParams([theta], tau2))
            direct = gaussian.mininfo_to_ar(gaussian.MinInfoARParams([theta], tau2))
            assert (direct.phi[0], direct.sigma2) == (closed.phi[0], closed.sigma2)
            newton = gaussian.mininfo_to_ar(gaussian.MinInfoARParams([theta, 0.0], tau2))
            np.testing.assert_allclose(newton.phi, [closed.phi[0], 0.0], rtol=0.0, atol=1e-13)
            assert newton.sigma2 == pytest.approx(closed.sigma2, rel=1e-13)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tail", [0.0, 1e-300])
    def test_negligible_trailing_weights_keep_the_order(self, tail):
        # a tail weight below rounding (or none) keeps the order and the AR(1)
        ar = gaussian.mininfo_to_ar(gaussian.MinInfoARParams([0.8, 0.0, tail], 1.5))
        ar1 = gaussian.mininfo_to_ar1(gaussian.MinInfoARParams([0.8], 1.5))
        assert ar.order == 3
        np.testing.assert_allclose(ar.phi, [ar1.phi[0], 0.0, 0.0], rtol=0.0, atol=1e-13)
        assert ar.sigma2 == pytest.approx(ar1.sigma2, rel=1e-13)

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("gap", [1e-4, 1e-5])
    @pytest.mark.parametrize("angle", [0.0, 0.3, 1.5, np.pi])
    def test_near_unit_root(self, d, gap, angle):
        # b0 - peak is about gap^2 here, far below ulp(b0) * 1e8: the variance
        # must still come out within 1e-8
        pair = (1.0 - gap) * np.exp(1j * np.array([angle, -angle]))
        poles = np.concatenate([pair[: 1 if angle in (0.0, np.pi) else 2], [0.4, -0.3, 0.5]])[:d]
        params = gaussian.ClassicalARParams(-np.poly(poles).real[1:], 0.7)
        mi = gaussian.ard_to_mininfo(params)
        back = gaussian.ard_to_mininfo(gaussian.mininfo_to_ar(mi))
        assert back.tau2 == pytest.approx(mi.tau2, rel=1e-8)
        np.testing.assert_allclose(back.theta, mi.theta, rtol=1e-8)

    @pytest.mark.parametrize("theta, tau2", [([0.5, 0.2], 1e12), ([0.5, 0.2, 0.1], 1e30)])
    def test_tau2_beyond_double_precision_is_refused(self, theta, tau2):
        # 1 - rho would be far below 1e-7, which double precision does not
        # resolve; the refusal names the misfit found, where the path
        # stalled, or the partial autocorrelation a path point rounded to +-1
        with pytest.raises(
            ParameterDomainError,
            match=r"forward misfit \S+ exceeds the 1e-8 check|path stalled at t = |the path rounds kappa_\d to \+-1",
        ):
            gaussian.mininfo_to_ar(gaussian.MinInfoARParams(theta, tau2))

    def test_a_stalled_path_is_refused_early(self, monkeypatch):
        # the stride in t halves without end near t = 0.456: the whole
        # budget of 2000 misfit evaluations went before the refusal
        misfit = mock.Mock(side_effect=gaussian._ar_misfit)
        monkeypatch.setattr(gaussian, "_ar_misfit", misfit)
        with pytest.raises(ParameterDomainError, match=r"the path stalled at t = 0\.4557"):
            gaussian.mininfo_to_ar(gaussian.MinInfoARParams([0.3, -0.2, 0.1, 0.05], 3e5))
        assert misfit.call_count < 400

    def test_a_path_point_with_kappa_rounded_to_one_is_refused_at_once(self, monkeypatch):
        misfit = mock.Mock(side_effect=gaussian._ar_misfit)
        monkeypatch.setattr(gaussian, "_ar_misfit", misfit)
        with pytest.raises(ParameterDomainError, match=r"at t = \S+ the path rounds kappa_1 to \+-1$"):
            gaussian.mininfo_to_ar(gaussian.MinInfoARParams([0.5, 0.2, 0.1], 1e30))
        assert misfit.call_count < 400

    @pytest.mark.parametrize("theta", [[0.5, 0.2], [0.5, 0.0], [0.3, -0.2, 0.1]])
    def test_subnormal_tau2(self, theta):
        # 1 / tau2 overflows; the unit-variance problem does not
        ar = gaussian.mininfo_to_ar(gaussian.MinInfoARParams(theta, 1e-309))
        assert ar.sigma2 == pytest.approx(1e-309, rel=1e-8)
        back = gaussian.ard_to_mininfo(ar)
        assert back.tau2 == pytest.approx(1e-309, rel=1e-8)
        np.testing.assert_allclose(back.theta, theta, rtol=1e-8)


class TestVar1InverseOnRandomInputs:
    @pytest.mark.parametrize("p", range(1, 7))
    def test_forward_of_inverse_is_identity(self, p):
        rng = np.random.default_rng(950 + p)
        for _ in range(40):
            Theta = rng.standard_normal((p, p)) * rng.choice([0.1, 1.0, 3.0])
            Z = rng.standard_normal((p, p))
            B = Z @ Z.T / p + 0.1 * np.eye(p)
            classical = gaussian.mininfo_to_var1(gaussian.MinInfoVARParams(Theta, B))
            assert spectral_radius(classical.A[0]) < 1.0
            back = gaussian.var1_to_mininfo(classical)
            assert np.linalg.norm(back.Theta - Theta) <= 1e-10 * np.linalg.norm(Theta)
            assert np.linalg.norm(back.B - B) <= 1e-10 * np.linalg.norm(B)

    def test_wide_round_trip_sweep(self):
        # spectral radius up to 0.98 and noise down to 0.01 I; without the
        # Newton step of the inverse the worst error here is ~1e-9
        rng = np.random.default_rng(97)
        for _ in range(300):
            p = int(rng.integers(1, 9))
            W = rng.standard_normal((p, p))
            A = W * (rng.uniform(0.2, 0.98) / spectral_radius(W))
            Z = rng.standard_normal((p, p))
            Sigma = Z @ Z.T / p + 0.01 * np.eye(p)
            mi = gaussian.var1_to_mininfo(gaussian.ClassicalVARParams(A=A[None], Sigma=Sigma))
            back = gaussian.mininfo_to_var1(mi)
            np.testing.assert_allclose(back.A[0], A, rtol=0.0, atol=1e-10)
            np.testing.assert_allclose(back.Sigma, Sigma, rtol=0.0, atol=1e-10)

    def test_dimension_one_matches_closed_form(self):
        rng = np.random.default_rng(96)
        for _ in range(200):
            theta, tau2 = rng.uniform(-2.0, 2.0), rng.uniform(0.05, 10.0)
            var = gaussian.mininfo_to_var1(gaussian.MinInfoVARParams([[theta]], [[tau2]]))
            closed = gaussian.mininfo_to_ar1(gaussian.MinInfoARParams([theta], tau2))
            assert var.A[0, 0, 0] == pytest.approx(closed.phi[0], rel=0.0, abs=1e-13)
            assert var.Sigma[0, 0] == pytest.approx(closed.sigma2, rel=1e-13)

"""Gaussian autoregressive ground truth: simulation, transforms between the
classical and minimum-information parametrizations, Fisher information, and
divergence rates between conditionally Gaussian kernels.

The minimum-information parametrization of a stationary AR/VAR process pairs
the dependence weights (theta) with the stationary variance, replacing the
classical (coefficients, noise variance) pair.  Both directions are
implemented here; every minimum-information pair has exactly one stationary
inverse.  The VAR(1) inverse is a closed form.  The AR(d) inverse is the
closed form for d = 1 and, for every d >= 2, a spectral factor whose
constant term Brent's method picks to match the variance; it refuses, with
:class:`ParameterDomainError`, the pairs whose inverse double precision
cannot resolve to 1e-8.

Every stationary covariance (AR(d) variance, VAR(1) covariance, the
variance the AR(d) inverse matches, the law the simulators start from) comes
from one Lyapunov solve on the block companion matrix of
:func:`companion_matrix` (see :func:`_stationary_state_cov`).  Parameter
records serialize to a flat ``name.i.j=value`` text format driven by their
dataclass fields.

scipy is imported inside the functions that call it, so importing this
module, simulating and transforming an AR(1) load none of it.

All functions are pure; simulators take explicit seeds and return
bit-identical output for identical inputs on one platform.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from .core import TimeSeries, _check_count, _check_positive
from .exceptions import (
    ContractError,
    ParameterDomainError,
    ShapeMismatchError,
    StationarityError,
)

__all__ = [
    "ClassicalARParams",
    "ClassicalVARParams",
    "MinInfoARParams",
    "MinInfoVARParams",
    "GaussianKernel",
    "DependenceKernel",
    "simulate_ar",
    "simulate_var",
    "ar1_to_mininfo",
    "mininfo_to_ar1",
    "ar2_to_mininfo",
    "ard_to_mininfo",
    "mininfo_to_ar",
    "var1_to_mininfo",
    "mininfo_to_var1",
    "ar1_fisher_info",
    "divergence_rate",
    "stationary_variance",
    "stationary_cov_var1",
    "kernel_from_ar1",
    "params_to_text",
    "params_from_text",
]

_SYM_TOL = 1e-12  # largest |M - M'| of a covariance, relative to max(1, max |M|)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def companion_matrix(coef: np.ndarray) -> np.ndarray:
    """Block companion matrix of an AR(d) recursion (``coef`` of shape (d,))
    or a VAR(d) recursion (coefficient blocks of shape (d, p, p))."""
    coef = np.asarray(coef, dtype=float)
    if coef.ndim == 1:
        coef = coef[:, None, None]
    d, p, _ = coef.shape
    F = np.eye(d * p, k=-p)
    F[:p] = coef.transpose(1, 0, 2).reshape(p, d * p)
    return F


def _stationary_state_cov(coef: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Stationary covariance of the companion state of an AR/VAR recursion
    with noise covariance ``noise``: solves G = F G F' + Q, where F is the
    block companion matrix and Q carries ``noise`` in its leading block.

    At dimension 1, the companion state of an AR(1), this is scipy's
    ``direct`` method done in numpy: vec G solves (I - F kron F) vec G =
    vec Q, a 1x1 system whose reciprocal condition number is 1.  So the
    value is scipy's bitwise, scipy never warns there, and an AR(1) loads
    no scipy.  Every larger state goes to
    ``scipy.linalg.solve_discrete_lyapunov`` unchanged, with its values and
    its ``LinAlgWarning``.

    Known limit: the solve can lose all its digits when the poles cluster
    near the unit circle; see :func:`stationary_variance`.
    """
    F = companion_matrix(coef)
    Q = np.zeros_like(F)
    Q[: len(noise), : len(noise)] = noise
    if F.size == 1:
        return np.linalg.solve(np.eye(1) - np.kron(F, F), Q.ravel()).reshape(Q.shape)
    import scipy.linalg

    return scipy.linalg.solve_discrete_lyapunov(F, Q)


def _spectral_radius(mat: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


def _check_spd(mat: np.ndarray, name: str) -> None:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeMismatchError(f"{name} must be square, got shape {mat.shape}")
    scale = max(1.0, float(np.abs(mat).max()))
    if np.abs(mat - mat.T).max() > _SYM_TOL * scale:
        raise ParameterDomainError(f"{name} is not symmetric within {_SYM_TOL}")
    if np.min(np.linalg.eigvalsh((mat + mat.T) / 2.0)) <= 0.0:
        raise ParameterDomainError(f"{name} is not positive definite")


@dataclass(frozen=True, eq=False)
class ClassicalARParams:
    """AR(d) coefficients and noise variance; stationarity is enforced."""

    phi: np.ndarray
    sigma2: float

    def __post_init__(self):
        phi = np.atleast_1d(np.asarray(self.phi, dtype=float))
        if phi.ndim != 1 or len(phi) < 1:
            raise ShapeMismatchError("phi must be a non-empty vector")
        if not np.all(np.isfinite(phi)):
            raise ParameterDomainError("phi contains non-finite values")
        _check_positive("sigma2", self.sigma2)
        rho = _spectral_radius(companion_matrix(phi))
        if rho >= 1.0:
            raise StationarityError(
                f"AR coefficients are non-stationary (companion spectral radius {rho:.6g})"
            )
        object.__setattr__(self, "phi", _readonly(phi))
        object.__setattr__(self, "sigma2", float(self.sigma2))

    @property
    def order(self) -> int:
        return len(self.phi)


@dataclass(frozen=True, eq=False)
class ClassicalVARParams:
    """VAR(d) coefficient matrices and noise covariance; stationarity enforced."""

    A: np.ndarray  # (d, p, p)
    Sigma: np.ndarray  # (p, p)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim == 2:
            A = A[None, :, :]
        if A.ndim != 3 or A.shape[1] != A.shape[2]:
            raise ShapeMismatchError(f"A must be (d, p, p), got shape {A.shape}")
        d, p, _ = A.shape
        Sigma = np.asarray(self.Sigma, dtype=float)
        if Sigma.shape != (p, p):
            raise ShapeMismatchError(f"Sigma shape {Sigma.shape} does not match p={p}")
        _check_spd(Sigma, "Sigma")
        rho = _spectral_radius(companion_matrix(A))
        if rho >= 1.0:
            raise StationarityError(
                f"VAR coefficients are non-stationary (companion spectral radius {rho:.6g})"
            )
        object.__setattr__(self, "A", _readonly(A))
        object.__setattr__(self, "Sigma", _readonly(Sigma))

    @property
    def order(self) -> int:
        return self.A.shape[0]

    @property
    def dim(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True, eq=False)
class MinInfoARParams:
    """Dependence weights plus stationary variance; the domain is all of
    R^d x (0, inf) for every d (no stationarity-style constraint): each
    point maps to exactly one stationary AR(d)."""

    theta: np.ndarray
    tau2: float

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if theta.ndim != 1 or len(theta) < 1:
            raise ShapeMismatchError("theta must be a non-empty vector")
        if not np.all(np.isfinite(theta)):
            raise ParameterDomainError("theta contains non-finite values")
        _check_positive("tau2", self.tau2)
        object.__setattr__(self, "theta", _readonly(theta))
        object.__setattr__(self, "tau2", float(self.tau2))

    @property
    def order(self) -> int:
        return len(self.theta)


@dataclass(frozen=True, eq=False)
class MinInfoVARParams:
    """Dependence weight matrix plus stationary covariance for VAR(1)."""

    Theta: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        Theta = np.asarray(self.Theta, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if Theta.ndim != 2 or Theta.shape[0] != Theta.shape[1]:
            raise ShapeMismatchError(f"Theta must be square, got {Theta.shape}")
        if B.shape != Theta.shape:
            raise ShapeMismatchError("Theta and B must have the same shape")
        if not np.all(np.isfinite(Theta)):
            raise ParameterDomainError("Theta contains non-finite values")
        _check_spd(B, "B")
        object.__setattr__(self, "Theta", _readonly(Theta))
        object.__setattr__(self, "B", _readonly(B))

    @property
    def dim(self) -> int:
        return self.Theta.shape[0]


@dataclass(frozen=True, eq=False)
class GaussianKernel:
    """First-order conditionally Gaussian kernel y | x ~ N(mean_map @ x, noise_cov).

    ``stationary_cov`` is optional; when present it must satisfy the
    stationarity equation B = F B F' + S to 1e-8 (relative).
    """

    mean_map: np.ndarray
    noise_cov: np.ndarray
    stationary_cov: np.ndarray | None = None

    def __post_init__(self):
        F = np.atleast_2d(np.asarray(self.mean_map, dtype=float))
        S = np.atleast_2d(np.asarray(self.noise_cov, dtype=float))
        if F.shape != S.shape or F.shape[0] != F.shape[1]:
            raise ShapeMismatchError("mean_map and noise_cov must be square and matching")
        _check_spd(S, "noise_cov")
        object.__setattr__(self, "mean_map", _readonly(F))
        object.__setattr__(self, "noise_cov", _readonly(S))
        if self.stationary_cov is not None:
            B = np.atleast_2d(np.asarray(self.stationary_cov, dtype=float))
            _check_spd(B, "stationary_cov")
            resid = np.linalg.norm(B - F @ B @ F.T - S, "fro")
            if resid > 1e-8 * max(1.0, np.linalg.norm(B, "fro")):
                raise ParameterDomainError(
                    f"stationary_cov violates B = F B F' + S (residual {resid:.3g})"
                )
            object.__setattr__(self, "stationary_cov", _readonly(B))

    @property
    def dim(self) -> int:
        return self.mean_map.shape[0]


@dataclass(frozen=True)
class DependenceKernel:
    """Scalar stationary kernel in exponential form:

        p(y | x) = exp(theta*x*y + cross*(y**2 - x**2) - decay*y**2 - log_norm)

    with bilinear dependence weight ``theta`` and quadratic decay ``decay``
    (> |theta|, else :class:`ParameterDomainError`).  Construction derives
    the rest: ``cross`` is the root (decay - sqrt(decay**2 - theta**2)) / 2
    that makes the kernel integrate to one for every conditioning value, and
    ``log_norm`` equals log(2*pi*noise_var) / 2.  The stationary law is
    N(0, 1 / (2*sqrt(decay**2 - theta**2))).
    """

    theta: float
    decay: float
    cross: float = dataclasses.field(init=False)
    log_norm: float = dataclasses.field(init=False)

    def __post_init__(self):
        theta = float(self.theta)
        decay = float(self.decay)
        if not (np.isfinite(theta) and np.isfinite(decay)) or decay <= abs(theta):
            raise ParameterDomainError(f"need decay > |theta|, got theta={theta}, decay={decay}")
        root = math.sqrt(decay**2 - theta**2)
        noise = 1.0 / (decay + root)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "decay", decay)
        object.__setattr__(self, "cross", 0.5 * (decay - root))
        object.__setattr__(self, "log_norm", 0.5 * math.log(2.0 * math.pi * noise))

    def log_density(self, y, x):
        y = np.asarray(y, dtype=float)
        x = np.asarray(x, dtype=float)
        return (
            self.theta * x * y
            + self.cross * (y**2 - x**2)
            - self.decay * y**2
            - self.log_norm
        )

    @property
    def stationary_var(self) -> float:
        return 1.0 / (2.0 * math.sqrt(self.decay**2 - self.theta**2))

    def as_gaussian(self) -> GaussianKernel:
        root = math.sqrt(self.decay**2 - self.theta**2)
        slope = self.theta / (self.decay + root)
        noise = 1.0 / (self.decay + root)
        return GaussianKernel(
            mean_map=[[slope]],
            noise_cov=[[noise]],
            stationary_cov=[[self.stationary_var]],
        )


# ---------------------------------------------------------------------------
# simulation


def simulate_ar(params: ClassicalARParams, n: int, burn_in: int = 0, seed=None) -> TimeSeries:
    """Simulate n observations of the AR(d) recursion after discarding
    ``burn_in`` steps; the chain starts from its exact stationary law for
    every order (see :func:`_simulate`).  ``n`` and ``burn_in`` are
    integers >= 1 and >= 0, else :class:`ParameterDomainError`.

    Known limit: the start covariance comes from the same Lyapunov solve as
    :func:`stationary_variance`, which can lose all its digits when the
    poles cluster near the unit circle (see there).  Such a state is
    ill-conditioned, and scipy's solve warns: an AR(8) with fourfold
    poles 0.95 e^{+-0.5i} starts with a ``LinAlgWarning``, and the draws
    stay finite; an AR(8) with an eightfold root 0.9 also warns, then has no
    Cholesky factor in double precision, and ``numpy.linalg.LinAlgError`` is
    raised.  An AR(1) start never loads scipy.  ROADMAP item 10 replaces the
    solve.
    """
    return _simulate(params.phi[:, None, None], np.array([[params.sigma2]]), n, burn_in, seed)


def stationary_cov_var1(A: np.ndarray, Sigma: np.ndarray) -> np.ndarray:
    """Stationary covariance of a VAR(1): solves B = A B A' + Sigma for a
    square A and a symmetric positive definite Sigma of A's shape."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeMismatchError(f"A must be square, got shape {A.shape}")
    Sigma = np.asarray(Sigma, dtype=float)
    if Sigma.shape != A.shape:
        raise ShapeMismatchError(f"Sigma shape {Sigma.shape} does not match p={len(A)}")
    _check_spd(Sigma, "Sigma")
    rho = _spectral_radius(A)
    if rho >= 1.0:
        raise StationarityError(f"spectral radius {rho:.6g} >= 1")
    B = _stationary_state_cov(A[None], Sigma)
    return (B + B.T) / 2.0


def simulate_var(params: ClassicalVARParams, n: int, burn_in: int = 0, seed=None) -> TimeSeries:
    """Simulate n observations of the VAR(d) recursion after discarding
    ``burn_in`` steps; the chain starts from its exact stationary law for
    every order (see :func:`_simulate`).  ``n`` and ``burn_in`` follow the
    rule of :func:`simulate_ar`, and its known limit applies."""
    return _simulate(params.A, params.Sigma, n, burn_in, seed)


def _simulate(A: np.ndarray, Sigma: np.ndarray, n: int, burn_in: int, seed) -> TimeSeries:
    """The one simulator of x_t = sum_k A[k] x_{t-k} + e_t, e_t ~ N(0, Sigma),
    for coefficient blocks ``A`` of shape (d, p, p).

    The companion state (x_0, x_{-1}, ..., x_{1-d}) is drawn from its exact
    stationary law, N(0, G) with G the Lyapunov solve of
    :func:`_stationary_state_cov`; then ``burn_in + n`` steps run and the
    first ``burn_in`` are discarded, so a run equals the tail of a longer
    run from the same seed.  For p = 1 the recursion runs on Python floats.
    """
    _check_count("n", n)
    _check_count("burn_in", burn_in, least=0)
    d, p, _ = A.shape
    rng = np.random.default_rng(seed)
    G = _stationary_state_cov(A, Sigma)
    try:
        start = np.linalg.cholesky((G + G.T) / 2.0) @ rng.standard_normal(d * p)
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(
            "the stationary state covariance is not positive definite in double "
            "precision (clustered near-unit roots)"
        ) from err
    steps = burn_in + n
    eps = rng.standard_normal((steps, p)) @ np.linalg.cholesky(Sigma).T
    if p == 1:
        xs = start[::-1].tolist()  # oldest first: x_{t-j} is xs[-j] when x_t is formed
        lags = [(float(a), -1 - k) for k, a in enumerate(A[:, 0, 0])]
        for val in eps[:, 0].tolist():
            for a, k in lags:
                val += a * xs[k]
            xs.append(val)
        return TimeSeries(xs[d + burn_in :])
    state = list(start.reshape(d, p))  # state[0] = most recent
    out = np.empty((steps, p))
    for t in range(steps):
        val = eps[t].copy()
        for k in range(d):
            val += A[k] @ state[k]
        out[t] = val
        state.insert(0, val)
        state.pop()
    return TimeSeries(out[burn_in:])


# ---------------------------------------------------------------------------
# AR transforms


def stationary_variance(params: ClassicalARParams) -> float:
    """Stationary variance of an AR(d) via the companion-form Lyapunov solve
    of :func:`_stationary_state_cov` (numpy for an AR(1), scipy for every
    higher order).

    Known limit: the solve can lose all its digits when the poles cluster
    near the unit circle.  With sigma2 = 1, an eightfold root 0.9 gives
    8.08e12 where the true variance is 1.104e14, and the seven roots
    ``linspace(0.9, 0.99, 7)`` give -8.98e11, a negative variance.  These
    systems have cond_1 * eps of 1.5e5 and 3.9e3, and scipy's solve warns
    with ``LinAlgWarning``.  ROADMAP item 10 replaces the solve."""
    return float(_stationary_state_cov(params.phi, [[params.sigma2]])[0, 0])


def ar1_to_mininfo(params: ClassicalARParams) -> MinInfoARParams:
    """AR(1): theta = phi / sigma2, tau2 = sigma2 / (1 - phi**2)."""
    if params.order != 1:
        raise ShapeMismatchError(f"expected AR(1), got order {params.order}")
    phi = float(params.phi[0])
    theta = phi / params.sigma2
    tau2 = params.sigma2 / (1.0 - phi**2)
    return MinInfoARParams(theta=[theta], tau2=tau2)


def mininfo_to_ar1(params: MinInfoARParams) -> ClassicalARParams:
    """Closed-form inverse of :func:`ar1_to_mininfo`, defined on all of
    R x (0, inf).  Raises :class:`ParameterDomainError` where double
    precision does not resolve it: |2 theta tau2| beyond about 1e16 rounds
    phi to +-1, and beyond the float range overflows."""
    if params.order != 1:
        raise ShapeMismatchError(f"expected 1 dependence weight, got {params.order}")
    tau2 = params.tau2
    x = 2.0 * float(params.theta[0]) * tau2
    root = math.hypot(1.0, x)
    sigma2 = 2.0 * tau2 / (1.0 + root)
    phi = x / (1.0 + root)
    if not abs(phi) < 1.0:  # an overflowed x gives a nan phi, which fails too
        raise ParameterDomainError(f"no stationary AR resolves tau2 = {tau2} for theta = {params.theta}")
    return ClassicalARParams(phi=[phi], sigma2=sigma2)


def ar2_to_mininfo(params: ClassicalARParams) -> MinInfoARParams:
    """AR(2) closed form: theta1 = phi1 (1 - phi2) / sigma2, theta2 = phi2 / sigma2."""
    if params.order != 2:
        raise ShapeMismatchError(f"expected AR(2), got order {params.order}")
    phi1, phi2 = (float(v) for v in params.phi)
    s2 = params.sigma2
    theta1 = phi1 * (1.0 - phi2) / s2
    theta2 = phi2 / s2
    tau2 = (1.0 - phi2) * s2 / ((1.0 + phi2) * (1.0 - phi1 - phi2) * (1.0 + phi1 - phi2))
    return MinInfoARParams(theta=[theta1, theta2], tau2=tau2)


def _autocorr(a: np.ndarray) -> np.ndarray:
    """r_i = sum_j a_j a_{j+i} for lags i = 0..len(a)-1."""
    return np.correlate(a, a, "full")[len(a) - 1 :]


def ard_to_mininfo(params: ClassicalARParams) -> MinInfoARParams:
    """General AR(d) forward transform.  With a = (1, -phi_1, ..., -phi_d),
    theta_i = -(sum_j a_j a_{j+i}) / sigma2 is the x_t x_{t-i} coefficient of
    the kernel exponent; the stationary variance comes from the
    companion-form Lyapunov solve, so tau2 inherits the known limit of
    :func:`stationary_variance` on poles clustered near the unit circle:
    seven roots ``linspace(0.9, 0.99, 7)`` raise ``ParameterDomainError``
    for a negative tau2 (ROADMAP item 10)."""
    theta = -_autocorr(np.concatenate([[1.0], -params.phi]))[1:] / params.sigma2
    return MinInfoARParams(theta=theta, tau2=stationary_variance(params))


def _ar_factor(theta: np.ndarray, peak: float, x_peak: float, delta: float) -> ClassicalARParams | None:
    """The stationary AR(d) whose inverse spectral density is
    b0 - 2 sum_i theta_i cos(i w) with b0 = peak + delta, where the cosine
    sum peaks at cos(w) = x_peak; None if none is found.

    Each root x_k of the density in x = cos(w), a Chebyshev series (tail
    weights below rounding dropped), gives a pole z_k = x_k - sqrt(x_k^2 - 1)
    inside the unit circle; alpha is prod_k (1 - z_k L) scaled to
    |alpha|^2 = b0.  Three Newton steps (Wilson 1969) on the autocorrelation
    equations r_i(alpha) = -theta_i, i >= 1, polish it; their first equation
    is not r_0 = b0, which rounds delta away near a unit root, but
    |alpha(e^{i w_peak})|^2 = delta.  The Jacobian is Toeplitz plus Hankel
    with J alpha = 2 r.  Then phi = -alpha[1:] / alpha_0, sigma2 = 1 / alpha_0^2."""
    d = len(theta)
    b0 = peak + delta
    series = chebyshev.chebtrim(np.concatenate([[b0], -2.0 * theta]), 1e-15 * b0)
    x = chebyshev.chebroots(series).astype(complex)
    w = np.sqrt((x - 1.0) * (x + 1.0))
    poles = 1.0 / np.where(np.abs(x + w) >= np.abs(x - w), x + w, x - w)
    if not np.all(np.abs(poles) < 1.0):
        return None
    a = np.zeros(d + 1)
    a[: poles.size + 1] = np.poly(poles).real
    alpha = a * math.sqrt(b0 / (a @ a))
    wave = np.exp(1j * math.acos(x_peak) * np.arange(d + 1))
    from scipy.linalg import hankel, toeplitz

    for _ in range(3):
        jac = toeplitz(np.eye(d + 1)[0] * alpha[0], alpha) + hankel(alpha)
        rhs = _autocorr(alpha) - np.concatenate([[0.0], theta])
        at_peak = alpha @ wave
        jac[0] = 2.0 * (at_peak.conjugate() * wave).real
        rhs[0] = delta + abs(at_peak) ** 2
        alpha = np.linalg.solve(jac, rhs)
    if not np.abs(_autocorr(alpha)[1:] + theta).max() <= 1e-8 * b0:
        return None  # the steps did not converge, as when delta is lost in rounding
    try:
        return ClassicalARParams(phi=-alpha[1:] / alpha[0], sigma2=1.0 / alpha[0] ** 2)
    except (StationarityError, ParameterDomainError):
        return None


def mininfo_to_ar(params: MinInfoARParams) -> ClassicalARParams:
    """Inverse of :func:`ard_to_mininfo`: the closed form for d = 1 and, for
    every d >= 2, the AR whose inverse spectral density is
    b0 - 2 sum_i theta_i cos(i w) (see :func:`ard_to_mininfo`).  Its variance
    falls strictly from +inf to 0 as b0 rises from the peak of the cosine
    sum, so each (theta, tau2 > 0) has one stationary inverse.  Solved at unit
    variance (theta * tau2, then sigma2 * tau2) by Brent's method on
    log(b0 - peak) and :func:`_ar_factor`.  Raises
    :class:`ParameterDomainError` where the result's forward map misses
    (theta, tau2) by more than 1e-8 relative, as for 1 - rho below about
    1e-7, which double precision does not resolve."""
    if params.order == 1:
        return mininfo_to_ar1(params)
    tau2 = params.tau2
    with np.errstate(over="ignore"):  # an overflow is refused just below
        theta = params.theta * tau2
    unresolved = ParameterDomainError(f"no stationary AR resolves tau2 = {tau2} for theta = {params.theta}")
    if not np.isfinite(theta).all():
        raise unresolved
    if not theta.any():
        return ClassicalARParams(phi=np.zeros(params.order), sigma2=tau2)
    # the peak of 2 sum_i theta_i cos(i w), a Chebyshev series in x = cos(w),
    # lies at x = +-1 or at a critical point
    series = chebyshev.chebtrim(np.concatenate([[0.0], 2.0 * theta]), 2e-15 * np.abs(theta).max())
    critical = np.clip(chebyshev.chebroots(chebyshev.chebder(series)).real, -1.0, 1.0)
    candidates = np.concatenate([critical, [-1.0, 1.0]])
    values = chebyshev.chebval(candidates, series)
    peak, x_peak = float(values.max()), float(candidates[values.argmax()])

    def log_variance(x):
        ar = _ar_factor(theta, peak, x_peak, math.exp(x))
        var = math.nan if ar is None else stationary_variance(ar)
        # no factor counts as an infinite variance, capped for brentq
        return min(math.log(var), 1e3) if var > 0.0 else 1e3

    # at b0 = 2 sum_i |theta_i| + 2 the density is >= 2 and the variance
    # <= 1/2; step down until the variance exceeds 1, but not below b0 - peak
    # of ulp size, where the factor is lost in rounding
    total = 2.0 * float(np.abs(theta).sum())
    floor = math.log(1e-16 * (total + 2.0))
    hi = math.log(max(total - peak, 0.0) + 2.0)
    lo = hi - 1.0
    while log_variance(lo) <= 0.0:
        if lo <= floor:
            raise unresolved
        hi, lo = lo, max(lo - 2.0 * (hi - lo), floor)
    from scipy.optimize import brentq

    delta = math.exp(brentq(log_variance, lo, hi, xtol=1e-14))
    ar = _ar_factor(theta, peak, x_peak, delta)
    back = None if ar is None else ard_to_mininfo(ar)
    if back is None or not (
        abs(math.log(back.tau2)) <= 1e-8 and np.abs(back.theta - theta).max() <= 1e-8 * (peak + delta)
    ):
        raise unresolved
    return ClassicalARParams(phi=ar.phi, sigma2=ar.sigma2 * tau2)


# ---------------------------------------------------------------------------
# VAR(1) transforms


def var1_to_mininfo(params: ClassicalVARParams) -> MinInfoVARParams:
    """VAR(1) forward transform: Theta = A' Sigma^{-1}, B from the
    stationarity equation."""
    if params.order != 1:
        raise ShapeMismatchError(f"expected VAR(1), got order {params.order}")
    A = params.A[0]
    Sigma = params.Sigma
    Theta = np.linalg.solve(Sigma, A).T
    B = stationary_cov_var1(A, Sigma)
    return MinInfoVARParams(Theta=Theta, B=B)


def mininfo_to_var1(params: MinInfoVARParams) -> ClassicalVARParams:
    """VAR(1) inverse in closed form: recover (A, Sigma) from (Theta, B).

    A = Sigma Theta' turns B = A B A' + Sigma into Sigma + Sigma C Sigma = B
    with C = Theta' B Theta.  Let N = B^{1/2} and D = N C N.  Then
    Y = N^{-1} Sigma N^{-1} solves Y + Y D Y = I, so Y^{-1} = I + D Y commutes
    with D and Y = g(D) for g(lam) = 2 / (1 + sqrt(1 + 4 lam)) on the
    eigenvalues of D.  So the SPD solution is unique, and B, Sigma > 0 make A
    stable: every (Theta, B > 0) has exactly one stationary inverse.  At
    p = 1 this is :func:`mininfo_to_ar1`'s formula.  One Newton step on
    R(Sigma) = Sigma + Sigma C Sigma - B, a Sylvester solve, takes out the
    rounding of the two eigendecompositions.
    """
    Theta, B = params.Theta, params.B
    C = Theta.T @ B @ Theta
    vals, vecs = np.linalg.eigh(B)
    N = (vecs * np.sqrt(vals)) @ vecs.T
    lam, U = np.linalg.eigh(N @ C @ N)
    Sigma = N @ (U * (2.0 / (1.0 + np.sqrt(1.0 + 4.0 * lam)))) @ U.T @ N
    resid = Sigma + Sigma @ C @ Sigma - B
    import scipy.linalg

    Sigma = Sigma + scipy.linalg.solve_sylvester(np.eye(params.dim) + Sigma @ C, C @ Sigma, -resid)
    Sigma = (Sigma + Sigma.T) / 2.0
    return ClassicalVARParams(A=(Sigma @ Theta.T)[None], Sigma=Sigma)


# ---------------------------------------------------------------------------
# Fisher information and divergence rates


def ar1_fisher_info(theta: float, tau2: float) -> np.ndarray:
    """Fisher information of the AR(1) minimum-information parametrization.

    The (theta, tau2) block is diagonal: the dependence weight and the
    stationary variance are orthogonal parameters.
    """
    _check_positive("tau2", tau2)
    theta = float(theta)
    root = math.sqrt(1.0 + 4.0 * theta**2 * tau2**2)
    g_theta = 2.0 * tau2**2 / (root * (1.0 + root))
    g_tau2 = 1.0 / (2.0 * tau2**2 * root)
    return np.array([[g_theta, 0.0], [0.0, g_tau2]])


def kernel_from_ar1(params: ClassicalARParams) -> GaussianKernel:
    """Package a stationary AR(1) as a conditionally Gaussian kernel."""
    if params.order != 1:
        raise ShapeMismatchError(f"expected AR(1), got order {params.order}")
    phi = float(params.phi[0])
    cov = [[params.sigma2 / (1.0 - phi**2)]]
    return GaussianKernel(mean_map=[[phi]], noise_cov=[[params.sigma2]], stationary_cov=cov)


def divergence_rate(p: GaussianKernel, q: GaussianKernel) -> float:
    """Divergence rate between stationary conditionally Gaussian kernels:
    the conditional KL divergence of q from p averaged over p's stationary law.

    Closed form:
        (log det Sq - log det Sp - p + tr(Sq^{-1} Sp)
         + tr(Bp (Fp - Fq)' Sq^{-1} (Fp - Fq))) / 2
    """
    if p.stationary_cov is None:
        raise ContractError("divergence_rate needs p.stationary_cov")
    if p.dim != q.dim:
        raise ShapeMismatchError(f"kernel dimensions differ: {p.dim} vs {q.dim}")
    dim = p.dim
    Sp, Sq = p.noise_cov, q.noise_cov
    dF = p.mean_map - q.mean_map
    sign_q, logdet_q = np.linalg.slogdet(Sq)
    sign_p, logdet_p = np.linalg.slogdet(Sp)
    if sign_q <= 0 or sign_p <= 0:
        raise ParameterDomainError("noise covariances must be positive definite")
    import scipy.linalg

    cho = scipy.linalg.cho_factor(Sq)
    trace_ratio = float(np.trace(scipy.linalg.cho_solve(cho, Sp)))
    mean_term = float(np.trace(p.stationary_cov @ dF.T @ scipy.linalg.cho_solve(cho, dF)))
    return 0.5 * (logdet_q - logdet_p - dim + trace_ratio + mean_term)


# ---------------------------------------------------------------------------
# flat key-value serialization (consumed by the command line tools)


_RECORDS = (ClassicalARParams, MinInfoARParams, ClassicalVARParams, MinInfoVARParams)


def _text_key(name: str, idx: tuple) -> str:
    return ".".join([name, *(str(i + 1) for i in idx)])


def params_to_text(params) -> str:
    """Serialize a parameter record to flat lines, one per entry of each
    dataclass field in field order: ``name.i.j=value`` with 1-based indices,
    ``name=value`` for a scalar field."""
    if type(params) not in _RECORDS:
        raise TypeError(f"cannot serialize {type(params)!r}")
    lines = []
    for field in dataclasses.fields(params):
        value = np.asarray(getattr(params, field.name))
        for idx in np.ndindex(value.shape):
            lines.append(f"{_text_key(field.name, idx)}={float(value[idx])!r}")
    return "\n".join(lines) + "\n"


def params_from_text(text: str):
    """Parse :func:`params_to_text` output back into its record.

    The keys must name exactly the fields of one record; a scalar field takes
    one bare key and an array field one key per entry of its full index grid.
    Anything else raises ValueError naming the keys or the field.
    """
    grids: dict[str, dict[tuple, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        name, *tokens = key.split(".")
        if not sep or not all(tok.isdigit() and int(tok) >= 1 for tok in tokens):
            raise ValueError(f"parameter line {line!r} is not name.i.j=value with 1-based indices")
        grid = grids.setdefault(name, {})
        idx = tuple(int(tok) - 1 for tok in tokens)
        if idx in grid:
            raise ValueError(f"parameter key {key!r} appears twice")
        grid[idx] = float(value)
    for cls in _RECORDS:
        fields = dataclasses.fields(cls)
        if {field.name for field in fields} == set(grids):
            return cls(**{field.name: _grid_value(field, grids[field.name]) for field in fields})
    records = " | ".join(", ".join(f.name for f in dataclasses.fields(cls)) for cls in _RECORDS)
    raise ValueError(f"parameter names {', '.join(sorted(grids))} match no record ({records})")


def _grid_value(field: dataclasses.Field, grid: dict) -> np.ndarray:
    """The full array (a numpy scalar for a scalar field) that ``grid`` maps
    0-based indices to."""
    ranks = {len(idx) for idx in grid}
    if len(ranks) != 1 or (ranks == {0}) != (field.type == "float"):
        raise ValueError(f"parameter field {field.name} has keys of the wrong rank")
    shape = tuple(int(n) + 1 for n in np.max(list(grid), axis=0))
    for idx in np.ndindex(shape):
        if idx not in grid:
            raise ValueError(f"parameter field {field.name} has no entry {_text_key(field.name, idx)}")
    arr = np.empty(shape)
    for idx, value in grid.items():
        arr[idx] = value
    return arr[()]

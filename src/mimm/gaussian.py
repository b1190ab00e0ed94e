"""Gaussian autoregressive ground truth: simulation, transforms between the
classical and minimum-information parametrizations, Fisher information, and
divergence rates between conditionally Gaussian kernels.

The minimum-information parametrization of a stationary AR/VAR process pairs
the dependence weights (theta) with the stationary variance, replacing the
classical (coefficients, noise variance) pair.  Both directions are
implemented here; every minimum-information pair has exactly one stationary
inverse.  The VAR(1) inverse is a closed form.  The AR(d) inverse is the
closed form for d = 1 and, for every d >= 2, Newton's method on the forward
map, continued from white noise in the partial autocorrelations of the
step-down (:func:`_step_up` is its inverse); it refuses, with
:class:`ParameterDomainError`, the pairs whose inverse double precision
cannot resolve to 1e-8.

The stationary law of a univariate AR(d) (whether its record builds, its
variance, the variance the AR(d) inverse matches, the law
:func:`simulate_ar` starts from) comes from the Durbin-Levinson step-down
of :func:`_levinson`, which forms no matrix.  Every VAR covariance (a
VAR(1)'s, the law :func:`simulate_var` starts a vector recursion from, a
:class:`GaussianKernel`'s law, which is derived and never passed) comes
from one Lyapunov solve on the block companion matrix of
:func:`companion_matrix` (see :func:`_stationary_state_cov`).  Parameter
records serialize to a flat ``name.i.j=value`` text format driven by their
dataclass fields.

The module needs numpy alone: the Lyapunov, Sylvester and divergence
solves are dense numpy solves.

All functions are pure; simulators take explicit seeds and return
bit-identical output for identical inputs on one platform.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import TimeSeries, _check_count, _check_positive
from .exceptions import (
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
    "params_to_text",
    "params_from_text",
]

_SYM_TOL = 1e-12  # largest |M - M'| of a covariance, relative to max(1, max |M|)
_NEWTON_TRIES = 8  # Newton steps toward one point of mininfo_to_ar's path
# mininfo_to_ar refuses a path whose stride in t has halved to this fraction
# of t: there it has stalled (on the 401-model near-unit sweep no stride went
# below 0.018 t, the stalled MinInfoARParams([0.3, -0.2, 0.1, 0.05], 3e5)
# reaches it after 324 misfit evaluations, against the 2000 of the budget)
_MIN_STRIDE = 1e-6


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
    """Stationary covariance of the companion state of a VAR recursion with
    noise covariance ``noise``: solves G = F G F' + Q, where F is the block
    companion matrix and Q carries ``noise`` in its leading block.  Its
    callers are the VAR paths: :func:`stationary_cov_var1` (so a
    :class:`GaussianKernel`'s law, a 1x1 one included) and the vector
    recursion of :func:`_simulate` (p > 1).  A univariate AR takes the
    step-down of :func:`_levinson` instead.

    vec G solves (I - F kron F) vec G = vec Q, one dense solve of order s^2
    for a state of dimension s (scipy's ``direct`` method, in numpy): O(s^6)
    time and 8 s^4 bytes, 134 MB at s = 64.  With one BLAS thread on a
    2-vCPU host it took 0.06, 1.4, 42 and 1500 ms at s = 2, 16, 32 and 64,
    where scipy's solve took 0.10, 0.21, 0.68 and 2.4 ms; no caller here
    builds a state above 16.  On the tests' clustered near-unit roots its
    backward error is within 1.3x of scipy's; the doubling iteration
    X <- X + A X A' overflowed there.  At dimension 1 the value is scipy's
    bitwise.  An ill-conditioned state is not warned about.
    """
    F = companion_matrix(coef)
    Q = np.zeros_like(F)
    Q[: len(noise), : len(noise)] = noise
    return np.linalg.solve(np.eye(F.size) - np.kron(F, F), Q.ravel()).reshape(Q.shape)


def _levinson(phi, sigma2: float) -> tuple[list[float], list[list[float]], list[float], float]:
    """The Durbin-Levinson step-down of the AR(d) x_t = sum_j phi_j x_{t-j} +
    e_t, var e_t = sigma2 (Durbin 1960, *Rev. Int. Stat. Inst.* 28:233;
    Brockwell & Davis 1991, *Time Series: Theory and Methods*, section 5.2).

    Returns ``(kappa, predictors, variances, gamma0)``.  ``predictors[k]``
    holds the order-k predictor coefficients, those of x_{t-1} .. x_{t-k}
    in the best linear prediction of x_t from them, and ``variances[k]``
    its error variance v_k, for k = 0..d; ``predictors[d]`` is phi and
    v_d is sigma2.  ``kappa`` lists the partial autocorrelations kappa_1 ..
    kappa_d, and gamma0 = v_0 = sigma2 / prod_k (1 - kappa_k * kappa_k) is
    the stationary variance; for d = 1 it is sigma2 / (1 - phi * phi).

    Stepping down from order k, kappa_k is the last order-k coefficient,
    v_{k-1} = v_k / (1 - kappa_k * kappa_k), and the order-(k-1)
    coefficient j is (phi_kj + kappa_k phi_k,k-j) / (1 - kappa_k^2).  That
    one is formed from the pair (j, k - j): half their sum over
    1 - kappa_k plus or minus half their difference over 1 + kappa_k,
    which cancels no digits when kappa_k is near -1 or 1 (each coefficient
    is then accurate relative to the larger of its pair).  Against a
    60-digit Yule-Walker solve, gamma0 is then within a few cond * eps, cond
    its relative sensitivity to (phi, sigma2), for roots up to modulus
    0.999.  All in Python floats, with no matrix formed.  The AR is
    stationary if and only if every |kappa_k| < 1; else
    :class:`StationarityError`.
    """
    coef = np.asarray(phi, dtype=float).tolist()
    d = len(coef)
    predictors = [[]] * d + [coef]
    variances = [0.0] * d + [float(sigma2)]
    for k in range(d, 0, -1):
        c = predictors[k]
        kap = c[-1]
        if not abs(kap) < 1.0:
            raise StationarityError(f"AR coefficients are non-stationary (partial autocorrelation {kap:.6g})")
        lower = [0.0] * (k - 1)
        for j in range(k // 2):
            mirror = k - 2 - j
            plus = (c[j] + c[mirror]) / (1.0 - kap)
            minus = (c[j] - c[mirror]) / (1.0 + kap)
            lower[j], lower[mirror] = (plus + minus) / 2.0, (plus - minus) / 2.0
        predictors[k - 1] = lower
        variances[k - 1] = variances[k] / (1.0 - kap * kap)
    return [c[-1] for c in predictors[1:]], predictors, variances, variances[0]


@functools.lru_cache(maxsize=16)
def _ar_recursion(d: int) -> Callable:
    """The AR(d) recursion x_t = e_t + a_1 x_{t-1} + ... + a_d x_{t-d} as
    one straight-line Python loop, compiled once per order (as
    :func:`mcle._exchange_kernel` is): ``run(xs, coef, noise)`` takes the
    list ``xs``, whose last d entries (oldest first) are the start, appends
    one value per noise value e_t and returns it.  The source holds only d;
    the coefficients arrive as arguments.  For d = 2 the loop body is
    ``x1, x2 = e + a1 * x1 + a2 * x2, x1; append(x1)``: the sum adds left to
    right, e_t first, so each value is that of a per-lag loop
    ``val = e; val += a_k * x_{t-k}``, bit for bit.
    """
    lags = [f"x{k}" for k in range(1, d + 1)]
    coefs = [f"a{k}" for k in range(1, d + 1)]
    total = " + ".join(["e", *(f"{a} * {x}" for a, x in zip(coefs, lags))])
    source = "\n".join(
        [
            "def run(xs, coef, noise):",
            f"    {', '.join(coefs)}, = coef",
            f"    {', '.join(lags[::-1])}, = xs[-{d}:]",
            "    append = xs.append",
            "    for e in noise:",
            f"        {', '.join(lags)} = {', '.join([total, *lags[:-1]])}",
            "        append(x1)",
            "    return xs",
        ]
    )
    namespace: dict = {}
    exec(compile(source + "\n", f"<mimm AR({d}) recursion>", "exec"), {}, namespace)
    return namespace["run"]


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
    """AR(d) coefficients and noise variance.  Stationarity is enforced by
    the step-down of :func:`_levinson`, the rule of every AR path: a record
    builds if and only if each of its partial autocorrelations is inside
    (-1, 1) in double precision, so its stationary law can be formed."""

    phi: np.ndarray
    sigma2: float

    def __post_init__(self):
        phi = np.atleast_1d(np.asarray(self.phi, dtype=float))
        if phi.ndim != 1 or len(phi) < 1:
            raise ShapeMismatchError("phi must be a non-empty vector")
        if not np.all(np.isfinite(phi)):
            raise ParameterDomainError("phi contains non-finite values")
        _check_positive("sigma2", self.sigma2)
        _levinson(phi, self.sigma2)  # StationarityError unless every |kappa_k| < 1
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

    Its stationary law N(0, B) is derived, not given: ``stationary_cov`` is
    the solution B of B = F B F' + S, from :func:`stationary_cov_var1` on
    first access.  A kernel whose mean map is not stable is built all the
    same; reading its law raises :class:`StationarityError`.
    """

    mean_map: np.ndarray
    noise_cov: np.ndarray

    def __post_init__(self):
        F = np.atleast_2d(np.asarray(self.mean_map, dtype=float))
        S = np.atleast_2d(np.asarray(self.noise_cov, dtype=float))
        if F.shape != S.shape or F.shape[0] != F.shape[1]:
            raise ShapeMismatchError("mean_map and noise_cov must be square and matching")
        _check_spd(S, "noise_cov")
        object.__setattr__(self, "mean_map", _readonly(F))
        object.__setattr__(self, "noise_cov", _readonly(S))

    @functools.cached_property
    def stationary_cov(self) -> np.ndarray:
        return _readonly(stationary_cov_var1(self.mean_map, self.noise_cov))

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
        return GaussianKernel(mean_map=[[slope]], noise_cov=[[noise]])


# ---------------------------------------------------------------------------
# simulation


def simulate_ar(params: ClassicalARParams, n: int, burn_in: int = 0, seed=None) -> TimeSeries:
    """Simulate n observations of the AR(d) recursion after discarding
    ``burn_in`` steps; the chain starts from its exact stationary law for
    every order, drawn by the step-down of :func:`_levinson` (see
    :func:`_simulate`), so no order forms or factors a covariance.  ``n``
    and ``burn_in`` are integers >= 1 and >= 0, else
    :class:`ParameterDomainError`.
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
    rule of :func:`simulate_ar`."""
    return _simulate(params.A, params.Sigma, n, burn_in, seed)


def _simulate(A: np.ndarray, Sigma: np.ndarray, n: int, burn_in: int, seed) -> TimeSeries:
    """The one simulator of x_t = sum_k A[k] x_{t-k} + e_t, e_t ~ N(0, Sigma),
    for coefficient blocks ``A`` of shape (d, p, p).

    The first d values (the start) are drawn from their exact stationary
    law with the first d * p standard normals z, and the noise takes the
    next ones; then ``burn_in + n`` steps run and the first ``burn_in`` are
    discarded, so a run equals the tail of a longer run from the same seed.

    For p = 1 the start is in innovations form, from :func:`_levinson`:
    x_k = sqrt(v_k) z_k plus the order-k predictor of x_k from
    x_0 .. x_{k-1}, for k = 0..d-1, oldest first (for d = 1,
    x_0 = sqrt(gamma0) z_0).  The recursion is :func:`_ar_recursion`'s
    straight-line loop on Python floats.

    For p > 1 the companion state (x_0, x_{-1}, ..., x_{1-d}) is the
    Cholesky factor of :func:`_stationary_state_cov`'s Lyapunov solve times
    z, and the recursion adds the blocks' matrix-vector products.
    """
    _check_count("n", n)
    _check_count("burn_in", burn_in, least=0)
    d, p, _ = A.shape
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(d * p)
    eps = rng.standard_normal((burn_in + n, p)) @ np.linalg.cholesky(Sigma).T
    if p == 1:
        coef = A[:, 0, 0].tolist()
        _, predictors, variances, _ = _levinson(coef, Sigma[0, 0])
        xs: list[float] = []
        for c, v, z_k in zip(predictors, variances, z.tolist()):
            val = math.sqrt(v) * z_k
            for a, x in zip(c, reversed(xs)):
                val += a * x
            xs.append(val)
        return TimeSeries(_ar_recursion(d)(xs, coef, eps[:, 0].tolist())[d + burn_in :])
    G = _stationary_state_cov(A, Sigma)
    try:
        start = np.linalg.cholesky((G + G.T) / 2.0) @ z
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(
            "the stationary state covariance is not positive definite in double "
            "precision (clustered near-unit roots)"
        ) from err
    state = list(start.reshape(d, p))  # state[0] = most recent
    out = np.empty(eps.shape)
    for t in range(len(eps)):
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
    """Stationary variance gamma0 = sigma2 / prod_k (1 - kappa_k * kappa_k)
    of an AR(d), from the partial autocorrelations kappa_k of the
    step-down in :func:`_levinson`; for an AR(1) it is
    sigma2 / (1 - phi * phi).  No matrix is formed or solved, so roots
    clustered near the unit circle keep their digits: an eightfold root 0.9
    with sigma2 = 1 gives 1.104e14.  The record's constructor runs the same
    step-down, so every record that builds has this variance."""
    return _levinson(params.phi, params.sigma2)[3]


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
    the kernel exponent; tau2 is :func:`stationary_variance`."""
    theta = -_autocorr(np.concatenate([[1.0], -params.phi]))[1:] / params.sigma2
    return MinInfoARParams(theta=theta, tau2=stationary_variance(params))


def _step_up(kappa) -> tuple[np.ndarray, np.ndarray]:
    """The inverse of the step-down in :func:`_levinson`: the coefficients
    phi of the AR(d) whose partial autocorrelations are kappa_1 .. kappa_d,
    and their slopes, the d x d array d phi_j / d kappa_k.  Order k takes
    phi <- (phi - kappa_k * reversed(phi), kappa_k); the slopes go through
    the same recursion, and kappa_k's own column is (-reversed(phi), 1).
    Every kappa in (-1, 1)^d gives a stationary AR."""
    phi, slopes = np.zeros(len(kappa)), np.eye(len(kappa))
    for k, kap in enumerate(kappa):
        slopes[:k] -= kap * slopes[:k][::-1]
        slopes[:k, k] = -phi[:k][::-1]
        phi[:k] -= kap * phi[:k][::-1]
        phi[k] = kap
    return phi, slopes


def _ar_misfit(u: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The misfit of the AR at u = (atanh kappa_1 .. atanh kappa_d,
    log sigma2) to the unit-variance pair (theta, 1), and its Jacobian in u.

    The misfit is (log tau2(u), (theta(u) - theta) / b0(u)).  tau2 comes
    from the step-down's product, log tau2 = log sigma2 +
    2 sum_k log cosh u_k.  With a = (1, -phi) and r_i = sum_j a_j a_{j+i},
    theta_i(u) = -r_i / sigma2 and b0 = r_0 / sigma2, the constant term of
    the inverse spectral density, which scales theta.  d r_i / d a_j is
    a_{j+i} + a_{j-i}, taken times the slopes of :func:`_step_up` and
    d kappa / du = 1 / cosh^2 u; the lag-0 row gives b0's own slope."""
    d = len(theta)
    z, sigma2 = u[:-1], math.exp(u[-1])
    kappa = np.tanh(z)
    phi, slopes = _step_up(kappa)
    a = np.concatenate([np.zeros(d), [1.0], -phi, np.zeros(d)])  # a_j at a[d + j], zero off 0..d
    r = _autocorr(a[d : 2 * d + 1]) / sigma2
    lag, j = np.arange(d + 1)[:, None], np.arange(1, d + 1)
    grad = np.empty((d + 1, d + 1))  # d (-r_i / sigma2) / du over b0, lags i = 0..d
    grad[:, :d] = (a[d + j + lag] + a[d + j - lag]) @ slopes / np.cosh(z) ** 2 / (sigma2 * r[0])
    grad[:, d] = r / r[0]
    misfit = (-r[1:] - theta) / r[0]
    jac = np.vstack([np.append(2.0 * kappa, 1.0), grad[1:] + np.outer(misfit, grad[0])])
    log_tau2 = u[-1] + 2.0 * float(np.sum(np.logaddexp(z, -z) - math.log(2.0)))
    return np.append(log_tau2, misfit), jac


def mininfo_to_ar(params: MinInfoARParams) -> ClassicalARParams:
    """Inverse of :func:`ard_to_mininfo`: the closed form for d = 1 and, for
    every d >= 2, the forward map solved by Newton's method.

    Each (theta, tau2 > 0) has exactly one stationary inverse: the AR whose
    inverse spectral density is b0 - 2 sum_i theta_i cos(i w), where b0 is
    the one constant term that gives variance tau2 (the variance falls
    strictly from +inf to 0 as b0 rises from the peak of the cosine sum).
    So the path (t theta, tau2), t from 0 to 1, has one AR at every t.  It
    is followed at unit variance (theta * tau2, then sigma2 * tau2) in the
    coordinates u = (atanh kappa, log sigma2), kappa the partial
    autocorrelations of :func:`_levinson`, where every point is a stationary
    AR: from white noise (t = 0, u = 0), damped Newton steps on the misfit
    of :func:`_ar_misfit` (each step at most 1 in every coordinate, halved
    while it raises the misfit) take a point of the path at a misfit of
    1e-3, or of 1e-9 where the doubled stride from it reaches t = 1.  t
    then advances by a stride that doubles; when :data:`_NEWTON_TRIES`
    steps do not reach the next point, the stride becomes half of itself or
    of the distance 1 - t, whichever is less.  At t = 1 the steps go on to a
    misfit of 1e-9 and one more.

    Raises :class:`ParameterDomainError` where the path stalls (it names
    that t), at once where a path point rounds a kappa_k to +-1 (it names
    k), or where the result's forward map misses (theta, tau2) by more
    than 1e-8 relative (it names that misfit), as for 1 - rho below about
    1e-7, which double precision does not resolve.  The path counts as
    stalled when its stride has halved to ``_MIN_STRIDE`` times t, or
    after 2000 misfit evaluations."""
    if params.order == 1:
        return mininfo_to_ar1(params)
    tau2 = params.tau2
    with np.errstate(over="ignore"):  # an overflow is refused just below
        theta = params.theta * tau2
    unresolved = f"no stationary AR resolves tau2 = {tau2} for theta = {params.theta}"
    if not np.isfinite(theta).all():
        raise ParameterDomainError(unresolved)
    u = base = np.zeros(params.order + 1)
    t, stride, tries, best = 0.0, 1.0 / max(1.0, float(np.abs(theta).max())), 0, math.inf
    for _ in range(2000):  # misfit evaluations along the whole path
        target = min(t + stride, 1.0)
        res, jac = _ar_misfit(u, target * theta)
        err = float(np.abs(res).max())
        # a point from which the next stride reaches t = 1 is taken at the final misfit
        if target < 1.0 and err <= (1e-9 if target + 2.0 * stride >= 1.0 else 1e-3):
            rounded = np.flatnonzero(np.abs(np.tanh(u[:-1])) == 1.0)
            if len(rounded):
                raise ParameterDomainError(
                    f"{unresolved}: at t = {target:.9g} the path rounds kappa_{rounded[0] + 1} to +-1"
                )
            base, t, stride, tries, best = u, target, 2.0 * stride, 0, math.inf
        elif tries == _NEWTON_TRIES:
            if stride <= _MIN_STRIDE * t:
                raise ParameterDomainError(f"{unresolved}: the path stalled at t = {t:.9g}")
            u, stride, tries, best = base, min(stride, 1.0 - t) / 2.0, 0, math.inf
        elif err < best:
            try:
                step = np.linalg.solve(jac, res)
            except np.linalg.LinAlgError:  # a kappa_k rounded to +-1: try a shorter stride
                tries = _NEWTON_TRIES
                continue
            prev, best, tries, step = u, err, tries + 1, step / max(1.0, float(np.abs(step).max()))
            u = prev - step
            if target == 1.0 and err <= 1e-9:
                break
        else:  # the step raised the misfit (or left the floats): halve it
            step, tries = step / 2.0, tries + 1
            u = prev - step
    else:
        raise ParameterDomainError(f"{unresolved}: the path stalled at t = {t:.9g}")
    phi, sigma2 = _step_up(np.tanh(u[:-1]))[0], math.exp(u[-1])
    try:
        back = ard_to_mininfo(ClassicalARParams(phi=phi, sigma2=sigma2))
    except StationarityError:  # a partial autocorrelation rounded to +-1
        misfit = math.inf
    else:
        b0 = (1.0 + float(phi @ phi)) / sigma2
        misfit = max(abs(math.log(back.tau2)), float(np.abs(back.theta - theta).max()) / b0)
    if not misfit <= 1e-8:
        raise ParameterDomainError(f"{unresolved}: its forward misfit {misfit:.3g} exceeds the 1e-8 check")
    return ClassicalARParams(phi=phi, sigma2=sigma2 * tau2)


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
    R(Sigma) = Sigma + Sigma C Sigma - B, a Sylvester solve done as one
    p^2 x p^2 system in row-major vec, takes out the rounding of the two
    eigendecompositions.
    """
    Theta, B = params.Theta, params.B
    C = Theta.T @ B @ Theta
    vals, vecs = np.linalg.eigh(B)
    N = (vecs * np.sqrt(vals)) @ vecs.T
    lam, U = np.linalg.eigh(N @ C @ N)
    Sigma = N @ (U * (2.0 / (1.0 + np.sqrt(1.0 + 4.0 * lam)))) @ U.T @ N
    resid = Sigma + Sigma @ C @ Sigma - B
    eye = np.eye(params.dim)
    lhs = np.kron(eye + Sigma @ C, eye) + np.kron(eye, (C @ Sigma).T)
    Sigma = Sigma + np.linalg.solve(lhs, -resid.ravel()).reshape(resid.shape)
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


def divergence_rate(p: GaussianKernel, q: GaussianKernel) -> float:
    """Divergence rate between stationary conditionally Gaussian kernels:
    the conditional KL divergence of q from p averaged over p's stationary law
    (so a p whose mean map is not stable raises :class:`StationarityError`).

    Closed form:
        (log det Sq - log det Sp - p + tr(Sq^{-1} Sp)
         + tr(Bp (Fp - Fq)' Sq^{-1} (Fp - Fq))) / 2
    """
    if p.dim != q.dim:
        raise ShapeMismatchError(f"kernel dimensions differ: {p.dim} vs {q.dim}")
    dim = p.dim
    Sp, Sq = p.noise_cov, q.noise_cov
    dF = p.mean_map - q.mean_map
    sign_q, logdet_q = np.linalg.slogdet(Sq)
    sign_p, logdet_p = np.linalg.slogdet(Sp)
    if sign_q <= 0 or sign_p <= 0:
        raise ParameterDomainError("noise covariances must be positive definite")
    ratio = np.linalg.solve(Sq, np.hstack([Sp, dF]))
    trace_ratio = float(np.trace(ratio[:, :dim]))
    mean_term = float(np.trace(p.stationary_cov @ dF.T @ ratio[:, dim:]))
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

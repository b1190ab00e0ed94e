"""Independent reference implementations used for testing and benchmarking:
ordinary-least-squares maximum likelihood for AR/VAR, exact conditional
likelihood by full permutation enumeration at tiny n (at most 8 interior
positions, 8! = 40320 orderings), and quadrature Fisher information.

Every oracle keeps its own code path: enumeration physically permutes the
data and recomputes totals, OLS goes through plain linear algebra, and the
quadrature oracle re-derives the parameter transform inline.  None of them
share numerics with the estimators they validate beyond the core statistic
evaluation.  They are not performance-optimized.  The enumeration oracles
import scipy when called, so importing this module and the OLS oracle load
none of it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import gaussian
from .core import DependenceSpec, TimeSeries, _check_count, total_statistic
from .exceptions import (
    EnumerationBudgetError,
    InsufficientDataError,
    NoSolutionFoundError,
    RankError,
    ShapeMismatchError,
)

__all__ = [
    "mle_ols_ar",
    "mle_ols_var",
    "permutation_statistics",
    "exact_conditional_likelihood",
    "enumeration_moments",
    "exact_cle",
    "ar1_fisher_info_numeric",
]


# Largest interior size enumerated exhaustively (8! = 40320 orderings).
_MAX_INTERIOR = 8
# Score tolerance (relative to 1 + |H_id|) and iteration cap of exact_cle.
_CLE_TOL = 1e-10
_CLE_MAX_ITERS = 200


def _lag_regression(X: np.ndarray, d: int):
    """Least squares of X[d:] on its d lags with the first d observations
    held fixed: the coefficients (lag k's block in rows (k-1) p to k p) and
    the residuals.  X is the 1-D series or the (n, p) data, d an int >= 1."""
    _check_count("d", d)
    n = len(X)
    if n < 2 * d + 2:
        raise InsufficientDataError(f"need n >= 2d + 2 = {2 * d + 2}, got {n}")
    Y = X[d:]
    design = np.column_stack([X[d - k : n - k] for k in range(1, d + 1)])
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise RankError("lag design matrix is rank deficient")
    coef, _, _, _ = np.linalg.lstsq(design, Y, rcond=None)
    return coef, Y - design @ coef


def mle_ols_ar(series: TimeSeries, d: int):
    """Conditional maximum likelihood for a zero-mean AR(d): least squares of
    x_t on its d lags with the first d observations held fixed, noise variance
    RSS / (n - d).  Returns classical and minimum-information records."""
    if series.p != 1:
        raise ShapeMismatchError(f"univariate series expected, got p={series.p}")
    phi, resid = _lag_regression(series.data[:, 0], d)
    sigma2 = float(np.sum(resid**2)) / (series.n - d)
    classical = gaussian.ClassicalARParams(phi=phi, sigma2=sigma2)
    return classical, gaussian.ard_to_mininfo(classical)


def mle_ols_var(series: TimeSeries, d: int):
    """Multivariate analog of :func:`mle_ols_ar`; the minimum-information
    record is filled for d = 1 (None otherwise)."""
    p = series.p
    coef, resid = _lag_regression(series.data, d)
    Sigma = resid.T @ resid / (series.n - d)
    A = np.stack([coef[k * p : (k + 1) * p].T for k in range(d)])
    classical = gaussian.ClassicalVARParams(A=A, Sigma=Sigma)
    mininfo = gaussian.var1_to_mininfo(classical) if d == 1 else None
    return classical, mininfo


def permutation_statistics(spec: DependenceSpec, series: TimeSeries) -> np.ndarray:
    """Sufficient statistics of every interior ordering, shape (m!, K), for
    an interior of at most 8 positions (:class:`EnumerationBudgetError`
    beyond).

    Row 0 is the identity ordering.  Each row physically permutes the data
    and recomputes the total from scratch (deliberately brute force)."""
    d, n = spec.order, series.n
    m = n - 2 * d
    if m < 1:
        raise InsufficientDataError(f"no interior positions (n={n}, d={d})")
    if m > _MAX_INTERIOR:
        raise EnumerationBudgetError(f"interior size {m} exceeds the enumeration budget {_MAX_INTERIOR}")
    base = np.arange(n)
    rows = []
    for perm in itertools.permutations(range(d, n - d)):
        order = base.copy()
        order[d : n - d] = perm
        permuted = TimeSeries(series.data[order], kinds=series.kinds)
        rows.append(total_statistic(spec, permuted))
    return np.vstack(rows)


def exact_conditional_likelihood(spec: DependenceSpec, series: TimeSeries, theta) -> float:
    """Probability of the observed ordering among all interior orderings,
    exp(theta . H_id) / sum over orderings of exp(theta . H), stabilized by
    log-sum-exp."""
    from scipy.special import logsumexp

    theta = np.asarray(theta, dtype=float)
    logits = permutation_statistics(spec, series) @ theta
    h_id = total_statistic(spec, series)
    return float(np.exp(float(h_id @ theta) - logsumexp(logits)))


def enumeration_moments(spec: DependenceSpec, series: TimeSeries, theta, stats: np.ndarray | None = None):
    """Exact mean and covariance of the sufficient statistic under the
    conditional law with weights theta."""
    from scipy.special import logsumexp

    theta = np.asarray(theta, dtype=float)
    if stats is None:
        stats = permutation_statistics(spec, series)
    logits = stats @ theta
    w = np.exp(logits - logsumexp(logits))
    mu = w @ stats
    centered = stats - mu
    cov = (centered * w[:, None]).T @ centered
    return mu, cov


def exact_cle(spec: DependenceSpec, series: TimeSeries) -> np.ndarray:
    """Maximizer of the exact conditional likelihood by Newton iteration on
    enumeration moments, from theta = 0.

    Raises :class:`NoSolutionFoundError` carrying the divergence direction
    when the observed statistic is extreme and the maximizer runs off to
    infinity."""
    K = spec.n_terms
    stats = permutation_statistics(spec, series)
    h_id = total_statistic(spec, series)
    if K == 1:
        # exact extremeness check: when the observed statistic is the overall
        # max (min), the conditional log-likelihood increases in theta without
        # bound and no finite maximizer exists
        hmax, hmin = float(stats.max()), float(stats.min())
        span = hmax - hmin
        if span > 0:
            if h_id[0] >= hmax - 1e-12 * (1.0 + abs(hmax)):
                raise NoSolutionFoundError(
                    "observed statistic is the maximum over orderings; the "
                    "conditional likelihood is unbounded",
                    direction=np.array([1.0]),
                )
            if h_id[0] <= hmin + 1e-12 * (1.0 + abs(hmin)):
                raise NoSolutionFoundError(
                    "observed statistic is the minimum over orderings; the "
                    "conditional likelihood is unbounded",
                    direction=np.array([-1.0]),
                )
    theta = np.zeros(K)
    scale = 1.0 + float(np.linalg.norm(h_id))
    for _ in range(_CLE_MAX_ITERS):
        mu, cov = enumeration_moments(spec, series, theta, stats=stats)
        score = h_id - mu
        if np.linalg.norm(score) < _CLE_TOL * scale:
            return theta
        try:
            step = np.linalg.solve(cov + 1e-12 * np.eye(K), score)
        except np.linalg.LinAlgError as err:
            raise NoSolutionFoundError(
                "conditional likelihood is flat or degenerate",
                direction=score / max(np.linalg.norm(score), 1e-300),
            ) from err
        theta = theta + step
        if np.linalg.norm(theta) > 1e4:
            raise NoSolutionFoundError(
                "conditional likelihood appears unbounded (observed statistic extreme)",
                direction=score / max(np.linalg.norm(score), 1e-300),
            )
    raise NoSolutionFoundError(
        "Newton did not converge within the iteration budget",
        direction=None,
    )


_GH_NODES = 64
# Relative central-difference step.  1e-3 with one Richardson level keeps the
# grid-worst error near 1e-8; plain 1e-4 steps hit the double-precision
# cancellation floor (~1e-6) on flat corners of the grid.
_FD_STEP = 1e-3


def ar1_fisher_info_numeric(theta: float, tau2: float) -> np.ndarray:
    """Fisher information of the AR(1) minimum-information parametrization by
    64-node Gauss-Hermite quadrature of the expected Hessian of the marginal
    normalizer, with second derivatives taken by Richardson-extrapolated
    central finite differences (relative step 1e-3).

    The normalizer is evaluated through the closed-form inverse transform,
    re-derived inline to stay independent of the transform module."""
    theta = float(theta)
    tau2 = float(tau2)
    z, w = np.polynomial.hermite.hermgauss(_GH_NODES)
    y = math.sqrt(2.0 * tau2) * z  # quadrature nodes for N(0, tau2)
    weights = w / math.sqrt(math.pi)

    def delta_bar(th, t2):
        # E over the fixed base law of the per-state normalizer delta(y)
        root = math.sqrt(1.0 + 4.0 * th * th * t2 * t2)
        s2 = 2.0 * t2 / (1.0 + root)
        phi = th * s2
        vals = (1.0 + phi * phi) * y**2 / (2.0 * s2) + 0.5 * math.log(2.0 * math.pi * s2)
        return float(weights @ vals)

    def second(fn, h):
        def at(step):
            return (fn(step) - 2.0 * fn(0.0) + fn(-step)) / step**2

        coarse, fine = at(h), at(h / 2.0)
        return (4.0 * fine - coarse) / 3.0

    def cross(fn, h1, h2):
        def at(a, b):
            return (fn(a, b) - fn(a, -b) - fn(-a, b) + fn(-a, -b)) / (4.0 * a * b)

        coarse, fine = at(h1, h2), at(h1 / 2.0, h2 / 2.0)
        return (4.0 * fine - coarse) / 3.0

    h_th = _FD_STEP * (1.0 + abs(theta))
    h_t2 = _FD_STEP * tau2
    g_theta = second(lambda s: delta_bar(theta + s, tau2), h_th)
    g_tau2 = second(lambda s: delta_bar(theta, tau2 + s), h_t2)
    g_cross = cross(lambda a, b: delta_bar(theta + a, tau2 + b), h_th, h_t2)
    return np.array([[g_theta, g_cross], [g_cross, g_tau2]])

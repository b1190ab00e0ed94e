"""Besag pseudo-likelihood estimation.

The pseudo-likelihood is a product over interior index pairs of the
probability that the observed ordering beats the ordering with that pair
transposed.  Each factor is a logistic term with constant response 1 and
explanatory vector equal to the statistic drop caused by the swap, so
fitting reduces to intercept-free, penalty-free logistic regression.

Three fitters:

* ``fit_naive``       all C(m, 2) pairs,
* ``fit_bipartition`` one random perfect matching of the interior (O(n) pairs),
* ``fit_online_sgd``  single-pair stochastic updates with a fixed budget.

The first two (and ``fit_pairs``, on an explicit pair list) share one
solver: damped Newton ascent with a minimum-norm step.  The objective is
concave with a K x K Hessian, and binary columns can make monomials
collinear, so the step solves the Newton system in the least-squares sense
and theta stays in the row space of the pair matrix.  The Newton pass and
the log pseudo-likelihood walk the pair matrix in cache-sized row slices
with plain numpy ufuncs (logistic weights from ``exp`` with the margin
clipped, the log-PL in softplus form), so no temporary grows with the pair
matrix.

Pairs are generated in a deterministic order (lexicographic, or derived from
the seed), so runs are reproducible and memory stays bounded regardless of n.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import expit  # noqa: F401  bench/tracing.py counts calls to mimm.ple.expit

from .core import (  # noqa: F401  window_statistics: bench/tracing.py wraps it here
    DependenceSpec,
    TimeSeries,
    swap_deltas,
    window_statistics,
)
from .exceptions import (
    InsufficientInteriorError,
    SeparationWarning,
    ShapeMismatchError,
)

__all__ = [
    "GdConfig",
    "SgdConfig",
    "PleResult",
    "n_interior_pairs",
    "log_pl",
    "fit_naive",
    "fit_bipartition",
    "fit_pairs",
    "fit_online_sgd",
    "spaced_matching",
    "aic_pic",
]


# Singular values of the Fisher matrix below this fraction of the largest
# are treated as zero when solving for the Newton step.
_RCOND = 1e-10
# Smallest fraction of a Newton step the line search tries.
_MIN_STEP = 2.0**-30
# Rows per slice in the logistic kernels: a slice's buffers (a few
# 128 KiB vectors) stay in cache while a block may hold millions of rows.
_SLICE_ROWS = 1 << 14
# Rows online SGD turns into Python lists at a time.
_SGD_LIST_ROWS = 2048
# fit_naive holds the all-pairs matrix in memory up to this many pairs * K
# entries; past it, every pass regenerates the pairs this many at a time.
# Both are read at call time, so a test can force the streamed path.
_MATERIALIZE_LIMIT = 20_000_000
_CHUNK_PAIRS = 500_000
# The Newton ascent stops with a SeparationWarning once |theta| exceeds this.
_THETA_CAP = 1e3


@dataclass(frozen=True)
class GdConfig:
    """Full-batch pseudo-likelihood solver settings.

    The solver is damped Newton ascent with a minimum-norm step; one epoch
    is one Newton pass over the pairs.  It stops when the norm of the
    per-pair-averaged gradient is at most ``tol``, after ``max_epochs``
    passes, or, with a :class:`SeparationWarning`, when the norm of theta
    exceeds a fixed divergence cap of 1e3.
    """

    max_epochs: int = 500
    tol: float = 1e-6
    track_objective: bool = False  # record the per-epoch objective (costs a pass)

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.tol <= 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")


@dataclass(frozen=True)
class SgdConfig:
    eta: float = 0.01
    n_iters: int = 10_000
    seed: int | None = None

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if self.n_iters < 1:
            raise ValueError(f"n_iters must be >= 1, got {self.n_iters}")


@dataclass(frozen=True, eq=False)
class PleResult:
    """Fit summary; ``log_pl`` is evaluated on the pair set the fitter used
    (all pairs for the naive fitter, so AIC/PIC are only filled in there).

    ``iterations`` counts Newton passes (epochs) or, for online SGD, updates.
    ``grad_norm`` is the final per-pair-averaged gradient norm of the Newton
    fitters.  Online SGD has no convergence test, so its ``converged`` and
    ``grad_norm`` are None.

    ``stages`` gives seconds per fit stage: ``pairs_s`` draws the pair
    indices and builds their statistics (summed over passes when they are
    regenerated), ``solver_s`` is the Newton or SGD loop without pair
    building, and ``log_pl_s`` the final log-PL evaluation without pair
    building.
    """

    theta: np.ndarray
    log_pl: float
    aic: float | None
    pic: float | None
    n_pairs_used: int
    wall_time_s: float
    converged: bool | None
    method: str
    objective_trace: tuple[float, ...] | None = None
    iterations: int | None = None
    grad_norm: float | None = None
    stages: dict[str, float] | None = None

    def __post_init__(self):
        if self.log_pl > 1e-12:
            raise ValueError(f"log pseudo-likelihood must be <= 0, got {self.log_pl}")

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "theta": [float(v) for v in self.theta],
            "log_pl": float(self.log_pl),
            "aic": None if self.aic is None else float(self.aic),
            "pic": None if self.pic is None else float(self.pic),
            "n_pairs_used": int(self.n_pairs_used),
            "wall_time_s": float(self.wall_time_s),
            "converged": None if self.converged is None else bool(self.converged),
            "method": self.method,
            "iterations": None if self.iterations is None else int(self.iterations),
            "grad_norm": None if self.grad_norm is None else float(self.grad_norm),
            "stages": None if self.stages is None else {k: float(v) for k, v in self.stages.items()},
        }


def _interior_bounds(spec: DependenceSpec, series: TimeSeries) -> tuple[int, int]:
    d = spec.order
    m = series.n - 2 * d
    if m < 2:
        raise InsufficientInteriorError(
            f"need at least 2 interior positions, got {m} (n={series.n}, d={d})"
        )
    return d, series.n - d  # half-open [lo, hi)


def n_interior_pairs(n: int, d: int) -> int:
    m = n - 2 * d
    return m * (m - 1) // 2 if m >= 2 else 0


def log_pl(theta, pairs) -> float:
    """Log pseudo-likelihood of the (N, K) pair matrix ``pairs``, whose rows
    are the explanatory vectors x = -swap_delta: the sum over rows of
    -log(1 + exp(-theta . x)), in the overflow-safe softplus form
    min(m, 0) - log1p(exp(-|m|)) of the margin m = theta . x, evaluated
    slice by slice."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    X = np.atleast_2d(pairs)
    if X.shape[1] != len(theta):
        raise ShapeMismatchError(f"pair width {X.shape[1]} != len(theta) {len(theta)}")
    if X.shape[0] == 0:
        raise ValueError("pairs must be nonempty")
    total, rows = 0.0, 0
    for start in range(0, X.shape[0], _SLICE_ROWS):
        Xb = X[start : start + _SLICE_ROWS]
        if Xb.shape[0] != rows:
            rows = Xb.shape[0]
            m, a = np.empty(rows), np.empty(rows)
        np.dot(Xb, theta, out=m)
        np.copysign(m, -1.0, out=a)  # -|m|
        np.exp(a, out=a)
        np.log1p(a, out=a)
        np.minimum(m, 0.0, out=m)
        m -= a
        total += m.sum()
    return float(total)


def _iter_pair_chunks(lo: int, hi: int, chunk: int):
    """All interior pairs (s1 < s2) in lexicographic order, in bounded chunks.

    A chunk holds whole rows (one s1 with every s2 > s1) and closes at the
    first row that brings it to at least ``chunk`` pairs."""
    first = np.arange(lo, hi - 1, dtype=np.intp)  # s1 of each row
    counts = hi - 1 - first  # pairs in each row
    ends = np.cumsum(counts)  # pairs up to and including each row
    r0 = 0
    while r0 < len(first):
        done = ends[r0 - 1] if r0 else 0
        r1 = min(r0 + 1 + int(np.searchsorted(ends[r0:], done + chunk)), len(first))
        s1 = np.repeat(first[r0:r1], counts[r0:r1])
        # s2 as a running sum of steps: +1 within a row, and at each row's
        # start the jump from the last row's hi - 1 down to s1 + 1
        s2 = np.ones(ends[r1 - 1] - done, dtype=np.intp)
        s2[ends[r0 : r1 - 1] - done] = first[r0 + 1 : r1] + 2 - hi
        s2[0] = first[r0] + 1
        np.cumsum(s2, out=s2)
        yield s1, s2
        r0 = r1


class _Ascent(NamedTuple):
    theta: np.ndarray
    log_pl: float
    converged: bool
    iterations: int
    grad_norm: float
    trace: tuple[float, ...] | None
    stages: dict[str, float]


class _PairBlocks:
    """Pair-statistic blocks for the Newton solver.  Calling the object
    yields one pass over the pairs: one block held in memory when
    ``materialize`` is set, otherwise blocks regenerated from ``chunks()``.
    ``seconds`` sums the time spent building blocks: drawing pair indices
    from ``chunks()`` and their statistics from :func:`swap_deltas`."""

    def __init__(self, spec: DependenceSpec, series: TimeSeries, chunks, materialize: bool):
        self._spec = spec
        self._series = series
        self._chunks = chunks
        self.seconds = 0.0
        self._held = None
        if materialize:
            held = list(self._generate())
            self._held = (held[0] if len(held) == 1 else np.vstack(held),)

    def _generate(self):
        start = time.perf_counter()
        for s1, s2 in self._chunks():
            X = swap_deltas(self._spec, self._series, s1, s2)
            np.negative(X, out=X)
            self.seconds += time.perf_counter() - start
            yield X
            start = time.perf_counter()
        self.seconds += time.perf_counter() - start

    def __call__(self):
        return self._held if self._held is not None else self._generate()


def _newton_pass(blocks, theta):
    """Gradient of :func:`log_pl` at theta and the Fisher matrix
    X' diag(p (1 - p)) X, with p = 1 / (1 + exp(-theta . x)).

    Each block is walked in slices of ``_SLICE_ROWS`` rows through buffers
    reused from slice to slice, so no temporary grows with the block.  Per
    slice q = 1 - p is taken as 1 / (1 + exp(m)), with the margin m clipped
    at 700 so exp stays finite, and one product of [q; X' diag(p q)] with
    the slice gives the gradient and Fisher rows together.
    """
    K = len(theta)
    acc, rows = None, 0
    for X in blocks():
        for start in range(0, X.shape[0], _SLICE_ROWS):
            Xb = X[start : start + _SLICE_ROWS]
            if Xb.shape[0] != rows:
                rows = Xb.shape[0]
                m, Z = np.empty(rows), np.empty((K + 1, rows))
                q, XW = Z[0], Z[1:]
            np.dot(Xb, theta, out=m)
            np.minimum(m, 700.0, out=m)
            np.exp(m, out=m)
            m += 1.0
            np.divide(1.0, m, out=q)
            np.subtract(1.0, q, out=m)
            m *= q
            np.multiply(Xb.T, m, out=XW)
            part = np.dot(Z, Xb)
            if acc is None:
                acc = part
            else:
                acc += part
    if acc is None:
        acc = np.zeros((K + 1, K))
    return acc[0], acc[1:]


def _newton_ascent(blocks: _PairBlocks, n_pairs: int, K: int, config: GdConfig) -> _Ascent:
    """Damped Newton ascent on the log pseudo-likelihood from theta = 0.

    ``blocks()`` yields the pair-statistic blocks afresh on every call: one
    call is one pass over the pairs, and one Newton pass is one epoch.  The
    step is the minimum-norm least-squares solution of  info step = grad,
    which keeps theta in the row space of the pair matrix when columns are
    collinear.  A full step is kept when the slope grad(theta + step) . step
    is still >= 0, since by concavity the objective cannot then have
    decreased; otherwise the step is halved until the objective is no lower
    than at theta.
    """

    def objective(theta):
        return sum(log_pl(theta, X) for X in blocks())

    start, pairs_start = time.perf_counter(), blocks.seconds
    theta = np.zeros(K)
    grad, info = _newton_pass(blocks, theta)
    epochs = 1
    value = objective(theta) if config.track_objective else None
    trace = [value] if config.track_objective else None
    converged = False
    while True:
        if math.sqrt(grad @ grad) / n_pairs <= config.tol:
            converged = True
            break
        if epochs >= config.max_epochs:
            break
        step = np.linalg.lstsq(info, grad, rcond=_RCOND)[0]
        new_grad, new_info = _newton_pass(blocks, theta + step)
        epochs += 1
        t, new_value = 1.0, None
        if new_grad @ step < 0.0:
            # past the maximum along the step: backtrack on the objective
            if value is None:
                value = objective(theta)
            new_value = objective(theta + step)
            while new_value < value and t > _MIN_STEP:
                t *= 0.5
                new_value = objective(theta + t * step)
            if new_value < value:
                break  # no ascent along the step
            if t < 1.0:
                if epochs >= config.max_epochs:
                    break  # no pass left for the gradient at the damped point
                new_grad, new_info = _newton_pass(blocks, theta + t * step)
                epochs += 1
        theta = theta + t * step
        grad, info, value = new_grad, new_info, new_value
        if trace is not None:
            if value is None:
                value = objective(theta)
            trace.append(value)
        if math.sqrt(theta @ theta) > _THETA_CAP:
            warnings.warn(
                "theta norm exceeded the divergence cap; data may be separable",
                SeparationWarning,
                stacklevel=3,
            )
            break
    solved, pairs_solved = time.perf_counter(), blocks.seconds
    if value is None:
        value = objective(theta)
    stages = {
        "pairs_s": blocks.seconds,
        "solver_s": solved - start - (pairs_solved - pairs_start),
        "log_pl_s": time.perf_counter() - solved - (blocks.seconds - pairs_solved),
    }
    return _Ascent(
        theta=theta,
        log_pl=value,
        converged=converged,
        iterations=epochs,
        grad_norm=math.sqrt(grad @ grad) / n_pairs,
        trace=None if trace is None else tuple(trace),
        stages=stages,
    )


def _result(fit: _Ascent, method: str, n_pairs: int, start: float, aic=None, pic=None) -> PleResult:
    return PleResult(
        theta=fit.theta,
        log_pl=fit.log_pl,
        aic=aic,
        pic=pic,
        n_pairs_used=n_pairs,
        wall_time_s=time.perf_counter() - start,
        converged=fit.converged,
        method=method,
        objective_trace=fit.trace,
        iterations=fit.iterations,
        grad_norm=fit.grad_norm,
        stages=fit.stages,
    )


def fit_naive(spec: DependenceSpec, series: TimeSeries, config: GdConfig = GdConfig()) -> PleResult:
    """Newton ascent with minimum-norm steps over all interior pairs,
    theta0 = 0.

    The (n_pairs, K) statistic matrix is held in memory when n_pairs * K is
    at most 2e7 entries; past that, pairs are regenerated 5e5 at a time on
    every pass and never held at once.
    """
    start = time.perf_counter()
    lo, hi = _interior_bounds(spec, series)
    K = spec.n_terms
    n_pairs = n_interior_pairs(series.n, spec.order)
    blocks = _PairBlocks(
        spec,
        series,
        lambda: _iter_pair_chunks(lo, hi, _CHUNK_PAIRS),
        materialize=n_pairs * K <= _MATERIALIZE_LIMIT,
    )
    fit = _newton_ascent(blocks, n_pairs, K, config)
    aic, pic = aic_pic(fit.log_pl, K, series.n, spec.order)
    return _result(fit, "ple-naive", n_pairs, start, aic, pic)


def fit_bipartition(
    spec: DependenceSpec,
    series: TimeSeries,
    seed=None,
    config: GdConfig = GdConfig(),
) -> PleResult:
    """Pseudo-likelihood on a uniformly random perfect matching of the
    interior: floor(m / 2) disjoint pairs, O(n) statistics, fitted by the
    same minimum-norm Newton ascent as :func:`fit_naive`.

    With an odd interior one position is left unpaired.
    """
    start = time.perf_counter()
    lo, hi = _interior_bounds(spec, series)
    rng = np.random.default_rng(seed)
    interior = rng.permutation(np.arange(lo, hi, dtype=np.intp))
    n_pairs = (hi - lo) // 2
    paired = interior[: 2 * n_pairs].reshape(n_pairs, 2)
    blocks = _PairBlocks(
        spec, series, lambda: ((paired.min(axis=1), paired.max(axis=1)),), materialize=True
    )
    fit = _newton_ascent(blocks, n_pairs, spec.n_terms, config)
    return _result(fit, "ple-bipartition", n_pairs, start)


def fit_pairs(
    spec: DependenceSpec,
    series: TimeSeries,
    s1,
    s2,
    config: GdConfig = GdConfig(),
) -> PleResult:
    """Pseudo-likelihood restricted to an explicit list of interior pairs.

    Used by model selection, which evaluates every candidate spec on one
    shared pair set (swap neighborhoods kept disjoint) so that the logistic
    factors are close to independent and information criteria stay
    calibrated across candidates.
    """
    start = time.perf_counter()
    _interior_bounds(spec, series)
    blocks = _PairBlocks(spec, series, lambda: ((s1, s2),), materialize=True)
    (X,) = blocks()
    n_pairs = X.shape[0]
    fit = _newton_ascent(blocks, n_pairs, spec.n_terms, config)
    return _result(fit, "ple-pairs", n_pairs, start)


def fit_online_sgd(spec: DependenceSpec, series: TimeSeries, config: SgdConfig = SgdConfig()) -> PleResult:
    """Online SGD: per iteration one uniform interior pair and the update
    theta += eta * (1 - sigmoid(theta . x)) * x (the logistic gradient for a
    constant response of 1).  Fixed iteration budget, no convergence test.

    Pair statistics do not depend on theta, so they are precomputed in
    vectorized chunks; the update sweep itself is strictly sequential.
    """
    start = time.perf_counter()
    lo, hi = _interior_bounds(spec, series)
    m = hi - lo
    K = spec.n_terms
    rng = np.random.default_rng(config.seed)

    a = rng.integers(0, m, size=config.n_iters)
    b = rng.integers(0, m - 1, size=config.n_iters)
    b = b + (b >= a)
    s1 = np.minimum(a, b).astype(np.intp) + lo
    s2 = np.maximum(a, b).astype(np.intp) + lo

    theta = [0.0] * K
    eta = config.eta
    used = np.empty((config.n_iters, K))
    chunk = 200_000
    pairs_s = 0.0
    loop_start = time.perf_counter()
    for startrow in range(0, config.n_iters, chunk):
        stop = min(startrow + chunk, config.n_iters)
        pairs_start = time.perf_counter()
        X = -swap_deltas(spec, series, s1[startrow:stop], s2[startrow:stop])
        pairs_s += time.perf_counter() - pairs_start
        used[startrow:stop] = X
        # the scalar loop reads Python floats far faster than numpy
        # scalars; rows are converted a few at a time so that few list
        # objects are alive at once (16384 at a time raised peak RSS 2 MiB)
        for sl in range(0, stop - startrow, _SGD_LIST_ROWS):
            for row in X[sl : sl + _SGD_LIST_ROWS].tolist():
                margin = 0.0
                for k in range(K):
                    margin += theta[k] * row[k]
                if margin < -36.0:  # sigmoid underflow; also keeps exp() in range
                    w = eta
                else:
                    w = eta * (1.0 - 1.0 / (1.0 + math.exp(-margin)))
                for k in range(K):
                    theta[k] += w * row[k]

    theta_arr = np.asarray(theta)
    solved = time.perf_counter()
    final_log_pl = log_pl(theta_arr, used)
    stages = {
        "pairs_s": pairs_s,
        "solver_s": solved - loop_start - pairs_s,
        "log_pl_s": time.perf_counter() - solved,
    }
    return PleResult(
        theta=theta_arr,
        log_pl=final_log_pl,
        aic=None,
        pic=None,
        n_pairs_used=config.n_iters,
        wall_time_s=time.perf_counter() - start,
        converged=None,
        method="ple-sgd",
        iterations=config.n_iters,
        stages=stages,
    )


def spaced_matching(n: int, d: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Random matching of interior positions thinned to spacing 2d + 1.

    Each retained position's swap neighborhood (the data span [s - d, s + d]
    touched by its windows) is disjoint from every other retained position's,
    so the pseudo-likelihood factors built from the matched pairs are nearly
    independent.  This keeps information-criterion penalties calibrated when
    ranking dependence specs; see :func:`fit_pairs`.
    """
    rng = np.random.default_rng(seed)
    positions = np.arange(d, n - d, 2 * d + 1, dtype=np.intp)
    if len(positions) < 2:
        raise InsufficientInteriorError(
            f"series too short for a spaced matching (n={n}, d={d})"
        )
    perm = rng.permutation(positions)
    k = len(perm) // 2
    paired = perm[: 2 * k].reshape(k, 2)
    return paired.min(axis=1), paired.max(axis=1)


def aic_pic(log_pl_at_opt: float, K: int, n: int, d: int) -> tuple[float, float]:
    """Information criteria for a pseudo-likelihood fit:

        AIC = -2 log L + 2 K
        PIC = -2 log L + K * log C(n - 2d, 2)
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    m = n - 2 * d
    if m < 2:
        raise ValueError(f"need n - 2d >= 2, got {m}")
    n_pairs = math.comb(m, 2)
    aic = -2.0 * log_pl_at_opt + 2.0 * K
    pic = -2.0 * log_pl_at_opt + K * math.log(n_pairs)
    return aic, pic

"""Besag pseudo-likelihood estimation.

The pseudo-likelihood is a product over interior index pairs of the
probability that the observed ordering beats the ordering with that pair
transposed.  Each factor is a logistic term with constant response 1 and
explanatory vector equal to the statistic drop caused by the swap, so
fitting reduces to intercept-free, penalty-free logistic regression.

Four fitters:

* ``fit_naive``       all C(m, 2) pairs,
* ``fit_bipartition`` one random perfect matching of the interior (O(n) pairs),
* ``fit_pairs``       an explicit pair list,
* ``fit_online_sgd``  single-pair stochastic updates with a fixed budget.

The first three differ only in the pairs they draw: one body (``_fit``)
builds the pair statistics and fits them with ``_newton``, the package's
one Newton loop, which ``oracle.exact_cle`` also runs: damped ascent with
a minimum-norm step (binary columns can make monomials collinear), solved
within the range of the first pass's information by one LU solve per step,
whose overshooting steps a self-concordance bound (``_certificate``) keeps
or sends to backtracking.  Theta starts from a given start (``fit_pairs``
takes one: ``select_specs`` passes the previous split's converged theta),
else at zero, except on a design of at least 64 * 4096 pairs: that one
first fits every 64th of its pairs and starts from the result if that
pilot converged.  The Newton pass and the log pseudo-likelihood walk the
pair blocks in cache-sized row slices with plain numpy ufuncs (logistic
weights from ``exp`` with the margin clipped, the log-PL in softplus
form), so no temporary grows with the pair matrix.

Online SGD builds its whole budget's pair statistics in one vectorized
call; only the update sweep is sequential, and it runs on Python floats:
one float swept over the flat column when K = 1, a row sweep otherwise.
Each update takes its logistic weight from one exponential,
eta / (1 + exp(margin)), and skips only a margin past exp's range.  Both
sweeps do the operations of a plain per-row loop over the numpy pair matrix
in the same order, so theta is bitwise equal to that loop's (see
``fit_online_sgd``).

Pairs are generated in a deterministic order (lexicographic, or derived from
the seed), so runs are reproducible.  Each Newton fitter builds one
``_PairDesign``: all pairs for ``fit_naive`` (chunks of whole rows from
``core._all_pairs_blocks``, built by row tiles with no pair index arrays),
or a pair list, cut into chunks of ``_CHUNK_PAIRS`` pairs.  The design holds
the memory policy: within ``_MATERIALIZE_LIMIT`` it is held as one block per
chunk, past it regenerated on every pass, so memory stays bounded regardless
of n.  A pilot fits its ``every(64)``.  Matchings are drawn here
(``_matching``, ``spaced_matching``); ``fit_online_sgd`` takes its pairs
from ``core._uniform_pairs``.

Model selection: ``select_specs`` ranks candidate dependence specs by
``aic_pic`` on one shared design, every spec padded to the largest order and
fitted by ``fit_pairs`` on ``spaced_matching`` pair sets whose swap
neighborhoods are disjoint, each split started from the previous converged
one; ``SELECT_CONFIG`` holds its solver defaults.
"""

from __future__ import annotations

import math
import time
import warnings
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .core import (  # noqa: F401  window_statistics: bench/tracing.py wraps it here
    DependenceSpec,
    TimeSeries,
    _all_pairs_blocks,
    _check_count,
    _check_finite_statistics,
    _check_identified,
    _check_positive,
    _interior_bounds,
    _uniform_pairs,
    swap_deltas,
    window_statistics,
)
from .exceptions import (
    InsufficientDataError,
    InsufficientInteriorError,
    MimmError,
    ParameterDomainError,
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
    "SELECT_CONFIG",
    "SelectRow",
    "select_specs",
]


def __getattr__(name: str):
    """Bind ``expit`` on first lookup, so importing this module loads no
    scipy.  Nothing here calls it: bench/tracing.py wraps ``mimm.ple.expit``
    to count Newton passes.  The hook goes when ROADMAP item 1 drops that
    tracer target."""
    if name == "expit":
        from scipy.special import expit

        globals()["expit"] = expit
        return expit
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Eigenvalues of the Fisher matrix at or below this fraction of the largest
# are treated as zero when solving for the Newton step (lstsq's rcond).
_RCOND = 1e-10
# Smallest fraction of a Newton step the line search tries.
_MIN_STEP = 2.0**-30
# Rows per slice in the logistic kernels: a slice's buffers (a few
# 128 KiB vectors) stay in cache while a block may hold millions of rows.
_SLICE_ROWS = 1 << 14
# Rows online SGD turns into Python lists at a time.
_SGD_LIST_ROWS = 2048
# Largest argument this module passes to exp (and _psi to expm1): e^700 is
# about 1e304, so the result stays finite, and past it a logistic weight
# 1 / (1 + e^m) is below e^-700, too small to move theta.
_EXP_MAX = 700.0
# A pair design is held in memory up to this many pairs * K statistics;
# past it, every pass regenerates it.  The Newton fitters build their pairs
# about this many at a time.  Both are read at call time, so a test can
# force the streamed path.
_MATERIALIZE_LIMIT = 20_000_000
_CHUNK_PAIRS = 500_000
# The Newton ascent stops once |theta| exceeds this.
_THETA_CAP = 1e3
# A design of at least _PILOT_STRIDE * _PILOT_MIN_PAIRS pairs first fits
# every _PILOT_STRIDE-th of its pairs and starts its Newton ascent there.
_PILOT_STRIDE = 64
_PILOT_MIN_PAIRS = 4096


@dataclass(frozen=True)
class GdConfig:
    """Full-batch pseudo-likelihood solver settings.

    The solver is damped Newton ascent with a minimum-norm step; one epoch
    is one Newton pass over the pairs.  It starts from the ``start`` given
    to :func:`fit_pairs`, else at theta = 0, or, on a design of at least
    64 * 4096 pairs, where a pilot fit on every 64th pair with these same
    settings converged.  It stops when the norm of the per-pair-averaged
    gradient is at most ``tol`` (on a design of more than 16384 pairs, also
    when a self-concordance bound on that norm at the next full Newton step
    is, which saves the pass there), after ``max_epochs`` passes, or when
    the norm of theta exceeds a fixed divergence cap of 1e3, where only the
    fit the caller asked for, not a pilot, warns :class:`SeparationWarning`.
    ``max_epochs`` must be an integer >= 1 and ``tol`` a real finite and
    > 0, or else :class:`ParameterDomainError`.
    """

    max_epochs: int = 500
    tol: float = 1e-6

    def __post_init__(self):
        _check_count("max_epochs", self.max_epochs)
        _check_positive("tol", self.tol)


@dataclass(frozen=True)
class SgdConfig:
    """Online SGD settings: the fixed step size ``eta``, the update budget
    ``n_iters`` (one uniformly drawn pair per update) and the pair-draw
    ``seed``.  ``eta`` must be a real finite and > 0 and ``n_iters`` an
    integer >= 1, or construction raises :class:`ParameterDomainError`;
    there is no convergence test."""

    eta: float = 0.01
    n_iters: int = 10_000
    seed: int | None = None

    def __post_init__(self):
        _check_positive("eta", self.eta)
        _check_count("n_iters", self.n_iters)


@dataclass(frozen=True, eq=False)
class PleResult:
    """Fit summary; ``log_pl`` is evaluated on the pair set the fitter used
    (all pairs for the naive fitter, so AIC/PIC are only filled in there).

    ``iterations`` counts Newton passes (epochs) or, for online SGD, updates.
    ``grad_norm`` is the final per-pair-averaged gradient norm of the Newton
    fitters, or, when the fit ended on the self-concordance certificate
    without a pass at the returned theta, that certificate's bound on it,
    which is at least the exact norm up to the rounding of its sum.  A
    converged fit reports at most ``tol`` either way.  Online SGD has no
    convergence test, so its ``converged`` and ``grad_norm`` are None.
    ``theta_trace`` holds the Newton fitters' iterates, from the start point
    to the returned theta, one per accepted step; online SGD records none.

    ``stages`` gives seconds per fit stage: ``pairs_s`` draws the pairs
    and builds their statistics (summed over passes when they are
    regenerated), ``solver_s`` is the Newton or SGD loop without pair
    building, and ``log_pl_s`` the final log-PL evaluation without pair
    building.  The Newton fitters also report ``pilot_s``: building the
    statistics of every 64th pair and fitting them for the start on a large
    design, 0.0 when the design is too small for a pilot.

    `mimm fit` writes :meth:`to_dict`, built from the fields, so a field
    added here or in a subclass is written with no change to the CLI.
    """

    theta: np.ndarray
    log_pl: float
    aic: float | None
    pic: float | None
    n_pairs_used: int
    wall_time_s: float
    converged: bool | None
    method: str
    theta_trace: tuple[tuple[float, ...], ...] | None = None
    iterations: int | None = None
    grad_norm: float | None = None
    stages: dict[str, float] | None = None

    def __post_init__(self):
        if self.log_pl > 1e-12:
            raise ValueError(f"log pseudo-likelihood must be <= 0, got {self.log_pl}")

    def to_dict(self) -> dict:
        """The ``fit`` record: every field but ``theta_trace``, arrays as
        lists, plus ``schema_version``."""
        record = {name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in asdict(self).items()}
        del record["theta_trace"]
        return {"schema_version": 1, **record}


def n_interior_pairs(n: int, d: int) -> int:
    """C(n - 2d, 2), the number of interior pairs of a length-n series
    under order d (0 below two interior positions); ``n`` and ``d`` are
    integers >= 1 (else ParameterDomainError)."""
    _check_count("n", n)
    _check_count("d", d)
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
        np.abs(m, out=a)
        np.negative(a, out=a)  # -|m|, bitwise copysign(m, -1.0), at a third of its cost
        np.exp(a, out=a)
        np.log1p(a, out=a)
        np.minimum(m, 0.0, out=m)
        m -= a
        total += m.sum()
    return float(total)


class _PairDesign:
    """The pairs of one Newton fit: every interior pair, in
    ``core._all_pairs_blocks`` order, when ``s1`` is None, else the listed
    pairs (s1[i], s2[i]); of those, pairs 0, stride, 2 stride, ...,
    ``n_pairs`` in all.  Calling it yields one pass of minus-swap-delta
    blocks of about ``_CHUNK_PAIRS`` pairs (all pairs at a stride above 1:
    one block), built on the first pass and held up to ``_MATERIALIZE_LIMIT``
    statistics (n_pairs * K), else regenerated on every pass; ``seconds``
    sums the time spent building them."""

    def __init__(self, spec: DependenceSpec, series: TimeSeries, s1=None, s2=None, stride: int = 1):
        _interior_bounds(spec, series)
        if s1 is None:
            count = n_interior_pairs(series.n, spec.order)
        else:
            # kept as given: swap_deltas checks the positions of each block
            if np.ndim(s1) != 1 or np.shape(s1) != np.shape(s2):
                raise ShapeMismatchError("s1 and s2 must be 1-d arrays of equal length")
            count = len(s1)
        self.spec, self.series, self._s1, self._s2, self._stride = spec, series, s1, s2, stride
        self.n_pairs = -(-count // stride)
        self.seconds = 0.0
        self._held = self._max_row_norm = None

    def every(self, k: int) -> _PairDesign:
        """Pairs 0, k, 2 k, ... of this design, as a new design."""
        return type(self)(self.spec, self.series, self._s1, self._s2, self._stride * k)

    def _deltas(self):
        if self._s1 is None:
            return _all_pairs_blocks(self.spec, self.series, _CHUNK_PAIRS, self._stride)
        a, b = self._s1[:: self._stride], self._s2[:: self._stride]
        return (
            swap_deltas(self.spec, self.series, a[i : i + _CHUNK_PAIRS], b[i : i + _CHUNK_PAIRS])
            for i in range(0, len(a), _CHUNK_PAIRS)
        )

    def _generate(self, measure: bool):
        start = time.perf_counter()
        top = 0.0
        for X in self._deltas():
            np.negative(X, out=X)
            if measure:
                top = max(top, _largest_square_norm(X))
            self.seconds += time.perf_counter() - start
            yield X
            start = time.perf_counter()
        self.seconds += time.perf_counter() - start
        if measure:
            self._max_row_norm = math.sqrt(top)

    def __call__(self):
        if self._held is None and self.n_pairs * self.spec.n_terms <= _MATERIALIZE_LIMIT:
            self._held = tuple(self._generate(measure=False))
        if self._held is not None:
            return self._held
        return self._generate(measure=self._max_row_norm is None)

    def max_row_norm(self) -> float:
        """Largest Euclidean norm of a pair row.  A streamed design takes it
        slice by slice during its first complete sweep; a held one on the
        first call, from its held blocks."""
        if self._max_row_norm is None:
            top = max((_largest_square_norm(X) for X in self()), default=0.0)
            self._max_row_norm = math.sqrt(top)
        return self._max_row_norm


def _largest_square_norm(X) -> float:
    """Largest squared row norm of the block X, slice by slice, the squares
    added column by column: over all pairs at n=1000 on a 2-vCPU host that
    took 0.38 ms against 0.8 ms for einsum's per-row loop with AR(1), and
    1.1 against 2.4 ms with AR(2)."""
    top = 0.0
    for start in range(0, X.shape[0], _SLICE_ROWS):
        Xb = X[start : start + _SLICE_ROWS]
        sums = np.square(Xb[:, 0])
        for k in range(1, Xb.shape[1]):
            sums += np.square(Xb[:, k])
        top = max(top, float(sums.max()))
    return top


def _newton_pass(blocks, theta):
    """Gradient of :func:`log_pl` at theta and the Fisher matrix
    X' diag(p (1 - p)) X, with p = 1 / (1 + exp(-theta . x)).

    Each block is walked in slices of ``_SLICE_ROWS`` rows through buffers
    reused from slice to slice, so no temporary grows with the block.  Per
    slice q = 1 - p is taken as 1 / (1 + exp(m)), with the margin m clipped
    at ``_EXP_MAX`` so exp stays finite, and one product of
    [q; X' diag(p q)] with the slice gives the gradient and Fisher rows
    together.
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
            np.minimum(m, _EXP_MAX, out=m)
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


def _psi(rho: float) -> float:
    """(e^rho - 1 - rho) / rho^2 for rho >= 0: 1/2 at 0, increasing, 1 at
    rho ~ 1.7933; its series near 0, infinite past exp's range."""
    if rho < 1e-3:
        return 0.5 + rho * (1.0 / 6.0 + rho * (1.0 / 24.0 + rho / 120.0))
    if rho > _EXP_MAX:
        return math.inf
    return (math.expm1(rho) - rho) / (rho * rho)


def _certificate(grad, info, step, max_row_norm: float) -> tuple[bool, float]:
    """What the gradient g and Fisher matrix at theta prove about the step
    s from theta, given the largest pair row norm R of the design: whether
    the step does not lower the log-PL, and a bound on the norm of the
    exact gradient at theta + s.

    Each pair's term l(m) = -log(1 + exp(-m)) has |l'''| <= |l''|, so the
    log-PL is generalized self-concordant (Bach 2010, Electron. J. Statist.
    4:384).  Along s each margin moves by t = x . s, at most rho = |s| R in
    size, and summing Bach's bound over the pairs gives

        log_pl(theta + s) >= log_pl(theta) + g . s - psi(rho) s' info s.

    The step ascends when that guaranteed gain is at least 1e-8 g . s,
    which leaves room for the rounding of g . s and s' info s.  For a
    Newton step (g . s = s' info s) that holds for rho below about 1.7933.

    A pair's weight w(m) = -l''(m) satisfies w(m + t) <= w(m) e^|t|, so the
    Taylor remainder of l' along t is at most w psi(|t|) t^2; weighting
    each by |x| <= R and summing gives

        |g(theta + s)| <= |g - info s| + R psi(rho) s' info s.
    """
    gain = float(grad @ step)
    curvature = float(step @ info @ step)
    rho = math.sqrt(step @ step) * max_row_norm
    psi = _psi(rho)
    residual = grad - info @ step
    bound = math.sqrt(residual @ residual) + max_row_norm * psi * curvature
    return gain - psi * curvature >= 1e-8 * gain, bound


class _Ascent(NamedTuple):
    """How :func:`_newton` ended; ``value`` is the objective at ``theta``,
    None when the ascent did not evaluate it there."""

    theta: np.ndarray
    passes: int
    grad_norm: float
    converged: bool
    capped: bool
    trace: tuple[tuple[float, ...], ...]
    value: float | None


def _range_basis(info):
    """An orthonormal basis of the range of the symmetric positive
    semidefinite ``info``: its eigenvectors whose eigenvalues exceed
    ``_RCOND`` times the largest, lstsq's rcond rule (none for a zero
    matrix), or None when that is every one, the identity."""
    values, vectors = np.linalg.eigh(info)
    kept = values > _RCOND * values[-1]
    return None if kept.all() else vectors[:, kept]


def _range_step(basis, info, grad):
    """The solution of info step = grad within the span of ``basis`` (of
    :func:`_range_basis`): while that span is the range of ``info``, the
    minimum-norm least-squares solution, with one LU solve of the
    restricted system.  Raises ``LinAlgError`` when the restricted
    information is singular."""
    if basis is None:
        return np.linalg.solve(info, grad)
    return basis @ np.linalg.solve(basis.T @ info @ basis, basis.T @ grad)


def _newton(pass_fn, value_fn, theta, first_pass, config, scale, row_norm=None, certify_early=False) -> _Ascent:
    """Damped Newton ascent on a concave objective ``value_fn`` from theta;
    ``pass_fn`` gives the gradient and the information (the negated
    Hessian), and ``first_pass`` is its value at theta.  It stops converged
    once |gradient| / ``scale`` is at most ``config.tol``, or after
    ``config.max_epochs`` passes (the first included), when no damped step
    ascends, or ``capped`` when |theta| exceeds ``_THETA_CAP``.

    The step is the minimum-norm least-squares solution of info step =
    grad, so theta stays in the row space of a singular information: the
    range of the first pass's information is taken once
    (:func:`_range_basis`) and each step solves info restricted to it
    (:func:`_range_step`), with the basis taken again from the current
    information only when that solve finds it singular.  A full step is
    kept when the slope grad(theta + step) . step is still
    >= 0 (by concavity the objective cannot then have decreased), or when
    :func:`_certificate`, given the design's largest row norm
    ``row_norm()``, proves it does not lower the objective; otherwise it is
    halved until the objective is no lower than at theta.  With
    ``certify_early`` the certificate is also taken before the pass at
    theta + step; when it proves the step ascends and bounds the gradient
    there by ``tol`` times ``scale``, the ascent takes the step and stops
    without the pass, with the bound as the gradient norm.  The pass would
    have stopped there too unless the bound lies within rounding of ``tol``.
    """
    grad, info = first_pass
    grad_norm = math.sqrt(grad @ grad) / scale
    basis = _range_basis(info)
    passes = 1
    thetas, value = [tuple(theta.tolist())], None
    converged = capped = False
    while True:
        if grad_norm <= config.tol:
            converged = True
            break
        if passes >= config.max_epochs:
            break
        try:
            step = _range_step(basis, info, grad)
        except np.linalg.LinAlgError:  # the information lost a direction of the basis
            basis = _range_basis(info)
            step = _range_step(basis, info, grad)
        ascends, bound = None, math.inf  # the certificate, taken at most once per step
        if certify_early:
            ascends, bound = _certificate(grad, info, step, row_norm())
        t, new_value = 1.0, None
        if ascends and bound / scale <= config.tol:
            grad_norm = bound / scale  # proven, with no pass at theta + step
        else:
            new_grad, new_info = pass_fn(theta + step)
            passes += 1
            overshoots = new_grad @ step < 0.0
            if overshoots and ascends is None and row_norm is not None:
                ascends = _certificate(grad, info, step, row_norm())[0]
            if overshoots and not ascends:
                # past the maximum along the step: backtrack on the objective
                if value is None:
                    value = value_fn(theta)
                new_value = value_fn(theta + step)
                while new_value < value and t > _MIN_STEP:
                    t *= 0.5
                    new_value = value_fn(theta + t * step)
                if new_value < value:
                    break  # no ascent along the step
                if t < 1.0:
                    if passes >= config.max_epochs:
                        break  # no pass left for the gradient at the damped point
                    new_grad, new_info = pass_fn(theta + t * step)
                    passes += 1
            grad, info = new_grad, new_info
            grad_norm = math.sqrt(grad @ grad) / scale
        theta = theta + t * step
        thetas.append(tuple(theta.tolist()))
        value = new_value
        if math.sqrt(theta @ theta) > _THETA_CAP:
            capped = True
            break
    return _Ascent(theta, passes, grad_norm, converged, capped, tuple(thetas), value)


def _fit(design: _PairDesign, config: GdConfig, method: str, requested: bool = True, start=None) -> PleResult:
    """Pseudo-likelihood fit on the pairs of ``design`` by :func:`_newton`,
    the gradient norm taken per pair.  An empty design raises
    :class:`InsufficientDataError`; a first pass whose gradient norm or
    Fisher trace is not finite, :class:`ParameterDomainError` before any
    solve, naming the first term whose pair statistics
    ``core._check_finite_statistics`` refuses, else the term whose sums
    overflow.  A first pass whose Fisher trace is exactly zero checks the
    design's blocks once, and a design with no nonzero pair statistic
    raises :class:`InsufficientDataError`.  The ascent starts from
    ``start`` when one is given.  Else a design of at least
    ``_PILOT_STRIDE * _PILOT_MIN_PAIRS`` pairs starts from its pilot's
    theta if that converged: this fit on ``design.every(_PILOT_STRIDE)``,
    not ``requested``, so silent on the cap, its passes not counted; any
    other starts from zero.  A requested fit stopped on the cap warns
    :class:`SeparationWarning` at the fitter's caller.  Only a design of
    more than ``_SLICE_ROWS`` pairs certifies early: on smaller ones the
    K x K work and the row-norm sweep cost more than the pass they save.
    """
    began = time.perf_counter()
    n_pairs = design.n_pairs
    if n_pairs == 0:
        raise InsufficientDataError("the pair design is empty")

    def objective(theta):
        return sum(log_pl(theta, X) for X in design())

    pilot_s = 0.0
    if start is None and n_pairs >= _PILOT_STRIDE * _PILOT_MIN_PAIRS:
        pilot = _fit(design.every(_PILOT_STRIDE), config, method, False)  # not requested: no warning
        if pilot.converged:
            start = pilot.theta
        pilot_s = pilot.wall_time_s
    theta = np.zeros(design.spec.n_terms) if start is None else start
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused just below
        grad, info = _newton_pass(design, theta)
        if not (math.isfinite(grad @ grad) and math.isfinite(info.trace())):
            for X in design():  # name the first term whose statistics are out of range
                _check_finite_statistics(design.spec, X, "pair statistics")
            term = design.spec.terms[int(np.argmax(np.abs(grad) + np.diagonal(info)))].label()
            raise ParameterDomainError(
                f"pair sums of term {term} overflow; standardize the series first (core.standard_scale)"
            )
    if info.trace() == 0.0:  # all statistics zero, or too small to square: only then scan them
        _check_identified(design())
    ascent = _newton(
        partial(_newton_pass, design), objective, theta, (grad, info), config, n_pairs,
        design.max_row_norm, n_pairs > _SLICE_ROWS,
    )
    if ascent.capped and requested:
        warnings.warn("theta norm exceeded the divergence cap; data may be separable", SeparationWarning, stacklevel=3)
    solved, pairs_solved = time.perf_counter(), design.seconds
    value = objective(ascent.theta) if ascent.value is None else ascent.value
    stages = {
        "pairs_s": design.seconds,
        "solver_s": solved - began - pilot_s - pairs_solved,
        "log_pl_s": time.perf_counter() - solved - (design.seconds - pairs_solved),
        "pilot_s": pilot_s,
    }
    return PleResult(
        theta=ascent.theta,
        log_pl=value,
        aic=None,
        pic=None,
        n_pairs_used=n_pairs,
        wall_time_s=time.perf_counter() - began,
        converged=ascent.converged,
        method=method,
        theta_trace=ascent.trace,
        iterations=ascent.passes,
        grad_norm=ascent.grad_norm,
        stages=stages,
    )


def fit_naive(spec: DependenceSpec, series: TimeSeries, config: GdConfig = GdConfig()) -> PleResult:
    """Newton ascent with minimum-norm steps over all interior pairs, with
    AIC/PIC filled in.  From 64 * 4096 pairs (n of about 726 at order 1)
    the ascent starts from a converged pilot fit on every 64th pair,
    otherwise from theta = 0.

    The design is a :class:`_PairDesign` of all pairs: chunks of whole
    rows of about 5e5 pairs, and for the pilot one strided block.  Up to
    2e7 statistics (n_pairs * K) the blocks are built once and held; past
    that, every pass regenerates them one chunk at a time, and the pair
    matrix is never held at once.
    """
    fit = _fit(_PairDesign(spec, series), config, "ple-naive")
    aic, pic = aic_pic(fit.log_pl, spec.n_terms, series.n, spec.order)
    return replace(fit, aic=aic, pic=pic)


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
    lo, hi = _interior_bounds(spec, series)
    s1, s2 = _matching(np.random.default_rng(seed), np.arange(lo, hi, dtype=np.intp))
    return _fit(_PairDesign(spec, series, s1, s2), config, "ple-bipartition")


def fit_pairs(
    spec: DependenceSpec,
    series: TimeSeries,
    s1,
    s2,
    config: GdConfig = GdConfig(),
    start=None,
) -> PleResult:
    """Pseudo-likelihood restricted to an explicit list of interior pairs.

    Used by :func:`select_specs`, which evaluates every candidate spec on
    one shared pair set (swap neighborhoods kept disjoint) so that the
    logistic factors are close to independent and information criteria stay
    calibrated across candidates.  An empty list raises
    :class:`InsufficientDataError`, lists not 1-d and of equal length
    :class:`ShapeMismatchError`, and non-integer positions (a bool too)
    :class:`BoundaryViolationError`.

    The Newton ascent starts from ``start`` when it is given, in place of
    zero or a pilot fit: ``spec.n_terms`` finite values (else
    :class:`ShapeMismatchError` or :class:`ParameterDomainError`), copied.
    ``select_specs`` passes each split the theta of the spec's previous
    split when that fit converged.
    """
    if start is not None:
        start = np.array(start, dtype=float)
        if start.shape != (spec.n_terms,):
            raise ShapeMismatchError(f"start has shape {start.shape}, need ({spec.n_terms},)")
        if not np.all(np.isfinite(start)):
            raise ParameterDomainError(f"start must be finite, got {start.tolist()}")
    return _fit(_PairDesign(spec, series, s1, s2), config, "ple-pairs", start=start)


def fit_online_sgd(spec: DependenceSpec, series: TimeSeries, config: SgdConfig = SgdConfig()) -> PleResult:
    """Online SGD: per iteration one uniform interior pair and the update
    theta += eta * (1 - sigmoid(theta . x)) * x (the logistic gradient for a
    constant response of 1).  Fixed iteration budget, no convergence test.
    The pairs come from ``core._uniform_pairs``, as the exchange chain's do.

    The weight eta * (1 - sigmoid(m)) of margin m = theta . x is taken from
    one exponential, eta / (1 + exp(m)): a few roundings from the exact
    value at every margin, and exactly eta once exp(m) is below half an ulp
    of 1 (m below about -36.7), with no branch for it.
    An update with m at or past ``_EXP_MAX`` is skipped; its weight is below
    eta * e^-700, and exp would overflow further on.  Pair statistics whose
    squares overflow (``core._check_finite_statistics``) raise
    :class:`ParameterDomainError` before any update, and statistics that
    are all zero :class:`InsufficientDataError`: no update would move
    theta from 0.

    Pair statistics do not depend on theta, so the whole budget's are
    computed in one vectorized call; the update sweep itself is strictly
    sequential and runs on Python floats, which the interpreter reads far
    faster than numpy scalars.  With one statistic (K = 1, the univariate
    AR(1) case) theta is a single float updated from a flat list of the
    column; otherwise each row is a list and the margin is summed term by
    term from 0.0.  Both sweeps do the same floating-point operations in the
    same order: the one-term margin th * x differs from 0.0 + th * x at
    most in the sign of a zero, which neither the ``_EXP_MAX`` test nor
    exp(margin) can see, so theta is bitwise the same either way.
    """
    start = time.perf_counter()
    lo, hi = _interior_bounds(spec, series)
    K = spec.n_terms
    eta = config.eta

    pairs_start = time.perf_counter()
    s1, s2 = _uniform_pairs(np.random.default_rng(config.seed), lo, hi, config.n_iters)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused just below
        X = swap_deltas(spec, series, s1, s2)
    del s1, s2
    # a nan margin would fail the ``_EXP_MAX`` test and skip its update unseen
    _check_finite_statistics(spec, X, "pair statistics")
    _check_identified((X,))
    np.negative(X, out=X)
    loop_start = time.perf_counter()
    # rows are turned into lists a few at a time so that few list objects
    # are alive at once (16384 at a time raised peak RSS 2 MiB)
    exp, limit = math.exp, _EXP_MAX
    if K == 1:
        th = 0.0
        for sl in range(0, config.n_iters, _SGD_LIST_ROWS):
            for x in X[sl : sl + _SGD_LIST_ROWS, 0].tolist():
                margin = th * x
                if margin < limit:
                    th += eta / (1.0 + exp(margin)) * x
        theta = [th]
    else:
        theta = [0.0] * K
        terms = range(K)
        for sl in range(0, config.n_iters, _SGD_LIST_ROWS):
            for row in X[sl : sl + _SGD_LIST_ROWS].tolist():
                margin = 0.0
                for k in terms:
                    margin += theta[k] * row[k]
                if margin < limit:
                    w = eta / (1.0 + exp(margin))
                    for k in terms:
                        theta[k] += w * row[k]

    theta_arr = np.asarray(theta)
    solved = time.perf_counter()
    final_log_pl = log_pl(theta_arr, X)
    stages = {
        "pairs_s": loop_start - pairs_start,
        "solver_s": solved - loop_start,
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


def _matching(rng: np.random.Generator, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A uniformly random matching of ``positions``: one permutation, paired
    off in order, as (smaller, larger) index arrays.  With an odd count the
    last permuted position stays unpaired."""
    paired = rng.permutation(positions)[: len(positions) // 2 * 2].reshape(-1, 2)
    return paired.min(axis=1), paired.max(axis=1)


def _spaced_positions(n: int, d: int) -> np.ndarray:
    """Interior positions d, 3d + 1, 5d + 2, ... of a length-n series."""
    return np.arange(d, n - d, 2 * d + 1, dtype=np.intp)


def spaced_matching(n: int, d: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Random matching of interior positions thinned to spacing 2d + 1.

    Each retained position's swap neighborhood (the data span [s - d, s + d]
    touched by its windows) is disjoint from every other retained position's,
    so the pseudo-likelihood factors built from the matched pairs are nearly
    independent.  This keeps information-criterion penalties calibrated when
    ranking dependence specs; see :func:`select_specs`.  ``n`` and ``d``
    are integers >= 1 (else ParameterDomainError).
    """
    _check_count("n", n)
    _check_count("d", d)
    positions = _spaced_positions(n, d)
    if len(positions) < 2:
        raise InsufficientInteriorError(
            f"series too short for a spaced matching (n={n}, d={d})"
        )
    return _matching(np.random.default_rng(seed), positions)


def aic_pic(log_pl_at_opt: float, K: int, n: int, d: int) -> tuple[float, float]:
    """Information criteria for a pseudo-likelihood fit:

        AIC = -2 log L + 2 K
        PIC = -2 log L + K * log C(n - 2d, 2)
    """
    _check_count("K", K)
    n_pairs = n_interior_pairs(n, d)
    if n_pairs == 0:
        raise InsufficientInteriorError(f"need n - 2d >= 2, got {n - 2 * d}")
    aic = -2.0 * log_pl_at_opt + 2.0 * K
    pic = -2.0 * log_pl_at_opt + K * math.log(n_pairs)
    return aic, pic


# model selection compares log-PL values across candidate specs, so every
# candidate is fitted to a tighter tolerance than the single-fit default
SELECT_CONFIG = GdConfig(max_epochs=2000, tol=1e-8)


class SelectRow(NamedTuple):
    """One spec's scores from :func:`select_specs`, with ``converged`` the
    number of its split fits that converged; a spec that could not be
    scored has only ``error`` set."""

    K: int | None = None
    log_pl: float | None = None
    aic: float | None = None
    pic: float | None = None
    error: str | None = None
    converged: int | None = None


def select_specs(
    series: TimeSeries,
    specs: Sequence[DependenceSpec],
    seed=0,
    splits: int = 9,
    config: GdConfig = SELECT_CONFIG,
) -> list[SelectRow]:
    """Score dependence specs for AIC/PIC ranking on one shared
    pseudo-likelihood design; one row per spec, in input order.

    Log-PL values are comparable across specs only over the same pairs:
    pair counts that differ with the spec order shift the baseline by far
    more than any penalty.  So every spec is padded to the largest feasible
    order and fitted by :func:`fit_pairs` on the same ``splits``
    :func:`spaced_matching` designs, one per child of
    ``SeedSequence(seed)``.  The disjoint swap neighborhoods keep an
    overparametrized spec from buying spurious fit, and averaging the
    log-PL over the designs concentrates its chance gain near the mean.
    Each spec's first split starts from theta = 0, and every later one from
    the theta of the split before it when that fit converged, else from
    zero: the splits fit one spec to one series, so their maximizers lie
    close together.  ``converged`` counts the splits whose fit converged;
    the log-PL of one that did not enters the mean all the same.

    A spec whose order leaves fewer than two spaced positions, or whose fit
    fails with a library, linear-algebra or floating-point error, gets an
    error row; any other exception propagates.  Raises ``ValueError`` for
    an empty spec list and :class:`InsufficientInteriorError` when no spec
    is feasible.
    """
    _check_count("splits", splits)
    if not specs:
        raise ValueError("need at least one spec")
    feasible = [len(_spaced_positions(series.n, spec.order)) >= 2 for spec in specs]
    if not any(feasible):
        raise InsufficientInteriorError("every spec order is too large for this series length")
    max_d = max(spec.order for spec, ok in zip(specs, feasible) if ok)
    designs = [
        spaced_matching(series.n, max_d, child)
        for child in np.random.SeedSequence(seed).spawn(splits)
    ]
    rows = []
    for spec, ok in zip(specs, feasible):
        if not ok:
            rows.append(SelectRow(error=f"order {spec.order} is too large for series length {series.n}"))
            continue
        try:
            padded = DependenceSpec(order=max_d, dim=spec.dim, terms=spec.terms)
            fits, start = [], None
            for s1, s2 in designs:
                # fit_pairs is looked up here at call time: bench/ wraps it
                fits.append(fit_pairs(padded, series, s1, s2, config, start=start))
                start = fits[-1].theta if fits[-1].converged else None
            mean = float(np.mean([fit.log_pl for fit in fits]))
            converged = sum(fit.converged for fit in fits)
            rows.append(
                SelectRow(padded.n_terms, mean, *aic_pic(mean, padded.n_terms, series.n, max_d), converged=converged)
            )
        except (MimmError, np.linalg.LinAlgError, FloatingPointError) as err:
            rows.append(SelectRow(error=str(err)))
    return rows

"""Maximum conditional likelihood estimation.

The conditional likelihood of the observed ordering, given the multiset of
values with the first and last d positions frozen, is an exponential family
over interior permutations whose normalizer cancels all intractable marginal
terms.  Sampling runs a Metropolis-Hastings chain over interior
transpositions (the exchange algorithm); estimation is Fisher scoring with
the chain's moment estimates of the sufficient statistic.

One chain is strictly sequential; independent chains with different seeds
may run in parallel.  Fisher scoring consumes one chain per iteration, with
per-sample statistics retained instead of permutations (memory O(L K)).

Each step is scalar Python, so its cost is interpreter overhead per
proposal.  A far pair (s2 - s1 > d) takes the factored form of
:mod:`mimm.core` with the neighbour sums ``S_g`` read on the fly from the
power rows of the current ordering, and an accepted swap exchanges two
rows; a near pair re-evaluates its windows directly.  Both give the swap
delta of the direct path to rounding, so the chain makes the same moves.
Every chain reports its effective sample size and split-R-hat per
statistic.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    DependenceSpec,
    TimeSeries,
    _far_swap_terms,
    _swap_delta_rows,
    _term_factor_tuples,
    total_statistic,
)
from .exceptions import (
    IllConditionedError,
    InsufficientInteriorError,
    ShapeMismatchError,
)

__all__ = [
    "ExchangeConfig",
    "ScoringConfig",
    "ExchangeResult",
    "McleResult",
    "log_ratio_swap",
    "effective_sample_size",
    "split_rhat",
    "exchange_sample",
    "fisher_scoring",
]


@dataclass(frozen=True)
class ExchangeConfig:
    """Chain length, burn-in (default n_samples // 10), thinning, seed."""

    n_samples: int = 10_000
    burn_in: int | None = None
    thin: int = 1
    seed: int | None = None

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.burn_in is not None and self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.thin < 1:
            raise ValueError(f"thin must be >= 1, got {self.thin}")

    @property
    def effective_burn_in(self) -> int:
        return self.n_samples // 10 if self.burn_in is None else self.burn_in


@dataclass(frozen=True)
class ScoringConfig:
    """Fisher-scoring stopping rule: at most ``max_iters`` iterations, or
    convergence once ||H_obs - mu|| < grad_tol * (1 + ||H_obs||).
    ``max_iters`` must be >= 1 and ``grad_tol`` finite and > 0, or
    construction raises ``ValueError``.  The step damping and the covariance
    ridge are fixed; see :func:`fisher_scoring`."""

    max_iters: int = 30
    grad_tol: float = 0.01

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0.0 < self.grad_tol < math.inf:
            raise ValueError(f"grad_tol must be finite and > 0, got {self.grad_tol}")


def effective_sample_size(samples) -> np.ndarray:
    """Effective sample size of each column of a chain, shape (L, K) or (L,)
    -> (K,), by Geyer's initial monotone sequence estimator (Statist. Sci.
    7:473, 1992).

    The autocorrelations rho_t come from one FFT per column.  Their adjacent
    pair sums rho_2m + rho_2m+1 are kept up to the first one that is not
    positive and made non-increasing; with tau = -1 + 2 * (their sum), the
    effective size is L / tau.  As in Stan, tau is floored at 1 / log10(L),
    which keeps an antithetic chain (negative rho_1, as in a chain that
    alternates between two states) finite and positive.  A constant
    column, or a chain of fewer than 4 samples, gives nan.
    """
    x = np.asarray(samples, dtype=float).reshape(len(samples), -1)
    L, K = x.shape
    out = np.full(K, np.nan)
    if L < 4:
        return out
    # at least 2L - 1 points, so the circular correlation does not wrap
    # around; rounded up to a multiple of 2^(bits - 4), so the length has
    # small factors (fast) while padding by at most 1/8, not the up to 2x of
    # the next power of two
    step = 1 << max(0, (2 * L - 1).bit_length() - 4)
    size = -(-(2 * L - 1) // step) * step
    f = np.fft.rfft(x - x.mean(axis=0), n=size, axis=0)
    acov = np.fft.irfft(f.real**2 + f.imag**2, n=size, axis=0)[: L - L % 2]
    for k in range(K):
        if x[:, k].min() == x[:, k].max():
            continue
        pairs = (acov[:, k] / acov[0, k]).reshape(-1, 2).sum(axis=1)
        stop = np.flatnonzero(pairs <= 0.0)
        if stop.size:
            pairs = pairs[: stop[0]]
        tau = -1.0 + 2.0 * np.minimum.accumulate(pairs).sum()
        out[k] = L / max(tau, 1.0 / math.log10(L))
    return out


def split_rhat(samples) -> np.ndarray:
    """Split potential scale reduction of each column of a chain, shape
    (L, K) or (L,) -> (K,): the Gelman-Rubin statistic (Statist. Sci. 7:457,
    1992) of the chain's first and second halves (the middle sample of an
    odd-length chain is dropped).  Near 1 when the halves agree; a chain
    still drifting reads above 1.  A column constant within both halves,
    or a chain of fewer than 4 samples, gives nan (inf when the two
    constants differ).
    """
    x = np.asarray(samples, dtype=float).reshape(len(samples), -1)
    h = len(x) // 2
    if h < 2:
        return np.full(x.shape[1], np.nan)
    halves = np.stack([x[:h], x[len(x) - h :]])
    within = halves.var(axis=1, ddof=1).mean(axis=0)
    between = halves.mean(axis=1).var(axis=0, ddof=1)  # B / h
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sqrt(((h - 1) / h * within + between) / within)


@dataclass(frozen=True, eq=False)
class ExchangeResult:
    """One exchange chain; ``ess`` and ``split_rhat`` are its per-statistic
    mixing diagnostics (:func:`effective_sample_size`, :func:`split_rhat`),
    computed on first access."""

    stats: np.ndarray  # (L, K) sufficient statistics of the sampled orderings
    acceptance_rate: float
    n_steps: int

    @functools.cached_property
    def ess(self) -> np.ndarray:
        return effective_sample_size(self.stats)

    @functools.cached_property
    def split_rhat(self) -> np.ndarray:
        return split_rhat(self.stats)


@dataclass(frozen=True, eq=False)
class McleResult:
    """Fisher-scoring summary.  The traces hold one entry per iteration;
    ``ess_trace`` and ``split_rhat_trace`` give the chain's per-statistic
    diagnostics (nan when the moments came from ``moment_fn``).
    ``n_steps`` counts the MH steps of all chains.  ``stages`` gives seconds
    spent obtaining the moments (``sampler_s``: the chains, or
    ``moment_fn``), computing the chain diagnostics (``diagnostics_s``) and
    in the scoring updates (``solve_s``: moments, covariance and the linear
    solve); the rest of ``wall_time_s`` is set-up."""

    theta: np.ndarray
    iterations: int
    final_acceptance_rate: float
    score_norm_trace: tuple[float, ...]
    theta_trace: tuple[tuple[float, ...], ...]
    acceptance_trace: tuple[float, ...]
    converged: bool
    wall_time_s: float
    n_steps: int = 0
    stages: dict[str, float] | None = None
    ess_trace: tuple[tuple[float, ...], ...] = ()
    split_rhat_trace: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self):
        if not (0.0 <= self.final_acceptance_rate <= 1.0):
            raise ValueError("acceptance rate must lie in [0, 1]")


def log_ratio_swap(theta, delta) -> float:
    """Log conditional-likelihood ratio of a proposed transposition: the
    normalizers cancel, leaving theta . delta."""
    theta = np.asarray(theta, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if theta.shape != delta.shape:
        raise ShapeMismatchError(f"theta shape {theta.shape} != delta shape {delta.shape}")
    return float(theta @ delta)


def _validate_theta(spec: DependenceSpec, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.n_terms,):
        raise ShapeMismatchError(
            f"theta shape {theta.shape} does not match K = {spec.n_terms}"
        )
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta contains non-finite values")
    return theta


_RECOMPUTE_EVERY = 8192  # refresh the running statistic to kill float drift
_PROPOSAL_BLOCK = 4096


def exchange_sample(
    spec: DependenceSpec,
    series: TimeSeries,
    theta,
    config: ExchangeConfig = ExchangeConfig(),
    rng: np.random.Generator | None = None,
) -> ExchangeResult:
    """Metropolis-Hastings over interior transpositions targeting the
    conditional law of orderings under dependence weights ``theta``.

    Proposals are uniform over interior pairs; a move is accepted with
    probability min(1, exp(theta . delta)).  After burn-in the sufficient
    statistic of the current ordering is recorded every ``thin`` steps (the
    statistic, not the permutation, is retained).  The acceptance rate is
    reported over all proposals including burn-in.

    A far pair (s2 - s1 > d) takes the factored step
    (:func:`core._far_swap_terms`) on the power rows of the current
    ordering; a near pair re-evaluates its windows on the permuted data
    rows (:func:`core._swap_delta_rows`).
    """
    theta = _validate_theta(spec, theta)
    d = spec.order
    n = series.n
    m = n - 2 * d
    if m < 2:
        raise InsufficientInteriorError(
            f"need at least 2 interior positions, got {m} (n={n}, d={d})"
        )
    if rng is None:
        rng = np.random.default_rng(config.seed)

    table = spec._table
    terms = _term_factor_tuples(spec)
    K = spec.n_terms
    th = [float(v) for v in theta]
    group_k = [k for k, _, _ in table.groups]
    group_th = [th[k] for k in group_k]
    every_k = range(K)
    # data row and power row at each position of the current ordering
    rows = list(series.rows())
    powers = list(map(tuple, table.powers(series.data).tolist()))
    current = [float(v) for v in total_statistic(spec, series)]

    burn = config.effective_burn_in
    total_steps = burn + config.n_samples * config.thin
    recorded: list[float] = []  # the recorded statistics, row after row
    next_record = burn + config.thin  # step count at the next record
    accepted = 0
    for first in range(0, total_steps, _PROPOSAL_BLOCK):
        block_a = rng.integers(0, m, size=_PROPOSAL_BLOCK).tolist()
        block_b = rng.integers(0, m - 1, size=_PROPOSAL_BLOCK).tolist()
        block_logu = np.log(rng.random(size=_PROPOSAL_BLOCK)).tolist()
        steps = range(first + 1, min(first + _PROPOSAL_BLOCK, total_steps) + 1)
        for step, a, b, logu in zip(steps, block_a, block_b, block_logu):
            if b >= a:
                b += 1
            s1, s2 = (a + d, b + d) if a < b else (b + d, a + d)
            if s2 - s1 > d:
                parts = _far_swap_terms(table, powers, s1, s2)
                weights, keys = group_th, group_k
            else:
                parts = _swap_delta_rows(rows, d, terms, s1, s2)
                weights, keys = th, every_k
            logr = 0.0
            for w, v in zip(weights, parts):
                logr += w * v
            if logu <= logr:
                for k, v in zip(keys, parts):
                    current[k] += v
                rows[s1], rows[s2] = rows[s2], rows[s1]
                powers[s1], powers[s2] = powers[s2], powers[s1]
                accepted += 1

            if step % _RECOMPUTE_EVERY == 0:
                permuted = TimeSeries(rows, kinds=series.kinds)
                current = [float(v) for v in total_statistic(spec, permuted)]
            if step == next_record:
                recorded.extend(current)
                next_record += config.thin

    return ExchangeResult(
        stats=np.array(recorded).reshape(config.n_samples, K),
        acceptance_rate=accepted / total_steps,
        n_steps=total_steps,
    )


def fisher_scoring(
    spec: DependenceSpec,
    series: TimeSeries,
    theta0=None,
    exchange_config: ExchangeConfig = ExchangeConfig(),
    scoring_config: ScoringConfig = ScoringConfig(),
    moment_fn=None,
) -> McleResult:
    """Maximize the conditional likelihood by Fisher scoring.

    Each iteration estimates the mean and covariance of the sufficient
    statistic under the current weights (from one exchange chain, or from
    ``moment_fn(theta) -> (mu, cov)`` when supplied, e.g. exact enumeration)
    and updates theta by damping * (cov + ridge I)^{-1} (H_obs - mu): the
    score of the conditional log-likelihood is the observed statistic minus
    its model expectation.  The ridge is 1e-8 * tr(cov) / K; while the solve
    fails it is raised tenfold (to at least 1e-12), six tries in all.  The
    damping starts at 1; it halves, down to 1/16, whenever the score norm
    increased relative to the previous iteration, and otherwise grows by
    1.5x back up to 1.

    Stops when ||H_obs - mu|| < grad_tol * (1 + ||H_obs||) or at max_iters.
    """
    start = time.perf_counter()
    K = spec.n_terms
    h_obs = total_statistic(spec, series)
    theta = np.zeros(K) if theta0 is None else _validate_theta(spec, theta0).copy()
    rng = np.random.default_rng(exchange_config.seed)

    score_norms: list[float] = []
    thetas: list[tuple[float, ...]] = []
    acc_rates: list[float] = []
    ess_trace: list[tuple[float, ...]] = []
    rhat_trace: list[tuple[float, ...]] = []
    converged = False
    damping = 1.0
    prev_norm = math.inf
    h_scale = 1.0 + float(np.linalg.norm(h_obs))
    iterations = 0
    n_steps = 0
    stages = {"sampler_s": 0.0, "diagnostics_s": 0.0, "solve_s": 0.0}

    for _ in range(scoring_config.max_iters):
        iterations += 1
        tick = time.perf_counter()
        if moment_fn is not None:
            mu, cov = moment_fn(theta)
            sampled = diagnosed = time.perf_counter()
            mu = np.asarray(mu, dtype=float)
            cov = np.atleast_2d(np.asarray(cov, dtype=float))
            acc = 1.0
            ess_trace.append((math.nan,) * K)
            rhat_trace.append((math.nan,) * K)
        else:
            chain = exchange_sample(spec, series, theta, exchange_config, rng=rng)
            sampled = time.perf_counter()
            ess_trace.append(tuple(float(v) for v in chain.ess))
            rhat_trace.append(tuple(float(v) for v in chain.split_rhat))
            diagnosed = time.perf_counter()
            n_steps += chain.n_steps
            mu = chain.stats.mean(axis=0)
            centered = chain.stats - mu
            cov = centered.T @ centered / len(chain.stats)
            acc = chain.acceptance_rate
        stages["sampler_s"] += sampled - tick
        stages["diagnostics_s"] += diagnosed - sampled

        score = h_obs - mu
        snorm = float(np.linalg.norm(score))
        score_norms.append(snorm)
        thetas.append(tuple(float(v) for v in theta))
        acc_rates.append(acc)

        if snorm < scoring_config.grad_tol * h_scale:
            converged = True
            stages["solve_s"] += time.perf_counter() - diagnosed
            break

        ridge = 1e-8 * float(np.trace(cov)) / K
        step = None
        bump = ridge
        for _ in range(6):
            try:
                step = np.linalg.solve(cov + bump * np.eye(K), score)
                break
            except np.linalg.LinAlgError:
                bump = max(bump * 10.0, 1e-12)
        if step is None or not np.all(np.isfinite(step)):
            raise IllConditionedError(
                f"moment covariance not invertible (trace {np.trace(cov):.3g}, "
                f"ridge {bump:.3g}); the chain may be degenerate"
            )

        if snorm > prev_norm:
            damping = max(damping * 0.5, 1.0 / 16.0)
        else:
            damping = min(1.0, damping * 1.5)
        theta = theta + damping * step
        prev_norm = snorm
        stages["solve_s"] += time.perf_counter() - diagnosed

    return McleResult(
        theta=theta,
        iterations=iterations,
        final_acceptance_rate=acc_rates[-1] if acc_rates else 1.0,
        score_norm_trace=tuple(score_norms),
        theta_trace=tuple(thetas),
        acceptance_trace=tuple(acc_rates),
        converged=converged,
        wall_time_s=time.perf_counter() - start,
        n_steps=n_steps,
        stages=stages,
        ess_trace=tuple(ess_trace),
        split_rhat_trace=tuple(rhat_trace),
    )
